//! Property test of the point-lookup miss path: admission is decided for a
//! whole batch before any byte moves, a shard the cache takes streams
//! whole, and a shard it refuses is read by the row or by the block,
//! whichever the cost model prices lower. None of the oracles below
//! depends on what an earlier version of the server did:
//!
//! * (a) every returned row is the table's row, bit for bit;
//! * (b) the server's byte ledger equals the hetmem counters tier by tier,
//!   and every injected fault resolves exactly once;
//! * (c) without faults, no fetch costs more simulated time than streaming
//!   and staging its whole shard would have, and costs exactly that when
//!   (and only when) its span says the block was read; a shard the cache
//!   refuses takes the cheaper of its two reads (checked where the batch
//!   alone tells what was refused: with no cache); what the spans say was
//!   read is what the ledger counted; and on an SSD, which pays per IO, no
//!   fetch gathers a second row;
//! * (d) responses, per-request latencies, the simulated clock, the ledger
//!   and the traffic summary are identical at 1, 2 and 8 threads, with the
//!   recorder listening or not.
//!
//! The fault plan's seed comes from `OMEGA_FAULT_SEED` when set, like the
//! chaos suite's.

use omega_embed::Embedding;
use omega_faults::{install_plan, FaultPlanSpec};
use omega_hetmem::{
    AccessOp, AccessPattern, DeviceKind, MemSystem, Placement, ThreadMem, Topology,
};
use omega_obs::{Recorder, Track};
use omega_par::{with_dispatch_policy, DispatchPolicy};
use omega_serve::{
    EmbedServer, Popularity, Request, RequestStream, Response, ServeConfig, WorkloadConfig,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeMap, BTreeSet};

const DIMS: [usize; 5] = [1, 8, 32, 64, 100];
const HOT: Placement = Placement::node(0, DeviceKind::Dram);

fn plan_seed() -> u64 {
    std::env::var("OMEGA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1729)
}

/// One drawn scenario.
#[derive(Debug, Clone)]
struct Case {
    emb: Embedding,
    rows_per_shard: usize,
    cache_bytes: u64,
    cold: Placement,
    faulted: bool,
    batches: Vec<Vec<Request>>,
}

/// Everything a run exposes that must not depend on the thread count.
#[derive(Debug, PartialEq)]
struct Observed {
    rows: Vec<Vec<f32>>,
    latencies: Vec<u64>,
    sim_now_ns: u64,
    ledger: String,
    traffic: String,
}

/// What a clean run's `serve.fetch` spans say: `(shard, rows, sim ns)`.
type Fetches = Vec<(usize, u64, u64)>;

fn run(case: &Case, threads: usize, recorded: bool) -> (EmbedServer, Observed, Fetches) {
    let mut sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
    if case.faulted {
        let device = case.cold.device();
        let plan = FaultPlanSpec::new(plan_seed())
            .with_transient(device, 0.3, 3_000)
            .with_timeout(device, 0.1, 40_000);
        sys = install_plan(&sys, plan);
    }
    let cfg = ServeConfig::new(case.cache_bytes)
        .rows_per_shard(case.rows_per_shard)
        .cold(case.cold)
        .threads(threads);
    let rec = if recorded {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let mut srv = EmbedServer::new(&sys, &case.emb, cfg)
        .unwrap()
        .with_recorder(&rec, Track::MAIN);
    let (mut rows, mut latencies) = (Vec::new(), Vec::new());
    // Forced onto the pool, so threads 2 and 8 really fan out on any host.
    with_dispatch_policy(DispatchPolicy::always_parallel(), || {
        for batch in &case.batches {
            let result = srv.serve_batch(batch);
            latencies.extend(result.sim_latency_ns);
            rows.extend(result.responses.into_iter().map(|resp| match resp {
                Response::Vector(row) => row,
                Response::Neighbors(_) => panic!("a Get answered with neighbours"),
            }));
        }
    });
    let arg = |span: &omega_obs::SpanRecord, key: &str| -> u64 {
        let found = span.args.iter().find(|(k, _)| k == key);
        found
            .unwrap_or_else(|| panic!("serve.fetch span without `{key}`"))
            .1
            .parse()
            .unwrap()
    };
    let fetches = rec
        .spans()
        .iter()
        .filter(|span| span.name == "serve.fetch")
        .map(|span| {
            (
                arg(span, "shard") as usize,
                arg(span, "rows"),
                span.sim_dur_ns,
            )
        })
        .collect();
    let observed = Observed {
        rows,
        latencies,
        sim_now_ns: srv.sim_now().as_nanos(),
        ledger: format!("{:?}", srv.stats()),
        traffic: format!("{:?}", srv.traffic()),
    };
    (srv, observed, fetches)
}

fn check(case: &Case) -> Result<(), TestCaseError> {
    let (srv, observed, fetches) = run(case, 1, true);

    // (a) Answers.
    let asked = case.batches.iter().flatten();
    prop_assert_eq!(observed.rows.len(), asked.clone().count());
    for (req, row) in asked.zip(&observed.rows) {
        let want = case.emb.vector(req.node);
        prop_assert!(
            row.iter()
                .map(|x| x.to_bits())
                .eq(want.iter().map(|x| x.to_bits())),
            "node {}",
            req.node
        );
    }

    // (b) Ledger identities.
    let (st, traffic) = (srv.stats(), srv.traffic());
    let (cold_bytes, other_bytes) = match case.cold.device() {
        DeviceKind::Ssd => (traffic.ssd_bytes, traffic.pm_bytes),
        _ => (traffic.pm_bytes, traffic.ssd_bytes),
    };
    prop_assert_eq!(cold_bytes, st.cold_read_bytes);
    prop_assert_eq!(other_bytes, 0);
    prop_assert_eq!(traffic.dram_bytes, st.dram_read_bytes + st.dram_write_bytes);
    prop_assert_eq!(
        st.faults_injected,
        st.faults_retried + st.hedges_won + st.degraded
    );
    prop_assert_eq!(st.hits + st.misses, st.requests);
    if !case.faulted {
        prop_assert_eq!(st.faults_injected, 0);
    }

    // (c) Prices, read off the spans of a fault-free run (one `serve.fetch`
    // span per fetch) against the model's own price of the whole shard and
    // of `n` rows gathered one by one, each read and staged.
    if !case.faulted {
        let model = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
        let row_bytes = (case.emb.dim() * 4) as u64;
        let price = |pattern, bytes: u64, accesses: u64| {
            let mut ctx = ThreadMem::new(0, model.topology().nodes());
            ctx.charge_block(case.cold, AccessOp::Read, pattern, bytes, accesses);
            ctx.charge_block(HOT, AccessOp::Write, AccessPattern::Seq, bytes, 1);
            model.model().thread_time(ctx.counters(), 1).as_nanos()
        };
        // With no cache every request misses and every shard is refused,
        // so what each fetch had to read is known from the batch alone:
        // the distinct nodes asked of each shard, in ascending shard order.
        let wanted: Option<Vec<(usize, u64)>> = (case.cache_bytes == 0).then(|| {
            let mut wanted = Vec::new();
            for batch in &case.batches {
                let nodes: BTreeSet<u32> = batch.iter().map(|req| req.node).collect();
                let mut per_shard = BTreeMap::new();
                for node in nodes {
                    *per_shard.entry(srv.store().shard_of(node)).or_insert(0) += 1;
                }
                wanted.extend(per_shard);
            }
            wanted
        });
        if let Some(wanted) = &wanted {
            prop_assert_eq!(fetches.len(), wanted.len());
        }
        prop_assert_eq!(fetches.len() as u64, st.fetches);
        let mut read = 0;
        for (i, &(sid, rows, sim_ns)) in fetches.iter().enumerate() {
            let shard_bytes = srv.store().shard_bytes(sid);
            let block_ns = price(AccessPattern::Seq, shard_bytes, 1);
            prop_assert!(
                sim_ns <= block_ns,
                "shard {sid}: {rows} rows cost {sim_ns} ns, the block {block_ns} ns"
            );
            prop_assert_eq!(
                sim_ns == block_ns,
                rows == 0,
                "shard {}: {} rows cost {} ns, the block {} ns",
                sid,
                rows,
                sim_ns,
                block_ns
            );
            if case.cold.device() == DeviceKind::Ssd {
                prop_assert!(rows <= 1, "shard {sid}: {rows} rows gathered on an SSD");
            }
            if let Some(wanted) = &wanted {
                // A refused shard takes the cheaper of its two reads.
                let (want_sid, n) = wanted[i];
                let rows_ns = price(AccessPattern::Rand, n * row_bytes, n);
                prop_assert_eq!(sid, want_sid);
                prop_assert_eq!(sim_ns, block_ns.min(rows_ns), "shard {}: {} rows", sid, n);
                prop_assert_eq!(rows, if rows_ns < block_ns { n } else { 0 });
            }
            read += if rows == 0 {
                shard_bytes
            } else {
                rows * row_bytes
            };
        }
        prop_assert_eq!(read, st.cold_read_bytes);
        prop_assert_eq!(read, st.dram_write_bytes);
    }

    // (d) Thread count and recorder are wall-clock knobs.
    for threads in [2, 8] {
        let (_, other, _) = run(case, threads, false);
        prop_assert_eq!(&other, &observed, "threads {}", threads);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lookups_cost_no_more_than_their_shards_and_answer_the_table(
        (d_pick, rows_per_shard, full_shards, tail_pick) in (0usize..5, 2usize..24, 1u32..12, 0u32..64),
        (cache_pick, cold_pick, zipf, faulted) in (0u8..4, 0u8..3, any::<bool>(), any::<bool>()),
        seed in 0u64..1_000,
        dups in proptest::collection::vec((0usize..24, 0usize..24), 0..12),
    ) {
        // A ragged tail: the last shard holds 1..rows_per_shard rows.
        let tail = 1 + tail_pick % (rows_per_shard as u32 - 1);
        let nodes = full_shards * rows_per_shard as u32 + tail;
        let d = DIMS[d_pick];
        let data: Vec<f32> = (0..nodes as usize * d)
            .map(|i| ((i as u64 * 2_654_435_761 + seed) % 1_999) as f32 * 0.25 - 250.0)
            .collect();
        let shard_bytes = (rows_per_shard * d * 4) as u64;
        // No shard, one, a few, all of them.
        let cache_shards = [0, 1, 3, full_shards as u64 + 1][cache_pick as usize];
        let popularity = if zipf {
            Popularity::Zipf { s: 1.0 }
        } else {
            Popularity::Uniform
        };
        let mut stream = RequestStream::new(WorkloadConfig::lookups(nodes, popularity, seed));
        let mut batches: Vec<Vec<Request>> = (0..6).map(|_| stream.take_requests(24)).collect();
        // Duplicate nodes inside a batch, beyond what the stream repeats.
        for (i, &(to, from)) in dups.iter().enumerate() {
            let batch = &mut batches[i % 6];
            batch[to] = batch[from];
        }
        check(&Case {
            emb: Embedding::from_row_major(nodes, d, data),
            rows_per_shard,
            cache_bytes: cache_shards * shard_bytes,
            cold: [
                Placement::node(0, DeviceKind::Pm),
                Placement::node(0, DeviceKind::Ssd),
                Placement::interleaved(DeviceKind::Pm),
            ][cold_pick as usize],
            faulted,
            batches,
        })?;
    }
}
