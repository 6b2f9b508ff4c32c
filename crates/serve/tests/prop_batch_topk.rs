//! Property test of batched top-k: a batch's top-k requests are scored
//! together in one pass over the table, so every way that pass could mix
//! queries up is on trial — a selector shared between two requests, a
//! request's own `k` or probe count applied to its neighbour, a list read
//! by some queries of the batch and not others, a task boundary falling
//! inside a tie group.
//!
//! The contract: each request gets exactly what it would get alone.
//! Exact servers, and IVF servers probing every list, answer
//! `Embedding::top_k` bit for bit; an IVF request with a smaller probe
//! count answers what `top_k_nprobe` returns for that query on its own.
//! Gets in between come back as the table's rows, in arrival order.
//!
//! The batch is also *charged* together, as the one pass the host runs:
//! each block once, whatever its reader count. So, fault-free, the pass
//! costs no more than the batch's top-k queries charged alone, one after
//! another (up to the one nanosecond a query that rounding each charge on
//! its own can give back), and a batch with one top-k query is charged
//! exactly as alone. The byte ledger matches the hetmem counters either
//! way, and under the `OMEGA_FAULT_SEED` plan every injected fault
//! resolves exactly once.

use omega_embed::{Embedding, Metric};
use omega_faults::{install_plan, FaultPlanSpec};
use omega_hetmem::{DeviceKind, MemSystem, Placement, Topology};
use omega_par::{with_dispatch_policy, DispatchPolicy};
use omega_serve::{
    BatchResult, EmbedServer, IndexMode, Request, RequestKind, Response, ServeConfig,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Cold tiers a draw picks from: PM stages shared blocks, SSD stages them
/// too, and a DRAM "cold" tier never does.
const COLD: [DeviceKind; 3] = [DeviceKind::Pm, DeviceKind::Ssd, DeviceKind::Dram];

fn plan_seed() -> u64 {
    std::env::var("OMEGA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1729)
}

/// Tie-rich embeddings: entries drawn from a tiny value alphabet, so equal
/// scores are common and a skewed k-means leaves lists empty.
fn tie_rich_embedding(nodes: u32, d: usize, seed: u64) -> Embedding {
    let alphabet = [-1.0f32, 0.0, 0.5, 1.0];
    let data: Vec<f32> = (0..nodes as u64 * d as u64)
        .map(|i| alphabet[((i * 2_654_435_761 + seed * 97) % 4) as usize])
        .collect();
    Embedding::from_row_major(nodes, d, data)
}

/// The batch a draw describes: request `i` reads node `picks[i].0` (drawn
/// from a narrow range, so query nodes repeat) and is a Get or a top-k
/// with its own `k` and its own probe count.
fn batch(picks: &[(u32, u8, u8)], nodes: u32, probes: &[Option<usize>]) -> Vec<Request> {
    picks
        .iter()
        .map(|&(pick, k_kind, probe_kind)| {
            let n = nodes as usize;
            let kind = match k_kind % 6 {
                0 | 1 => RequestKind::Get,
                2 => RequestKind::TopK { k: 0, nprobe: None },
                3 => RequestKind::TopK {
                    k: (n / 3).max(1),
                    nprobe: probes[probe_kind as usize % probes.len()],
                },
                4 => RequestKind::TopK {
                    k: 7,
                    nprobe: probes[probe_kind as usize % probes.len()],
                },
                _ => RequestKind::TopK {
                    k: n + 13,
                    nprobe: probes[probe_kind as usize % probes.len()],
                },
            };
            Request {
                node: pick % nodes.min(9),
                kind,
            }
        })
        .collect()
}

fn same_bits(got: &[(u32, f32)], want: &[(u32, f32)]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.0, w.0, "rank {} picked node {} not {}", i, g.0, w.0);
        prop_assert_eq!(g.1.to_bits(), w.1.to_bits(), "rank {} score bits", i);
    }
    Ok(())
}

/// Each request's simulated latency with every top-k query of the batch
/// charged on its own: a twin server serves the batch's nodes as Gets —
/// the same fetch phase and the same lookups, since a top-k request
/// resolves its query row like a Get — then answers each top-k query alone
/// with `top_k_nprobe`, in arrival order. Scans never touch cache state,
/// so each is charged against the residency the batch saw.
fn charged_alone(
    sys: &MemSystem,
    emb: &Embedding,
    cfg: ServeConfig,
    requests: &[Request],
) -> (Vec<u64>, EmbedServer) {
    let mut twin = EmbedServer::new(sys, emb, cfg).unwrap();
    let gets: Vec<u32> = requests.iter().map(|req| req.node).collect();
    let lookups = twin.serve_batch(&Request::gets(&gets)).sim_latency_ns;
    let mut top_k_ns = 0;
    let latencies = requests
        .iter()
        .zip(lookups)
        .map(|(req, ns)| {
            if let RequestKind::TopK { k, nprobe } = req.kind {
                let start = twin.sim_now();
                twin.top_k_nprobe(emb.vector(req.node), k, nprobe);
                top_k_ns += (twin.sim_now() - start).as_nanos();
            }
            ns + top_k_ns
        })
        .collect();
    (latencies, twin)
}

/// The charge side of one served batch: the ledger against the hetmem
/// counters always, every fault resolved once under a plan, and
/// fault-free the pass against the batch's top-k queries charged alone in
/// sequence — equal for one top-k query, no dearer for several.
fn check_charges(
    sys: &MemSystem,
    emb: &Embedding,
    cfg: ServeConfig,
    requests: &[Request],
    srv: &EmbedServer,
    result: &BatchResult,
    faulted: bool,
) -> Result<(), TestCaseError> {
    let st = srv.stats();
    let traffic = srv.traffic();
    if cfg.cold.device() == DeviceKind::Dram {
        prop_assert_eq!(
            traffic.dram_bytes,
            st.cold_read_bytes + st.dram_read_bytes + st.dram_write_bytes
        );
    } else {
        prop_assert_eq!(traffic.pm_bytes + traffic.ssd_bytes, st.cold_read_bytes);
        prop_assert_eq!(traffic.dram_bytes, st.dram_read_bytes + st.dram_write_bytes);
    }
    prop_assert_eq!(
        st.faults_injected,
        st.faults_retried + st.hedges_won + st.degraded
    );
    if faulted {
        // Fault verdicts are drawn at each pass's start time, which
        // charging alone moves: no reference to compare against.
        return Ok(());
    }
    let (alone, twin) = charged_alone(sys, emb, cfg, requests);
    let top_ks = requests
        .iter()
        .filter(|req| matches!(req.kind, RequestKind::TopK { .. }))
        .count() as u64;
    if top_ks <= 1 {
        prop_assert_eq!(&result.sim_latency_ns, &alone);
        prop_assert_eq!(srv.sim_now(), twin.sim_now());
        prop_assert_eq!(format!("{:?}", traffic), format!("{:?}", twin.traffic()));
        let bytes = |srv: &EmbedServer| {
            let st = srv.stats();
            (st.cold_read_bytes, st.dram_read_bytes, st.dram_write_bytes)
        };
        prop_assert_eq!(bytes(srv), bytes(&twin));
    } else {
        // The last response waits for every lookup and the whole pass;
        // alone, for every lookup and every query's own charge. Both
        // servers served from a standing start.
        let (batched, one_by_one) = (srv.sim_now().as_nanos(), twin.sim_now().as_nanos());
        prop_assert!(
            batched <= one_by_one + top_ks,
            "{} top-k queries: {} ns as one pass, {} ns alone",
            top_ks,
            batched,
            one_by_one
        );
        prop_assert_eq!(result.sim_latency_ns.last().copied(), Some(batched));
    }
    Ok(())
}

/// One draw: every request of `picks`, batched at threads 1, 2 and 8 (the
/// pool forced on, so 2 and 8 really fan out whatever the host), against
/// what it gets alone — answers at every thread count, charges once (the
/// simulated side does not depend on the thread count).
fn check_batch(
    emb: &Embedding,
    rows_per_shard: usize,
    nlist: usize,
    cold: DeviceKind,
    faulted: bool,
    picks: &[(u32, u8, u8)],
) -> Result<(), TestCaseError> {
    let nodes = emb.nodes();
    let mut sys = MemSystem::new(Topology::paper_machine_scaled(16 << 20));
    if faulted {
        let plan = FaultPlanSpec::new(plan_seed())
            .with_transient(cold, 0.3, 3_000)
            .with_timeout(cold, 0.1, 40_000);
        sys = install_plan(&sys, plan);
    }
    // nlist 0 draws an exact server.
    let index = match nlist {
        0 => IndexMode::Exact,
        nlist => IndexMode::Ivf { nlist, nprobe: 0 },
    };
    let cfg = ServeConfig::new(4 << 10)
        .rows_per_shard(rows_per_shard)
        .cold(Placement::node(0, cold))
        .index(index);
    // What each query gets alone, from a server that never batches.
    let mut alone = EmbedServer::new(&sys, emb, cfg).unwrap();
    // The probe counts requests draw from: the index's own, every list
    // (the oracle), the plane's degraded half, a single list.
    let probes = match alone.ivf() {
        None => vec![None],
        Some(ivf) => vec![
            None,
            Some(ivf.nlist()),
            Some((ivf.nprobe() / 2).max(1)),
            Some(1),
        ],
    };
    let full_probe = alone.ivf().map(|ivf| ivf.nlist());
    let requests = batch(picks, nodes, &probes);
    let mut latencies: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 8] {
        let mut srv = EmbedServer::new(&sys, emb, cfg.threads(threads)).unwrap();
        let result = with_dispatch_policy(DispatchPolicy::always_parallel(), || {
            srv.serve_batch(&requests)
        });
        prop_assert_eq!(result.responses.len(), requests.len());
        for (req, resp) in requests.iter().zip(&result.responses) {
            let query = emb.vector(req.node);
            match (req.kind, resp) {
                (RequestKind::Get, Response::Vector(row)) => {
                    prop_assert_eq!(row.as_slice(), query);
                }
                (RequestKind::TopK { k, nprobe }, Response::Neighbors(found)) => {
                    if full_probe.is_none() || nprobe == full_probe {
                        same_bits(found, &emb.top_k(query, k, Metric::Dot))?;
                    }
                    same_bits(found, &alone.top_k_nprobe(query, k, nprobe))?;
                }
                (kind, resp) => prop_assert!(false, "{:?} answered {:?}", kind, resp),
            }
        }
        match &latencies {
            None => {
                check_charges(&sys, emb, cfg, &requests, &srv, &result, faulted)?;
                latencies = Some(result.sim_latency_ns);
            }
            Some(first) => prop_assert_eq!(first, &result.sim_latency_ns),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tables run past the scoring pass's task size so batches split into
    /// several tasks.
    #[test]
    fn every_request_of_a_batch_gets_its_own_answer(
        nodes in 16u32..5_000,
        d in 1usize..9,
        rows_per_shard in 1usize..96,
        nlist in 0usize..28,
        seed in 0u64..500,
        cold in 0usize..COLD.len(),
        faulted in any::<bool>(),
        picks in proptest::collection::vec((any::<u32>(), any::<u8>(), any::<u8>()), 1..14),
    ) {
        let emb = tie_rich_embedding(nodes, d, seed);
        check_batch(&emb, rows_per_shard, nlist, COLD[cold], faulted, &picks)?;
    }
}

/// A zero-width table is one more input: every row scores the empty dot
/// product, so each top-k answers ids `0..k` at 0.0 as `Embedding::top_k`
/// does — alone and in a batch mixed with Gets and every `k` kind, asked
/// for exact or for an index there is nothing to build from.
#[test]
fn a_zero_width_table_answers_like_the_oracle() {
    let emb = Embedding::from_row_major(10, 0, vec![]);
    let picks: Vec<(u32, u8, u8)> = (0..12).map(|i| (i * 7, i as u8, 0)).collect();
    for nlist in [0, 4] {
        check_batch(&emb, 4, nlist, DeviceKind::Pm, false, &picks).unwrap();
    }
    let sys = MemSystem::new(Topology::paper_machine_scaled(16 << 20));
    let mut srv =
        EmbedServer::new(&sys, &emb, ServeConfig::new(4 << 10).rows_per_shard(4)).unwrap();
    assert_eq!(srv.top_k(&[], 3), vec![(0, 0.0), (1, 0.0), (2, 0.0)]);
}
