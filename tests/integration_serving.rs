//! End-to-end tests of the tiered embedding-serving subsystem
//! (`omega-serve`): query-result correctness across tiers, batching
//! semantics, observability coverage, byte accounting, and determinism.

use omega_embed::{Embedding, Metric};
use omega_hetmem::{DeviceKind, MemSystem, Placement, Topology};
use omega_obs::{Recorder, Track};
use omega_serve::{
    EmbedServer, IndexMode, Popularity, Request, RequestKind, RequestStream, Response, ServeConfig,
    WorkloadConfig,
};

const DIM: usize = 8;

fn embedding(nodes: u32, seed: u64) -> Embedding {
    Embedding::from_matrix(&omega_linalg::gaussian_matrix(nodes as usize, DIM, seed))
}

fn system() -> MemSystem {
    MemSystem::new(Topology::paper_machine_scaled(8 << 20))
}

fn config(cache_shards: u64) -> ServeConfig {
    ServeConfig::new(cache_shards * 16 * DIM as u64 * 4).rows_per_shard(16)
}

/// Brute-force top-k must be bit-identical whether the table is served out
/// of the DRAM cache or streamed from the cold tier — and both must match
/// the reference `Embedding::top_k`.
#[test]
fn top_k_identical_between_cached_and_cold_paths() {
    let emb = embedding(200, 1);
    let sys = system();

    // Warm server: cache holds the whole table; touch every shard first.
    let mut warm = EmbedServer::new(&sys, &emb, config(64)).unwrap();
    let all: Vec<u32> = (0..200).collect();
    warm.get_vectors(&all);
    assert_eq!(
        warm.stats().fetches as usize,
        warm.store().num_shards(),
        "warm-up must fetch every shard"
    );

    // Cold server: zero-byte cache, every scan streams from PM.
    let mut cold = EmbedServer::new(&sys, &emb, config(0)).unwrap();

    for probe in [0u32, 7, 123, 199] {
        let query = emb.vector(probe).to_vec();
        let hot_result = warm.top_k(&query, 10);
        let cold_result = cold.top_k(&query, 10);
        assert_eq!(hot_result, cold_result, "probe {probe}");
        assert_eq!(
            hot_result,
            emb.top_k(&query, 10, Metric::Dot),
            "probe {probe}"
        );
    }

    // The warm scans were DRAM traffic, the cold scans cold-tier traffic.
    assert_eq!(warm.stats().cold_read_bytes, warm.store().total_bytes());
    assert!(cold.stats().dram_read_bytes == 0);
    assert_eq!(
        cold.stats().cold_read_bytes,
        4 * warm.store().total_bytes(),
        "four cold scans of the full table"
    );
}

/// Batching coalesces shard fetches but must answer strictly in arrival
/// order, duplicates and all.
#[test]
fn batching_never_reorders_responses() {
    let emb = embedding(300, 2);
    let sys = system();
    let mut srv = EmbedServer::new(&sys, &emb, config(4)).unwrap();

    // Shuffled, duplicated, shard-crossing request order with a top-k in
    // the middle.
    let mut requests = Request::gets(&[299, 0, 150, 0, 17, 299, 63, 202]);
    requests.insert(
        4,
        Request {
            node: 150,
            kind: RequestKind::top_k(5),
        },
    );
    let batch = srv.serve_batch(&requests);
    assert_eq!(batch.responses.len(), requests.len());
    for (req, resp) in requests.iter().zip(&batch.responses) {
        match (req.kind, resp) {
            (RequestKind::Get, Response::Vector(v)) => {
                assert_eq!(v.as_slice(), emb.vector(req.node), "node {}", req.node)
            }
            (RequestKind::TopK { k, .. }, Response::Neighbors(n)) => {
                assert_eq!(n.len(), k);
                assert_eq!(n, &emb.top_k(emb.vector(req.node), k, Metric::Dot));
            }
            (kind, resp) => panic!("response kind mismatch: {kind:?} vs {resp:?}"),
        }
    }
    // Distinct shards among the requests: 299→18, 0→0, 150→9, 17→1, 63→3,
    // 202→12 — six fetches for nine requests.
    assert_eq!(srv.stats().fetches, 6);
    // Latencies are monotone within a batch (fetch phase + in-order serves).
    for pair in batch.sim_latency_ns.windows(2) {
        assert!(pair[0] <= pair[1]);
    }
}

/// Every simulated nanosecond of a run must be covered by root spans — the
/// acceptance bar is ≥95%, the implementation accounts for 100%.
#[test]
fn span_totals_cover_simulated_time() {
    let emb = embedding(500, 3);
    let sys = system();
    let rec = Recorder::enabled();
    let track = Track::new(1, 0);
    let mut srv = EmbedServer::new(&sys, &emb, config(8))
        .unwrap()
        .with_recorder(&rec, track);
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(500, Popularity::Zipf { s: 1.0 }, 11).with_topk(0.02, 5),
    );
    let report = srv.run(&mut load, 1_000);
    assert!(report.total_sim.as_nanos() > 0);

    let spans = rec.spans();
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| s.sim_dur_ns)
        .sum();
    let total = report.total_sim.as_nanos();
    assert!(
        root_ns as f64 >= 0.95 * total as f64,
        "root spans cover {root_ns} of {total} simulated ns"
    );
    // The recorder's track cursor and the server's own clock agree.
    assert_eq!(rec.cursor(track).as_nanos(), total);
    // All four span kinds show up.
    for name in ["serve.batch", "serve.fetch", "serve.lookup", "serve.topk"] {
        assert!(spans.iter().any(|s| s.name == name), "missing span {name}");
    }
    // Leaf spans nest under batch parents.
    assert!(spans
        .iter()
        .filter(|s| s.name != "serve.batch")
        .all(|s| s.depth == 1));
}

/// The `serve.*` metric counters, the server's own byte ledger, and the
/// hetmem `AccessSummary` must agree byte-for-byte.
#[test]
fn counters_match_access_summary_bytes() {
    let emb = embedding(400, 4);
    let sys = system();
    let rec = Recorder::enabled();
    let mut srv = EmbedServer::new(&sys, &emb, config(6))
        .unwrap()
        .with_recorder(&rec, Track::MAIN);
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(400, Popularity::Zipf { s: 0.8 }, 21).with_topk(0.05, 8),
    );
    let report = srv.run(&mut load, 2_000);
    let st = &report.stats;
    let traffic = &report.traffic;

    // Ledger vs. hetmem accounting: the cold tier is PM, the hot tier DRAM.
    assert_eq!(traffic.pm_bytes, st.cold_read_bytes);
    assert_eq!(traffic.ssd_bytes, 0);
    assert_eq!(traffic.dram_bytes, st.dram_read_bytes + st.dram_write_bytes);
    assert_eq!(traffic.read_bytes, st.cold_read_bytes + st.dram_read_bytes);
    assert_eq!(traffic.write_bytes, st.dram_write_bytes);
    assert_eq!(
        traffic.total_bytes,
        st.cold_read_bytes + st.dram_read_bytes + st.dram_write_bytes
    );

    // Nothing is written to DRAM that was not read out of the cold tier: a
    // fetch stages what it read, a top-k scan stages only the blocks
    // several queries of its batch share, and one query's scan stages
    // nothing.
    assert!(st.dram_write_bytes <= st.cold_read_bytes);

    // Published counters mirror the ledger exactly.
    let rows = omega_obs::export::parse_metrics_jsonl(&rec.metrics_jsonl()).unwrap();
    let counter = |name: &str| {
        rows.iter()
            .find(|(k, n, _)| k == "counter" && n == name)
            .map(|(_, _, v)| *v as u64)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert_eq!(counter("serve.requests"), st.requests);
    assert_eq!(counter("serve.cache.hit"), st.hits);
    assert_eq!(counter("serve.cache.miss"), st.misses);
    assert_eq!(counter("serve.cache.evict"), st.evictions);
    assert_eq!(counter("serve.cache.fetch"), st.fetches);
    assert_eq!(counter("serve.cold.bytes"), st.cold_read_bytes);
    assert_eq!(
        counter("serve.dram.bytes"),
        st.dram_read_bytes + st.dram_write_bytes
    );
    assert_eq!(st.hits + st.misses, st.requests);
}

/// An SSD cold tier routes the same fetch traffic through SSD accounting.
#[test]
fn ssd_cold_tier_accounts_ssd_bytes() {
    let emb = embedding(200, 5);
    let sys = system();
    let cfg = config(2).cold(Placement::node(0, DeviceKind::Ssd));
    let mut srv = EmbedServer::new(&sys, &emb, cfg).unwrap();
    let mut load = RequestStream::new(WorkloadConfig::lookups(200, Popularity::Uniform, 5));
    let report = srv.run(&mut load, 500);
    assert_eq!(report.traffic.ssd_bytes, report.stats.cold_read_bytes);
    assert_eq!(report.traffic.pm_bytes, 0);
    assert!(report.stats.cold_read_bytes > 0);
    // SSD fetches are far more expensive than the PM runs elsewhere in this
    // file: a page-granular device with per-IO latency.
    assert!(report.sim_percentile_ns(0.99) > 10_000);
}

/// Same seed ⇒ byte-identical metrics export; different seed ⇒ different
/// request stream (and almost surely different latency histogram).
#[test]
fn metrics_export_is_deterministic_per_seed() {
    let run_once = |seed: u64| -> String {
        let emb = embedding(300, 6);
        let sys = system();
        let rec = Recorder::enabled();
        let mut srv = EmbedServer::new(&sys, &emb, config(4))
            .unwrap()
            .with_recorder(&rec, Track::MAIN);
        let mut load = RequestStream::new(WorkloadConfig::lookups(
            300,
            Popularity::Zipf { s: 1.0 },
            seed,
        ));
        srv.run(&mut load, 1_500);
        rec.metrics_jsonl()
    };
    let a = run_once(42);
    let b = run_once(42);
    assert_eq!(a, b, "same seed must export identical metric bytes");
    let c = run_once(43);
    assert_ne!(a, c, "distinct seeds must serve distinct workloads");
}

/// The acceptance skew: at Zipf s=1.0 the head working set stays resident,
/// so hits must outnumber misses.
#[test]
fn zipf_head_hit_rate_beats_miss_rate() {
    let emb = embedding(10_000, 7);
    let sys = system();
    let mut srv = EmbedServer::new(&sys, &emb, config(16)).unwrap();
    let mut load = RequestStream::new(WorkloadConfig::lookups(
        10_000,
        Popularity::Zipf { s: 1.0 },
        9,
    ));
    let report = srv.run(&mut load, 10_000);
    assert!(
        report.stats.hits > report.stats.misses,
        "hit rate {:.3} at s=1.0 with a 16-shard cache",
        report.stats.hit_rate()
    );
    // Uniform traffic over the same table cannot: 16 cached shards of 625.
    let mut srv2 = EmbedServer::new(&sys, &emb, config(16)).unwrap();
    let mut load2 = RequestStream::new(WorkloadConfig::lookups(10_000, Popularity::Uniform, 9));
    let uniform = srv2.run(&mut load2, 10_000);
    assert!(uniform.stats.hit_rate() < report.stats.hit_rate());
}

/// Shard fan-out is annotated with zero-cost `serve.shard.parallel` spans:
/// they name the phase and task count (wall-clock observability for the
/// worker pool) without moving the simulated clock — so the span stream's
/// timing invariants hold at every thread count.
#[test]
fn parallel_spans_annotate_fanout_without_simulated_cost() {
    let emb = embedding(500, 3);
    let sys = system();
    let rec = Recorder::enabled();
    let mut srv = EmbedServer::new(&sys, &emb, config(8).threads(4))
        .unwrap()
        .with_recorder(&rec, Track::MAIN);
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(500, Popularity::Zipf { s: 1.0 }, 11).with_topk(0.02, 5),
    );
    let report = srv.run(&mut load, 1_000);

    let spans = rec.spans();
    let parallel: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "serve.shard.parallel")
        .collect();
    assert!(!parallel.is_empty(), "no serve.shard.parallel spans");
    let arg = |s: &omega_obs::SpanRecord, key: &str| {
        s.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    let mut phases = std::collections::BTreeSet::new();
    for s in &parallel {
        assert_eq!(s.sim_dur_ns, 0, "parallel span must not move sim clock");
        assert_eq!(s.depth, 1, "parallel spans nest under serve.batch");
        assert_eq!(arg(s, "threads"), "4");
        assert!(arg(s, "tasks").parse::<usize>().unwrap() >= 1);
        phases.insert(arg(s, "phase"));
    }
    // The mixed Get/TopK workload exercises all three fan-out phases.
    for phase in ["fetch", "lookup", "scan"] {
        assert!(phases.contains(phase), "missing fan-out phase {phase}");
    }
    // And the cursor still accounts for every simulated nanosecond.
    assert_eq!(
        rec.cursor(Track::MAIN).as_nanos(),
        report.total_sim.as_nanos()
    );
}

/// A batch scores its top-k queries in one pass: however many it holds,
/// it makes exactly one pool call at the scoring site — announced by one
/// `serve.shard.parallel` span carrying the query count and timed by one
/// zero-sim `serve.score` span — and is charged as one pass, one
/// `serve.topk` span; a batch that holds none makes no call and leaves no
/// span. Counted, not timed, so the fusion cannot silently fall back to
/// one dispatch per query.
#[test]
fn a_batch_scores_its_top_k_queries_in_one_pool_call() {
    let emb = embedding(5_000, 3);
    let batch = |top_ks: usize| -> Vec<Request> {
        let mut requests = Request::gets(&[7, 4_100, 7, 913, 2_600, 38]);
        for i in 0..top_ks {
            let at = (2 * i).min(requests.len());
            requests.insert(
                at,
                Request {
                    node: (i as u32 * 977) % 5_000,
                    kind: RequestKind::top_k(3 + i),
                },
            );
        }
        requests
    };
    for (index, site, phase) in [
        (IndexMode::Exact, "serve.scan", "scan"),
        (
            IndexMode::Ivf {
                nlist: 40,
                nprobe: 30,
            },
            "serve.ivf.probe",
            "ivf.probe",
        ),
    ] {
        let rec = Recorder::enabled();
        let mut srv = EmbedServer::new(&system(), &emb, config(8).threads(4).index(index))
            .unwrap()
            .with_recorder(&rec, Track::MAIN);
        let profiler = omega_par::PoolProfiler::enabled();
        let _installed = omega_par::install(&profiler);
        omega_par::with_dispatch_policy(omega_par::DispatchPolicy::always_parallel(), || {
            for top_ks in [0usize, 1, 5, 0, 2] {
                let calls = || {
                    profiler
                        .call_records()
                        .iter()
                        .filter(|c| c.site == site)
                        .count()
                };
                let (calls_before, spans_before) = (calls(), rec.spans().len());
                let result = srv.serve_batch(&batch(top_ks));
                assert_eq!(result.responses.len(), 6 + top_ks);
                let want = usize::from(top_ks > 0);
                assert_eq!(calls() - calls_before, want, "{site} with {top_ks} top-k");
                let spans = rec.spans();
                let spans = &spans[spans_before..];
                let announced: Vec<_> = spans
                    .iter()
                    .filter(|s| {
                        s.name == "serve.shard.parallel"
                            && s.args.contains(&("phase".to_string(), phase.to_string()))
                    })
                    .collect();
                assert_eq!(announced.len(), want, "{phase} spans with {top_ks} top-k");
                for s in announced {
                    assert!(s
                        .args
                        .contains(&("queries".to_string(), top_ks.to_string())));
                }
                let scored: Vec<_> = spans.iter().filter(|s| s.name == "serve.score").collect();
                assert_eq!(scored.len(), want);
                assert!(scored.iter().all(|s| s.sim_dur_ns == 0 && s.depth == 1));
                let charged = spans.iter().filter(|s| s.name == "serve.topk").count();
                assert_eq!(charged, want, "one serve.topk span a pass");
            }
        });
        assert_eq!(rec.cursor(Track::MAIN).as_nanos(), srv.sim_now().as_nanos());
    }
}

/// Bytes one batch moved: `(cold read, DRAM read, DRAM write)`.
fn batch_bytes(srv: &mut EmbedServer, requests: &[Request]) -> (u64, u64, u64) {
    let before = srv.stats().clone();
    let result = srv.serve_batch(requests);
    assert_eq!(result.responses.len(), requests.len());
    let st = srv.stats();
    (
        st.cold_read_bytes - before.cold_read_bytes,
        st.dram_read_bytes - before.dram_read_bytes,
        st.dram_write_bytes - before.dram_write_bytes,
    )
}

/// A batch of `n >= 2` exact top-k queries streams the table's uncached
/// shards out of the cold tier once, into DRAM, and its pass reads the
/// whole table from DRAM once: `m` cached shards and the staged rest. The
/// queries' own rows come out of cached shards, so the batch fetches
/// nothing, and each costs one row serve on top.
#[test]
fn an_exact_batch_streams_its_uncached_shards_once() {
    let emb = embedding(400, 13);
    let sys = system();
    let row_bytes = (DIM * 4) as u64;
    for (m, n) in [(1u64, 2u64), (3, 2), (3, 5), (8, 16)] {
        let mut srv = EmbedServer::new(&sys, &emb, config(m)).unwrap();
        // One node of each of the first `m` shards.
        let cached: Vec<u32> = (0..m as u32).map(|sid| sid * 16).collect();
        srv.get_vectors(&cached);
        assert_eq!(srv.stats().fetches, m);
        let total = srv.store().total_bytes();
        let uncached = total - m * 16 * row_bytes;
        let queries: Vec<Request> = (0..n as usize)
            .map(|i| Request {
                node: cached[i % cached.len()],
                kind: RequestKind::top_k(5),
            })
            .collect();
        assert_eq!(
            batch_bytes(&mut srv, &queries),
            (uncached, total + n * row_bytes, uncached),
            "{m} cached shards, {n} queries"
        );
    }
}

/// An IVF batch streams the union of its queries' probed cold lists out of
/// the cold tier once. A cold list two or more queries probe is staged
/// into DRAM and read there once, like a hot list; a cold list one query
/// probes is read from the cold tier. Every query also reads the centroid
/// table and its own row.
#[test]
fn an_ivf_batch_streams_the_union_of_its_cold_lists_once() {
    let emb = embedding(400, 9);
    let sys = system();
    let cfg = config(32)
        .index(IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        })
        .ivf_hot_bytes(1 << 10);
    let mut srv = EmbedServer::new(&sys, &emb, cfg).unwrap();
    // The queries' rows are cached first, so the batch fetches nothing.
    // Two probes a query, so some lists are shared and some are not.
    const NPROBE: usize = 2;
    let nodes = [0u32, 13, 200, 399, 13, 77];
    srv.get_vectors(&nodes);
    let ivf = srv.ivf().unwrap();
    let bytes = |lid: u32| (ivf.list_ids(lid as usize).len() * DIM * 4) as u64;
    let mut scores = Vec::new();
    let probed: Vec<Vec<u32>> = nodes
        .iter()
        .map(|&node| ivf.select_lists(emb.vector(node), Metric::Dot, NPROBE, &mut scores))
        .collect();
    let mut readers = std::collections::BTreeMap::<u32, u64>::new();
    for &lid in probed.iter().flatten() {
        *readers.entry(lid).or_default() += 1;
    }
    let cold = |lid: u32| !ivf.list_is_hot(lid as usize);
    let union: u64 = readers
        .keys()
        .filter(|&&l| cold(l))
        .map(|&l| bytes(l))
        .sum();
    let staged: u64 = (readers.iter())
        .filter(|&(&l, &n)| cold(l) && n >= 2)
        .map(|(&l, _)| bytes(l))
        .sum();
    let from_dram: u64 = (readers.iter())
        .filter(|&(&l, &n)| !cold(l) || n >= 2)
        .map(|(&l, _)| bytes(l))
        .sum();
    assert!(staged > 0 && staged < union, "shared and sole cold lists");
    let per_query = ivf.centroid_bytes() + (DIM * 4) as u64;
    let queries: Vec<Request> = nodes
        .iter()
        .map(|&node| Request {
            node,
            kind: RequestKind::TopK {
                k: 10,
                nprobe: Some(NPROBE),
            },
        })
        .collect();
    let n = nodes.len() as u64;
    assert_eq!(
        batch_bytes(&mut srv, &queries),
        (union, from_dram + n * per_query, staged)
    );
}

/// The worker-pool width is a wall-clock knob only: the full report —
/// stats ledger, per-request simulated latencies, traffic summary — is
/// identical at 1 and 8 threads.
#[test]
fn thread_count_never_changes_the_report() {
    let run = |threads: usize| {
        let emb = embedding(600, 17);
        let sys = system();
        let mut srv = EmbedServer::new(&sys, &emb, config(8).threads(threads)).unwrap();
        let mut load = RequestStream::new(
            WorkloadConfig::lookups(600, Popularity::Zipf { s: 1.1 }, 23).with_topk(0.05, 9),
        );
        srv.run(&mut load, 1_200)
    };
    let a = run(1);
    let b = run(8);
    assert_eq!(a.sim_latency_ns, b.sim_latency_ns);
    assert_eq!(a.total_sim, b.total_sim);
    let ledger = |s: &omega_serve::ServeStats| {
        (
            (s.requests, s.lookups, s.topks, s.batches),
            (
                s.hits,
                s.misses,
                s.fetches,
                s.evictions,
                s.admission_rejects,
            ),
            (s.cold_read_bytes, s.dram_read_bytes, s.dram_write_bytes),
            (
                s.faults_injected,
                s.faults_retried,
                s.hedges_won,
                s.degraded,
            ),
        )
    };
    assert_eq!(ledger(&a.stats), ledger(&b.stats));
    assert_eq!(a.traffic.total_bytes, b.traffic.total_bytes);
    assert_eq!(a.traffic.total_accesses, b.traffic.total_accesses);
}

/// Out-of-range lookups die loudly at the serving boundary (the checked
/// `try_vector` path), not as a slice panic inside a kernel.
#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_request_panics_with_context() {
    let emb = embedding(100, 8);
    let sys = system();
    let mut srv = EmbedServer::new(&sys, &emb, config(2)).unwrap();
    srv.get_vectors(&[100]);
}

/// IVF probe traffic is double-entry bookkept: on a pure top-k stream
/// (no point lookups) every byte the hetmem ledger charged is attributed
/// to exactly one `ivf_*` stat — centroid scans and hot-list probes in
/// DRAM, cold-list probes on the cold tier — and the serve ledger's own
/// tier split agrees.
#[test]
fn ivf_probe_bytes_match_access_summary() {
    let emb = embedding(400, 9);
    let sys = system();
    // A tight hot budget so both hot and cold lists exist.
    let cfg = config(4)
        .index(IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        })
        .ivf_hot_bytes(1 << 10);
    let mut srv = EmbedServer::new(&sys, &emb, cfg).unwrap();
    let (nlist, hot) = {
        let ivf = srv.ivf().expect("Ivf mode builds an index");
        (ivf.nlist(), ivf.hot_list_count())
    };
    assert!(
        hot > 0 && hot < nlist,
        "want a hot/cold split, got {hot}/{nlist}"
    );

    for q in [0u32, 13, 200, 399] {
        let query = emb.vector(q).to_vec();
        for nprobe in [1, nlist / 2, nlist] {
            srv.top_k_nprobe(&query, 10, Some(nprobe.max(1)));
        }
    }

    let st = srv.stats().clone();
    let traffic = srv.traffic();
    assert_eq!(st.ivf_queries, 12);
    assert!(st.ivf_probes > st.ivf_queries);
    // Hetmem ledger vs. IVF attribution: nothing else touched memory.
    assert_eq!(traffic.pm_bytes, st.ivf_cold_bytes);
    assert_eq!(
        traffic.dram_bytes,
        st.ivf_centroid_bytes + st.ivf_dram_bytes
    );
    // And the serve ledger's tier split is the same numbers.
    assert_eq!(st.cold_read_bytes, st.ivf_cold_bytes);
    assert_eq!(
        st.dram_read_bytes,
        st.ivf_centroid_bytes + st.ivf_dram_bytes
    );
    assert_eq!(st.dram_write_bytes, 0, "probes stage nothing");
    assert!(st.ivf_centroid_bytes > 0);
    assert!(st.ivf_dram_bytes > 0, "hot lists were probed");
    assert!(st.ivf_cold_bytes > 0, "cold lists were probed");
}

/// The `serve.ivf.*` counters published by a run mirror the stats ledger
/// exactly, the pre-existing tier identities still hold with IVF traffic
/// folded in, and the whole export is byte-identical at 1 and 8 threads.
#[test]
fn ivf_counters_published_and_thread_invariant() {
    let run = |threads: usize| {
        let emb = embedding(400, 9);
        let sys = system();
        let rec = Recorder::enabled();
        let cfg = config(4)
            .threads(threads)
            .index(IndexMode::Ivf {
                nlist: 0,
                nprobe: 0,
            })
            .ivf_hot_bytes(1 << 10);
        let mut srv = EmbedServer::new(&sys, &emb, cfg)
            .unwrap()
            .with_recorder(&rec, Track::MAIN);
        let mut load = RequestStream::new(
            WorkloadConfig::lookups(400, Popularity::Zipf { s: 1.0 }, 21).with_topk(0.3, 8),
        );
        let report = srv.run(&mut load, 1_500);
        (report, rec.metrics_jsonl())
    };
    let (report, metrics) = run(1);
    let st = &report.stats;
    assert!(st.ivf_queries > 0 && st.ivf_queries == st.topks);

    let rows = omega_obs::export::parse_metrics_jsonl(&metrics).unwrap();
    let counter = |name: &str| {
        rows.iter()
            .find(|(k, n, _)| k == "counter" && n == name)
            .map(|(_, _, v)| *v as u64)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert_eq!(counter("serve.ivf.queries"), st.ivf_queries);
    assert_eq!(counter("serve.ivf.probes"), st.ivf_probes);
    assert_eq!(counter("serve.ivf.centroid.bytes"), st.ivf_centroid_bytes);
    assert_eq!(counter("serve.ivf.list.dram.bytes"), st.ivf_dram_bytes);
    assert_eq!(counter("serve.ivf.list.cold.bytes"), st.ivf_cold_bytes);
    // IVF traffic feeds the same tier ledger the exact path uses.
    assert_eq!(report.traffic.pm_bytes, st.cold_read_bytes);
    assert_eq!(
        report.traffic.dram_bytes,
        st.dram_read_bytes + st.dram_write_bytes
    );
    assert!(st.ivf_cold_bytes <= st.cold_read_bytes);
    assert!(st.ivf_centroid_bytes + st.ivf_dram_bytes <= st.dram_read_bytes);

    let (_, par) = run(8);
    assert_eq!(metrics, par, "IVF metrics must not depend on thread count");
}

/// IVF edge cases: `k = 0`, `k` far past the probed union, and the
/// empty lists a degenerate (constant) table leaves behind.
#[test]
fn ivf_edge_cases_answer_exactly() {
    let emb = embedding(40, 10);
    let sys = system();
    let cfg = config(4).index(IndexMode::Ivf {
        nlist: 8,
        nprobe: 2,
    });
    let mut srv = EmbedServer::new(&sys, &emb, cfg).unwrap();
    let query = emb.vector(7).to_vec();

    // k = 0 is a legal no-op.
    assert!(srv.top_k(&query, 0).is_empty());

    // k far past the probed rows: the answer is exactly the probed union,
    // in oracle order with oracle score bits.
    let got = srv.top_k_nprobe(&query, 100, Some(2));
    let ivf = srv.ivf().unwrap();
    let mut scores = Vec::new();
    let lists = ivf.select_lists(&query, Metric::Dot, 2, &mut scores);
    let union: usize = lists.iter().map(|&c| ivf.list_ids(c as usize).len()).sum();
    assert_eq!(
        got.len(),
        union,
        "k past the union returns every probed row"
    );
    let expect: Vec<(u32, f32)> = emb
        .top_k(&query, 40, Metric::Dot)
        .into_iter()
        .filter(|(v, _)| lists.iter().any(|&c| ivf.list_ids(c as usize).contains(v)))
        .collect();
    assert_eq!(got, expect);

    // A constant table collapses k-means onto one cluster; the empty rest
    // probe for free and answers stay exact — even probing a single list.
    let flat = Embedding::from_row_major(64, 4, vec![1.0; 64 * 4]);
    let cfg = config(4).index(IndexMode::Ivf {
        nlist: 8,
        nprobe: 8,
    });
    let mut srv = EmbedServer::new(&sys, &flat, cfg).unwrap();
    let empties = srv.ivf().unwrap().empty_list_count();
    assert_eq!(empties, 7, "all rows collapse into one list");
    let q = vec![1.0; 4];
    let want = flat.top_k(&q, 5, Metric::Dot);
    assert_eq!(srv.top_k(&q, 5), want);
    assert_eq!(srv.top_k_nprobe(&q, 5, Some(1)), want);
}

/// The recall-vs-cost curve of the exactness knob, and the reason the auto
/// probe count is 5/8 of the lists: a 6 000 x 32 Gaussian table, auto
/// `nlist`, k = 10, the first 200 node vectors as queries against the
/// brute-force oracle. Hits (out of 2 000) and the simulated cost of the
/// 200 probes are exact model outputs, so every row is pinned as integers;
/// README's nprobe table is these rows.
#[test]
fn ivf_recall_sweep_is_pinned() {
    const NODES: u32 = 6_000;
    const K: usize = 10;
    const QUERIES: u32 = 200;
    // (nprobe, hits, sim ns). Half the lists (39) lands exactly on 95 %,
    // the default (49) clears it with margin at 1 / 1.58 of the full
    // probe's cost, and probing every list is the oracle.
    const PINNED: [(usize, usize, u64); 8] = [
        (1, 499, 2_076_465),
        (4, 916, 5_671_451),
        (16, 1_564, 20_048_853),
        (32, 1_844, 39_191_672),
        (39, 1_900, 47_570_085),
        (49, 1_963, 59_475_219),
        (64, 1_996, 77_462_733),
        (78, 2_000, 94_260_000),
    ];
    let emb = Embedding::from_matrix(&omega_linalg::gaussian_matrix(NODES as usize, 32, 42));
    let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 20));
    let auto = IndexMode::Ivf {
        nlist: 0,
        nprobe: 0,
    };
    let cfg = ServeConfig::new(16 * 64 * 32 * 4)
        .rows_per_shard(64)
        .cold(Placement::node(0, DeviceKind::Pm))
        .index(auto);
    assert_eq!(
        auto.resolved(NODES),
        IndexMode::Ivf {
            nlist: 78,
            nprobe: 49
        }
    );
    let mut srv = EmbedServer::new(&sys, &emb, cfg).unwrap();
    let oracle: Vec<Vec<(u32, f32)>> = (0..QUERIES)
        .map(|q| emb.top_k(emb.vector(q), K, Metric::Dot))
        .collect();

    let rows = PINNED.map(|(nprobe, _, _)| {
        let start = srv.sim_now();
        let hits: usize = (0..QUERIES)
            .map(|q| {
                let approx = srv.top_k_nprobe(emb.vector(q), K, Some(nprobe));
                let exact = &oracle[q as usize];
                approx
                    .iter()
                    .filter(|(id, _)| exact.iter().any(|(o, _)| o == id))
                    .count()
            })
            .sum();
        (nprobe, hits, (srv.sim_now() - start).as_nanos())
    });
    assert_eq!(rows, PINNED);

    let total = QUERIES as usize * K;
    let hits_at = |nprobe: usize| rows.iter().find(|r| r.0 == nprobe).unwrap().1;
    assert!(
        hits_at(39) < hits_at(49),
        "half the lists must sit below the default"
    );
    assert!(
        hits_at(49) * 100 >= total * 95,
        "recall@{K} at the default nprobe fell under 0.95"
    );
}

/// FNV-1a over the little-endian bytes of each value folded in.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Digest of what a lookup stream *decided* and *answered*: per batch the
/// movement of `(hits, misses, fetches, evictions, admission_rejects)`,
/// then the bits of every returned row. Deliberately blind to bytes moved,
/// simulated time and fault counts — those are the cost model's to change;
/// cache decisions and answers are not.
fn lookup_decisions_digest(
    popularity: Popularity,
    cache_shards: u64,
    admission: bool,
    faulted: bool,
    threads: usize,
) -> u64 {
    // 63 shards of 16 rows with a ragged 7-row tail.
    const NODES: u32 = 1_007;
    let emb = embedding(NODES, 12);
    let sys = if faulted {
        // A literal plan seed: the pin must not move with OMEGA_FAULT_SEED.
        let plan = omega_faults::FaultPlanSpec::new(4242)
            .with_transient(DeviceKind::Pm, 0.3, 3_000)
            .with_timeout(DeviceKind::Pm, 0.1, 40_000);
        omega_faults::install_plan(&system(), plan)
    } else {
        system()
    };
    let cfg = config(cache_shards).admission(admission).threads(threads);
    let mut srv = EmbedServer::new(&sys, &emb, cfg).unwrap();
    let mut load = RequestStream::new(WorkloadConfig::lookups(NODES, popularity, 31));
    let mut digest = Fnv::new();
    let mut before = srv.stats().clone();
    for _ in 0..40 {
        let batch = srv.serve_batch(&load.take_requests(48));
        let now = srv.stats().clone();
        for (now, before) in [
            (now.hits, before.hits),
            (now.misses, before.misses),
            (now.fetches, before.fetches),
            (now.evictions, before.evictions),
            (now.admission_rejects, before.admission_rejects),
        ] {
            digest.eat(now - before);
        }
        before = now;
        for resp in &batch.responses {
            match resp {
                Response::Vector(row) => row.iter().for_each(|x| digest.eat(x.to_bits() as u64)),
                Response::Neighbors(_) => panic!("lookup stream answered with neighbours"),
            }
        }
    }
    digest.0
}

/// Cache decisions and answers of the lookup path, pinned from the commit
/// before the miss path learned to decide admission ahead of the fetch
/// fan-out (`01a32c4`): Zipf and uniform `Get` streams over a ragged
/// table, caches of 1 / 8 / 64 shards, admission on and off, clean and
/// under a transient + timeout PM plan, each identical at 1 / 2 / 8
/// threads. A change to what a miss *costs* must leave every literal alone.
#[test]
fn lookup_decisions_and_rows_are_pinned() {
    let zipf = Popularity::Zipf { s: 1.0 };
    let want: [(Popularity, u64, bool, u64); 12] = [
        (zipf, 1, true, 0x5033_dfda_90c1_4425),
        (zipf, 1, false, 0x33f1_9cb6_f6bf_fe49),
        (zipf, 8, true, 0xb745_ce8e_a9c1_8fae),
        (zipf, 8, false, 0xeb17_4354_0ea1_ba9a),
        (zipf, 64, true, 0x28be_a1b2_9289_dccd),
        (zipf, 64, false, 0x28be_a1b2_9289_dccd),
        (Popularity::Uniform, 1, true, 0xf38e_6bbf_1412_a6e7),
        (Popularity::Uniform, 1, false, 0x039a_8670_ed42_ed17),
        (Popularity::Uniform, 8, true, 0xf525_0540_f404_626c),
        (Popularity::Uniform, 8, false, 0xebe2_f48b_026a_08a2),
        (Popularity::Uniform, 64, true, 0xe1e1_e396_06cb_b863),
        (Popularity::Uniform, 64, false, 0xe1e1_e396_06cb_b863),
    ];
    // Every config is run before anything is reported, so a failure names
    // all the literals that moved, not the first.
    let mut moved = Vec::new();
    for (popularity, cache_shards, admission, want) in want {
        for faulted in [false, true] {
            for threads in [1, 2, 8] {
                let got =
                    lookup_decisions_digest(popularity, cache_shards, admission, faulted, threads);
                if got != want {
                    moved.push(format!(
                        "{popularity:?} cache {cache_shards} admission {admission} \
                         faulted {faulted} threads {threads}: {got:#018x}, pinned {want:#018x}"
                    ));
                }
            }
        }
    }
    assert!(moved.is_empty(), "decisions moved:\n{}", moved.join("\n"));
}

/// On a machine with one core a socket, a lone top-k query is one part on
/// one simulated thread, so its charge is the one it has always had: the
/// simulated time, the byte ledger and the hetmem counters of a query
/// after a three-shard warm-up are pinned, exact and IVF, on PM and on
/// SSD. `(sim ns, [cold read, DRAM read, DRAM write], cpu ops, digest of
/// every (class, bytes, media bytes, accesses) row)`.
#[test]
fn a_lone_top_k_on_one_core_keeps_its_charge() {
    let emb = embedding(400, 21);
    let sys = MemSystem::new(Topology::new(2, 1, 8 << 20, 64 << 20, 320 << 20).unwrap());
    let ivf = IndexMode::Ivf {
        nlist: 0,
        nprobe: 0,
    };
    let cases = [
        (IndexMode::Exact, DeviceKind::Pm),
        (ivf, DeviceKind::Pm),
        (IndexMode::Exact, DeviceKind::Ssd),
        (ivf, DeviceKind::Ssd),
    ];
    let got = cases.map(|(index, cold)| {
        let cfg = config(4)
            .cold(Placement::node(0, cold))
            .index(index)
            .ivf_hot_bytes(1 << 10);
        let mut srv = EmbedServer::new(&sys, &emb, cfg).unwrap();
        srv.get_vectors(&[0, 16, 32]);
        srv.top_k(emb.vector(200), 10);
        let st = srv.stats();
        let traffic = srv.traffic();
        let mut rows = Fnv::new();
        for row in &traffic.rows {
            row.label.bytes().for_each(|b| rows.eat(b as u64));
            rows.eat(row.bytes);
            rows.eat(row.media_bytes);
            rows.eat(row.accesses);
        }
        (
            srv.sim_now().as_nanos(),
            [st.cold_read_bytes, st.dram_read_bytes, st.dram_write_bytes],
            traffic.cpu_ops,
            rows.0,
        )
    });
    let want = [
        (
            8_711,
            [12_800, 1_632, 1_536],
            6_424,
            17_343_960_732_795_008_771,
        ),
        (
            6_600,
            [9_408, 1_632, 1_536],
            4_728,
            8_480_506_254_465_830_836,
        ),
        (
            2_018_614,
            [12_800, 1_632, 1_536],
            6_424,
            7_405_878_986_849_728_922,
        ),
        (
            1_213_878,
            [9_408, 1_632, 1_536],
            4_728,
            16_341_913_245_269_356_813,
        ),
    ];
    assert_eq!(got, want);
}

/// Digest of one lookup run's ledger: `(sim ns, traffic, stats,
/// latencies)`. `traffic` folds every `AccessSummary` total and every
/// `(class, bytes, media bytes, accesses)` row; `stats` every field of the
/// run's `ServeStats`; `latencies` the count and each request's simulated
/// latency in order.
fn lookup_ledger(faulted: bool, threads: usize) -> (u64, u64, u64, u64) {
    // The `serve_lookup` shape, shrunk: 64-d rows in 64-row shards on PM,
    // a Zipf 1.0 `Get` stream in batches of 64, a cache of a third of the
    // table.
    const NODES: u32 = 6_400;
    const D: usize = 64;
    let emb = Embedding::from_matrix(&omega_linalg::gaussian_matrix(NODES as usize, D, 39));
    let sys = if faulted {
        // A literal plan seed: the pin must not move with OMEGA_FAULT_SEED.
        let plan = omega_faults::FaultPlanSpec::new(3939)
            .with_transient(DeviceKind::Pm, 0.2, 3_000)
            .with_timeout(DeviceKind::Pm, 0.05, 40_000);
        omega_faults::install_plan(&system(), plan)
    } else {
        system()
    };
    let cfg = ServeConfig::new(33 * 64 * D as u64 * 4)
        .rows_per_shard(64)
        .batch_size(64)
        .threads(threads);
    let mut srv = EmbedServer::new(&sys, &emb, cfg).unwrap();
    let mut load = RequestStream::new(WorkloadConfig::lookups(
        NODES,
        Popularity::Zipf { s: 1.0 },
        101,
    ));
    let report = srv.run(&mut load, 64 * 50);
    let t = srv.traffic();
    let mut traffic = Fnv::new();
    for x in [
        t.total_bytes,
        t.total_accesses,
        t.remote_bytes,
        t.random_bytes,
        t.pm_bytes,
        t.dram_bytes,
        t.ssd_bytes,
        t.read_bytes,
        t.write_bytes,
        t.cpu_ops,
    ] {
        traffic.eat(x);
    }
    for row in &t.rows {
        row.label.bytes().for_each(|b| traffic.eat(b as u64));
        traffic.eat(row.bytes);
        traffic.eat(row.media_bytes);
        traffic.eat(row.accesses);
    }
    let s = &report.stats;
    let mut stats = Fnv::new();
    for x in [
        s.requests,
        s.lookups,
        s.topks,
        s.batches,
        s.hits,
        s.misses,
        s.fetches,
        s.evictions,
        s.admission_rejects,
        s.cold_read_bytes,
        s.dram_read_bytes,
        s.dram_write_bytes,
        s.faults_injected,
        s.faults_retried,
        s.hedges_won,
        s.degraded,
        s.ivf_queries,
        s.ivf_probes,
        s.ivf_centroid_bytes,
        s.ivf_dram_bytes,
        s.ivf_cold_bytes,
    ] {
        stats.eat(x);
    }
    let mut latencies = Fnv::new();
    latencies.eat(report.sim_latency_ns.len() as u64);
    report
        .sim_latency_ns
        .iter()
        .for_each(|&ns| latencies.eat(ns));
    (srv.sim_now().as_nanos(), traffic.0, stats.0, latencies.0)
}

/// What a `serve_lookup`-shaped run books, pinned from the commit before a
/// lookup outcome stopped carrying its own counter table and the ledger
/// began folding each batch's lookup charge at once (`84a1493`): the
/// traffic summary, the simulated clock, the stats ledger and every
/// request's latency, clean and under a transient + timeout PM plan, at
/// one and four threads. Where a lookup's charge is booked is host
/// bookkeeping; none of these may move.
#[test]
fn lookup_ledger_is_pinned() {
    let want = [
        (
            false,
            (
                1_451_154,
                17_296_493_431_878_995_744,
                2_498_167_956_602_480_719,
                2_315_973_286_625_814_599,
            ),
        ),
        (
            true,
            (
                2_554_135,
                12_597_346_031_271_439_128,
                5_068_800_828_418_483_343,
                4_976_832_422_294_365_949,
            ),
        ),
    ];
    let mut moved = Vec::new();
    for (faulted, want) in want {
        for threads in [1, 4] {
            let got = lookup_ledger(faulted, threads);
            if got != want {
                moved.push(format!(
                    "faulted {faulted} threads {threads}: {got:?}, pinned {want:?}"
                ));
            }
        }
    }
    assert!(moved.is_empty(), "ledger moved:\n{}", moved.join("\n"));
}
