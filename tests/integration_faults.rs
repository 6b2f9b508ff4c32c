//! Chaos suite for the deterministic fault-injection layer
//! (`omega-faults`): under every fault plan the serving and SpMM paths must
//! stay *value-correct* — responses in arrival order, bit-identical to a
//! fault-free run — while retries stay bounded, the fault-resolution
//! identity holds, and the whole injected schedule is a pure function of
//! the plan seed (same seed ⇒ byte-identical metrics JSONL).
//!
//! The plan seed comes from `OMEGA_FAULT_SEED` when set (the CI chaos
//! matrix sweeps it), so the same assertions run under several schedules.

use omega_embed::{Embedding, Metric};
use omega_faults::{install_plan, FaultPlanSpec};
use omega_hetmem::{DeviceKind, MemSystem, Placement, Topology};
use omega_obs::{Recorder, Track};
use omega_serve::{
    EmbedServer, IndexMode, Popularity, Request, RequestKind, RequestStream, Response, ServeConfig,
    ServeStats, WorkloadConfig,
};

const DIM: usize = 8;

/// Plan seed under test: the CI chaos matrix sweeps `OMEGA_FAULT_SEED`;
/// locally the default applies. Every assertion here must hold for *any*
/// seed — the seed only moves which accesses misbehave.
fn plan_seed() -> u64 {
    std::env::var("OMEGA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1729)
}

fn embedding(nodes: u32, seed: u64) -> Embedding {
    Embedding::from_matrix(&omega_linalg::gaussian_matrix(nodes as usize, DIM, seed))
}

fn system() -> MemSystem {
    MemSystem::new(Topology::paper_machine_scaled(8 << 20))
}

fn config(cache_shards: u64) -> ServeConfig {
    ServeConfig::new(cache_shards * 16 * DIM as u64 * 4).rows_per_shard(16)
}

/// The five chaos plans: transient PM faults, an SSD timeout window, a
/// latency spike, a degraded socket, and everything at once. Returned with
/// the cold device each plan targets.
fn chaos_plans(seed: u64) -> Vec<(&'static str, FaultPlanSpec, DeviceKind)> {
    vec![
        (
            "transient-pm",
            FaultPlanSpec::new(seed).with_transient(DeviceKind::Pm, 0.5, 3_000),
            DeviceKind::Pm,
        ),
        (
            "ssd-timeout",
            FaultPlanSpec::new(seed).with_timeout(DeviceKind::Ssd, 0.5, 40_000),
            DeviceKind::Ssd,
        ),
        (
            "pm-spike",
            FaultPlanSpec::new(seed).with_spike(DeviceKind::Pm, 4.0, 0, u64::MAX),
            DeviceKind::Pm,
        ),
        (
            "socket-degrade",
            FaultPlanSpec::new(seed).with_degrade(0, 2.0, 0),
            DeviceKind::Pm,
        ),
        (
            "combined",
            FaultPlanSpec::new(seed)
                .with_transient(DeviceKind::Pm, 0.3, 3_000)
                .with_timeout(DeviceKind::Ssd, 0.3, 40_000)
                .with_degrade(0, 1.5, 0),
            DeviceKind::Pm,
        ),
    ]
}

/// A shard-crossing, duplicated request order with top-k queries mixed in —
/// the batching stress shape from the serving suite.
fn chaos_requests() -> Vec<Request> {
    let mut requests = Request::gets(&[299, 0, 150, 0, 17, 299, 63, 202, 88, 241, 5, 190]);
    requests.insert(
        4,
        Request {
            node: 150,
            kind: RequestKind::top_k(5),
        },
    );
    requests.push(Request {
        node: 63,
        kind: RequestKind::top_k(7),
    });
    requests
}

/// Under every chaos plan, every response arrives in order and is
/// bit-identical to the fault-free answer: retries, hedges, and replica
/// fallbacks change *when*, never *what*.
#[test]
fn responses_under_every_plan_match_fault_free_values() {
    let emb = embedding(300, 2);
    let requests = chaos_requests();

    for (name, spec, cold) in chaos_plans(plan_seed()) {
        let sys = install_plan(&system(), spec);
        let cfg = config(4).cold(Placement::node(0, cold));
        let mut srv = EmbedServer::new(&sys, &emb, cfg).unwrap();

        // Several batches so the high-rate plans fire with near certainty.
        for round in 0..4 {
            let batch = srv.serve_batch(&requests);
            assert_eq!(batch.responses.len(), requests.len(), "plan {name}");
            for (req, resp) in requests.iter().zip(&batch.responses) {
                match (req.kind, resp) {
                    (RequestKind::Get, Response::Vector(v)) => assert_eq!(
                        v.as_slice(),
                        emb.vector(req.node),
                        "plan {name} round {round} node {}",
                        req.node
                    ),
                    (RequestKind::TopK { k, .. }, Response::Neighbors(n)) => assert_eq!(
                        n,
                        &emb.top_k(emb.vector(req.node), k, Metric::Dot),
                        "plan {name} round {round} node {}",
                        req.node
                    ),
                    (kind, resp) => panic!("plan {name}: kind mismatch {kind:?} vs {resp:?}"),
                }
            }
        }

        // The resolution identity: every observed failure resolved exactly
        // once — retried, hedged to the replica, or degraded after the
        // retry budget.
        let st = srv.stats();
        assert_eq!(
            st.faults_injected,
            st.faults_retried + st.hedges_won + st.degraded,
            "plan {name}"
        );
        match name {
            // 50% transient on a 4-shard cache: faults are near-certain,
            // and transients never hedge (hedging is the timeout path).
            "transient-pm" => {
                assert!(st.faults_injected > 0, "plan {name} must fire");
                assert_eq!(st.hedges_won, 0, "plan {name}");
            }
            // 50% SSD timeouts: every injected fault hedges immediately,
            // nothing is retried against a device that timed out.
            "ssd-timeout" => {
                assert!(st.faults_injected > 0, "plan {name} must fire");
                assert_eq!(st.faults_retried, 0, "plan {name}");
                assert_eq!(st.degraded, 0, "plan {name}");
                assert_eq!(st.hedges_won, st.faults_injected, "plan {name}");
            }
            // Spikes and degradation slow accesses down but never fail them.
            "pm-spike" | "socket-degrade" => {
                assert_eq!(st.faults_injected, 0, "plan {name} injects no failures");
            }
            _ => {}
        }
    }
}

/// The IVF probe path under chaos: with a zero hot budget every inverted
/// list lives on the cold tier, so probe reads face the same fault plans
/// as fetches — and every response (Gets and approximate top-k alike)
/// stays bit-identical to a fault-free run of the same index, while the
/// resolution identity keeps balancing with probe traffic folded in.
#[test]
fn ivf_responses_under_every_plan_match_fault_free_values() {
    let emb = embedding(300, 2);
    let requests = chaos_requests();
    let ivf_cfg = |cold: DeviceKind| {
        config(4)
            .cold(Placement::node(0, cold))
            .index(IndexMode::Ivf {
                nlist: 0,
                nprobe: 0,
            })
            .ivf_hot_bytes(0)
    };

    for (name, spec, cold) in chaos_plans(plan_seed()) {
        // Fault-free reference server with the identical IVF configuration.
        let mut reference = EmbedServer::new(&system(), &emb, ivf_cfg(cold)).unwrap();
        let sys = install_plan(&system(), spec);
        let mut srv = EmbedServer::new(&sys, &emb, ivf_cfg(cold)).unwrap();
        assert_eq!(
            srv.ivf().unwrap().hot_list_count(),
            0,
            "plan {name}: a zero hot budget must leave every list cold"
        );

        for round in 0..4 {
            let want = reference.serve_batch(&requests).responses;
            let got = srv.serve_batch(&requests).responses;
            assert_eq!(got, want, "plan {name} round {round}");
        }

        let st = srv.stats();
        assert!(st.ivf_queries > 0, "plan {name}: top-k must route via IVF");
        assert!(st.ivf_cold_bytes > 0, "plan {name}: probes must hit cold");
        assert_eq!(
            st.faults_injected,
            st.faults_retried + st.hedges_won + st.degraded,
            "plan {name}"
        );
        match name {
            "transient-pm" => {
                assert!(st.faults_injected > 0, "plan {name} must fire");
                assert_eq!(st.hedges_won, 0, "plan {name}");
            }
            "ssd-timeout" => {
                assert!(st.faults_injected > 0, "plan {name} must fire");
                assert_eq!(st.faults_retried, 0, "plan {name}");
                assert_eq!(st.degraded, 0, "plan {name}");
                assert_eq!(st.hedges_won, st.faults_injected, "plan {name}");
            }
            "pm-spike" | "socket-degrade" => {
                assert_eq!(st.faults_injected, 0, "plan {name} injects no failures");
            }
            _ => {}
        }
    }
}

/// Latency-only plans (spike, degrade) cost simulated time without
/// injecting a single failure: same values, same traffic, more nanoseconds.
#[test]
fn latency_plans_slow_the_clock_without_failures() {
    let run_with = |spec: Option<FaultPlanSpec>| {
        let emb = embedding(400, 3);
        let sys = match spec {
            Some(spec) => install_plan(&system(), spec),
            None => system(),
        };
        let mut srv = EmbedServer::new(&sys, &emb, config(4)).unwrap();
        let mut load =
            RequestStream::new(WorkloadConfig::lookups(400, Popularity::Zipf { s: 1.0 }, 7));
        let report = srv.run(&mut load, 1_000);
        (report.total_sim, report.stats)
    };

    let (base, base_st) = run_with(None);
    let seed = plan_seed();
    for (name, spec) in [
        (
            "spike",
            FaultPlanSpec::new(seed).with_spike(DeviceKind::Pm, 4.0, 0, u64::MAX),
        ),
        ("degrade", FaultPlanSpec::new(seed).with_degrade(0, 2.0, 0)),
    ] {
        let (slow, st) = run_with(Some(spec));
        assert!(slow > base, "{name}: {slow} must exceed fault-free {base}");
        assert_eq!(st.faults_injected, 0, "{name} injects no failures");
        // The byte ledger is untouched: latency plans charge time, not
        // traffic.
        assert_eq!(st.cold_read_bytes, base_st.cold_read_bytes, "{name}");
        assert_eq!(st.dram_write_bytes, base_st.dram_write_bytes, "{name}");
        assert_eq!(st.hits, base_st.hits, "{name}");
    }
}

/// The default retry budget mostly resolves transients by retrying, and
/// the identity still balances.
#[test]
fn retry_budget_bounds_attempts() {
    let emb = embedding(300, 4);
    let sys = install_plan(
        &system(),
        FaultPlanSpec::new(plan_seed()).with_transient(DeviceKind::Pm, 0.5, 3_000),
    );
    let mut srv = EmbedServer::new(&sys, &emb, config(2)).unwrap();
    let mut load = RequestStream::new(WorkloadConfig::lookups(
        300,
        Popularity::Zipf { s: 1.0 },
        13,
    ));
    srv.run(&mut load, 1_000);
    let st = srv.stats();
    assert!(st.faults_injected > 0);
    // Retries can never exceed the injected count (each failure is
    // counted once, resolved once).
    assert!(st.faults_retried <= st.faults_injected);
    assert!(st.faults_retried > 0, "default budget retries transients");
    assert_eq!(
        st.faults_injected,
        st.faults_retried + st.hedges_won + st.degraded
    );
}

/// Every [`ServeStats`] column, in declaration order — the field-for-field
/// view the window test below subtracts.
fn ledger(st: &ServeStats) -> [u64; 21] {
    [
        st.requests,
        st.lookups,
        st.topks,
        st.batches,
        st.hits,
        st.misses,
        st.fetches,
        st.evictions,
        st.admission_rejects,
        st.cold_read_bytes,
        st.dram_read_bytes,
        st.dram_write_bytes,
        st.faults_injected,
        st.faults_retried,
        st.hedges_won,
        st.degraded,
        st.ivf_queries,
        st.ivf_probes,
        st.ivf_centroid_bytes,
        st.ivf_dram_bytes,
        st.ivf_cold_bytes,
    ]
}

/// A run reports its own window: on a server that has already served, the
/// second report's stats are exactly the lifetime ledger after minus the
/// lifetime ledger before, column by column — under a plan that moves the
/// fault columns, through the IVF path so those columns move too.
#[test]
fn second_run_reports_only_its_own_window() {
    let emb = embedding(300, 4);
    let sys = install_plan(
        &system(),
        FaultPlanSpec::new(plan_seed()).with_transient(DeviceKind::Pm, 0.5, 3_000),
    );
    let cfg = config(2)
        .index(IndexMode::Ivf {
            nlist: 8,
            nprobe: 4,
        })
        .ivf_hot_bytes(0);
    let mut srv = EmbedServer::new(&sys, &emb, cfg).unwrap();
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(300, Popularity::Zipf { s: 1.0 }, 13).with_topk(0.1, 5),
    );
    let first = srv.run(&mut load, 400);
    assert_eq!(ledger(&first.stats), ledger(srv.stats()), "first window");
    let before = ledger(srv.stats());
    let second = srv.run(&mut load, 700);
    let after = ledger(srv.stats());
    let window: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(ledger(&second.stats).as_slice(), window.as_slice());
    assert_eq!(second.stats.requests, 700);
    assert!(second.stats.faults_injected > 0, "50% transients must fire");
    assert!(second.stats.ivf_probes > 0 && second.stats.ivf_cold_bytes > 0);
}

/// The full fault schedule is a pure function of (plan seed, workload seed):
/// same pair ⇒ byte-identical metrics JSONL; a different plan seed moves
/// the schedule and the exported bytes.
#[test]
fn fault_schedule_and_metrics_are_deterministic_per_seed() {
    let run_once = |fault_seed: u64| -> String {
        let emb = embedding(300, 6);
        let sys = install_plan(
            &system(),
            FaultPlanSpec::new(fault_seed)
                .with_transient(DeviceKind::Pm, 0.3, 3_000)
                .with_degrade(0, 1.5, 0),
        );
        let rec = Recorder::enabled();
        let mut srv = EmbedServer::new(&sys, &emb, config(4))
            .unwrap()
            .with_recorder(&rec, Track::MAIN);
        let mut load = RequestStream::new(
            WorkloadConfig::lookups(300, Popularity::Zipf { s: 1.0 }, 42).with_topk(0.02, 5),
        );
        srv.run(&mut load, 1_500);
        rec.metrics_jsonl()
    };
    let seed = plan_seed();
    let a = run_once(seed);
    let b = run_once(seed);
    assert_eq!(a, b, "same plan seed must export identical metric bytes");
    let c = run_once(seed ^ 0x9e37_79b9_7f4a_7c15);
    assert_ne!(a, c, "a different plan seed must move the fault schedule");

    // The exported counters obey the resolution identity too.
    let rows = omega_obs::export::parse_metrics_jsonl(&a).unwrap();
    let counter = |name: &str| {
        rows.iter()
            .find(|(k, n, _)| k == "counter" && n == name)
            .map(|(_, _, v)| *v as u64)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert!(counter("fault.injected") > 0, "30% transients must fire");
    assert_eq!(
        counter("fault.injected"),
        counter("fault.retried") + counter("fault.hedge.won") + counter("serve.degraded"),
    );
}

/// A zero-rate plan is observationally free: installing it must leave the
/// metrics export byte-identical to running with no plan at all.
#[test]
fn zero_rate_plan_is_observationally_free() {
    let run_once = |spec: Option<FaultPlanSpec>| -> String {
        let emb = embedding(300, 6);
        let sys = match spec {
            Some(spec) => install_plan(&system(), spec),
            None => system(),
        };
        let rec = Recorder::enabled();
        let mut srv = EmbedServer::new(&sys, &emb, config(4))
            .unwrap()
            .with_recorder(&rec, Track::MAIN);
        let mut load = RequestStream::new(
            WorkloadConfig::lookups(300, Popularity::Zipf { s: 1.0 }, 42).with_topk(0.02, 5),
        );
        srv.run(&mut load, 1_500);
        rec.metrics_jsonl()
    };
    let plain = run_once(None);
    let zero = run_once(Some(FaultPlanSpec::new(plan_seed())));
    assert_eq!(plain, zero, "a zero-rate plan must be a perfect no-op");
}

/// The dual-clock observability invariants survive chaos: root spans still
/// cover the run, the track cursor still lands exactly on the total, and
/// the robustness spans show up where the plan makes them fire.
#[test]
fn observability_invariants_hold_under_faults() {
    let emb = embedding(500, 3);
    let sys = install_plan(
        &system(),
        FaultPlanSpec::new(plan_seed()).with_transient(DeviceKind::Pm, 0.5, 3_000),
    );
    let rec = Recorder::enabled();
    let track = Track::new(1, 0);
    let mut srv = EmbedServer::new(&sys, &emb, config(8))
        .unwrap()
        .with_recorder(&rec, track);
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(500, Popularity::Zipf { s: 1.0 }, 11).with_topk(0.02, 5),
    );
    let report = srv.run(&mut load, 1_000);
    assert!(report.stats.faults_injected > 0, "50% transients must fire");

    let spans = rec.spans();
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| s.sim_dur_ns)
        .sum();
    let total = report.total_sim.as_nanos();
    assert!(
        root_ns as f64 >= 0.95 * total as f64,
        "root spans cover {root_ns} of {total} simulated ns under faults"
    );
    assert_eq!(rec.cursor(track).as_nanos(), total);
    // Retried fetches leave their backoff spans on the timeline.
    assert!(
        spans.iter().any(|s| s.name == "serve.retry"),
        "retries must be visible as spans"
    );
}

/// SpMM under a fault plan: a failed worker chunk is re-run (degraded
/// mode), the numeric result stays bit-identical to the fault-free run,
/// and the degraded count is deterministic in the plan seed.
#[test]
fn spmm_degraded_mode_recomputes_exact_result() {
    use omega_graph::{Csdb, RmatConfig};
    use omega_spmm::{SpmmConfig, SpmmEngine};

    let csr = RmatConfig::social(512, 4_000, 3).generate_csr().unwrap();
    let a = Csdb::from_csr(&csr).unwrap();
    let b = omega_linalg::gaussian_matrix(512, DIM, 1);

    let clean = SpmmEngine::new(system(), SpmmConfig::omega(4))
        .unwrap()
        .spmm(&a, &b)
        .unwrap();
    assert_eq!(clean.degraded_chunks, 0, "no plan, no degradation");

    let run_faulted = || {
        let sys = install_plan(
            &system(),
            FaultPlanSpec::new(plan_seed()).with_transient(DeviceKind::Pm, 0.9, 3_000),
        );
        SpmmEngine::new(sys, SpmmConfig::omega(4))
            .unwrap()
            .spmm(&a, &b)
            .unwrap()
    };
    let faulted = run_faulted();
    assert!(
        faulted.degraded_chunks > 0,
        "90% transients must fail chunks"
    );
    assert_eq!(
        faulted.result.data(),
        clean.result.data(),
        "degraded re-runs must not change a single value"
    );
    // A degraded chunk pays its work twice: the faulted run is slower.
    assert!(faulted.makespan > clean.makespan);

    let again = run_faulted();
    assert_eq!(faulted.degraded_chunks, again.degraded_chunks);
    assert_eq!(faulted.makespan, again.makespan);
}

/// What one server did with the mixed batches below: sim clock, all 21
/// ledger columns, and an FNV-1a digest over every response bit, every
/// per-request simulated latency and the traffic summary.
#[derive(Debug, PartialEq, Eq)]
struct MixedBatchPin {
    sim_now_ns: u64,
    ledger: [u64; 21],
    digest: u64,
}

fn mixed_batch_pin(ivf: bool, threads: usize) -> MixedBatchPin {
    // A literal seed: the pins below must not move with OMEGA_FAULT_SEED.
    let plan = FaultPlanSpec::new(4242)
        .with_transient(DeviceKind::Pm, 0.3, 3_000)
        .with_timeout(DeviceKind::Pm, 0.1, 40_000);
    let emb = embedding(3_000, 5);
    let index = if ivf {
        IndexMode::Ivf {
            nlist: 24,
            nprobe: 9,
        }
    } else {
        IndexMode::Exact
    };
    let cfg = config(4)
        .threads(threads)
        .index(index)
        .ivf_hot_bytes(8 << 10);
    let mut srv = EmbedServer::new(&install_plan(&system(), plan), &emb, cfg).unwrap();
    // Gets between top-k queries with their own k (0 and > n included) and
    // their own probe count (the full index, the plane's halved default,
    // one list), two of them from the same node.
    let top = |node: u32, k: usize, nprobe: Option<usize>| Request {
        node,
        kind: RequestKind::TopK { k, nprobe },
    };
    let get = |node: u32| Request {
        node,
        kind: RequestKind::Get,
    };
    let requests = [
        get(17),
        top(150, 5, None),
        get(0),
        top(150, 5, None),
        get(2_999),
        top(63, 0, None),
        top(2_047, 4_000, Some(24)),
        get(17),
        top(900, 12, Some(4)),
        get(1_200),
        top(1, 1, Some(1)),
    ];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x100_0000_01b3);
        }
    };
    // Three rounds: later ones see shards the earlier ones cached.
    for _ in 0..3 {
        let batch = srv.serve_batch(&requests);
        for resp in &batch.responses {
            match resp {
                Response::Vector(row) => row.iter().for_each(|x| eat(x.to_bits() as u64)),
                Response::Neighbors(found) => {
                    eat(found.len() as u64);
                    for &(id, score) in found {
                        eat(id as u64);
                        eat(score.to_bits() as u64);
                    }
                }
            }
        }
        batch.sim_latency_ns.iter().for_each(|&ns| eat(ns));
    }
    format!("{:?}", srv.traffic())
        .bytes()
        .for_each(|b| eat(b as u64));
    MixedBatchPin {
        sim_now_ns: srv.sim_now().as_nanos(),
        ledger: ledger(srv.stats()),
        digest,
    }
}

/// A batch's top-k queries are scored together and charged as one pass,
/// every leg at the pass's start time: under a transient + timeout plan
/// the clock, the ledger, every response and every latency are the same
/// at 1, 2 and 8 threads. Pinned first from a server that scored and
/// charged each query on its own; re-pinned when the `Get`s' refused
/// shards began to be read by the row, when a cold block several queries
/// share began to be staged once per batch (one fault draw a block
/// instead of one a reader), and when the batch's queries began to be
/// charged as one pass that reads each block once (the DRAM read columns
/// fell, and the later rounds start earlier, so they draw other fault
/// verdicts). The first nine ledger columns, requests through
/// `admission_rejects`, and the `ivf_queries` / `ivf_probes` /
/// `ivf_centroid_bytes` columns have not moved.
#[test]
fn mixed_batch_under_faults_is_charged_as_one_pass() {
    let want = [
        (
            false,
            MixedBatchPin {
                sim_now_ns: 4_489_559,
                ledger: [
                    33, 15, 18, 3, 14, 19, 16, 0, 12, 412_512, 289_088, 250_912, 320, 252, 61, 7,
                    0, 0, 0, 0, 0,
                ],
                digest: 9_082_442_800_417_282_331,
            },
        ),
        (
            true,
            MixedBatchPin {
                sim_now_ns: 753_377,
                ledger: [
                    33, 15, 18, 3, 14, 19, 16, 0, 12, 361_600, 219_296, 168_672, 35, 27, 8, 0, 18,
                    168, 13_824, 204_352, 356_640,
                ],
                digest: 12_343_416_259_273_263_607,
            },
        ),
    ];
    for (ivf, want) in want {
        for threads in [1, 2, 8] {
            assert_eq!(
                mixed_batch_pin(ivf, threads),
                want,
                "ivf {ivf} threads {threads}"
            );
        }
    }
}
