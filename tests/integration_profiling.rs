//! The profiling determinism contract, end to end: wall-clock profiling
//! (ambient `PoolProfiler`, phase scopes, worker timelines) observes the
//! system without perturbing it. Every simulated observable — total sim
//! time, byte traffic, the full metrics JSONL export, embeddings — is
//! byte-identical with profiling enabled or disabled, at wall threads 1
//! and 8, for both the serving and the training path. The profiled runs
//! must also actually profile: non-vacuous pool activity, exact interval
//! accounting, and collapsed stacks that include the bridged pool tracks.

use omega::hetmem::{DeviceKind, MemSystem, Placement, Topology};
use omega::obs::{record_pool_timeline, Recorder, Track};
use omega::par::{install, PoolProfiler};
use omega::serve::{EmbedServer, Popularity, RequestStream, ServeConfig, WorkloadConfig};
use omega_embed::prone::{Prone, ProneConfig};
use omega_graph::RmatConfig;
use omega_spmm::{SpmmConfig, SpmmEngine};
use std::time::Instant;

const WALL_THREADS: [usize; 2] = [1, 8];

/// Floor on the share of a profiled run's wall clock that the phase scopes
/// account for at 8 wall threads (task + idle + park + barrier over all
/// labels): a pool call outside any scope, or serial work that grew between
/// the scopes, shows up as a drop here.
const MIN_PHASE_COVERAGE: f64 = 0.90;

/// Profile `timed_run` (which returns the wall nanoseconds of the call under
/// test) and hold its phase scopes to [`MIN_PHASE_COVERAGE`]. The floor is a
/// property of where the scopes sit, while a caller descheduled between two
/// scopes inflates one run's wall only — so the best of three runs counts.
fn assert_phase_coverage(what: &str, timed_run: impl Fn() -> u64) {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let prof = PoolProfiler::enabled();
        let wall_ns = {
            let _guard = install(&prof);
            timed_run()
        };
        let attributed: u64 = prof
            .profiles()
            .iter()
            .map(|(_, p)| p.attributed_wall_ns())
            .sum();
        best = best.max(attributed as f64 / wall_ns.max(1) as f64);
        if best >= MIN_PHASE_COVERAGE {
            return;
        }
    }
    panic!("phase scopes attribute only {best:.3} of a profiled {what}'s wall (best of 3)");
}

/// One fixed-seed serving run; returns `(sim_ns, bytes, metrics_jsonl)` —
/// every simulated observable — plus the recorder for span inspection and
/// the wall nanoseconds of the `run` call alone.
fn serve_run_sized(
    nodes: u32,
    dim: usize,
    requests: usize,
    topk_fraction: f64,
    threads: usize,
) -> (u64, u64, String, Recorder, u64) {
    let emb =
        omega::Embedding::from_matrix(&omega::linalg::gaussian_matrix(nodes as usize, dim, 42));
    let sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
    let cfg = ServeConfig::new(8 * 32 * dim as u64 * 4)
        .rows_per_shard(32)
        .cold(Placement::node(0, DeviceKind::Pm))
        .threads(threads);
    let rec = Recorder::enabled();
    let mut srv = EmbedServer::new(&sys, &emb, cfg)
        .unwrap()
        .with_recorder(&rec, Track::MAIN);
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(nodes, Popularity::Zipf { s: 1.0 }, 7).with_topk(topk_fraction, 6),
    );
    let start = Instant::now();
    let report = srv.run(&mut load, requests);
    let wall_ns = start.elapsed().as_nanos() as u64;
    (
        report.total_sim.as_nanos(),
        report.traffic.total_bytes,
        rec.metrics_jsonl(),
        rec,
        wall_ns,
    )
}

/// The determinism checks' serving run: small, since they repeat it.
fn serve_run(threads: usize) -> (u64, u64, String, Recorder, u64) {
    serve_run_sized(1_500, 8, 1_200, 0.1, threads)
}

/// One fixed-seed training run; returns `(sim_ns, embedding, metrics)` plus
/// the wall nanoseconds of the `embed` call alone.
fn prone_run(wall_threads: usize) -> (u64, Vec<f32>, String, u64) {
    let csr = RmatConfig::social(600, 5_000, 17).generate_csr().unwrap();
    let sys = MemSystem::new(Topology::paper_machine_scaled(16 << 20));
    let rec = Recorder::enabled();
    let engine = SpmmEngine::new(sys, SpmmConfig::omega(4))
        .unwrap()
        .with_recorder(rec.clone())
        .with_wall_threads(wall_threads);
    let prone = Prone::new(
        engine,
        ProneConfig {
            dim: 16,
            oversample: 8,
            threads: wall_threads,
            ..ProneConfig::default()
        },
    );
    let start = Instant::now();
    let (emb, report) = prone.embed(&csr).unwrap();
    let wall_ns = start.elapsed().as_nanos() as u64;
    (
        report.total().as_nanos(),
        emb.data().to_vec(),
        rec.metrics_jsonl(),
        wall_ns,
    )
}

/// Serving: sim time, bytes, and the metrics export are byte-identical
/// with profiling on or off at every wall-thread count — and the profiled
/// runs record real, exactly-accounted pool activity whose phase scopes
/// cover the run's wall.
#[test]
fn serving_observables_identical_with_profiling_on_or_off() {
    let (base_sim, base_bytes, base_metrics, ..) = serve_run(1);
    assert!(!base_metrics.is_empty());
    for threads in WALL_THREADS {
        // Unprofiled.
        let (sim, bytes, metrics, ..) = serve_run(threads);
        assert_eq!(sim, base_sim, "sim_ns drifted at threads={threads}");
        assert_eq!(bytes, base_bytes, "bytes drifted at threads={threads}");
        assert_eq!(
            metrics, base_metrics,
            "metrics drifted at threads={threads}"
        );
        // Profiled.
        let prof = PoolProfiler::enabled();
        let (sim, bytes, metrics, ..) = {
            let _guard = install(&prof);
            serve_run(threads)
        };
        assert_eq!(
            sim, base_sim,
            "profiling changed sim_ns at threads={threads}"
        );
        assert_eq!(
            bytes, base_bytes,
            "profiling changed bytes at threads={threads}"
        );
        assert_eq!(
            metrics, base_metrics,
            "profiling changed the metrics export at threads={threads}"
        );
        // Non-vacuous: phase scopes fired, and the accounting identities
        // hold on whatever was recorded.
        let labels: Vec<String> = prof.profiles().into_iter().map(|(l, _)| l).collect();
        for phase in ["fetch", "lookup", "topk"] {
            assert!(
                labels.iter().any(|l| l == phase),
                "phase {phase:?} missing from profiled serving run at \
                 threads={threads}: {labels:?}"
            );
        }
        let total = prof.total();
        assert!(total.calls + total.seq_calls > 0);
        assert_eq!(
            total.exec_ns + total.idle_ns + total.park_ns + total.barrier_ns,
            total.worker_wall_ns
        );
        assert_eq!(
            total.exec_wall_ns + total.idle_wall_ns + total.park_wall_ns + total.barrier_wall_ns,
            total.wall_ns
        );
    }
    // Scans long enough that the serial glue between the phase scopes stays
    // a small share of the wall however the host schedules eight workers:
    // at `serve_run`'s size a run lasts a few milliseconds, and an
    // oversubscribed 2-core host read as low as 0.86.
    assert_phase_coverage("EmbedServer::run", || {
        serve_run_sized(6_000, 32, 4_000, 0.25, 8).4
    });
}

/// Training: embedding bits, sim time, and metrics are identical with
/// profiling on or off at wall threads 1 and 8, and the phase scopes cover
/// the embed's wall.
#[test]
fn training_observables_identical_with_profiling_on_or_off() {
    let (base_sim, base_emb, base_metrics, _) = prone_run(1);
    assert!(!base_metrics.is_empty());
    for threads in WALL_THREADS {
        let prof = PoolProfiler::enabled();
        let (sim, emb, metrics, _) = {
            let _guard = install(&prof);
            prone_run(threads)
        };
        assert_eq!(
            sim, base_sim,
            "profiling changed sim_ns at threads={threads}"
        );
        assert_eq!(
            metrics, base_metrics,
            "profiling changed training metrics at threads={threads}"
        );
        assert_eq!(emb.len(), base_emb.len());
        for (i, (a, b)) in base_emb.iter().zip(&emb).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "embedding entry {i} drifted under profiling at threads={threads}"
            );
        }
        let labels: Vec<String> = prof.profiles().into_iter().map(|(l, _)| l).collect();
        for phase in ["read", "tsvd", "propagate", "combine"] {
            assert!(
                labels.iter().any(|l| l == phase),
                "phase {phase:?} missing from profiled training run at \
                 threads={threads}: {labels:?}"
            );
        }
    }
    assert_phase_coverage("Prone::embed", || prone_run(8).3);
}

/// The pool-timeline bridge adds spans to the recorder (so collapsed
/// stacks and traces show worker activity) without moving any simulated
/// clock: the metrics export is untouched and every bridged span carries
/// zero simulated duration.
#[test]
fn pool_timeline_bridge_is_sim_invisible() {
    let prof = PoolProfiler::enabled();
    // Pin the dispatch policy: the bridge needs real pool calls even on
    // single-core hosts, where the default adaptive policy would keep the
    // serve fan-outs inline.
    let (_, _, metrics_before, rec, _) =
        omega::par::with_dispatch_policy(omega::par::DispatchPolicy::always_parallel(), || {
            let _guard = install(&prof);
            serve_run(8)
        });
    let spans_before = rec.spans().len();
    record_pool_timeline(&rec, &prof, 1);
    let spans = rec.spans();
    assert!(
        spans.len() > spans_before,
        "bridge added no spans despite recorded pool calls"
    );
    for span in &spans[spans_before..] {
        assert_eq!(
            span.track.pid, 1,
            "bridged spans must live on their own pid"
        );
        assert_eq!(
            span.sim_dur_ns, 0,
            "bridged span {:?} carries simulated time",
            span.name
        );
    }
    assert_eq!(
        rec.metrics_jsonl(),
        metrics_before,
        "bridging pool timelines changed the metrics export"
    );
    let collapsed = rec.collapsed_stacks();
    assert!(
        collapsed.lines().any(|l| l.starts_with("pool:")),
        "collapsed stacks lack pool worker frames:\n{collapsed}"
    );
}
