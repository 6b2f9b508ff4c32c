//! Determinism under parallelism: thread count is a wall-clock knob, never
//! a results knob. The serving engine's metrics export, responses and
//! latencies, the SpMM kernel's numeric output, and the whole training
//! path (ProNE embed with parallel dense kernels, walk-corpus generation)
//! must be **byte-identical** at `--threads 1`, `2` and `8`, with and
//! without an installed fault plan, and across repeated runs at the same
//! seed.

use omega::faults::{install_plan, FaultPlanSpec};
use omega::hetmem::{DeviceKind, MemSystem, Placement, Topology};
use omega::obs::{Recorder, Track};
use omega::serve::{EmbedServer, Popularity, RequestStream, Response, ServeConfig, WorkloadConfig};
use omega_embed::prone::{Prone, ProneConfig};
use omega_graph::{Csdb, RmatConfig};
use omega_spmm::{SpmmConfig, SpmmEngine};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Fault-plan seed under test: the CI chaos matrix sweeps
/// `OMEGA_FAULT_SEED`; locally the default applies. Determinism across
/// thread counts must hold for *any* schedule — the seed only moves which
/// accesses misbehave.
fn plan_seed() -> u64 {
    std::env::var("OMEGA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1729)
}

fn serve_config(threads: usize) -> ServeConfig {
    ServeConfig::new(8 * 32 * 8 * 4)
        .rows_per_shard(32)
        .cold(Placement::node(0, DeviceKind::Pm))
        .threads(threads)
}

/// One fixed-seed serving run at the given thread count; returns the full
/// metrics JSONL export (counters, gauges, latency histogram — every
/// simulated observable).
fn serve_run(threads: usize, plan: Option<FaultPlanSpec>) -> String {
    let emb = omega::Embedding::from_matrix(&omega::linalg::gaussian_matrix(1_500, 8, 42));
    let sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
    let sys = match plan {
        Some(spec) => install_plan(&sys, spec),
        None => sys,
    };
    let rec = Recorder::enabled();
    let mut srv = EmbedServer::new(&sys, &emb, serve_config(threads))
        .unwrap()
        .with_recorder(&rec, Track::MAIN);
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(1_500, Popularity::Zipf { s: 1.0 }, 7).with_topk(0.03, 6),
    );
    srv.run(&mut load, 1_500);
    rec.metrics_jsonl()
}

/// Fault-free serving: the metrics export is byte-identical at every
/// thread count and across repeated runs.
#[test]
fn serve_metrics_identical_across_thread_counts() {
    let baseline = serve_run(1, None);
    assert!(!baseline.is_empty());
    for threads in THREAD_COUNTS {
        let got = serve_run(threads, None);
        assert_eq!(
            got, baseline,
            "metrics drifted between threads=1 and threads={threads}"
        );
    }
    assert_eq!(serve_run(8, None), baseline, "rerun at threads=8 drifted");
}

/// Under an installed fault plan: every injected verdict draws from a
/// stream keyed by *what* is processed (shard id, request index), so the
/// whole fault schedule — retries, hedges, degradations and their
/// simulated cost — replays byte-identically at every thread count.
#[test]
fn faulted_serve_metrics_identical_across_thread_counts() {
    let spec = || FaultPlanSpec::new(plan_seed()).with_transient(DeviceKind::Pm, 0.05, 3_000);
    let baseline = serve_run(1, Some(spec()));
    // The plan must actually fire, or this test proves nothing.
    assert!(
        baseline.contains(r#""fault.injected""#),
        "fault counters missing from export"
    );
    for threads in THREAD_COUNTS {
        let got = serve_run(threads, Some(spec()));
        assert_eq!(
            got, baseline,
            "faulted metrics drifted between threads=1 and threads={threads}"
        );
    }
}

/// Responses and per-request simulated latencies — not just aggregate
/// metrics — are identical at every thread count, mixed Get/TopK batch
/// included.
#[test]
fn serve_responses_identical_across_thread_counts() {
    let emb = omega::Embedding::from_matrix(&omega::linalg::gaussian_matrix(800, 8, 9));
    let run = |threads: usize| {
        let sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
        let mut srv = EmbedServer::new(&sys, &emb, serve_config(threads)).unwrap();
        let mut load = RequestStream::new(
            WorkloadConfig::lookups(800, Popularity::Zipf { s: 1.0 }, 13).with_topk(0.1, 7),
        );
        let requests = load.take_requests(96);
        srv.serve_batch(&requests)
    };
    let baseline = run(1);
    for threads in THREAD_COUNTS {
        let got = run(threads);
        assert_eq!(
            got.sim_latency_ns, baseline.sim_latency_ns,
            "latencies drifted at threads={threads}"
        );
        assert_eq!(got.responses.len(), baseline.responses.len());
        for (i, (a, b)) in baseline.responses.iter().zip(&got.responses).enumerate() {
            match (a, b) {
                (Response::Vector(x), Response::Vector(y)) => {
                    assert_eq!(x, y, "request {i} at threads={threads}")
                }
                (Response::Neighbors(x), Response::Neighbors(y)) => {
                    assert_eq!(x, y, "request {i} at threads={threads}")
                }
                _ => panic!("response kind flipped at request {i}"),
            }
        }
    }
}

/// One fixed-seed training run with `wall_threads` workers on the SpMM
/// workload pool and the dense GEMM/QR/SVD kernels; returns the embedding
/// (row-major) and the full metrics JSONL export.
fn prone_run(wall_threads: usize, plan: Option<FaultPlanSpec>) -> (Vec<f32>, String) {
    let csr = RmatConfig::social(600, 5_000, 17).generate_csr().unwrap();
    let sys = MemSystem::new(Topology::paper_machine_scaled(16 << 20));
    let sys = match plan {
        Some(spec) => install_plan(&sys, spec),
        None => sys,
    };
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
    let (emb, _) = prone.embed(&csr).unwrap();
    (emb.data().to_vec(), rec.metrics_jsonl())
}

/// Training metrics and embeddings are byte/bit-identical at every
/// wall-thread count: wall workers partition only output panels, Chebyshev
/// term chunks and workload indices, never a reduction.
#[test]
fn prone_training_identical_across_wall_thread_counts() {
    let (base_emb, base_metrics) = prone_run(1, None);
    assert!(!base_metrics.is_empty());
    for threads in THREAD_COUNTS {
        let (emb, metrics) = prone_run(threads, None);
        assert_eq!(
            metrics, base_metrics,
            "training metrics drifted at wall_threads={threads}"
        );
        assert_eq!(emb.len(), base_emb.len());
        for (i, (a, b)) in base_emb.iter().zip(&emb).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "embedding entry {i} drifted at wall_threads={threads}: {a} vs {b}"
            );
        }
    }
    let (emb, metrics) = prone_run(8, None);
    assert_eq!(metrics, base_metrics, "rerun at wall_threads=8 drifted");
    assert!(emb
        .iter()
        .zip(&base_emb)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

/// Under an installed fault plan the whole training fault schedule —
/// injected verdicts, retries, their simulated cost — is keyed by
/// (column batch, workload index) and so replays byte-identically at every
/// wall-thread count.
#[test]
fn faulted_prone_training_identical_across_wall_thread_counts() {
    // Higher rate than the serving test: training makes far fewer fault
    // draws (one per column batch × workload), so 5% can miss entirely
    // under some seeds.
    let spec = || FaultPlanSpec::new(plan_seed()).with_transient(DeviceKind::Pm, 0.25, 3_000);
    let (base_emb, base_metrics) = prone_run(1, Some(spec()));
    assert!(
        base_metrics.contains(r#""fault.injected""#),
        "fault counters missing from training export"
    );
    for threads in THREAD_COUNTS {
        let (emb, metrics) = prone_run(threads, Some(spec()));
        assert_eq!(
            metrics, base_metrics,
            "faulted training metrics drifted at wall_threads={threads}"
        );
        assert!(emb
            .iter()
            .zip(&base_emb)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}

/// Walk-corpus generation on the shared pool is identical to the serial
/// corpus at every worker count, for both fixed-length and
/// information-adaptive walks.
#[test]
fn walk_corpora_identical_across_worker_counts() {
    use omega_walk::{InfoWalkConfig, InfoWalker, WalkConfig, Walker};
    let csr = RmatConfig::social(300, 2_500, 23).generate_csr().unwrap();
    let walker = Walker::new(&csr, WalkConfig::deepwalk(3, 10, 7));
    let serial = walker.generate_all(1);
    let info = InfoWalker::new(&csr, InfoWalkConfig::default());
    let info_serial = info.generate_all(1);
    for threads in THREAD_COUNTS {
        assert_eq!(
            walker.generate_all(threads),
            serial,
            "walk corpus drifted at workers={threads}"
        );
        assert_eq!(
            info.generate_all(threads),
            info_serial,
            "info-walk corpus drifted at workers={threads}"
        );
    }
}

/// SpMM numeric output is bit-identical at every worker count: threads
/// change row partitioning only, and every row's reduction runs over the
/// full row in a fixed order through the shared sparse kernel.
#[test]
fn spmm_result_bit_identical_across_thread_counts() {
    let csr = RmatConfig::social(512, 6_000, 21).generate_csr().unwrap();
    let csdb = Csdb::from_csr(&csr).unwrap();
    let dense = omega::linalg::gaussian_matrix(512, 16, 5);
    let run = |threads: usize| {
        let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 24));
        let engine = SpmmEngine::new(sys, SpmmConfig::omega(threads)).unwrap();
        engine.spmm(&csdb, &dense).unwrap().result.to_row_major()
    };
    let baseline = run(1);
    for threads in THREAD_COUNTS {
        let got = run(threads);
        assert_eq!(got.len(), baseline.len());
        for (i, (a, b)) in baseline.iter().zip(&got).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "entry {i} drifted at threads={threads}: {a} vs {b}"
            );
        }
    }
}
