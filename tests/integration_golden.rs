//! Golden-snapshot tests: the full metrics JSONL of a fixed-seed pipeline
//! run and a fixed-seed serving run (fault-free and under a fault plan) are
//! committed under `tests/golden/` and diffed byte-for-byte in CI.
//!
//! These freeze the *entire* observable surface — every counter, gauge,
//! histogram bucket, and simulated-time total — so an accidental change to
//! the cost model, the scheduler, the cache policy, or the fault schedule
//! shows up as a diff, not as a silently shifted number.
//!
//! To bless an intentional change: `OMEGA_UPDATE_GOLDEN=1 cargo test -p
//! omega --test integration_golden`, then review and commit the diff.

use omega::faults::{install_plan, FaultPlanSpec};
use omega::hetmem::{DeviceKind, MemSystem, Placement, Topology};
use omega::obs::{json, Recorder, Track};
use omega::serve::{
    EmbedServer, IndexMode, Popularity, RequestStream, ServeConfig, WorkloadConfig,
};
use omega::{Omega, OmegaConfig};
use omega_graph::RmatConfig;
use serde::Value;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Compare `got` against the committed snapshot, or rewrite the snapshot
/// when `OMEGA_UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var("OMEGA_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); bless with OMEGA_UPDATE_GOLDEN=1")
    });
    assert_eq!(
        got, want,
        "{name} drifted from the committed snapshot; if the change is \
         intentional, bless it with OMEGA_UPDATE_GOLDEN=1 and commit the diff"
    );
}

/// The training pipeline's metrics for one fixed-seed embed run.
#[test]
fn pipeline_metrics_match_golden() {
    let csr = RmatConfig::social(512, 4_000, 3).generate_csr().unwrap();
    let rec = Recorder::enabled();
    let omega = Omega::new(OmegaConfig::default().with_dim(8).with_threads(4))
        .unwrap()
        .with_recorder(rec.clone());
    omega.embed(&csr).unwrap();
    assert_golden("pipeline_metrics.jsonl", &rec.metrics_jsonl());
}

fn serve_metrics(plan: Option<FaultPlanSpec>) -> String {
    serve_metrics_with_threads(plan, 1)
}

fn serve_metrics_with_threads(plan: Option<FaultPlanSpec>, threads: usize) -> String {
    let emb = omega::Embedding::from_matrix(&omega::linalg::gaussian_matrix(2_000, 8, 42));
    let sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
    let sys = match plan {
        Some(spec) => install_plan(&sys, spec),
        None => sys,
    };
    let cfg = ServeConfig::new(8 * 32 * 8 * 4)
        .rows_per_shard(32)
        .cold(Placement::node(0, DeviceKind::Pm))
        .threads(threads);
    let rec = Recorder::enabled();
    let mut srv = EmbedServer::new(&sys, &emb, cfg)
        .unwrap()
        .with_recorder(&rec, Track::MAIN);
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(2_000, Popularity::Zipf { s: 1.0 }, 7).with_topk(0.02, 5),
    );
    srv.run(&mut load, 2_000);
    rec.metrics_jsonl()
}

/// The serving run of [`serve_metrics_with_threads`] with an IVF index in
/// front of the top-k queries: auto `nlist`/`nprobe`, a hot-list budget
/// small enough that some lists land on the cold (PM) tier, so the
/// snapshot freezes centroid-scan, hot-probe and cold-probe accounting —
/// the whole `serve.ivf.*` surface — alongside everything the exact run
/// already pins.
fn ivf_serve_metrics_with_threads(plan: Option<FaultPlanSpec>, threads: usize) -> String {
    let emb = omega::Embedding::from_matrix(&omega::linalg::gaussian_matrix(2_000, 8, 42));
    let sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
    let sys = match plan {
        Some(spec) => install_plan(&sys, spec),
        None => sys,
    };
    let cfg = ServeConfig::new(8 * 32 * 8 * 4)
        .rows_per_shard(32)
        .cold(Placement::node(0, DeviceKind::Pm))
        .threads(threads)
        .index(IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        })
        .ivf_hot_bytes(8 << 10);
    let rec = Recorder::enabled();
    let mut srv = EmbedServer::new(&sys, &emb, cfg)
        .unwrap()
        .with_recorder(&rec, Track::MAIN);
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(2_000, Popularity::Zipf { s: 1.0 }, 7).with_topk(0.02, 5),
    );
    srv.run(&mut load, 2_000);
    rec.metrics_jsonl()
}

/// One fixed-seed training (ProNE embed) run with `wall_threads` workers
/// on both the SpMM workload pool and the dense kernels, optionally under
/// an installed fault plan. Returns the full metrics JSONL export.
fn prone_metrics_with_threads(plan: Option<FaultPlanSpec>, wall_threads: usize) -> String {
    use omega_embed::prone::{Prone, ProneConfig};
    use omega_spmm::{SpmmConfig, SpmmEngine};
    let csr = RmatConfig::social(512, 4_000, 3).generate_csr().unwrap();
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
            dim: 8,
            oversample: 8,
            threads: wall_threads,
            ..ProneConfig::default()
        },
    );
    prone.embed(&csr).unwrap();
    rec.metrics_jsonl()
}

/// A fixed-seed training run fanned out on an 8-thread worker pool across
/// the SpMM workloads and the blocked dense kernels: freezes the parallel
/// training path's observable surface. Wall workers partition only output
/// panels and workload indices, so this snapshot is — by design —
/// byte-identical to a sequential run, and the test pins that equality.
#[test]
fn parallel_prone_metrics_match_golden() {
    let got = prone_metrics_with_threads(None, 8);
    assert_golden("prone_metrics_parallel.jsonl", &got);
    assert_eq!(
        got,
        prone_metrics_with_threads(None, 1),
        "8-wall-thread training metrics drifted from the sequential run"
    );
}

/// The same training run under a fixed fault plan: the injected schedule is
/// keyed by (column batch, workload index), so retries and their simulated
/// cost replay byte-identically at any wall-thread count.
#[test]
fn parallel_faulted_prone_metrics_match_golden() {
    let spec = || FaultPlanSpec::new(1729).with_transient(DeviceKind::Pm, 0.05, 3_000);
    let got = prone_metrics_with_threads(Some(spec()), 8);
    assert!(
        got.contains(r#""fault.injected""#),
        "fault counters missing from training export"
    );
    assert_golden("prone_metrics_parallel_faulted.jsonl", &got);
    assert_eq!(
        got,
        prone_metrics_with_threads(Some(spec()), 1),
        "faulted 8-wall-thread training metrics drifted from the sequential run"
    );
}

/// The serving path's metrics for one fixed-seed run, no faults.
#[test]
fn serve_metrics_match_golden() {
    assert_golden("serve_metrics.jsonl", &serve_metrics(None));
}

/// The same serving run under a fixed fault plan: freezes the injected
/// schedule, the retry/hedge accounting, and their simulated-time cost.
#[test]
fn faulted_serve_metrics_match_golden() {
    let spec = FaultPlanSpec::new(1729).with_transient(DeviceKind::Pm, 0.05, 3_000);
    assert_golden("serve_metrics_faulted.jsonl", &serve_metrics(Some(spec)));
}

/// The IVF serving run's metrics for one fixed-seed run, no faults: pins
/// every `serve.ivf.*` counter and the probe traffic's simulated cost, and
/// — because parallelism only partitions lists and shards — the 8-thread
/// export must be byte-identical to the sequential snapshot.
#[test]
fn ivf_serve_metrics_match_golden() {
    let got = ivf_serve_metrics_with_threads(None, 1);
    assert!(
        got.contains(r#""serve.ivf.queries""#),
        "IVF counters missing from serving export"
    );
    assert_golden("serve_metrics_ivf.jsonl", &got);
    assert_eq!(
        got,
        ivf_serve_metrics_with_threads(None, 8),
        "8-thread IVF serving metrics drifted from the sequential run"
    );
}

/// The same IVF serving run under the fixed fault plan the exact-path
/// golden uses: cold-list probes join the injected schedule (streams keyed
/// by list id), so retries/hedges on the probe path replay byte-identically
/// at any thread count.
#[test]
fn faulted_ivf_serve_metrics_match_golden() {
    let spec = || FaultPlanSpec::new(1729).with_transient(DeviceKind::Pm, 0.05, 3_000);
    let got = ivf_serve_metrics_with_threads(Some(spec()), 1);
    assert_golden("serve_metrics_ivf_faulted.jsonl", &got);
    assert_eq!(
        got,
        ivf_serve_metrics_with_threads(Some(spec()), 8),
        "faulted 8-thread IVF serving metrics drifted from the sequential run"
    );
}

/// The same faulted serving run fanned out on an 8-thread worker pool:
/// freezes the parallel path's observable surface. Because fault streams
/// key off *what* is processed and per-shard simulated costs merge in a
/// fixed order, this snapshot is — by design — byte-identical to the
/// sequential one, and the test pins that equality too.
#[test]
fn parallel_faulted_serve_metrics_match_golden() {
    let spec = FaultPlanSpec::new(1729).with_transient(DeviceKind::Pm, 0.05, 3_000);
    let got = serve_metrics_with_threads(Some(spec), 8);
    assert_golden("serve_metrics_parallel_faulted.jsonl", &got);
    if let Ok(sequential) = std::fs::read_to_string(golden_path("serve_metrics_faulted.jsonl")) {
        assert_eq!(
            got, sequential,
            "parallel faulted snapshot drifted from the sequential one"
        );
    }
}

/// One line per (topology, fault plan, engine configuration) of a single
/// fixed-seed SpMM: everything the executor's accounting decides.
///
/// The ProNE goldens above only ever run the default heterogeneous
/// configuration; this matrix pins every placement, allocation, prefetch
/// and streaming branch — on a two-socket machine whose DRAM is small
/// enough that ASL needs several batches, and on a single-node one — both
/// clean and under a transient PM fault plan that forces degraded re-runs.
fn spmm_matrix() -> String {
    use omega_spmm::{AllocScheme, MemMode, SpmmConfig, SpmmEngine, WofpConfig};
    let csr = RmatConfig::social(512, 4_000, 77).generate_csr().unwrap();
    let a = omega_graph::Csdb::from_csr(&csr).unwrap();
    let b = omega::linalg::gaussian_matrix(512, 16, 2);
    let configs = [
        ("omega", SpmmConfig::omega(4)),
        ("omega_dram", SpmmConfig::omega_dram(4)),
        ("omega_pm", SpmmConfig::omega_pm(4)),
        (
            "rr_no_nadp",
            SpmmConfig {
                alloc: AllocScheme::RoundRobin,
                nadp: false,
                ..SpmmConfig::omega(4)
            },
        ),
        (
            "wata",
            SpmmConfig {
                alloc: AllocScheme::WaTA,
                ..SpmmConfig::omega(4)
            },
        ),
        (
            "no_wofp",
            SpmmConfig {
                wofp: None,
                ..SpmmConfig::omega(4)
            },
        ),
        (
            "no_nadp",
            SpmmConfig {
                nadp: false,
                ..SpmmConfig::omega(4)
            },
        ),
        (
            "no_asl",
            SpmmConfig {
                asl: false,
                ..SpmmConfig::omega(4)
            },
        ),
        (
            "sparse_pm_dense_dram",
            SpmmConfig {
                mode: MemMode::SparsePmDenseDram,
                ..SpmmConfig::omega(4)
            },
        ),
        // Degree-ranked prefetching with streaming off: the one setting
        // that stages columns a workload never references.
        (
            "degree_wofp_no_asl",
            SpmmConfig {
                wofp: Some(WofpConfig {
                    eta: 1.0,
                    sigma: 0.1,
                }),
                asl: false,
                ..SpmmConfig::omega(4)
            },
        ),
    ];
    let dram = 160 << 10;
    let topologies = [
        ("2node", Topology::paper_machine_scaled(dram)),
        ("1node", Topology::single_node(36, dram, dram * 8).unwrap()),
    ];
    let mut out = String::new();
    for (topo_name, topo) in &topologies {
        for faulted in [false, true] {
            for (name, cfg) in &configs {
                let sys = MemSystem::new(topo.clone());
                let sys = if faulted {
                    let spec = FaultPlanSpec::new(1729).with_transient(DeviceKind::Pm, 0.05, 3_000);
                    install_plan(&sys, spec)
                } else {
                    sys
                };
                let engine = SpmmEngine::new(sys, *cfg).unwrap().with_wall_threads(2);
                let field = |k: &str, v: Value| (k.to_string(), v);
                let mut row = vec![
                    field("topology", Value::Str(topo_name.to_string())),
                    field("faulted", Value::Bool(faulted)),
                    field("config", Value::Str(name.to_string())),
                ];
                match engine.spmm(&a, &b) {
                    Err(e) => row.push(field("error", Value::Str(e.to_string()))),
                    Ok(run) => {
                        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
                        for x in run.result.data() {
                            for byte in x.to_bits().to_le_bytes() {
                                fnv ^= byte as u64;
                                fnv = fnv.wrapping_mul(0x100_0000_01b3);
                            }
                        }
                        let u = Value::U64;
                        let threads = run.thread_times.iter().map(|t| u(t.as_nanos()));
                        row.extend([
                            field("makespan_ns", u(run.makespan.as_nanos())),
                            field("alloc_ns", u(run.alloc_time.as_nanos())),
                            field("thread_ns", Value::Seq(threads.collect())),
                            field("bytes", u(run.counters.total_bytes())),
                            field("accesses", u(run.counters.total_accesses())),
                            field("dense_fetches", u(run.dense_fetches)),
                            field("prefetch_hits", u(run.prefetch_hits)),
                            field("prefetch_misses", u(run.prefetch_misses)),
                            field("wasted_prefetches", u(run.wasted_prefetches)),
                            field("degraded_chunks", u(run.degraded_chunks)),
                        ]);
                        row.push(field("result_fnv", Value::Str(format!("{fnv:016x}"))));
                    }
                }
                out.push_str(&json::to_string(&Value::Map(row)));
                out.push('\n');
            }
        }
    }
    out
}

/// Guard for executor refactors: the matrix above, byte-for-byte.
#[test]
fn spmm_matrix_matches_golden() {
    assert_golden("spmm_matrix.jsonl", &spmm_matrix());
}

/// FNV-1a over the bit patterns of one fixed-seed ProNE embedding, on a
/// graph large enough that every dense kernel takes its pool path (the
/// 2048 × 24 sample matrix is past the QR, GEMM and tall-SVD cut-offs).
fn prone_embedding_digest(plan: Option<FaultPlanSpec>, wall_threads: usize) -> u64 {
    use omega_embed::prone::{Prone, ProneConfig};
    use omega_spmm::{SpmmConfig, SpmmEngine};
    let csr = RmatConfig::social(2_048, 20_000, 5).generate_csr().unwrap();
    let sys = MemSystem::new(Topology::paper_machine_scaled(16 << 20));
    let sys = match plan {
        Some(spec) => install_plan(&sys, spec),
        None => sys,
    };
    let engine = SpmmEngine::new(sys, SpmmConfig::omega(4))
        .unwrap()
        .with_wall_threads(wall_threads);
    let cfg = ProneConfig {
        dim: 16,
        oversample: 8,
        threads: wall_threads,
        ..ProneConfig::default()
    };
    let (emb, _) = Prone::new(engine, cfg).embed(&csr).unwrap();
    emb.data().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Guard for kernel rewrites: the embedding itself, bit for bit. The
/// literal was generated by this test at the commit before the strip SpMM
/// kernel, the tiled Gram and the quad reflectors went in; the fault plan
/// is the one `prone_metrics_parallel_faulted.jsonl` runs under (degraded
/// chunks are recomputed, so the numbers are the clean run's).
#[test]
fn prone_embedding_digest_is_pinned() {
    const DIGEST: u64 = 0xf57e_227f_641d_e54d;
    for wall_threads in [1, 2, 8] {
        let spec = FaultPlanSpec::new(1729).with_transient(DeviceKind::Pm, 0.05, 3_000);
        for (what, plan) in [("clean", None), ("faulted", Some(spec))] {
            let got = prone_embedding_digest(plan, wall_threads);
            assert_eq!(
                got, DIGEST,
                "{what} embedding at {wall_threads} wall threads: {got:#018x}"
            );
        }
    }
}
