//! Wall-clock benchmark gate for the parallel serving, SpMM and training
//! hot paths.
//!
//! Runs a fixed set of seeded workloads N times, records nearest-rank
//! median and p95 **wall** nanoseconds plus the exact **simulated**
//! nanoseconds and byte traffic, and compares the wall numbers against the
//! committed baselines `BENCH_serving.json` / `BENCH_plane.json` /
//! `BENCH_spmm.json` / `BENCH_prone.json` at the repository root (schema
//! per record:
//! `{workload, wall_ns_p50, wall_ns_p95, sim_ns, bytes, git_rev}` plus
//! optional `speedup_milli` and a nested `phases` breakdown).
//!
//! The two clocks play different roles:
//!
//! * **sim_ns / bytes** are machine-independent model outputs — any drift
//!   is a cost-model change and must show up in the golden-snapshot tests,
//!   so the gate only warns about it (re-baseline with `--update` after
//!   blessing the goldens).
//! * **wall_ns** is what the worker pool and the blocked kernels actually
//!   buy. The gate exits non-zero when a workload's p50 regresses more
//!   than 15% past its baseline.
//!
//! Modes:
//!
//! * default — full gate: many repeats, baseline comparison, non-zero exit
//!   on regression. Run manually / in the manual CI job on quiet hardware.
//! * `--smoke` — CI-friendly: two repeats, no baseline comparison (shared
//!   runners are far noisier than 15%), but all determinism assertions
//!   (sim/byte stability across repeats, serve-metrics byte-identity
//!   across thread counts, and byte-identity with the pool profiler on
//!   vs off) still enforced.
//! * `--update` — rewrite the baseline files from this run.
//! * `--profile-out <dir>` — write collapsed-stack (flamegraph) and
//!   phase-breakdown text files for the par8 workloads into `<dir>`.
//!
//! The serving and training speedups (threads=1 vs threads=8 wall p50)
//! are always recorded and printed. The full gate **asserts** them — the
//! persistent worker pool must make par8 at least break even with seq on
//! wall p50 — when the host can actually run the eight threads under test
//! (`available_parallelism() >= 8`); on smaller hosts the eight workers
//! time-share the cores, the ratio is legitimately ~1 either side, and the
//! assertion is skipped with a note. Smoke mode never asserts a wall
//! ratio: two repeats on a shared runner cannot resolve one.
//!
//! Phase attribution: the par8 workloads additionally run once under an
//! installed [`PoolProfiler`]. Per-label task wall time (phase scopes
//! like `fetch`/`lookup`/`topk` or `propagate`/`tsvd`/`combine`, else
//! pool call-site labels) plus aggregate worker `idle`, `park` and
//! `barrier` wall time become the record's `phases` breakdown; the attributed sum
//! must cover at least [`MIN_PHASE_COVERAGE`] of that run's wall clock.
//! On a >15% regression the gate names the phase that grew most.

use omega_bench::{
    gate_records_from_json, gate_records_to_json, git_rev, percentile_u64, write_results_jsonl,
    GateRecord,
};
use omega_embed::prone::{Prone, ProneConfig};
use omega_embed::{Embedding, Metric};
use omega_graph::{Csdb, RmatConfig};
use omega_hetmem::SimDuration;
use omega_hetmem::{DeviceKind, MemSystem, Placement, Topology};
use omega_linalg::gaussian_matrix;
use omega_obs::{Recorder, Track};
use omega_par::PoolProfiler;
use omega_plane::{PlaneConfig, Priority, RequestPlane, TenantSpec};
use omega_serve::{
    auto_nlist, EmbedServer, IndexMode, Popularity, RequestStream, ServeConfig, WorkloadConfig,
};
use omega_spmm::{SpmmConfig, SpmmEngine};
use omega_walk::{InfoWalkConfig, InfoWalker};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SEED: u64 = 42;
/// Serving workload: nodes, dim, shard geometry, request count. Sized so
/// one repeat is tens of milliseconds — enough for a stable median, small
/// enough for CI smoke runs.
const NODES: u32 = 6_000;
const DIM: usize = 32;
const ROWS_PER_SHARD: usize = 64;
const CACHE_SHARDS: u64 = 16;
const REQUESTS: usize = 4_000;
/// Top-k-heavy mix: shard scans are the parallel section worth measuring.
const TOPK_FRACTION: f64 = 0.25;
const TOPK_K: usize = 10;
/// Query set for the IVF recall measurement: the first N node vectors,
/// deterministic and independent of the popularity distribution.
const RECALL_QUERIES: u32 = 200;
/// Floor on IVF recall@[`TOPK_K`] at the auto (default) probe count.
const MIN_IVF_RECALL: f64 = 0.95;
/// SpMM workload.
const SPMM_NODES: u32 = 2_000;
const SPMM_EDGES: u64 = 30_000;
const SPMM_DENSE_COLS: usize = 32;
const SPMM_THREADS: usize = 8;
/// Request-plane workload: an open-loop two-tenant mix over a replicated
/// tier, sized so the admission and degrade paths both fire.
const PLANE_REPLICAS: usize = 3;
const PLANE_RATE: f64 = 40_000.0;
const PLANE_HORIZON_MS: u64 = 20;
const PLANE_DEADLINE_NS: u64 = 2_000_000;
/// End-to-end training (ProNE embed) workload. Sized so the dense QR/SVD
/// stages clear the parallel kernels' sequential-fallback thresholds.
const PRONE_NODES: u32 = 1_500;
const PRONE_EDGES: u64 = 15_000;
const PRONE_DIM: usize = 32;
/// Regression threshold on wall p50 vs. the committed baseline.
const MAX_REGRESSION: f64 = 1.15;
/// The phase breakdown of a par8 workload must attribute at least this
/// fraction of the profiled run's wall clock (task + idle + barrier).
const MIN_PHASE_COVERAGE: f64 = 0.90;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One timed run of a workload: wall nanoseconds plus the exact simulated
/// nanoseconds and byte total the model charged.
struct Sample {
    wall_ns: u64,
    sim_ns: u64,
    bytes: u64,
}

fn serving_run(threads: usize) -> Sample {
    let emb = Embedding::from_matrix(&gaussian_matrix(NODES as usize, DIM, SEED));
    let shard_bytes = ROWS_PER_SHARD as u64 * DIM as u64 * 4;
    let sys = MemSystem::new(Topology::paper_machine_scaled(
        (2 * CACHE_SHARDS * shard_bytes).max(1 << 20),
    ));
    let cfg = ServeConfig::new(CACHE_SHARDS * shard_bytes)
        .rows_per_shard(ROWS_PER_SHARD)
        .cold(Placement::node(0, DeviceKind::Pm))
        .threads(threads);
    let mut srv = EmbedServer::new(&sys, &emb, cfg).expect("cold tier holds the table");
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(NODES, Popularity::Zipf { s: 1.0 }, SEED)
            .with_topk(TOPK_FRACTION, TOPK_K),
    );
    let start = Instant::now();
    let report = srv.run(&mut load, REQUESTS);
    Sample {
        wall_ns: start.elapsed().as_nanos() as u64,
        sim_ns: report.total_sim.as_nanos(),
        bytes: report.traffic.total_bytes,
    }
}

/// Recorder-enabled serving run at a thread count: the smoke determinism
/// probe (via `metrics_jsonl`) and the `--profile-out` span source.
fn serving_traced(threads: usize) -> Recorder {
    let emb = Embedding::from_matrix(&gaussian_matrix(NODES as usize, DIM, SEED));
    let shard_bytes = ROWS_PER_SHARD as u64 * DIM as u64 * 4;
    let sys = MemSystem::new(Topology::paper_machine_scaled(
        (2 * CACHE_SHARDS * shard_bytes).max(1 << 20),
    ));
    let cfg = ServeConfig::new(CACHE_SHARDS * shard_bytes)
        .rows_per_shard(ROWS_PER_SHARD)
        .cold(Placement::node(0, DeviceKind::Pm))
        .threads(threads);
    let rec = Recorder::enabled();
    let mut srv = EmbedServer::new(&sys, &emb, cfg)
        .unwrap()
        .with_recorder(&rec, Track::MAIN);
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(NODES, Popularity::Zipf { s: 1.0 }, SEED)
            .with_topk(TOPK_FRACTION, TOPK_K),
    );
    srv.run(&mut load, REQUESTS / 4);
    rec
}

fn serving_metrics(threads: usize) -> String {
    serving_traced(threads).metrics_jsonl()
}

/// The serving workload with the IVF cluster-then-probe index at its auto
/// knobs (`nlist = ceil(sqrt(nodes))`, default `nprobe`) instead of the
/// exact brute-force scan.
fn serving_ivf_run(threads: usize) -> Sample {
    let emb = Embedding::from_matrix(&gaussian_matrix(NODES as usize, DIM, SEED));
    let shard_bytes = ROWS_PER_SHARD as u64 * DIM as u64 * 4;
    let sys = MemSystem::new(Topology::paper_machine_scaled(
        (2 * CACHE_SHARDS * shard_bytes).max(1 << 20),
    ));
    let cfg = ServeConfig::new(CACHE_SHARDS * shard_bytes)
        .rows_per_shard(ROWS_PER_SHARD)
        .cold(Placement::node(0, DeviceKind::Pm))
        .threads(threads)
        .index(IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        });
    let mut srv = EmbedServer::new(&sys, &emb, cfg).expect("cold tier holds the table");
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(NODES, Popularity::Zipf { s: 1.0 }, SEED)
            .with_topk(TOPK_FRACTION, TOPK_K),
    );
    let start = Instant::now();
    let report = srv.run(&mut load, REQUESTS);
    Sample {
        wall_ns: start.elapsed().as_nanos() as u64,
        sim_ns: report.total_sim.as_nanos(),
        bytes: report.traffic.total_bytes,
    }
}

/// Recorder-enabled IVF serving run: the smoke determinism probe for the
/// `serve.ivf.*` metric surface.
fn serving_ivf_metrics(threads: usize) -> String {
    let emb = Embedding::from_matrix(&gaussian_matrix(NODES as usize, DIM, SEED));
    let shard_bytes = ROWS_PER_SHARD as u64 * DIM as u64 * 4;
    let sys = MemSystem::new(Topology::paper_machine_scaled(
        (2 * CACHE_SHARDS * shard_bytes).max(1 << 20),
    ));
    let cfg = ServeConfig::new(CACHE_SHARDS * shard_bytes)
        .rows_per_shard(ROWS_PER_SHARD)
        .cold(Placement::node(0, DeviceKind::Pm))
        .threads(threads)
        .index(IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        });
    let rec = Recorder::enabled();
    let mut srv = EmbedServer::new(&sys, &emb, cfg)
        .unwrap()
        .with_recorder(&rec, Track::MAIN);
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(NODES, Popularity::Zipf { s: 1.0 }, SEED)
            .with_topk(TOPK_FRACTION, TOPK_K),
    );
    srv.run(&mut load, REQUESTS / 4);
    rec.metrics_jsonl()
}

/// Recall@[`TOPK_K`] of the IVF index against the exact oracle
/// ([`Embedding::top_k`]) over the fixed [`RECALL_QUERIES`] query set,
/// plus the simulated and wall nanoseconds those probes cost. `None`
/// probes at the server's default `nprobe`.
fn ivf_recall(nprobe: Option<usize>) -> (f64, u64, u64) {
    let emb = Embedding::from_matrix(&gaussian_matrix(NODES as usize, DIM, SEED));
    let shard_bytes = ROWS_PER_SHARD as u64 * DIM as u64 * 4;
    let sys = MemSystem::new(Topology::paper_machine_scaled(
        (2 * CACHE_SHARDS * shard_bytes).max(1 << 20),
    ));
    let cfg = ServeConfig::new(CACHE_SHARDS * shard_bytes)
        .rows_per_shard(ROWS_PER_SHARD)
        .cold(Placement::node(0, DeviceKind::Pm))
        .index(IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        });
    let mut srv = EmbedServer::new(&sys, &emb, cfg).expect("cold tier holds the table");
    let start = Instant::now();
    let sim_start = srv.sim_now();
    let mut hits = 0usize;
    let mut total = 0usize;
    for q in 0..RECALL_QUERIES {
        let query = emb.vector(q);
        let approx = srv.top_k_nprobe(query, TOPK_K, nprobe);
        let oracle = emb.top_k(query, TOPK_K, Metric::Dot);
        total += oracle.len();
        hits += approx
            .iter()
            .filter(|(id, _)| oracle.iter().any(|(o, _)| o == id))
            .count();
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let sim_ns = (srv.sim_now() - sim_start).as_nanos();
    (hits as f64 / total.max(1) as f64, sim_ns, wall_ns)
}

/// Shared setup for the plane workloads: `PLANE_REPLICAS` systems, one
/// embedding, the serve/plane configs and the two-tenant mix.
fn plane_setup(
    threads: usize,
) -> (
    Vec<MemSystem>,
    Embedding,
    ServeConfig,
    PlaneConfig,
    Vec<TenantSpec>,
) {
    let emb = Embedding::from_matrix(&gaussian_matrix(NODES as usize, DIM, SEED));
    let shard_bytes = ROWS_PER_SHARD as u64 * DIM as u64 * 4;
    let systems = (0..PLANE_REPLICAS)
        .map(|_| {
            MemSystem::new(Topology::paper_machine_scaled(
                (2 * CACHE_SHARDS * shard_bytes).max(1 << 20),
            ))
        })
        .collect();
    let serve_cfg = ServeConfig::new(CACHE_SHARDS * shard_bytes)
        .rows_per_shard(ROWS_PER_SHARD)
        .cold(Placement::node(0, DeviceKind::Pm))
        .threads(threads);
    let plane_cfg = PlaneConfig::new(PLANE_REPLICAS)
        .seed(SEED)
        .horizon(SimDuration::from_secs_f64(PLANE_HORIZON_MS as f64 * 1e-3));
    let wl = WorkloadConfig::lookups(NODES, Popularity::Zipf { s: 1.0 }, SEED)
        .with_topk(TOPK_FRACTION, TOPK_K);
    let tenants = vec![
        TenantSpec::poisson("interactive", PLANE_RATE * 0.6, wl)
            .with_priority(Priority::High)
            .with_deadline_ns(PLANE_DEADLINE_NS),
        TenantSpec::poisson("batch", PLANE_RATE * 0.4, wl)
            .with_priority(Priority::Low)
            .with_deadline_ns(PLANE_DEADLINE_NS * 4),
    ];
    (systems, emb, serve_cfg, plane_cfg, tenants)
}

fn plane_run(threads: usize) -> Sample {
    let (systems, emb, serve_cfg, plane_cfg, tenants) = plane_setup(threads);
    let start = Instant::now();
    let mut plane =
        RequestPlane::new(&systems, &emb, serve_cfg, plane_cfg).expect("cold tier holds the table");
    let report = plane.run(&tenants);
    assert!(report.stats.identity_holds(), "plane accounting identity");
    // Byte traffic summed over the replica tier: any drift with the wall
    // thread count means replica state leaked across the wall clock.
    let bytes = plane
        .servers()
        .iter()
        .map(|s| {
            let st = s.stats();
            st.cold_read_bytes + st.dram_read_bytes + st.dram_write_bytes
        })
        .sum();
    Sample {
        wall_ns: start.elapsed().as_nanos() as u64,
        sim_ns: report.end_ns,
        bytes,
    }
}

/// Recorder-enabled plane run: the smoke determinism probe for the
/// request plane's full metrics export.
fn plane_metrics(threads: usize) -> String {
    let (systems, emb, serve_cfg, plane_cfg, tenants) = plane_setup(threads);
    let rec = Recorder::enabled();
    let mut plane = RequestPlane::new(&systems, &emb, serve_cfg, plane_cfg)
        .unwrap()
        .with_recorder(&rec);
    plane.run(&tenants);
    rec.metrics_jsonl()
}

fn spmm_run() -> Sample {
    let csr = RmatConfig::social(SPMM_NODES, SPMM_EDGES, SEED)
        .generate_csr()
        .unwrap();
    let csdb = Csdb::from_csr(&csr).unwrap();
    let dense = gaussian_matrix(SPMM_NODES as usize, SPMM_DENSE_COLS, SEED);
    let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 24));
    let engine = SpmmEngine::new(sys, SpmmConfig::omega(SPMM_THREADS)).unwrap();
    let start = Instant::now();
    let run = engine.spmm(&csdb, &dense).unwrap();
    let summary = omega_hetmem::AccessSummary::from_counters(&run.counters);
    Sample {
        wall_ns: start.elapsed().as_nanos() as u64,
        sim_ns: run.makespan.as_nanos(),
        bytes: summary.total_bytes,
    }
}

fn walk_run() -> Sample {
    let csr = RmatConfig::social(SPMM_NODES, SPMM_EDGES, SEED)
        .generate_csr()
        .unwrap();
    let walker = InfoWalker::new(&csr, InfoWalkConfig::default());
    let start = Instant::now();
    let walks = walker.generate_all();
    let steps: u64 = walks.iter().map(|w| w.len() as u64).sum();
    // The walker is a pure-CPU generator outside the charged-memory model:
    // no simulated clock, bytes = emitted sequence size.
    Sample {
        wall_ns: start.elapsed().as_nanos() as u64,
        sim_ns: 0,
        bytes: steps * 4,
    }
}

/// Seeded end-to-end ProNE embedding with `wall_threads` workers on both
/// the SpMM workload pool and the dense kernels. The wall clock is the
/// measurement; sim_ns and bytes must not move with the worker count.
fn prone_run(wall_threads: usize) -> Sample {
    let csr = RmatConfig::social(PRONE_NODES, PRONE_EDGES, SEED)
        .generate_csr()
        .unwrap();
    let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 24));
    let engine = SpmmEngine::new(sys, SpmmConfig::omega(SPMM_THREADS))
        .unwrap()
        .with_wall_threads(wall_threads);
    let prone = Prone::new(
        engine,
        ProneConfig {
            dim: PRONE_DIM,
            oversample: 8,
            threads: wall_threads,
            ..ProneConfig::default()
        },
    );
    let start = Instant::now();
    let (_, report) = prone.embed(&csr).unwrap();
    let traffic = omega_hetmem::AccessSummary::from_counters(&prone.engine().lifetime_counters());
    Sample {
        wall_ns: start.elapsed().as_nanos() as u64,
        sim_ns: report.total().as_nanos(),
        bytes: traffic.total_bytes,
    }
}

/// Recorder-enabled training run at a wall-thread count: the smoke
/// determinism probe for the training path and the `--profile-out`
/// span source.
fn prone_traced(wall_threads: usize) -> Recorder {
    let csr = RmatConfig::social(PRONE_NODES, PRONE_EDGES, SEED)
        .generate_csr()
        .unwrap();
    let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 24));
    let rec = Recorder::enabled();
    let engine = SpmmEngine::new(sys, SpmmConfig::omega(SPMM_THREADS))
        .unwrap()
        .with_recorder(rec.clone())
        .with_wall_threads(wall_threads);
    let prone = Prone::new(
        engine,
        ProneConfig {
            dim: PRONE_DIM,
            oversample: 8,
            threads: wall_threads,
            ..ProneConfig::default()
        },
    );
    prone.embed(&csr).unwrap();
    rec
}

fn prone_metrics(wall_threads: usize) -> String {
    prone_traced(wall_threads).metrics_jsonl()
}

/// Run a workload once with a [`PoolProfiler`] installed on this thread
/// and fold the per-label profiles into a phase breakdown: task wall
/// time per phase-scope / call-site label, plus aggregate worker `idle`
/// and `barrier` wall time. Returns `(phases, attributed_ns, wall_ns)`.
fn profiled_phases(run: impl FnOnce() -> Sample) -> (Vec<(String, u64)>, u64, u64) {
    let prof = PoolProfiler::enabled();
    let wall_ns = {
        let _guard = omega_par::install(&prof);
        run().wall_ns
    };
    let mut phases = Vec::new();
    let mut idle = 0u64;
    let mut park = 0u64;
    let mut barrier = 0u64;
    let mut attributed = 0u64;
    for (label, p) in prof.profiles() {
        let task = p.task_wall_ns();
        idle += p.idle_wall_ns;
        park += p.park_wall_ns;
        barrier += p.barrier_wall_ns;
        attributed += p.attributed_wall_ns();
        if task > 0 {
            phases.push((label, task));
        }
    }
    if barrier > 0 {
        phases.push(("barrier".to_string(), barrier));
    }
    if park > 0 {
        phases.push(("park".to_string(), park));
    }
    if idle > 0 {
        phases.push(("idle".to_string(), idle));
    }
    phases.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    (phases, attributed, wall_ns)
}

/// Attach a profiled-run phase breakdown to `rec` and print it. When
/// `enforce` is set (the par8 workloads), the attributed share of the
/// profiled run's wall clock must clear [`MIN_PHASE_COVERAGE`].
fn attribute(rec: &mut GateRecord, enforce: bool, run: impl FnOnce() -> Sample) {
    let (phases, attributed, wall_ns) = profiled_phases(run);
    let coverage = attributed as f64 / wall_ns.max(1) as f64;
    println!(
        "  {} phase breakdown (profiled run: {} ns wall, {:.1}% attributed):",
        rec.workload,
        wall_ns,
        coverage * 100.0
    );
    for (name, ns) in &phases {
        println!(
            "    {:<18} {:>12} ns  {:>5.1}%",
            name,
            ns,
            *ns as f64 * 100.0 / wall_ns.max(1) as f64
        );
    }
    if enforce {
        assert!(
            coverage >= MIN_PHASE_COVERAGE,
            "{}: phase attribution covers only {:.1}% of the profiled wall clock \
             (floor {:.0}%)",
            rec.workload,
            coverage * 100.0,
            MIN_PHASE_COVERAGE * 100.0
        );
    }
    rec.phases = phases;
}

/// Seq-vs-par wall-p50 ratio in thousandths, recorded on the parallel
/// record of a workload pair. Asserted by [`enforce_speedup`] where the
/// host can show it; informational elsewhere.
fn record_speedup(pair: &mut [GateRecord]) -> f64 {
    let ratio_milli = pair[0]
        .wall_ns_p50
        .saturating_mul(1000)
        .checked_div(pair[1].wall_ns_p50.max(1))
        .unwrap_or(0);
    pair[1].speedup_milli = Some(ratio_milli);
    ratio_milli as f64 / 1000.0
}

/// Wall threads the `*_par8` workloads run at.
const PAR_THREADS: usize = 8;

/// The persistent pool's claim, asserted by the full gate: where the host
/// has a core for each of the [`PAR_THREADS`] threads under test, the par8
/// config must at least break even with seq on wall p50 (`speedup >=
/// 1.0`). With fewer cores the workers time-share them and the ratio sits
/// within noise of 1 either side, so nothing is asserted; smoke mode (two
/// repeats, shared runners) asserts determinism only.
fn enforce_speedup(workload: &str, speedup: f64, smoke: bool) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if smoke {
        println!("  {workload}: speedup not asserted (smoke mode)");
        return;
    }
    if cores < PAR_THREADS {
        println!(
            "  {workload}: speedup not asserted ({cores} core(s) < {PAR_THREADS} threads under test)"
        );
        return;
    }
    assert!(
        speedup >= 1.0,
        "{workload}: par8 wall p50 is slower than seq ({speedup:.2}x speedup) on a \
         {cores}-core host — the persistent pool must at least break even"
    );
    println!("  {workload}: speedup gate ok ({speedup:.2}x on {cores} cores)");
}

/// Write flamegraph-compatible collapsed stacks (span tree plus the
/// bridged per-worker pool timelines) and the phase breakdown for one
/// par8 workload into `dir`.
fn write_profile_artifacts(dir: &Path, rec: &GateRecord, traced: impl FnOnce() -> Recorder) {
    let prof = PoolProfiler::enabled();
    let recorder = {
        let _guard = omega_par::install(&prof);
        traced()
    };
    // Pool worker timelines land on their own pid so Perfetto and the
    // collapsed view keep them apart from the simulated tracks.
    omega_obs::record_pool_timeline(&recorder, &prof, 1);
    let collapsed = dir.join(format!("{}.collapsed", rec.workload));
    std::fs::write(&collapsed, recorder.collapsed_stacks()).unwrap();
    let mut breakdown = String::new();
    for (name, ns) in &rec.phases {
        breakdown.push_str(&format!("{name} {ns}\n"));
    }
    let phases_path = dir.join(format!("{}.phases.txt", rec.workload));
    std::fs::write(&phases_path, breakdown).unwrap();
    println!(
        "  wrote {} and {}",
        collapsed.display(),
        phases_path.display()
    );
}

/// Repeat a workload, enforce sim/byte determinism across repeats, and
/// fold the wall samples into one gate record.
fn measure(workload: &str, repeats: usize, rev: &str, run: impl Fn() -> Sample) -> GateRecord {
    let mut walls = Vec::with_capacity(repeats);
    let first = run();
    walls.push(first.wall_ns);
    for i in 1..repeats {
        let s = run();
        assert_eq!(
            s.sim_ns, first.sim_ns,
            "{workload}: sim_ns drifted between repeat 0 and {i} — the simulated \
             clock must be a pure function of the seed"
        );
        assert_eq!(
            s.bytes, first.bytes,
            "{workload}: byte traffic drifted between repeat 0 and {i}"
        );
        walls.push(s.wall_ns);
    }
    let rec = GateRecord {
        workload: workload.to_string(),
        wall_ns_p50: percentile_u64(&walls, 0.5),
        wall_ns_p95: percentile_u64(&walls, 0.95),
        sim_ns: first.sim_ns,
        bytes: first.bytes,
        git_rev: rev.to_string(),
        speedup_milli: None,
        recall_milli: None,
        phases: Vec::new(),
    };
    println!(
        "  {:<14} wall p50 {:>12} ns  p95 {:>12} ns  sim {:>14} ns  {:>12} B",
        rec.workload, rec.wall_ns_p50, rec.wall_ns_p95, rec.sim_ns, rec.bytes
    );
    rec
}

/// Compare fresh records against a committed baseline file. Returns the
/// number of wall-clock regressions past [`MAX_REGRESSION`].
fn compare(path: &Path, fresh: &[GateRecord]) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        println!(
            "  no baseline at {} — run with --update to create it",
            path.display()
        );
        return 0;
    };
    let baseline = gate_records_from_json(&text);
    let mut regressions = 0;
    for rec in fresh {
        let Some(base) = baseline.iter().find(|b| b.workload == rec.workload) else {
            println!("  {}: new workload, no baseline entry", rec.workload);
            continue;
        };
        if rec.sim_ns != base.sim_ns || rec.bytes != base.bytes {
            println!(
                "  {}: WARNING sim/bytes changed vs baseline (sim {} -> {}, bytes {} -> {}); \
                 if the golden tests were re-blessed, refresh with --update",
                rec.workload, base.sim_ns, rec.sim_ns, base.bytes, rec.bytes
            );
        }
        let ratio = rec.wall_ns_p50 as f64 / base.wall_ns_p50.max(1) as f64;
        if ratio > MAX_REGRESSION {
            println!(
                "  {}: REGRESSION wall p50 {} ns vs baseline {} ns ({:.2}x > {:.2}x allowed)",
                rec.workload, rec.wall_ns_p50, base.wall_ns_p50, ratio, MAX_REGRESSION
            );
            match rec.guiltiest_phase(base) {
                Some((phase, was, now)) => {
                    println!("    guiltiest phase: {phase} grew {was} -> {now} ns attributed wall")
                }
                None => println!("    no phase breakdown recorded for this workload"),
            }
            regressions += 1;
        } else {
            println!(
                "  {}: ok, wall p50 {:.2}x of baseline ({} at {})",
                rec.workload,
                ratio,
                base.wall_ns_p50,
                if base.git_rev.is_empty() {
                    "?"
                } else {
                    &base.git_rev
                }
            );
        }
    }
    regressions
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let update = args.iter().any(|a| a == "--update");
    let repeats = args
        .iter()
        .position(|a| a == "--repeats")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if smoke { 2 } else { 7 });
    let profile_out = args
        .iter()
        .position(|a| a == "--profile-out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" | "--update" => {}
            // Flags that consume the next argument as their value.
            "--repeats" | "--profile-out" => i += 1,
            other => {
                eprintln!(
                    "unknown flag {other}; usage: bench_gate [--smoke] [--update] \
                     [--repeats N] [--profile-out DIR]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let rev = git_rev();
    println!(
        "bench_gate @ {rev} — {} mode, {repeats} repeats per workload",
        if smoke { "smoke" } else { "full" }
    );

    println!("serving workloads:");
    let mut serving = vec![
        measure("serving_seq", repeats, &rev, || serving_run(1)),
        measure("serving_par8", repeats, &rev, || serving_run(8)),
    ];
    // The two thread counts must agree on every simulated observable.
    assert_eq!(
        serving[0].sim_ns, serving[1].sim_ns,
        "thread count changed the simulated clock"
    );
    assert_eq!(
        serving[0].bytes, serving[1].bytes,
        "thread count changed the byte traffic"
    );
    let speedup = record_speedup(&mut serving);
    println!("  serving wall speedup at 8 threads: {speedup:.2}x");
    enforce_speedup("serving_par8", speedup, smoke);
    attribute(&mut serving[1], true, || serving_run(8));

    println!("serving_ivf workloads (cluster-then-probe, auto nlist/nprobe):");
    let mut serving_ivf = vec![
        measure("serving_ivf_seq", repeats, &rev, || serving_ivf_run(1)),
        measure("serving_ivf_par8", repeats, &rev, || serving_ivf_run(8)),
    ];
    assert_eq!(
        serving_ivf[0].sim_ns, serving_ivf[1].sim_ns,
        "thread count changed the IVF simulated clock"
    );
    assert_eq!(
        serving_ivf[0].bytes, serving_ivf[1].bytes,
        "thread count changed the IVF byte traffic"
    );
    let ivf_speedup = record_speedup(&mut serving_ivf);
    println!("  serving_ivf wall speedup at 8 threads: {ivf_speedup:.2}x");
    // Answer quality at the default exactness knob, recorded on both IVF
    // records and floored: the auto nprobe must keep recall@k >= 95%.
    let (recall, _, _) = ivf_recall(None);
    let recall_milli = (recall * 1000.0).round() as u64;
    for rec in &mut serving_ivf {
        rec.recall_milli = Some(recall_milli);
    }
    println!("  recall@{TOPK_K} at default nprobe: {recall:.3}");
    assert!(
        recall >= MIN_IVF_RECALL,
        "IVF recall@{TOPK_K} at the default nprobe is {recall:.3} \
         (floor {MIN_IVF_RECALL})"
    );
    // The exactness knob is what buys the wall clock: at the default probe
    // count the index must beat the brute-force scan's p50 at the same
    // thread count. Asserted in full mode only — smoke runs on shared
    // runners whose wall clocks are too noisy for cross-workload ratios.
    let ivf_vs_brute = serving[1].wall_ns_p50 as f64 / serving_ivf[1].wall_ns_p50.max(1) as f64;
    println!("  ivf vs brute-force wall p50 at 8 threads: {ivf_vs_brute:.2}x");
    if !smoke && !update {
        assert!(
            serving_ivf[1].wall_ns_p50 < serving[1].wall_ns_p50,
            "IVF wall p50 ({} ns) does not beat the brute-force scan ({} ns)",
            serving_ivf[1].wall_ns_p50,
            serving[1].wall_ns_p50
        );
    }

    // The exactness-knob curve, machine-readable: recall and latency at a
    // sweep of probe counts (results/ivf_recall.jsonl, a CI artifact).
    println!("  nprobe sweep (nlist {}):", auto_nlist(NODES));
    let nlist = auto_nlist(NODES);
    let mut sweep: Vec<usize> = std::iter::successors(Some(1usize), |p| Some(p * 2))
        .take_while(|&p| p < nlist)
        .collect();
    sweep.push(nlist);
    let mut sweep_jsonl = String::new();
    for &np in &sweep {
        let (r, sim_ns, wall_ns) = ivf_recall(Some(np));
        println!("    nprobe {np:>3}: recall@{TOPK_K} {r:.3}  sim {sim_ns} ns  wall {wall_ns} ns");
        sweep_jsonl.push_str(&format!(
            "{{\"nlist\": {nlist}, \"nprobe\": {np}, \"k\": {TOPK_K}, \
             \"recall_milli\": {}, \"sim_ns\": {sim_ns}, \"wall_ns\": {wall_ns}}}\n",
            (r * 1000.0).round() as u64
        ));
    }
    write_results_jsonl("ivf_recall", &sweep_jsonl);

    println!("plane workloads:");
    let mut plane = vec![
        measure("plane_seq", repeats, &rev, || plane_run(1)),
        measure("plane_par8", repeats, &rev, || plane_run(8)),
    ];
    // Each replica runs its own event loop concurrently on the pool; the
    // sequential front + fixed-order merge keep every simulated
    // observable thread-count independent even as wall time scales with
    // replica concurrency.
    assert_eq!(
        plane[0].sim_ns, plane[1].sim_ns,
        "thread count changed the plane's simulated clock"
    );
    assert_eq!(
        plane[0].bytes, plane[1].bytes,
        "thread count changed the plane's byte traffic"
    );
    let plane_speedup = record_speedup(&mut plane);
    println!("  plane wall speedup at 8 threads: {plane_speedup:.2}x");
    enforce_speedup("plane_par8", plane_speedup, smoke);

    println!("compute workloads:");
    let compute = vec![
        measure("spmm", repeats, &rev, spmm_run),
        measure("walk", repeats, &rev, walk_run),
    ];

    println!("training workloads:");
    let mut training = vec![
        measure("prone_seq", repeats, &rev, || prone_run(1)),
        measure("prone_par8", repeats, &rev, || prone_run(8)),
    ];
    // Wall workers must be invisible to every simulated observable.
    assert_eq!(
        training[0].sim_ns, training[1].sim_ns,
        "wall-thread count changed the training sim clock"
    );
    assert_eq!(
        training[0].bytes, training[1].bytes,
        "wall-thread count changed the training byte traffic"
    );
    let train_speedup = record_speedup(&mut training);
    println!("  training wall speedup at 8 threads: {train_speedup:.2}x");
    enforce_speedup("prone_par8", train_speedup, smoke);
    attribute(&mut training[1], true, || prone_run(8));

    if let Some(dir) = &profile_out {
        std::fs::create_dir_all(dir).unwrap();
        println!("profile artifacts ({}):", dir.display());
        write_profile_artifacts(dir, &serving[1], || serving_traced(8));
        write_profile_artifacts(dir, &training[1], || prone_traced(8));
    }

    if smoke {
        // Byte-identity of the full metrics export across thread counts —
        // the strongest cheap determinism probe.
        let seq = serving_metrics(1);
        let par = serving_metrics(8);
        assert_eq!(
            seq, par,
            "serve metrics JSONL differs between 1 and 8 threads"
        );
        assert!(!seq.is_empty());
        let ivf_seq = serving_ivf_metrics(1);
        let ivf_par = serving_ivf_metrics(8);
        assert_eq!(
            ivf_seq, ivf_par,
            "IVF serve metrics JSONL differs between 1 and 8 threads"
        );
        assert!(
            ivf_seq.contains("serve.ivf.queries"),
            "IVF run published no serve.ivf.* counters"
        );
        let plane_seq = plane_metrics(1);
        let plane_par = plane_metrics(8);
        assert_eq!(
            plane_seq, plane_par,
            "plane metrics JSONL differs between 1 and 8 threads"
        );
        assert!(!plane_seq.is_empty());
        let train_seq = prone_metrics(1);
        let train_par = prone_metrics(8);
        assert_eq!(
            train_seq, train_par,
            "training metrics JSONL differs between 1 and 8 wall threads"
        );
        assert!(!train_seq.is_empty());
        // Profiling must be invisible to every simulated observable: the
        // metrics export with the pool profiler installed is byte-equal
        // to the export without it.
        let prof = PoolProfiler::enabled();
        let par_profiled = {
            let _guard = omega_par::install(&prof);
            serving_metrics(8)
        };
        assert_eq!(
            par, par_profiled,
            "pool profiling changed the serve metrics JSONL"
        );
        let train_profiled = {
            let _guard = omega_par::install(&prof);
            prone_metrics(8)
        };
        assert_eq!(
            train_par, train_profiled,
            "pool profiling changed the training metrics JSONL"
        );
        assert!(
            prof.total().calls + prof.total().seq_calls > 0,
            "profiled smoke runs recorded no pool activity"
        );
        // Schema round-trip of everything we would write.
        for recs in [&serving, &serving_ivf, &plane, &compute, &training] {
            assert_eq!(&gate_records_from_json(&gate_records_to_json(recs)), recs);
        }
        println!(
            "smoke checks passed: metrics byte-identical across threads and with \
             profiling on/off, schema round-trips"
        );
    }

    // IVF records live in the serving baseline file.
    serving.extend(serving_ivf);

    let serving_path = repo_root().join("BENCH_serving.json");
    let plane_path = repo_root().join("BENCH_plane.json");
    let compute_path = repo_root().join("BENCH_spmm.json");
    let training_path = repo_root().join("BENCH_prone.json");
    if update {
        std::fs::write(&serving_path, gate_records_to_json(&serving)).unwrap();
        std::fs::write(&plane_path, gate_records_to_json(&plane)).unwrap();
        std::fs::write(&compute_path, gate_records_to_json(&compute)).unwrap();
        std::fs::write(&training_path, gate_records_to_json(&training)).unwrap();
        println!(
            "baselines updated: {}, {}, {} and {}",
            serving_path.display(),
            plane_path.display(),
            compute_path.display(),
            training_path.display()
        );
        return;
    }
    if smoke {
        return;
    }

    println!("baseline comparison (threshold {MAX_REGRESSION:.2}x on wall p50):");
    let regressions = compare(&serving_path, &serving)
        + compare(&plane_path, &plane)
        + compare(&compute_path, &compute)
        + compare(&training_path, &training);
    if regressions > 0 {
        eprintln!("{regressions} workload(s) regressed past the wall-clock gate");
        std::process::exit(1);
    }
    println!("gate passed");
}
