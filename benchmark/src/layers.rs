//! Substrate microbenchmarks: each layer's unit cost, timed through its
//! public functions, on inputs the size the workloads use.

use crate::host;
use crate::stats::median;
use crate::workloads::{set, Layers};
use omega_embed::TopK;
use omega_graph::{Csdb, Csr, RmatConfig};
use omega_hetmem::{DeviceKind, MemSystem, Placement, Topology};
use omega_linalg::kernels::dot_scores_into;
use omega_linalg::{gaussian_matrix, gemm_threads, qr_thin_threads, svd_tall_threads};
use omega_obs::{Recorder, Track};
use omega_par::DispatchPolicy;
use omega_spmm::{SpmmConfig, SpmmEngine};
use std::hint::black_box;
use std::time::Instant;

/// Median nanoseconds of `reps` calls of `f`.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Measured on every workload: what a pool call and a recorder span cost.
pub fn every_workload(out: &mut Layers) {
    let t = host::wall_threads();
    for (name, width) in [
        ("par.dispatch_ns_w1", 1),
        ("par.dispatch_ns_w2", 2),
        ("par.dispatch_ns_wT", t),
    ] {
        set(out, name, dispatch_ns(width));
    }

    // A span costs more the more spans the recorder already holds, so the
    // count is part of the metric's definition.
    const SPANS: usize = 2_000;
    let rec = Recorder::enabled();
    let start = Instant::now();
    for _ in 0..SPANS {
        let span = rec.begin("bench.probe", Track::MAIN);
        rec.end(span, None);
    }
    let ns = start.elapsed().as_nanos() as f64 / SPANS as f64;
    black_box(rec.spans().len());
    set(out, "obs.recorder_ns_per_span", ns);
}

/// One `omega_par::run` of 8 no-op tasks at `width`, forced onto the pool
/// (width 1 is the inline path).
fn dispatch_ns(width: usize) -> f64 {
    const CALLS: usize = 2_000;
    omega_par::with_dispatch_policy(DispatchPolicy::always_parallel(), || {
        let call = || black_box(omega_par::run(width, 8, |_: &mut (), i| i));
        for _ in 0..CALLS / 10 {
            call();
        }
        let start = Instant::now();
        for _ in 0..CALLS {
            call();
        }
        start.elapsed().as_nanos() as f64 / CALLS as f64
    })
}

/// The scan kernel and the selection that follows it, one thread, over a
/// row-major table; the copy of a buffer of the same size is the bound.
pub fn scan_kernel(out: &mut Layers, rows: &[f32], dim: usize) {
    const REPS: usize = 25;
    let n = rows.len() / dim;
    let bytes = std::mem::size_of_val(rows) as f64;

    let mut copy = vec![0f32; rows.len()];
    let copy_ns = median_ns(REPS, || {
        copy.copy_from_slice(black_box(rows));
        black_box(&mut copy);
    });
    let memcpy_gb_per_s = bytes / copy_ns;
    drop(copy);

    let query = &rows[..dim];
    let mut scores = Vec::with_capacity(n);
    let scan_ns = median_ns(REPS, || {
        dot_scores_into(black_box(query), black_box(rows), dim, &mut scores);
        black_box(&scores);
    });
    let select_ns = median_ns(REPS, || {
        let mut top = TopK::new(10);
        for (i, &s) in scores.iter().enumerate() {
            top.push(i as u32, s);
        }
        black_box(top.len());
    });

    println!(
        "# scan bound: {:.1} MB buffer, L2 {} L3 {}",
        bytes / 1e6,
        host::cache_size(2),
        host::cache_size(3)
    );
    set(out, "linalg.memcpy_gb_per_s", memcpy_gb_per_s);
    set(out, "linalg.scan_ns_per_row", scan_ns / n as f64);
    set(out, "linalg.scan_gb_per_s", bytes / scan_ns);
    set(
        out,
        "linalg.scan_bound_share",
        bytes / scan_ns / memcpy_gb_per_s,
    );
    set(out, "embed.topk_select_ns_per_row", select_ns / n as f64);
}

/// What charging a row read to the cost model costs the host: a `HetVec`
/// row read through a `ThreadMem` against a plain slice read of the same
/// rows in the same (strided, cache-hostile) order.
pub fn hetmem_charge(out: &mut Layers, rows: &[f32], dim: usize) {
    const REPS: usize = 15;
    let n = rows.len() / dim;
    let sys = MemSystem::new(Topology::paper_machine_scaled(
        (std::mem::size_of_val(rows) as u64).max(1 << 20),
    ));
    let table = sys
        .alloc_from(Placement::node(0, DeviceKind::Pm), rows.to_vec())
        .expect("PM holds one copy of the table");
    let order: Vec<usize> = (0..n).map(|i| (i * 7919) % n).collect();

    let plain_ns = median_ns(REPS, || {
        let mut acc = 0f32;
        for &r in &order {
            acc += black_box(&rows[r * dim..(r + 1) * dim])[0];
        }
        black_box(acc);
    });
    let mut ctx = sys.thread_ctx(0);
    let charged_ns = median_ns(REPS, || {
        let mut acc = 0f32;
        for &r in &order {
            acc += table.read_block(r * dim..(r + 1) * dim, &mut ctx)[0];
        }
        black_box(acc);
        black_box(ctx.take_counters());
    });
    set(
        out,
        "hetmem.charge_ns_per_access",
        (charged_ns - plain_ns) / n as f64,
    );
}

/// The dense kernels of the randomized t-SVD at its shape: `n x 80`.
pub fn dense_kernels(out: &mut Layers, n: usize, threads: usize, seed: u64) {
    const REPS: usize = 3;
    const K: usize = 80;
    let tall = gaussian_matrix(n, K, seed);
    let square = gaussian_matrix(K, K, seed ^ 1);
    let gemm_ns = median_ns(REPS, || {
        black_box(gemm_threads(&tall, &square, threads).expect("shapes agree"));
    });
    let qr_ns = median_ns(REPS, || {
        black_box(qr_thin_threads(&tall, threads).expect("tall matrix"));
    });
    let svd_ns = median_ns(REPS, || {
        black_box(svd_tall_threads(&tall, threads).expect("tall matrix"));
    });
    set(
        out,
        "linalg.gemm_gflop_per_s",
        (2 * n * K * K) as f64 / gemm_ns,
    );
    set(out, "linalg.qr_ms", qr_ns * 1e-6);
    set(out, "linalg.svd_ms", svd_ns * 1e-6);
}

/// One `SpmmEngine::spmm` of `graph` by 64 dense columns: wall and sim
/// per non-zero, and how its prefetcher and thread balance did.
struct SpmmProbe {
    wall_ns_per_nnz_col: f64,
    sim_ns_per_nnz: f64,
    run: omega_spmm::SpmmRun,
}

fn spmm_probe(graph: &Csr, threads: usize, seed: u64) -> (SpmmProbe, f64) {
    const COLS: usize = 64;
    let mut built = None;
    let csdb_ns = median_ns(3, || {
        built = Some(Csdb::from_csr(graph).expect("valid CSR"));
    });
    let csdb = built.expect("three builds");
    let dense = gaussian_matrix(graph.rows() as usize, COLS, seed);
    let engine = SpmmEngine::new(
        MemSystem::new(Topology::paper_machine_scaled(1 << 28)),
        SpmmConfig::omega(8),
    )
    .expect("8 simulated threads")
    .with_wall_threads(threads);
    let mut last = None;
    let wall_ns = median_ns(3, || {
        last = Some(engine.spmm(&csdb, &dense).expect("operands fit"));
    });
    let run = last.expect("three runs");
    let nnz = csdb.nnz() as f64;
    let probe = SpmmProbe {
        wall_ns_per_nnz_col: wall_ns / (nnz * COLS as f64),
        sim_ns_per_nnz: run.makespan.as_nanos() as f64 / nnz,
        run,
    };
    (probe, csdb_ns / nnz)
}

/// SpMM on the training graph and on a uniform graph of about the same
/// nnz (the bypass for skew-specific work), plus the CSDB build cost.
pub fn spmm(out: &mut Layers, graph: &Csr, threads: usize, seed: u64) {
    let (social, csdb_ns_per_nnz) = spmm_probe(graph, threads, seed);
    set(out, "graph.csdb_build_ns_per_nnz", csdb_ns_per_nnz);
    set(out, "spmm.wall_ns_per_nnz_col", social.wall_ns_per_nnz_col);
    set(out, "spmm.sim_ns_per_nnz", social.sim_ns_per_nnz);
    let run = &social.run;
    set(out, "spmm.prefetch_hit_rate", run.hit_rate());
    set(
        out,
        "spmm.wasted_prefetch_share",
        run.wasted_prefetches as f64 / run.dense_fetches.max(1) as f64,
    );
    set(
        out,
        "spmm.thread_imbalance",
        run.stats.max_s / run.stats.mean_s.max(f64::MIN_POSITIVE),
    );
    set(
        out,
        "spmm.alloc_sim_share",
        run.alloc_time.ratio(run.makespan),
    );

    // Symmetrising doubles the edges, so half the nnz as edges lands near it.
    let uniform = RmatConfig::uniform(graph.rows(), graph.nnz() as u64 / 2, seed)
        .generate_csr()
        .expect("valid R-MAT parameters");
    let (uniform, _) = spmm_probe(&uniform, threads, seed);
    set(
        out,
        "spmm.uniform_wall_ns_per_nnz_col",
        uniform.wall_ns_per_nnz_col,
    );
    set(out, "spmm.uniform_sim_ns_per_nnz", uniform.sim_ns_per_nnz);
}
