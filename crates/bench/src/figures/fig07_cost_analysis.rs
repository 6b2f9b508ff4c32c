//! Fig. 7 — the cost analysis behind EaTA: (a) SpMM execution-time
//! breakdown by operation, (b) per-thread `get_dense_nnz` throughput vs the
//! workload inherent scatter factor, (c) per-thread running time vs
//! workload entropy (the linear `T = K·H` relationship), all under WaTA on
//! the soc-LiveJournal twin.

use crate::{print_table, spmm, spmm_operands, twin, THREADS};
use omega_graph::Dataset;
use omega_hetmem::{BandwidthModel, Topology};
use omega_spmm::{AllocScheme, SpmmConfig};
use serde::Value;

pub(crate) fn run(scale: u64) -> Vec<Value> {
    let g = twin(Dataset::Lj, scale);
    let (csdb, b) = spmm_operands(&g, 7);

    // WaTA without prefetching/streaming: the configuration §III-B analyses.
    let cfg = SpmmConfig {
        alloc: AllocScheme::WaTA,
        wofp: None,
        asl: false,
        ..SpmmConfig::omega(THREADS)
    };
    let run = spmm(&Topology::twin(scale), cfg, &csdb, &b);

    // (a) breakdown via the library's Fig. 7(a) analysis.
    let shares = run.op_shares(&BandwidthModel::paper_machine(), THREADS as u32);
    let operations = [
        "read_index + get_sparse_nnz (seq)",
        "get_dense_nnz (random)",
        "write_result",
        "accumulation (CPU)",
    ];
    let rows: Vec<Vec<String>> = operations
        .iter()
        .zip(shares)
        .map(|(op, share)| vec![op.to_string(), format!("{:.1}%", share * 100.0)])
        .collect();
    print_table(
        "Fig. 7(a): SpMM time breakdown (aggregate thread-seconds)",
        &["operation", "share"],
        &rows,
    );
    println!("(paper: get_dense_nnz dominates the breakdown)");

    // (b)+(c) per-workload scatter factor, throughput and entropy.
    let mut rows = Vec::new();
    for w in &run.workloads {
        let secs = w.time.as_secs_f64();
        let tp = if secs > 0.0 {
            w.dense_fetches as f64 / 1e6 / secs
        } else {
            0.0
        };
        rows.push(vec![
            w.thread.to_string(),
            w.nnzs.to_string(),
            format!("{:.2e}", w.scatter),
            format!("{:.3}", w.entropy),
            format!("{tp:.1}"),
            format!("{:.3}", secs * 1e3),
        ]);
    }
    print_table(
        "Fig. 7(b)/(c): per-thread workload diagnostics (WaTA)",
        &[
            "thread",
            "nnz",
            "W_sca",
            "entropy H",
            "fetch M/s",
            "time (ms)",
        ],
        &rows,
    );

    // Correlation of time with entropy (the K of Fig. 7(c)).
    let pts: Vec<(f64, f64)> = run
        .workloads
        .iter()
        .filter(|w| w.nnzs > 0)
        .map(|w| (w.entropy, w.time.as_secs_f64()))
        .collect();
    let n = pts.len() as f64;
    let mh = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let mt = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let cov = pts.iter().map(|p| (p.0 - mh) * (p.1 - mt)).sum::<f64>();
    let vh = pts.iter().map(|p| (p.0 - mh).powi(2)).sum::<f64>();
    let vt = pts.iter().map(|p| (p.1 - mt).powi(2)).sum::<f64>();
    let r = cov / (vh.sqrt() * vt.sqrt()).max(f64::MIN_POSITIVE);
    println!(
        "\ncorrelation(T, H) = {:.3}, fitted K = {:.3e} s per nat \
         (paper: strong linear relationship T = K*H)",
        r,
        cov / vh.max(f64::MIN_POSITIVE)
    );
    Vec::new()
}
