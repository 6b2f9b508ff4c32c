//! Fig. 13 — distribution of per-thread running times for one SpMM on the
//! soc-LiveJournal twin under WaTA vs EaTA: histogram, standard deviation,
//! and P95/P99 tail latencies.

use crate::{machine, print_table, spmm, spmm_operands, twin, THREADS};
use omega_graph::Dataset;
use omega_spmm::{AllocScheme, SpmmConfig, SpmmRun};
use serde::Value;

fn histogram(times_s: &[f64], buckets: usize) -> Vec<(f64, usize)> {
    let max = times_s.iter().cloned().fold(0.0, f64::max);
    let width = (max / buckets as f64).max(f64::MIN_POSITIVE);
    let mut hist = vec![0usize; buckets];
    for &t in times_s {
        let idx = ((t / width) as usize).min(buckets - 1);
        hist[idx] += 1;
    }
    hist.iter()
        .enumerate()
        .map(|(i, &c)| ((i as f64 + 0.5) * width, c))
        .collect()
}

pub(crate) fn run(scale: u64) -> Vec<Value> {
    println!("Fig. 13: thread running-time distribution on the LJ twin, {THREADS} threads");
    let topo = machine(scale);
    let g = twin(Dataset::Lj, scale);
    let (csdb, b) = spmm_operands(&g, 13);
    let run = |alloc| {
        let cfg = SpmmConfig::omega(THREADS).with_alloc(alloc);
        spmm(&topo, cfg, &csdb, &b)
    };
    let wata = run(AllocScheme::WaTA);
    let eata = run(AllocScheme::eata_default());

    for (name, run) in [("WaTA", &wata), ("EaTA", &eata)] {
        let secs: Vec<f64> = run.thread_times.iter().map(|t| t.as_secs_f64()).collect();
        println!("\n{name} histogram (time-bucket midpoint in ms -> #threads):");
        for (mid, count) in histogram(&secs, 8) {
            println!("  {:>7.3} ms | {}", mid * 1e3, "#".repeat(count));
        }
    }

    let row = |name: &str, r: &SpmmRun| {
        let s = &r.stats;
        let mut row = vec![name.to_string()];
        row.extend(
            [s.mean_s, s.stddev_s, s.p95_s, s.p99_s, s.max_s].map(|t| format!("{:.3} ms", t * 1e3)),
        );
        row
    };
    print_table(
        "Fig. 13 statistics",
        &["scheme", "mean", "stddev", "P95", "P99", "max"],
        &[row("WaTA", &wata), row("EaTA", &eata)],
    );
    println!(
        "\nEaTA vs WaTA: P99 {:+.1}%  P95 {:+.1}%  stddev ratio {:.2} \
         (paper: P99 -31%, P95 -24%, stddev 1.52 -> 0.78)",
        (eata.stats.p99_s / wata.stats.p99_s - 1.0) * 100.0,
        (eata.stats.p95_s / wata.stats.p95_s - 1.0) * 100.0,
        eata.stats.stddev_s / wata.stats.stddev_s,
    );
    Vec::new()
}
