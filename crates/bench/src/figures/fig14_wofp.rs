//! Fig. 14 — SpMM time with and without the WoFP prefetcher on five twins.
//!
//! Configuration as in the paper's §IV-D: EaTA thread allocation with the
//! prefetcher layered on top; streaming (ASL) is not part of this
//! experiment — WoFP's job is precisely the regime where dense fetches
//! would otherwise hit PM. Reported times include allocation and
//! prefetching overheads.

use crate::{fmt_time, machine, print_table, spmm, spmm_operands, twin, THREADS};
use omega_graph::Dataset;
use omega_spmm::{SpmmConfig, WofpConfig};
use serde::Value;

pub(crate) fn run(scale: u64) -> Vec<Value> {
    let topo = machine(scale);
    let mut rows = Vec::new();
    let mut improvements = Vec::new();
    for &d in &Dataset::SMALL_FIVE {
        let g = twin(d, scale);
        let (csdb, b) = spmm_operands(&g, 14);
        let run = |wofp| {
            let cfg = SpmmConfig::omega(THREADS).with_asl(None).with_wofp(wofp);
            spmm(&topo, cfg, &csdb, &b)
        };
        let prefetched = run(Some(WofpConfig::default()));
        let (hits, fetches) = (prefetched.prefetch_hits, prefetched.dense_fetches);
        let (with, without) = (prefetched.makespan, run(None).makespan);
        let improvement = (1.0 - with.ratio(without)) * 100.0;
        improvements.push(improvement);
        rows.push(vec![
            d.label().to_string(),
            fmt_time(Some(without)),
            fmt_time(Some(with)),
            format!("{improvement:.1}%"),
            format!("{:.1}%", hits as f64 / fetches.max(1) as f64 * 100.0),
        ]);
    }

    print_table(
        "Fig. 14: SpMM with/without WoFP (EaTA base, no streaming)",
        &["graph", "w/o WoFP", "with WoFP", "improvement", "hit rate"],
        &rows,
    );
    println!(
        "\naverage improvement {:.1}% (paper: 37.28% average, up to 52% on OR)",
        improvements.iter().sum::<f64>() / improvements.len() as f64
    );
    Vec::new()
}
