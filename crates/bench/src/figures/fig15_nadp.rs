//! Fig. 15 — the effect of NUMA-aware data placement: (a) overall
//! performance and (b) a single SpMM, for OMeGa vs OMeGa-w/o-NaDP
//! (OS Interleave policy) vs the OMeGa-DRAM ideal, on five twins.
//!
//! Measured with streaming disabled so NUMA-sensitive traffic reaches the
//! memory devices (with full ASL staging, DRAM absorbs most of it at twin
//! scale — see EXPERIMENTS.md).

use crate::{
    embed_or_oom, fmt_time, geomean, omega_config, print_table, spmm_operands, twin, THREADS,
};
use omega::{Omega, SystemVariant};
use omega_graph::Dataset;
use omega_hetmem::{MemSystem, SimDuration, Topology};
use omega_spmm::{SpmmConfig, SpmmEngine};
use serde::Value;

/// One row of either panel: OMeGa, w/o NaDP and OMeGa-DRAM times, then the
/// NaDP speedup, which also joins `speedups` when both OMeGa runs fit.
fn nadp_row(d: Dataset, times: [Option<SimDuration>; 3], speedups: &mut Vec<f64>) -> Vec<String> {
    let [omega, wo, dram] = times;
    let speedup = omega.zip(wo).map(|(a, b)| b.ratio(a));
    speedups.extend(speedup);
    let speedup = speedup.map_or("-".into(), |s| format!("{s:.2}x"));
    vec![
        d.label().to_string(),
        fmt_time(omega),
        fmt_time(wo),
        fmt_time(dram),
        speedup,
    ]
}

pub(crate) fn run(scale: u64) -> Vec<Value> {
    let topo = Topology::twin(scale);
    let base = omega_config(&topo);

    // (a) overall performance.
    let mut rows_a = Vec::new();
    let mut overall_speedups = Vec::new();
    // (b) single SpMM.
    let mut rows_b = Vec::new();
    let mut spmm_speedups = Vec::new();

    for &d in &Dataset::SMALL_FIVE {
        let g = twin(d, scale);

        let end_to_end = |variant: SystemVariant| -> Option<SimDuration> {
            let spmm = SpmmConfig {
                asl: false,
                ..variant.spmm_config(THREADS)
            };
            let omega = Omega::with_spmm_config(base.clone().with_variant(variant), spmm).unwrap();
            embed_or_oom(omega, &g).map(|r| r.total_time())
        };
        let variants = [
            SystemVariant::Omega,
            SystemVariant::OmegaWithoutNadp,
            SystemVariant::OmegaDram,
        ];
        rows_a.push(nadp_row(d, variants.map(end_to_end), &mut overall_speedups));

        let (csdb, bmat) = spmm_operands(&g, 15);
        let spmm = |cfg: SpmmConfig| -> Option<SimDuration> {
            let eng = SpmmEngine::new(MemSystem::new(topo.clone()), cfg).ok()?;
            eng.spmm(&csdb, &bmat).ok().map(|r| r.makespan)
        };
        let resident = |variant: SystemVariant, nadp: bool| {
            spmm(SpmmConfig {
                asl: false,
                nadp,
                ..variant.spmm_config(THREADS)
            })
        };
        let times = [
            resident(SystemVariant::Omega, true),
            resident(SystemVariant::Omega, false),
            resident(SystemVariant::OmegaDram, true),
        ];
        let mut row = nadp_row(d, times, &mut spmm_speedups);
        // Gap to DRAM in the *full* configuration (streaming on), the
        // regime of the paper's 40% figure.
        let [f_omega, f_dram] =
            [SystemVariant::Omega, SystemVariant::OmegaDram].map(|v| spmm(v.spmm_config(THREADS)));
        row.push(match (f_omega, f_dram) {
            (Some(a), Some(c)) => format!("{:.0}%", (a.ratio(c) - 1.0) * 100.0),
            _ => "-".into(),
        });
        rows_b.push(row);
    }

    print_table(
        "Fig. 15(a): overall performance",
        &["graph", "OMeGa", "w/o NaDP", "OMeGa-DRAM", "NaDP speedup"],
        &rows_a,
    );
    print_table(
        "Fig. 15(b): single SpMM",
        &[
            "graph",
            "OMeGa",
            "w/o NaDP",
            "OMeGa-DRAM",
            "NaDP speedup",
            "full-cfg gap to DRAM",
        ],
        &rows_b,
    );
    println!(
        "\ngeomean NaDP speedup: overall {:.2}x (paper 1.95x), SpMM {:.2}x \
         (paper 2.42-3.59x; gap to DRAM 40.17% avg)",
        geomean(&overall_speedups),
        geomean(&spmm_speedups)
    );
    Vec::new()
}
