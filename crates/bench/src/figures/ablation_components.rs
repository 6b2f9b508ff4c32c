//! Ablation: the full factorial of OMeGa's four components (EaTA, WoFP,
//! NaDP, ASL) on one SpMM over the PK twin — the design-choice
//! decomposition DESIGN.md calls out, beyond the paper's one-at-a-time
//! ablations (Table II, Fig. 14, Fig. 15).

use crate::{fmt_time, print_table, spmm, spmm_operands, twin, THREADS};
use omega_graph::Dataset;
use omega_hetmem::Topology;
use omega_spmm::{AllocScheme, SpmmConfig, WofpConfig};
use serde::Value;

pub(crate) fn run(scale: u64) -> Vec<Value> {
    let topo = Topology::twin(scale);
    let g = twin(Dataset::Pk, scale);
    let (csdb, b) = spmm_operands(&g, 0xab1a);

    let mut rows = Vec::new();
    let mut baseline = None;
    for mask in 0..16u32 {
        let [eata, wofp, nadp, asl] = [1, 2, 4, 8].map(|bit| mask & bit != 0);
        let cfg = SpmmConfig {
            alloc: if eata {
                AllocScheme::EaTA
            } else {
                AllocScheme::WaTA
            },
            wofp: wofp.then(WofpConfig::default),
            nadp,
            asl,
            ..SpmmConfig::omega(THREADS)
        };
        let t = spmm(&topo, cfg, &csdb, &b).makespan;
        // Mask 0, the first run, is the all-off baseline.
        let baseline = *baseline.get_or_insert(t);
        let mut row: Vec<String> = [eata, wofp, nadp, asl]
            .map(|on| if on { "on" } else { "-" }.to_string())
            .to_vec();
        row.extend([fmt_time(Some(t)), format!("{:.2}x", baseline.ratio(t))]);
        rows.push(row);
    }

    print_table(
        "Component ablation: one SpMM on the PK twin (speedup vs all-off)",
        &["EaTA", "WoFP", "NaDP", "ASL", "time", "speedup"],
        &rows,
    );
    println!(
        "\nNote: with ASL active the dense operand is staged in DRAM, so WoFP \
         adds nothing on top (see DESIGN.md section 6.2); the WoFP rows matter \
         in the ASL-off half of the table."
    );
    Vec::new()
}
