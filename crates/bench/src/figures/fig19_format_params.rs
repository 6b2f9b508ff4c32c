//! Fig. 19 — (a) graph-reading performance of CSDB vs CSR on all twins,
//! and the WoFP parameter sensitivity sweeps on the PK twin: (b) the
//! prefetcher-type threshold η and (c) the prefetch-size factor σ
//! (normalised SpMM execution time).

use crate::{fmt_time, geomean, machine, print_table, spmm, spmm_operands, twin, THREADS};
use omega_graph::read_cost::{csdb_read_time, csr_read_time};
use omega_graph::{Csdb, Dataset};
use omega_hetmem::{BandwidthModel, DeviceKind};
use omega_spmm::{SpmmConfig, WofpConfig};
use serde::Value;

pub(crate) fn run(scale: u64) -> Vec<Value> {
    // (a) CSDB vs CSR reading.
    let model = BandwidthModel::paper_machine();
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for &d in &Dataset::ALL {
        let g = twin(d, scale);
        let csdb = Csdb::from_csr(&g).unwrap();
        let t_csr = csr_read_time(&g, &model, DeviceKind::Pm);
        let t_csdb = csdb_read_time(&csdb, &model, DeviceKind::Pm);
        speedups.push(t_csr.ratio(t_csdb));
        rows.push(vec![
            d.label().to_string(),
            fmt_time(Some(t_csr)),
            fmt_time(Some(t_csdb)),
            format!("{:.2}x", t_csr.ratio(t_csdb)),
            format!("{}", csdb.blocks()),
            format!("{:.1}x", g.index_bytes() as f64 / csdb.index_bytes() as f64),
        ]);
    }
    print_table(
        "Fig. 19(a): graph reading, CSR vs CSDB",
        &[
            "graph",
            "CSR",
            "CSDB",
            "speedup",
            "|Degree|",
            "index shrink",
        ],
        &rows,
    );
    println!(
        "geomean CSDB reading speedup {:.2}x (paper 1.35x)",
        geomean(&speedups)
    );

    // Parameter sweeps on the PK twin: one SpMM in the WoFP regime
    // (EaTA base, streaming off), normalised to the default setting.
    let topo = machine(scale);
    let g = twin(Dataset::Pk, scale);
    let (csdb, b) = spmm_operands(&g, 19);
    let time = |wofp: WofpConfig| -> f64 {
        let cfg = SpmmConfig::omega(THREADS)
            .with_asl(None)
            .with_wofp(Some(wofp));
        spmm(&topo, cfg, &csdb, &b).makespan.as_secs_f64()
    };
    let baseline = time(WofpConfig::default());
    let sweep = |values: [f64; 7], set: fn(f64) -> WofpConfig| -> Vec<Vec<String>> {
        let row = |v: f64| vec![format!("{v}"), format!("{:.3}", time(set(v)) / baseline)];
        values.into_iter().map(row).collect()
    };

    // (b) eta sweep.
    print_table(
        "Fig. 19(b): eta sweep on PK (normalised time)",
        &["eta", "time / default"],
        &sweep([0.0005, 0.002, 0.005, 0.01, 0.02, 0.05, 0.2], |eta| {
            WofpConfig {
                eta,
                ..WofpConfig::default()
            }
        }),
    );
    println!(
        "(On the symmetric power-law twins the two prefetcher flavours select\n\
         near-identical hot sets, so the eta curve is much flatter than the\n\
         paper's — see EXPERIMENTS.md.)"
    );

    // (c) sigma sweep.
    print_table(
        "Fig. 19(c): sigma sweep on PK (normalised time)",
        &["sigma", "time / default"],
        &sweep([0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4], |sigma| {
            WofpConfig {
                sigma,
                ..WofpConfig::default()
            }
        }),
    );
    Vec::new()
}
