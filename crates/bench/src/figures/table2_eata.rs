//! Table II — running time of EaTA and competitors for one SpMM.
//!
//! One SpMM (`A · B`, `d` = 64 Gaussian columns) per dataset twin under the
//! three thread-allocation schemes, full OMeGa configuration otherwise
//! (30 simulated threads, heterogeneous memory).

use crate::{fmt_time, geomean, print_table, spmm, spmm_operands, twin, THREADS};
use omega_graph::Dataset;
use omega_hetmem::Topology;
use omega_spmm::{AllocScheme, SpmmConfig};
use serde::Value;

pub(crate) fn run(scale: u64) -> Vec<Value> {
    let topo = Topology::twin(scale);
    let schemes = [
        AllocScheme::RoundRobin,
        AllocScheme::WaTA,
        AllocScheme::EaTA,
    ];

    let mut rows = Vec::new();
    let mut rr_speedups = Vec::new();
    let mut wata_speedups = Vec::new();
    for &d in &Dataset::ALL {
        let g = twin(d, scale);
        let (csdb, b) = spmm_operands(&g, 0x7ab2 ^ g.rows() as u64);
        let times: Vec<f64> = schemes
            .iter()
            .map(|&alloc| {
                let cfg = SpmmConfig {
                    alloc,
                    ..SpmmConfig::omega(THREADS)
                };
                spmm(&topo, cfg, &csdb, &b).makespan.as_secs_f64()
            })
            .collect();
        rr_speedups.push(times[0] / times[2]);
        wata_speedups.push(times[1] / times[2]);
        rows.push(vec![
            d.label().to_string(),
            fmt_time(Some(omega_hetmem::SimDuration::from_secs_f64(times[0]))),
            fmt_time(Some(omega_hetmem::SimDuration::from_secs_f64(times[1]))),
            fmt_time(Some(omega_hetmem::SimDuration::from_secs_f64(times[2]))),
            format!("{:.2}x", times[0] / times[2]),
            format!("{:.2}x", times[1] / times[2]),
        ]);
    }

    print_table(
        "Table II: one SpMM under RR / WaTA / EaTA",
        &["graph", "RR", "WaTA", "EaTA", "RR/EaTA", "WaTA/EaTA"],
        &rows,
    );
    println!(
        "\ngeomean speedup of EaTA: {:.2}x over RR, {:.2}x over WaTA \
         (paper: avg 3.50x over both, range 1.04-7.51x)",
        geomean(&rr_speedups),
        geomean(&wata_speedups)
    );
    Vec::new()
}
