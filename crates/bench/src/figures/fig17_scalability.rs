//! Fig. 17 — scalability: (a) running time vs thread count on the
//! soc-LiveJournal twin (overall and single SpMM), (b) running time vs
//! graph size on synthetic R-MAT graphs at 30 threads (sparse and dense
//! parameterisations).

use crate::{
    embed_or_oom, fmt_time, machine, omega_config, print_table, spmm, spmm_operands, twin,
};
use omega::Omega;
use omega_graph::{Dataset, RmatConfig};
use omega_hetmem::Topology;
use omega_spmm::SpmmConfig;
use serde::Value;

/// The smallest R-MAT graph of panel (b): coarse scales would otherwise
/// shrink it below the `d + oversample` columns an embedding needs.
const MIN_NODES: u64 = 128;

pub(crate) fn run(scale: u64) -> Vec<Value> {
    let topo = machine(scale);

    // (a) thread sweep on LJ.
    let g = twin(Dataset::Lj, scale);
    let (csdb, b) = spmm_operands(&g, 18);
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8, 12, 18, 24, 30] {
        let overall = Omega::new(omega_config(&topo).with_threads(threads))
            .unwrap()
            .embed(&g)
            .unwrap()
            .total_time();
        let spmm = spmm(&topo, SpmmConfig::omega(threads), &csdb, &b).makespan;
        rows.push(vec![
            threads.to_string(),
            fmt_time(Some(overall)),
            fmt_time(Some(spmm)),
        ]);
    }
    print_table(
        "Fig. 17(a): runtime vs threads on LJ",
        &["threads", "overall", "one SpMM"],
        &rows,
    );

    // (b) R-MAT size sweep: node counts 2^10..2^17 at scale 1000, divided
    // by scale / 1000 like the twins', sparse (avg deg ~16) and dense (avg
    // deg ~64) variants. The machine grows with the graph, like the paper's
    // fixed testbed headroom.
    let mut rows = Vec::new();
    for exp in [10u32, 12, 14, 16, 17] {
        let nodes = ((1u64 << exp) * 1000 / scale).max(MIN_NODES) as u32;
        let label = if nodes.is_power_of_two() {
            format!("2^{}", nodes.ilog2())
        } else {
            nodes.to_string()
        };
        for (kind, avg_deg) in [("sparse", 16u64), ("dense", 64u64)] {
            let cfg = RmatConfig::social(nodes, nodes as u64 * avg_deg / 2, 17 + exp as u64);
            let graph = cfg.generate_csr().unwrap();
            let dram = ((nodes as u64 * avg_deg * 16).max(8 << 20)).next_power_of_two();
            let machine = Topology::paper_machine_scaled(dram);
            let run = embed_or_oom(Omega::new(omega_config(&machine)).unwrap(), &graph);
            let (overall, spmm_share) = match run {
                Some(r) => (
                    Some(r.total_time()),
                    format!("{:.0}%", r.report.spmm_share() * 100.0),
                ),
                None => (None, "-".into()),
            };
            rows.push(vec![
                label.clone(),
                kind.to_string(),
                graph.nnz().to_string(),
                fmt_time(overall),
                spmm_share,
            ]);
        }
    }
    print_table(
        "Fig. 17(b): R-MAT size sweep, 30 threads",
        &["nodes", "density", "nnz", "overall", "SpMM share"],
        &rows,
    );
    Vec::new()
}
