//! Fig. 18 — (a) OMeGa vs the distributed systems DistGER and DistDGL
//! (end-to-end, four-machine cluster), and (b) one SpMM vs the
//! SpMM-specialised systems SEM-SpMM and FusedMM. FusedMM must OOM on the
//! billion-scale TW-2010 twin, as the paper reports.

use crate::{
    fmt_time, geomean, omega_config, print_table, spmm, spmm_operands, twin, COMPARATOR_THREADS,
    DIM, THREADS,
};
use omega::Omega;
use omega_baselines::Comparator::{DistDgl, DistGer, FusedMm, SemSpmm};
use omega_graph::Dataset;
use omega_hetmem::Topology;
use omega_spmm::SpmmConfig;
use serde::Value;

pub(crate) fn run(scale: u64) -> Vec<Value> {
    let topo = Topology::twin(scale);
    let base = omega_config(&topo);

    // (a) distributed systems, end to end.
    let mut rows = Vec::new();
    let mut dgl_speedups = Vec::new();
    let mut ger_ratios = Vec::new();
    for &d in &Dataset::ALL {
        let g = twin(d, scale);
        let omega = Omega::new(base.clone())
            .unwrap()
            .embed(&g)
            .unwrap()
            .total_time();
        let dgl = DistDgl.run(&topo, &g, COMPARATOR_THREADS, DIM);
        let ger = DistGer.run(&topo, &g, COMPARATOR_THREADS, DIM);
        dgl_speedups.extend(dgl.time().map(|t| t.ratio(omega)));
        ger_ratios.extend(ger.time().map(|t| t.ratio(omega)));
        rows.push(vec![
            d.label().to_string(),
            fmt_time(Some(omega)),
            fmt_time(ger.time()),
            fmt_time(dgl.time()),
        ]);
    }
    print_table(
        "Fig. 18(a): vs distributed systems (4-machine 25GbE cluster)",
        &["graph", "OMeGa", DistGer.label(), DistDgl.label()],
        &rows,
    );
    println!(
        "geomean: OMeGa is {:.2}x faster than DistDGL (paper 4.31x), \
         DistGER/OMeGa ratio {:.2} (paper: 1.58x on PK, comparable on larger)",
        geomean(&dgl_speedups),
        geomean(&ger_ratios)
    );

    // (b) SpMM-specialised systems, one SpMM.
    let mut rows = Vec::new();
    let mut sem_speedups = Vec::new();
    let mut fused_speedups = Vec::new();
    for &d in &Dataset::ALL {
        let g = twin(d, scale);
        let (csdb, b) = spmm_operands(&g, 18);
        let omega_t = spmm(&topo, SpmmConfig::omega(THREADS), &csdb, &b).makespan;
        let sem = SemSpmm.run(&topo, &g, COMPARATOR_THREADS, DIM);
        let fused = FusedMm.run(&topo, &g, COMPARATOR_THREADS, DIM);
        sem_speedups.extend(sem.time().map(|t| t.ratio(omega_t)));
        fused_speedups.extend(fused.time().map(|t| t.ratio(omega_t)));
        rows.push(vec![
            d.label().to_string(),
            fmt_time(Some(omega_t)),
            fmt_time(sem.time()),
            fmt_time(fused.time()),
        ]);
    }
    print_table(
        "Fig. 18(b): one SpMM vs SEM-SpMM and FusedMM",
        &["graph", "OMeGa", SemSpmm.label(), FusedMm.label()],
        &rows,
    );
    println!(
        "geomean: OMeGa is {:.2}x faster than SEM-SpMM (paper 15.69x) and \
         {:.2}x faster than FusedMM (paper 2.11-3.26x; FusedMM OOMs on TW-2010)",
        geomean(&sem_speedups),
        geomean(&fused_speedups)
    );
    Vec::new()
}
