//! Fig. 18 — (a) OMeGa vs the distributed systems DistGER and DistDGL
//! (end-to-end, four-machine cluster), and (b) one SpMM vs the
//! SpMM-specialised systems SEM-SpMM and FusedMM. FusedMM must OOM on the
//! billion-scale TW-2010 twin, as the paper reports.

use crate::{
    fmt_time, geomean, machine, omega_config, print_table, spmm_operands, twin, DIM, THREADS,
};
use omega::Omega;
use omega_baselines::{omega_spmm_time, FusedMm, SemSpmm};
use omega_baselines::{DistConfig, DistDglLike, DistGerLike};
use omega_graph::Dataset;
use serde::Value;

pub(crate) fn run(scale: u64) -> Vec<Value> {
    let topo = machine(scale);
    let base = omega_config(&topo);

    // (a) distributed systems, end to end.
    let dist_cfg = DistConfig::paper_cluster(DIM);
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
        let dgl = DistDglLike::new(dist_cfg).run(&g);
        let ger = DistGerLike::new(dist_cfg).run(&g);
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
        &["graph", "OMeGa", "DistGER", "DistDGL"],
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
        let omega = omega_spmm_time(topo.clone(), THREADS, &csdb, &b);
        let sem = SemSpmm::new(topo.clone(), THREADS).run_spmm(&g, DIM);
        let fused = FusedMm::new(topo.clone(), THREADS).run_spmm(&g, DIM);
        let omega_t = omega.time().expect("OMeGa completes");
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
        &["graph", "OMeGa", "SEM-SpMM", "FusedMM"],
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
