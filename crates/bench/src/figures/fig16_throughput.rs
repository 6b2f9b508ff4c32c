//! Fig. 16 — SpMM throughput (million dense fetches per second):
//! (a) OMeGa vs OMeGa-w/o-NaDP on five twins at 30 threads,
//! (b) sweep over thread counts on the soc-LiveJournal twin.

use crate::{machine, print_table, spmm, spmm_operands, twin, THREADS};
use omega_graph::{Csdb, Dataset};
use omega_linalg::DenseMatrix;
use omega_obs::json::object;
use omega_spmm::SpmmConfig;
use serde::Value;

pub(crate) fn run(scale: u64) -> Vec<Value> {
    let topo = machine(scale);
    let mut jsonl = Vec::new();
    // OMeGa's and w/o NaDP's throughput at `threads`, recorded as one
    // machine-readable row of `panel` with OMeGa's aggregate WoFP hit rate
    // (Fig. 14 companion).
    let mut measure = |panel: &str, d: Dataset, threads: usize, csdb: &Csdb, b: &DenseMatrix| {
        let run = spmm(&topo, SpmmConfig::omega(threads), csdb, b);
        let no_nadp = spmm(&topo, SpmmConfig::omega(threads).with_nadp(false), csdb, b);
        let (with, without) = (run.throughput_mnnz_s(), no_nadp.throughput_mnnz_s());
        jsonl.push(object([
            ("panel", Value::Str(panel.to_string())),
            ("graph", Value::Str(d.label().to_string())),
            ("threads", Value::U64(threads as u64)),
            ("omega_mnnz_s", Value::F64(with)),
            ("no_nadp_mnnz_s", Value::F64(without)),
            ("gain", Value::F64(with / without)),
            ("wofp_hit_rate", Value::F64(run.hit_rate())),
        ]));
        (with, without)
    };

    // (a) per graph.
    let mut rows = Vec::new();
    for &d in &Dataset::SMALL_FIVE {
        let g = twin(d, scale);
        let (csdb, b) = spmm_operands(&g, 16);
        let (with, without) = measure("a", d, THREADS, &csdb, &b);
        rows.push(vec![
            d.label().to_string(),
            format!("{with:.1}"),
            format!("{without:.1}"),
            format!("{:.2}x", with / without),
        ]);
    }
    print_table(
        "Fig. 16(a): SpMM throughput (M nnz fetched/s), 30 threads",
        &["graph", "OMeGa", "w/o NaDP", "gain"],
        &rows,
    );

    // (b) thread sweep on LJ.
    let g = twin(Dataset::Lj, scale);
    let (csdb, b) = spmm_operands(&g, 17);
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8, 12, 18, 24, 30, 36] {
        let (with, without) = measure("b", Dataset::Lj, threads, &csdb, &b);
        rows.push(vec![
            threads.to_string(),
            format!("{with:.1}"),
            format!("{without:.1}"),
        ]);
    }
    print_table(
        "Fig. 16(b): throughput vs threads on LJ (M nnz/s)",
        &["threads", "OMeGa", "w/o NaDP"],
        &rows,
    );
    jsonl
}
