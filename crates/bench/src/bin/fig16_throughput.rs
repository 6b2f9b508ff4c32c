//! Fig. 16 — SpMM throughput (million dense fetches per second):
//! (a) OMeGa vs OMeGa-w/o-NaDP on five twins at 30 threads,
//! (b) sweep over thread counts on the soc-LiveJournal twin.

use omega_bench::{experiment_topology, load, print_table, write_results_jsonl, DIM, THREADS};
use omega_graph::{Csdb, Dataset};
use omega_hetmem::MemSystem;
use omega_linalg::gaussian_matrix;
use omega_obs::export::json_line;
use omega_obs::json::object;
use omega_spmm::{SpmmConfig, SpmmEngine};
use serde::Value;

/// One machine-readable throughput measurement (a row of panel a or b).
fn row(panel: &str, d: Dataset, threads: usize, with: f64, without: f64, hit_rate: f64) -> Value {
    object([
        ("panel", Value::Str(panel.to_string())),
        ("graph", Value::Str(d.label().to_string())),
        ("threads", Value::U64(threads as u64)),
        ("omega_mnnz_s", Value::F64(with)),
        ("no_nadp_mnnz_s", Value::F64(without)),
        ("gain", Value::F64(with / without)),
        ("wofp_hit_rate", Value::F64(hit_rate)),
    ])
}

/// Throughput plus the run's aggregate WoFP hit rate (Fig. 14 companion).
fn throughput(cfg: SpmmConfig, csdb: &Csdb, b: &omega_linalg::DenseMatrix) -> (f64, f64) {
    let eng = SpmmEngine::new(MemSystem::new(experiment_topology()), cfg).unwrap();
    let run = eng.spmm(csdb, b).unwrap();
    (run.throughput_mnnz_s(), run.hit_rate())
}

fn main() {
    let mut jsonl = String::new();

    // (a) per graph.
    let mut rows = Vec::new();
    for &d in &Dataset::SMALL_FIVE {
        let g = load(d);
        let csdb = Csdb::from_csr(&g).unwrap();
        let b = gaussian_matrix(g.rows() as usize, DIM, 16);
        let (with, hit_rate) = throughput(SpmmConfig::omega(THREADS), &csdb, &b);
        let (without, _) = throughput(SpmmConfig::omega(THREADS).with_nadp(false), &csdb, &b);
        jsonl.push_str(&json_line(&row("a", d, THREADS, with, without, hit_rate)));
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
    let g = load(Dataset::Lj);
    let csdb = Csdb::from_csr(&g).unwrap();
    let b = gaussian_matrix(g.rows() as usize, DIM, 17);
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8, 12, 18, 24, 30, 36] {
        let (with, hit_rate) = throughput(SpmmConfig::omega(threads), &csdb, &b);
        let (without, _) = throughput(SpmmConfig::omega(threads).with_nadp(false), &csdb, &b);
        jsonl.push_str(&json_line(&row(
            "b",
            Dataset::Lj,
            threads,
            with,
            without,
            hit_rate,
        )));
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
    write_results_jsonl("fig16_throughput", &jsonl);
}
