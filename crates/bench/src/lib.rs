//! # omega-bench — the paper's tables and figures on the simulated clock
//!
//! Every table and figure of the paper's evaluation (§IV), plus the
//! embedding-quality table and two ablations, is one entry of [`FIGURES`]:
//! a function of the twin scale (1:1000 for the paper-scale runs) that
//! prints its tables and returns its machine-readable rows. The
//! `reproduce` binary runs them:
//! `cargo run -p omega-bench --release --bin reproduce -- [figure ...]`.
//! The machine's memory capacities scale along with the twins so capacity
//! outcomes (OOMs) are preserved.

use omega::{Omega, OmegaConfig, OmegaRun, SCALED_DRAM_PER_NODE};
use omega_graph::{Csdb, Csr, Dataset};
use omega_hetmem::{MemSystem, SimDuration, Topology};
use omega_linalg::{gaussian_matrix, DenseMatrix};
use omega_obs::export::json_line;
use omega_spmm::{SpmmConfig, SpmmEngine, SpmmRun};
use serde::Value;
use std::path::{Path, PathBuf};

mod figures {
    pub(crate) mod ablation_components;
    pub(crate) mod ablation_cxl;
    pub(crate) mod fig07_cost_analysis;
    pub(crate) mod fig09_pm_bandwidth;
    pub(crate) mod fig12_overall;
    pub(crate) mod fig13_thread_dist;
    pub(crate) mod fig14_wofp;
    pub(crate) mod fig15_nadp;
    pub(crate) mod fig16_throughput;
    pub(crate) mod fig17_scalability;
    pub(crate) mod fig18_competitors;
    pub(crate) mod fig19_format_params;
    pub(crate) mod table1_datasets;
    pub(crate) mod table2_eata;
    pub(crate) mod table_quality;
}

/// A figure: its name and the function that, given the twin scale, prints
/// its tables and returns its JSONL rows (empty for the figures that write
/// none).
pub type Figure = (&'static str, fn(u64) -> Vec<Value>);

/// Every figure, in paper order.
pub const FIGURES: &[Figure] = &[
    ("table1_datasets", figures::table1_datasets::run),
    ("table2_eata", figures::table2_eata::run),
    ("fig07_cost_analysis", figures::fig07_cost_analysis::run),
    ("fig09_pm_bandwidth", figures::fig09_pm_bandwidth::run),
    ("fig12_overall", figures::fig12_overall::run),
    ("fig13_thread_dist", figures::fig13_thread_dist::run),
    ("fig14_wofp", figures::fig14_wofp::run),
    ("fig15_nadp", figures::fig15_nadp::run),
    ("fig16_throughput", figures::fig16_throughput::run),
    ("fig17_scalability", figures::fig17_scalability::run),
    ("fig18_competitors", figures::fig18_competitors::run),
    ("fig19_format_params", figures::fig19_format_params::run),
    ("table_quality", figures::table_quality::run),
    ("ablation_components", figures::ablation_components::run),
    ("ablation_cxl", figures::ablation_cxl::run),
];

/// Simulated threads used throughout the evaluation (§IV uses 30).
const THREADS: usize = 30;

/// [`THREADS`] as the comparators take it.
const COMPARATOR_THREADS: std::num::NonZeroUsize =
    std::num::NonZeroUsize::new(THREADS).expect("the evaluation runs threads");

/// Embedding dimension for end-to-end runs.
const DIM: usize = 64;

/// The canonical experiment machine at twin scale `scale`: the paper's box
/// with capacities scaled by the same factor as the datasets.
fn machine(scale: u64) -> Topology {
    // SCALED_DRAM_PER_NODE is calibrated for scale 1000.
    let dram = (SCALED_DRAM_PER_NODE as u128 * 1000 / scale as u128).max(1 << 20) as u64;
    Topology::paper_machine_scaled(dram)
}

/// The dataset twin at scale `scale`.
fn twin(dataset: Dataset, scale: u64) -> Csr {
    dataset
        .load_scaled(scale)
        .expect("twin generation cannot fail")
}

/// One SpMM's operands: `g` in CSDB form and a `g.rows() × DIM` Gaussian
/// dense matrix drawn from `seed`.
fn spmm_operands(g: &Csr, seed: u64) -> (Csdb, DenseMatrix) {
    let csdb = Csdb::from_csr(g).expect("every twin converts to CSDB");
    (csdb, gaussian_matrix(g.rows() as usize, DIM, seed))
}

/// One SpMM under `cfg` on a fresh `topo` machine.
fn spmm(topo: &Topology, cfg: SpmmConfig, a: &Csdb, b: &DenseMatrix) -> SpmmRun {
    SpmmEngine::new(MemSystem::new(topo.clone()), cfg)
        .expect("the engine fits the experiment machine")
        .spmm(a, b)
        .expect("the SpMM fits the experiment machine")
}

/// The end-to-end configuration every figure starts from: full OMeGa on
/// `topo` with [`THREADS`] simulated threads and `d` = [`DIM`].
fn omega_config(topo: &Topology) -> OmegaConfig {
    OmegaConfig::default()
        .with_topology(topo.clone())
        .with_threads(THREADS)
        .with_dim(DIM)
}

/// Embed `g` with `omega`, or `None` when the run does not fit the machine.
/// Any other failure is a bug in the figure and panics.
fn embed_or_oom(omega: Omega, g: &Csr) -> Option<OmegaRun> {
    match omega.embed(g) {
        Ok(run) => Some(run),
        Err(e) if e.is_oom() => None,
        Err(e) => panic!("{e}"),
    }
}

/// Format a simulated duration as seconds with three significant digits.
fn fmt_time(t: Option<SimDuration>) -> String {
    match t {
        Some(t) => {
            let s = t.as_secs_f64();
            if s >= 100.0 {
                format!("{s:.0} s")
            } else if s >= 1.0 {
                format!("{s:.2} s")
            } else {
                format!("{:.2} ms", s * 1e3)
            }
        }
        None => "OOM".to_string(),
    }
}

/// Print an aligned table: header row then data rows.
fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Write a figure's rows, one JSON object a line, to `<dir>/<name>.jsonl`
/// (creating `dir` if needed) and return the file's path.
pub fn write_jsonl(dir: &Path, name: &str, rows: &[Value]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    std::fs::write(&path, rows.iter().map(json_line).collect::<String>())?;
    Ok(path)
}

/// Geometric mean of speedups, ignoring non-finite entries.
fn geomean(ratios: &[f64]) -> f64 {
    let finite: Vec<f64> = ratios
        .iter()
        .copied()
        .filter(|r| r.is_finite() && *r > 0.0)
        .collect();
    if finite.is_empty() {
        return f64::NAN;
    }
    (finite.iter().map(|r| r.ln()).sum::<f64>() / finite.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_tracks_scale() {
        let dram = |scale| machine(scale).capacity(0, omega_hetmem::DeviceKind::Dram);
        assert_eq!(dram(1000), SCALED_DRAM_PER_NODE);
        assert_eq!(dram(4000), SCALED_DRAM_PER_NODE / 4);
        // The 1 MiB floor keeps coarse twins' machines usable.
        assert_eq!(dram(1_000_000), 1 << 20);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_time(None), "OOM");
        assert_eq!(fmt_time(Some(SimDuration::from_millis(5))), "5.00 ms");
        assert_eq!(fmt_time(Some(SimDuration::from_secs_f64(2.5))), "2.50 s");
        assert_eq!(fmt_time(Some(SimDuration::from_secs_f64(250.0))), "250 s");
    }

    #[test]
    fn jsonl_rows_land_in_named_file() {
        let dir = std::env::temp_dir().join("omega_bench_results_test");
        let rows = [Value::U64(1), Value::Str("a".into())];
        let path = write_jsonl(&dir, "fig_test", &rows).unwrap();
        assert_eq!(path, dir.join("fig_test.jsonl"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "1\n\"a\"\n");
    }

    #[test]
    fn geomean_math() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
        assert!((geomean(&[3.0, f64::INFINITY]) - 3.0).abs() < 1e-9);
    }

    /// The figures that run single SpMMs (or none) complete at the coarsest
    /// scale every figure supports, and only fig16 returns rows: one per
    /// graph of panel (a), one per thread count of panel (b).
    #[test]
    fn spmm_level_figures_run_at_scale_20000() {
        for name in [
            "fig07_cost_analysis",
            "fig09_pm_bandwidth",
            "fig13_thread_dist",
            "fig14_wofp",
            "fig16_throughput",
            "fig19_format_params",
            "ablation_components",
            "ablation_cxl",
        ] {
            let (_, figure) = FIGURES.iter().find(|(n, _)| *n == name).unwrap();
            let rows = figure(20_000).len();
            assert_eq!(rows, if name == "fig16_throughput" { 5 + 9 } else { 0 });
        }
    }
}
