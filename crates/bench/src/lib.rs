//! # omega-bench — experiment harness utilities
//!
//! Shared plumbing for the per-figure/table binaries in `src/bin/`: the
//! canonical experiment machine, dataset twin loading, and aligned table
//! printing. Every binary regenerates one table or figure of the paper;
//! run e.g.
//!
//! ```text
//! cargo run -p omega-bench --release --bin table2_eata
//! ```
//!
//! Set `OMEGA_SCALE` (default 1000) to trade twin size for runtime; the
//! machine's memory capacities scale along with the twins so capacity
//! outcomes (OOMs) are preserved.

use omega::config::SCALED_DRAM_PER_NODE;
use omega_graph::{datasets::default_scale, Csr, Dataset};
use omega_hetmem::{SimDuration, Topology};
use std::path::PathBuf;

/// Simulated threads used throughout the evaluation (§IV uses 30).
pub const THREADS: usize = 30;

/// Embedding dimension for end-to-end runs.
pub const DIM: usize = 64;

/// The canonical experiment machine at the current twin scale: the paper's
/// box with capacities scaled by the same factor as the datasets.
pub fn experiment_topology() -> Topology {
    let scale = default_scale();
    // SCALED_DRAM_PER_NODE is calibrated for scale 1000.
    let dram = (SCALED_DRAM_PER_NODE as u128 * 1000 / scale as u128).max(1 << 20) as u64;
    Topology::paper_machine_scaled(dram)
}

/// Load a dataset twin at the configured scale.
pub fn load(dataset: Dataset) -> Csr {
    dataset
        .load_scaled(default_scale())
        .expect("twin generation cannot fail")
}

/// Format a simulated duration as seconds with three significant digits.
pub fn fmt_time(t: Option<SimDuration>) -> String {
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
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
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

/// Directory for machine-readable experiment output. Defaults to
/// `results/` in the working directory; override with `OMEGA_RESULTS_DIR`.
pub fn results_dir() -> PathBuf {
    results_dir_from(std::env::var("OMEGA_RESULTS_DIR").ok())
}

fn results_dir_from(env: Option<String>) -> PathBuf {
    env.map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Write a figure's machine-readable rows to `results/<name>.jsonl`
/// (creating the directory if needed) and report where they went.
pub fn write_results_jsonl(name: &str, jsonl: &str) -> PathBuf {
    let path = write_jsonl_into(&results_dir(), name, jsonl);
    eprintln!("wrote machine-readable rows to {}", path.display());
    path
}

fn write_jsonl_into(dir: &std::path::Path, name: &str, jsonl: &str) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    let path = dir.join(format!("{name}.jsonl"));
    std::fs::write(&path, jsonl).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    path
}

/// Geometric mean of speedups, ignoring non-finite entries.
pub fn geomean(ratios: &[f64]) -> f64 {
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
        // Without OMEGA_SCALE set, the default machine has 24 MiB DRAM/node.
        if std::env::var("OMEGA_SCALE").is_err() {
            let t = experiment_topology();
            assert_eq!(
                t.capacity(0, omega_hetmem::DeviceKind::Dram),
                SCALED_DRAM_PER_NODE
            );
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_time(None), "OOM");
        assert_eq!(fmt_time(Some(SimDuration::from_millis(5))), "5.00 ms");
        assert_eq!(fmt_time(Some(SimDuration::from_secs_f64(2.5))), "2.50 s");
        assert_eq!(fmt_time(Some(SimDuration::from_secs_f64(250.0))), "250 s");
    }

    #[test]
    fn results_dir_honors_override() {
        assert_eq!(results_dir_from(None), PathBuf::from("results"));
        assert_eq!(
            results_dir_from(Some("/tmp/out".to_string())),
            PathBuf::from("/tmp/out")
        );
    }

    #[test]
    fn jsonl_rows_land_in_named_file() {
        let dir = std::env::temp_dir().join("omega_bench_results_test");
        let path = write_jsonl_into(&dir, "fig_test", "{\"a\":1}\n");
        assert_eq!(path, dir.join("fig_test.jsonl"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}\n");
    }

    #[test]
    fn geomean_math() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
        assert!((geomean(&[3.0, f64::INFINITY]) - 3.0).abs() < 1e-9);
    }
}
