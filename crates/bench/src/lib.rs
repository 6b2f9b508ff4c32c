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
use omega_obs::json;
use serde::Value;
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

/// Nearest-rank percentile of unsorted wall-clock samples (`q` in 0..=1).
/// Re-exported from `omega-obs` — the one shared implementation also behind
/// `ServeReport`'s latency percentiles.
pub use omega_obs::percentile_u64;

/// Short git revision of the working tree, or `"unknown"` outside a repo.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One benchmark-gate measurement: a workload's wall-clock percentiles
/// (machine-dependent), its simulated time and byte traffic (exact,
/// machine-independent), the revision it was taken at, plus informational
/// wall-clock attribution — the seq-vs-parN speedup (in thousandths, so
/// the record stays `Eq`; 850 reads as 0.85x), an answer-quality column
/// for approximate workloads (recall@k vs the exact oracle, also in
/// thousandths; `None` for exact workloads) and a phase breakdown
/// (label → attributed wall ns) from one profiled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateRecord {
    pub workload: String,
    pub wall_ns_p50: u64,
    pub wall_ns_p95: u64,
    pub sim_ns: u64,
    pub bytes: u64,
    pub git_rev: String,
    pub speedup_milli: Option<u64>,
    pub recall_milli: Option<u64>,
    pub phases: Vec<(String, u64)>,
}

impl GateRecord {
    /// The phase whose attributed wall time grew most versus `baseline`
    /// (the "guilty" phase of a regression), with old and new ns.
    pub fn guiltiest_phase(&self, baseline: &GateRecord) -> Option<(String, u64, u64)> {
        self.phases
            .iter()
            .map(|(name, now)| {
                let was = baseline
                    .phases
                    .iter()
                    .find(|(b, _)| b == name)
                    .map_or(0, |(_, v)| *v);
                (name.clone(), was, *now)
            })
            .max_by_key(|(_, was, now)| now.saturating_sub(*was))
    }

    /// The record as a JSON object: optional columns are left out when
    /// empty, and the phase breakdown nests as `{label: ns}`.
    fn to_value(&self) -> Value {
        let num = |key: &str, n: u64| (key.to_string(), Value::U64(n));
        let text = |key: &str, s: &str| (key.to_string(), Value::Str(s.to_string()));
        let mut fields = vec![
            text("workload", &self.workload),
            num("wall_ns_p50", self.wall_ns_p50),
            num("wall_ns_p95", self.wall_ns_p95),
            num("sim_ns", self.sim_ns),
            num("bytes", self.bytes),
            text("git_rev", &self.git_rev),
        ];
        fields.extend(self.speedup_milli.map(|n| num("speedup_milli", n)));
        fields.extend(self.recall_milli.map(|n| num("recall_milli", n)));
        if !self.phases.is_empty() {
            let phases = self.phases.iter().map(|(label, ns)| num(label, *ns));
            fields.push(("phases".to_string(), Value::Map(phases.collect())));
        }
        Value::Map(fields)
    }

    /// Read a record back; `None` unless the five measurement columns are
    /// all present. Unknown keys are ignored, and records written before
    /// the optional columns existed load with them empty.
    fn from_value(v: &Value) -> Option<GateRecord> {
        let u64_field = |key: &str| v.get(key).and_then(Value::as_u64);
        let phases = v.get("phases").and_then(Value::as_map).unwrap_or_default();
        Some(GateRecord {
            workload: v.get("workload")?.as_str()?.to_string(),
            wall_ns_p50: u64_field("wall_ns_p50")?,
            wall_ns_p95: u64_field("wall_ns_p95")?,
            sim_ns: u64_field("sim_ns")?,
            bytes: u64_field("bytes")?,
            git_rev: v
                .get("git_rev")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            speedup_milli: u64_field("speedup_milli"),
            recall_milli: u64_field("recall_milli"),
            phases: phases
                .iter()
                .filter_map(|(k, ns)| Some((k.clone(), ns.as_u64()?)))
                .collect(),
        })
    }
}

/// Serialise gate records as a JSON array, one object per line (the
/// `BENCH_*.json` on-disk format).
pub fn gate_records_to_json(records: &[GateRecord]) -> String {
    let lines: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", json::to_string(&r.to_value())))
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Parse the `BENCH_*.json` format back. Anything that is not a JSON
/// array yields no records; array elements that are not gate records are
/// skipped.
pub fn gate_records_from_json(s: &str) -> Vec<GateRecord> {
    let doc = json::parse(s).unwrap_or(Value::Null);
    let records = doc.as_seq().unwrap_or_default();
    records.iter().filter_map(GateRecord::from_value).collect()
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
    fn percentiles_nearest_rank() {
        let samples = [50, 10, 40, 30, 20];
        assert_eq!(percentile_u64(&samples, 0.5), 30);
        assert_eq!(percentile_u64(&samples, 0.95), 50);
        assert_eq!(percentile_u64(&samples, 0.0), 10);
        assert_eq!(percentile_u64(&samples, 1.0), 50);
        // Edge cases: empty, single-sample, and all-equal inputs.
        assert_eq!(percentile_u64(&[], 0.5), 0);
        assert_eq!(percentile_u64(&[], 0.0), 0);
        assert_eq!(percentile_u64(&[], 1.0), 0);
        assert_eq!(percentile_u64(&[7], 0.0), 7);
        assert_eq!(percentile_u64(&[7], 0.5), 7);
        assert_eq!(percentile_u64(&[7], 1.0), 7);
        let equal = [9u64; 17];
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(percentile_u64(&equal, q), 9);
        }
    }

    #[test]
    fn gate_records_round_trip() {
        let records = vec![
            GateRecord {
                workload: "serving_seq".into(),
                wall_ns_p50: 1_234_567,
                wall_ns_p95: 2_000_000,
                sim_ns: 42,
                bytes: 99,
                git_rev: "abc1234".into(),
                speedup_milli: None,
                recall_milli: None,
                phases: Vec::new(),
            },
            GateRecord {
                workload: "serving_par8".into(),
                wall_ns_p50: 5,
                wall_ns_p95: 6,
                sim_ns: 7,
                bytes: 8,
                git_rev: "unknown".into(),
                speedup_milli: Some(3_250),
                recall_milli: Some(978),
                phases: vec![
                    ("fetch".into(), 100),
                    ("lookup".into(), 200),
                    ("topk".into(), 50),
                    ("barrier".into(), 25),
                ],
            },
        ];
        let json = gate_records_to_json(&records);
        assert!(json.starts_with("[\n"));
        assert_eq!(
            json.lines().count(),
            records.len() + 2,
            "one record per line"
        );
        assert!(json.contains(r#""workload":"serving_seq""#));
        assert!(json.contains(r#""speedup_milli":3250"#));
        assert!(json.contains(r#""recall_milli":978"#));
        assert!(json.contains(r#""phases":{"fetch":100,"lookup":200"#));
        // The record without phases must not gain empty trailing fields.
        assert!(json.contains("\"git_rev\":\"abc1234\"}"));
        assert_eq!(gate_records_from_json(&json), records);
        // Tolerates reformatting (the spacing of baselines written before
        // the shared encoder) and unknown keys.
        let loose = json
            .replace(":", ": ")
            .replace(",", ", ")
            .replace(r#""sim_ns": 7"#, r#""extra": "x", "sim_ns": 7"#);
        assert_eq!(gate_records_from_json(&loose), records);
        assert!(gate_records_from_json("[]").is_empty());
        assert!(gate_records_from_json("not json").is_empty());
        // Pre-attribution baselines (no speedup/phases fields) still load.
        let legacy = r#"[
  {"workload": "spmm", "wall_ns_p50": 5, "wall_ns_p95": 6, "sim_ns": 7, "bytes": 8, "git_rev": "unknown"}
]"#;
        let parsed = gate_records_from_json(legacy);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].speedup_milli, None);
        assert_eq!(parsed[0].recall_milli, None);
        assert!(parsed[0].phases.is_empty());
    }

    #[test]
    fn committed_baselines_load_and_round_trip() {
        for (name, text, records) in [
            ("serving", include_str!("../../../BENCH_serving.json"), 4),
            ("plane", include_str!("../../../BENCH_plane.json"), 2),
            ("spmm", include_str!("../../../BENCH_spmm.json"), 2),
            ("prone", include_str!("../../../BENCH_prone.json"), 2),
        ] {
            let loaded = gate_records_from_json(text);
            assert_eq!(loaded.len(), records, "BENCH_{name}.json");
            assert!(loaded.iter().all(|r| !r.git_rev.is_empty()));
            let rewritten = gate_records_to_json(&loaded);
            assert_eq!(
                gate_records_from_json(&rewritten),
                loaded,
                "BENCH_{name}.json"
            );
        }
    }

    #[test]
    fn guiltiest_phase_names_largest_delta() {
        let mk = |phases: Vec<(&str, u64)>| GateRecord {
            workload: "w".into(),
            wall_ns_p50: 0,
            wall_ns_p95: 0,
            sim_ns: 0,
            bytes: 0,
            git_rev: String::new(),
            speedup_milli: None,
            recall_milli: None,
            phases: phases
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
        };
        let base = mk(vec![("fetch", 100), ("lookup", 200), ("topk", 50)]);
        let now = mk(vec![("fetch", 110), ("lookup", 500), ("topk", 55)]);
        assert_eq!(
            now.guiltiest_phase(&base),
            Some(("lookup".into(), 200, 500))
        );
        // A phase absent from the baseline counts as growth from zero.
        let now2 = mk(vec![("fetch", 100), ("barrier", 400)]);
        assert_eq!(
            now2.guiltiest_phase(&base),
            Some(("barrier".into(), 0, 400))
        );
        assert_eq!(mk(vec![]).guiltiest_phase(&base), None);
    }

    #[test]
    fn git_rev_is_short_or_unknown() {
        let rev = git_rev();
        assert!(!rev.is_empty());
        assert!(rev == "unknown" || rev.chars().all(|c| c.is_ascii_alphanumeric()));
    }

    #[test]
    fn geomean_math() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
        assert!((geomean(&[3.0, f64::INFINITY]) - 3.0).abs() < 1e-9);
    }
}
