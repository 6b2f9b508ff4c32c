//! The `reproduce` front door: what it refuses, and where its rows land.

use std::process::{Command, Output};

fn reproduce(scale: &str, results: &std::path::Path, figures: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(figures)
        .env("OMEGA_SCALE", scale)
        .env("OMEGA_RESULTS_DIR", results)
        .output()
        .expect("reproduce runs")
}

/// A malformed or zero scale and an unknown figure name are errors that
/// name the bad value, reported before any figure runs.
#[test]
fn rejects_bad_scale_and_unknown_figures() {
    let results = std::env::temp_dir().join("omega_reproduce_rejects");
    for bad in ["0", "-5", "abc", "1e3", ""] {
        let out = reproduce(bad, &results, &["fig09_pm_bandwidth"]);
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(!out.status.success(), "OMEGA_SCALE={bad:?} was accepted");
        assert!(err.contains(&format!("{bad:?}")), "{err}");
        assert!(out.stdout.is_empty());
    }

    let out = reproduce("20000", &results, &["fig09_pm_bandwidth", "fig99"]);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(!out.status.success());
    assert!(err.contains("\"fig99\""), "{err}");
    for (name, _) in omega_bench::FIGURES {
        assert!(err.contains(name), "{name} not listed in: {err}");
    }
    assert!(out.stdout.is_empty(), "a figure ran before the bad name");
}

/// Only a figure with rows writes `<OMEGA_RESULTS_DIR>/<name>.jsonl`.
#[test]
fn writes_jsonl_only_for_figures_with_rows() {
    let results = std::env::temp_dir().join("omega_reproduce_rows");
    let _ = std::fs::remove_dir_all(&results);
    let out = reproduce(
        "20000",
        &results,
        &["fig09_pm_bandwidth", "fig16_throughput"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
    let rows = std::fs::read_to_string(results.join("fig16_throughput.jsonl")).unwrap();
    assert_eq!(rows.lines().count(), 5 + 9);
    assert!(!results.join("fig09_pm_bandwidth.jsonl").exists());
}
