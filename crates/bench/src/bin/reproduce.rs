//! `reproduce [figure ...]` — print the named figures of
//! `omega_bench::FIGURES` (all of them, in paper order, when none is named)
//! on the 1:`OMEGA_SCALE` twins (default 1000), and write each one's rows,
//! if it has any, to `$OMEGA_RESULTS_DIR/<name>.jsonl` (default
//! `results/`). A malformed scale or an unknown name is an error, reported
//! before any figure runs.

use omega_bench::{write_jsonl, Figure, FIGURES};
use std::ffi::OsString;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let scale = parse_scale(std::env::var_os("OMEGA_SCALE"));
    let figures = select(std::env::args().skip(1).collect());
    let (scale, figures) = match (scale, figures) {
        (Ok(scale), Ok(figures)) => (scale, figures),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("reproduce: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = std::env::var_os("OMEGA_RESULTS_DIR").map_or_else(|| "results".into(), PathBuf::from);
    for (name, figure) in figures {
        let rows = figure(scale);
        if rows.is_empty() {
            continue;
        }
        match write_jsonl(&dir, name, &rows) {
            Ok(path) => eprintln!("wrote machine-readable rows to {}", path.display()),
            Err(e) => {
                eprintln!(
                    "reproduce: writing {name}.jsonl into {}: {e}",
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `OMEGA_SCALE`'s value: 1000 when unset, else a positive integer.
fn parse_scale(var: Option<OsString>) -> Result<u64, String> {
    let Some(var) = var else { return Ok(1000) };
    var.to_str()
        .and_then(|s| s.parse().ok())
        .filter(|&scale| scale > 0)
        .ok_or_else(|| format!("OMEGA_SCALE must be a positive integer, got {var:?}"))
}

/// The figures `names` asks for, or all of them when it is empty.
fn select(names: Vec<String>) -> Result<Vec<Figure>, String> {
    if names.is_empty() {
        return Ok(FIGURES.to_vec());
    }
    let find = |name: &String| FIGURES.iter().find(|(n, _)| n == name).copied();
    names
        .iter()
        .map(|name| {
            find(name).ok_or_else(|| {
                let valid: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
                format!("unknown figure {name:?}; valid names: {}", valid.join(" "))
            })
        })
        .collect()
}
