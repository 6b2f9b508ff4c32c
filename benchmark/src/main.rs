//! The benchmark of record for this repository. See `README.md`.
//!
//! Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one pass of one
//!   workload in this process and prints one JSON object as the last line
//!   (the interface `BENCHMARK.json` names).
//! * without `--trace`, every workload (or the one given) runs both
//!   passes, each in a child process of its own; every metric is printed
//!   as `workload metric value unit`, the results land in
//!   `out/result.json`, and the exit code is non-zero when a check fails.
//!
//! `compare A.json B.json` compares two result files.

mod catalogue;
mod compare;
mod host;
mod layers;
mod span;
mod stats;
mod workloads;

use catalogue::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use omega_obs::Recorder;
use serde::Value;
use span::Tracer;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{plane, serve, train, Instance, Outcome, Params};

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--quick] \
                     [--repeats R] [--out FILE]\n       \
                     run.sh --workload W --seed N --seconds S --trace 0|1\n       \
                     run.sh compare A.json B.json\n       \
                     run.sh catalogue json|markdown";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    repeats: usize,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        quick: false,
        repeats: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--repeats" => {
                parsed.repeats = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if parsed.repeats == 0 {
                    return Err("--repeats must be at least 1".into());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if catalogue::workload(w).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {w:?}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(parsed)
}

/// Where traces and result files go: `out/` beside this package.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Generate `workload`'s inputs from the seed and construct it.
fn build(workload: &str, params: &Params, rec: &Recorder, tr: &mut Tracer) -> Box<dyn Instance> {
    let t = params.threads;
    let serve = |kind, tr: &mut Tracer| -> Box<dyn Instance> {
        Box::new(serve::Serve::build(
            serve::Spec::of(kind),
            params,
            t,
            rec,
            tr,
        ))
    };
    let plane = |kind, tr: &mut Tracer| -> Box<dyn Instance> {
        Box::new(plane::Plane::build(
            plane::Spec::of(kind, params),
            params,
            t,
            rec,
            tr,
        ))
    };
    match workload {
        "train_prone" => Box::new(train::Train::build(params, t, rec, tr)),
        "serve_scan" => serve(serve::Kind::Scan, tr),
        "serve_ivf" => serve(serve::Kind::Ivf, tr),
        "serve_lookup" => serve(serve::Kind::Lookup, tr),
        "serve_churn" => serve(serve::Kind::Churn, tr),
        "plane_capacity" => plane(plane::Kind::Capacity, tr),
        "plane_overload" => plane(plane::Kind::Overload, tr),
        other => unreachable!("parse() admits only catalogue workloads, got {other}"),
    }
}

fn run_pass(workload: &str, params: &Params, trace: bool) -> Outcome {
    let build = |rec: &Recorder, tr: &mut Tracer| build(workload, params, rec, tr);
    if trace {
        let path = out_dir().join(format!("trace-{workload}.jsonl"));
        workloads::traced(&build, params, &path)
    } else {
        workloads::untraced(&build, params)
    }
}

fn metric(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .expect("every printed metric is in the catalogue")
}

/// One pass of one workload in this process; the last line printed is the
/// JSON object the driver reads.
fn single(workload: &str, args: &Args, trace: bool) -> ExitCode {
    let params = Params {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(RUN_SECONDS),
        quick: args.quick,
        short: trace,
        threads: host::wall_threads(),
    };
    println!(
        "# {workload} seed {} seconds {} trace {} {}",
        params.seed,
        params.seconds,
        u8::from(trace),
        host::summary()
    );
    let outcome = run_pass(workload, &params, trace);

    let mut correct = true;
    for p in &outcome.phases {
        println!(
            "# phase {}: attempted {} succeeded {} failed {}",
            p.name,
            p.attempted,
            p.attempted - p.failed,
            p.failed
        );
    }
    for c in &outcome.checks {
        correct &= c.pass;
        let verdict = if c.pass { "ok" } else { "FAILED" };
        println!("# check {}: {verdict} ({})", c.name, c.detail);
    }
    let mut fields = Vec::new();
    for &(name, value) in &outcome.metrics {
        let unit = metric(name).unit;
        if !value.is_finite() {
            correct = false;
            println!("# check {name} is a finite number: FAILED ({value})");
        }
        println!("{workload} {name} {value} {unit} n={}", outcome.samples);
        fields.push((
            name.to_string(),
            Value::Map(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]),
        ));
    }
    // Set-ups are not operations of the system under test.
    let ops = outcome.phases.iter().filter(|p| p.name != "set-up");
    let (attempted, failed) = ops.fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed));
    correct &= failed == 0;
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted.max(1))),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Map(fields)),
    ]);
    println!("{}", omega_obs::json::to_string(&line));
    ExitCode::SUCCESS
}

/// Run one pass in a child process; echo what it prints and return the
/// JSON object of its last line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    omega_obs::json::parse(last).map_err(|e| format!("{workload}: no result line: {e}"))
}

/// Both passes of every selected workload, each in its own process.
fn all(args: &Args) -> ExitCode {
    let seconds = args.seconds.unwrap_or(if args.quick {
        RUN_SECONDS / 10.0
    } else {
        RUN_SECONDS
    });
    println!("# {}", host::summary());
    let selected = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name));
    let mut failures = Vec::new();
    let mut results = Vec::new();
    for w in selected {
        println!("# workload {}: {}", w.name, w.why);
        let mut e2e: Vec<(String, Vec<f64>)> = Vec::new();
        let mut layers: Vec<(String, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        let mut correct = true;
        // The untraced pass once per seed; the traced pass on the first.
        let passes = (0..args.repeats)
            .map(|r| (r, false))
            .chain(std::iter::once((0, true)));
        for (r, trace) in passes {
            let line = match child(w.name, args.seed + r as u64, seconds, trace, args.quick) {
                Ok(line) => line,
                Err(e) => {
                    failures.push(e);
                    correct = false;
                    continue;
                }
            };
            if line.get("correct") != Some(&Value::Bool(true)) {
                failures.push(format!(
                    "{}: a check failed (trace {})",
                    w.name,
                    u8::from(trace)
                ));
                correct = false;
            }
            let count = |key| line.get(key).and_then(Value::as_u64).unwrap_or(0);
            attempted.push(Value::U64(count("attempted")));
            failed.push(Value::U64(count("failed")));
            let into = if trace { &mut layers } else { &mut e2e };
            for (name, m) in line.get("metrics").and_then(Value::as_map).unwrap_or(&[]) {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                match into.iter_mut().find(|(n, _)| n == name) {
                    Some((_, values)) => values.push(value),
                    None => into.push((name.clone(), vec![value])),
                }
            }
        }
        let group = |metrics: Vec<(String, Vec<f64>)>| {
            Value::Map(
                metrics
                    .into_iter()
                    .map(|(name, values)| {
                        let unit = metric(&name).unit;
                        let entry = Value::Map(vec![
                            ("unit".into(), Value::Str(unit.into())),
                            ("median".into(), Value::F64(stats::median(&values))),
                            ("spread".into(), Value::F64(stats::spread(&values))),
                            (
                                "values".into(),
                                Value::Seq(values.into_iter().map(Value::F64).collect()),
                            ),
                        ]);
                        (name, entry)
                    })
                    .collect(),
            )
        };
        results.push((
            w.name.to_string(),
            Value::Map(vec![
                ("correct".into(), Value::Bool(correct)),
                ("attempted".into(), Value::Seq(attempted)),
                ("failed".into(), Value::Seq(failed)),
                ("end_to_end".into(), group(e2e)),
                ("per_layer".into(), group(layers)),
            ]),
        ));
    }

    let doc = Value::Map(vec![
        ("host".into(), host::record()),
        ("seed".into(), Value::U64(args.seed)),
        ("repeats".into(), Value::U64(args.repeats as u64)),
        ("seconds".into(), Value::F64(seconds)),
        ("quick".into(), Value::Bool(args.quick)),
        ("workloads".into(), Value::Map(results)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, omega_obs::json::to_string(&doc) + "\n"));
    match written {
        Ok(()) => println!("# results: {}", path.display()),
        Err(e) => failures.push(format!("{}: {e}", path.display())),
    }
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    if failures.is_empty() {
        println!("# all checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json` or the README's tables, from the catalogue.
fn print_catalogue(form: &str) -> ExitCode {
    let one_line = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    match form {
        "json" => {
            let s = |v: &str| Value::Str(v.to_string());
            let entry = |m: &Metric| {
                let mut fields = vec![
                    ("name".to_string(), s(m.name)),
                    ("unit".to_string(), s(m.unit)),
                    ("better".to_string(), s(m.better.label())),
                ];
                if let Some(bound) = m.bound {
                    fields.push(("bound".to_string(), Value::F64(bound)));
                }
                Value::Map(fields)
            };
            let list = |ms: &[Metric]| Value::Seq(ms.iter().map(entry).collect());
            let workloads = WORKLOADS
                .iter()
                .map(|w| {
                    Value::Map(vec![
                        ("name".to_string(), s(w.name)),
                        ("why".to_string(), s(&one_line(w.why))),
                    ])
                })
                .collect();
            let doc = Value::Map(vec![
                (
                    "command".to_string(),
                    Value::Seq(vec![s("bash"), s("benchmark/run.sh")]),
                ),
                ("paths".to_string(), Value::Seq(vec![s("benchmark")])),
                ("run_seconds".to_string(), Value::U64(RUN_SECONDS as u64)),
                ("workloads".to_string(), Value::Seq(workloads)),
                ("end_to_end".to_string(), list(END_TO_END)),
                ("per_layer".to_string(), list(PER_LAYER)),
            ]);
            println!("{}", omega_obs::json::to_string(&doc));
        }
        "markdown" => {
            println!("| workload | why it is here |\n|---|---|");
            for w in WORKLOADS {
                println!("| `{}` | {} |", w.name, one_line(w.why));
            }
            for (title, metrics) in [("End-to-end", END_TO_END), ("Per-layer", PER_LAYER)] {
                println!("\n{title}:\n");
                println!(
                    "| metric | unit | clock | better | bound | what it is, where, what it moves |"
                );
                println!("|---|---|---|---|---|---|");
                for m in metrics {
                    let bound = m.bound.map_or("-".to_string(), |b| b.to_string());
                    println!(
                        "| `{}` | {} | {} | {} | {bound} | {} |",
                        m.name,
                        m.unit,
                        m.clock.label(),
                        m.better.label(),
                        one_line(m.note)
                    );
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            return ExitCode::from(compare::main(&args[1], &args[2]) as u8)
        }
        Some("catalogue") if args.len() == 2 => return print_catalogue(&args[1]),
        Some("compare" | "catalogue") => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        _ => {}
    }
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (&parsed.workload, parsed.trace) {
        (Some(workload), Some(trace)) => single(workload, &parsed, trace),
        (None, Some(_)) => {
            eprintln!("--trace needs --workload\n{USAGE}");
            ExitCode::from(2)
        }
        (_, None) => all(&parsed),
    }
}
