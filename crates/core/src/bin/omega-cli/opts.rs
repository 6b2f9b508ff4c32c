//! The flag parser every subcommand reads through, the checks it shares,
//! and the output files a run writes.

use omega::obs::Recorder;
use omega::par::PoolProfiler;
use std::cmp::Ordering;
use std::fmt::Display;
use std::str::FromStr;

/// One subcommand's `--key value` / `--switch` arguments. The subcommand
/// takes each flag it reads; [`Opts::finish`] then refuses whatever is
/// left, so no flag is dropped without a word.
pub(crate) struct Opts {
    cmd: String,
    /// In command-line order; `None` for a bare `--key`.
    args: Vec<(String, Option<String>)>,
}

impl Opts {
    /// A `--key` takes the next argument as its value unless that is a
    /// `--key` too. A key given twice is refused.
    pub(crate) fn parse(cmd: &str, argv: &[String]) -> Result<Opts, String> {
        let mut args: Vec<(String, Option<String>)> = Vec::new();
        let mut rest = argv.iter().peekable();
        while let Some(arg) = rest.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {arg:?}"))?;
            if args.iter().any(|(k, _)| k == key) {
                return Err(format!("--{key} given twice"));
            }
            let value = rest.next_if(|v| !v.starts_with("--")).cloned();
            args.push((key.to_string(), value));
        }
        let cmd = cmd.to_string();
        Ok(Opts { cmd, args })
    }

    /// Take `--key`: `Some(value)`, or `Some(None)` for a bare one.
    fn take(&mut self, key: &str) -> Option<Option<String>> {
        let i = self.args.iter().position(|(k, _)| k == key)?;
        Some(self.args.remove(i).1)
    }

    /// Take valued flag `--key`, parsed; `None` when it is absent.
    pub(crate) fn get<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(None) => Err(format!("--{key} needs a value")),
            Some(Some(v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{key}: {v:?}")),
        }
    }

    pub(crate) fn get_or<T: FromStr>(&mut self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// Take `--key` (or `default`), which must be strictly positive. A NaN
    /// compares neither above nor below zero, and is refused as not finite.
    pub(crate) fn positive<T>(&mut self, key: &str, default: T) -> Result<T, String>
    where
        T: FromStr + PartialOrd + Default + Display,
    {
        let value = self.get_or(key, default)?;
        match value.partial_cmp(&T::default()) {
            Some(Ordering::Greater) => Ok(value),
            Some(_) => Err(format!("--{key} must be positive (got {value})")),
            None => Err(format!("--{key} must be finite (got {value})")),
        }
    }

    pub(crate) fn require<T: FromStr>(&mut self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("missing --{key}"))
    }

    /// Take switch `--key`: whether it was given. A value after it is refused.
    pub(crate) fn flag(&mut self, key: &str) -> Result<bool, String> {
        match self.take(key) {
            None => Ok(false),
            Some(None) => Ok(true),
            Some(Some(v)) => Err(format!("--{key} takes no value (got {v:?})")),
        }
    }

    /// Refuse the first flag the subcommand did not take.
    pub(crate) fn finish(self) -> Result<(), String> {
        match self.args.first() {
            None => Ok(()),
            Some((key, _)) => Err(format!("{} does not take --{key}", self.cmd)),
        }
    }
}

/// Reject an infinite or NaN float flag.
pub(crate) fn require_finite(value: f64, flag: &str) -> Result<f64, String> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(format!("--{flag} must be finite (got {value})"))
    }
}

/// The files a run writes: `--trace-out` (Chrome-trace-event JSON of the
/// simulated timeline), `--metrics-out` (one JSON metric per line) and
/// `--profile-out` (worker-pool wall-clock profiling as collapsed stacks;
/// it changes no simulated time or metric).
pub(crate) struct Outputs {
    pub(crate) trace: Option<String>,
    pub(crate) metrics: Option<String>,
    pub(crate) profile: Option<String>,
}

impl Outputs {
    /// `--trace-out` and `--metrics-out`. A subcommand that profiles takes
    /// `--profile-out` itself.
    pub(crate) fn parse(opts: &mut Opts) -> Result<Outputs, String> {
        Ok(Outputs {
            trace: opts.get("trace-out")?,
            metrics: opts.get("metrics-out")?,
            profile: None,
        })
    }

    /// A live recorder when any output is asked for, else a disabled one.
    pub(crate) fn recorder(&self) -> Recorder {
        if self.trace.is_some() || self.metrics.is_some() || self.profile.is_some() {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    pub(crate) fn profiler(&self) -> PoolProfiler {
        if self.profile.is_some() {
            PoolProfiler::enabled()
        } else {
            PoolProfiler::disabled()
        }
    }

    /// Write every requested file. The profile goes first: it bridges the
    /// pool profiler's per-worker timelines onto the recorder (their own pid
    /// keeps them apart from the simulated tracks), so the trace shows them.
    pub(crate) fn write(self, rec: &Recorder, prof: &PoolProfiler) -> Result<(), String> {
        let write = |path: &str, text: String| {
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
        };
        if let Some(path) = self.profile {
            omega::obs::record_pool_timeline(rec, prof, 1);
            write(&path, rec.collapsed_stacks())?;
            eprintln!("wrote collapsed stacks {path} (flamegraph.pl / inferno compatible)");
        }
        if let Some(path) = self.trace {
            write(&path, rec.chrome_trace_json())?;
            eprintln!("wrote trace {path} (load in Perfetto / chrome://tracing)");
        }
        if let Some(path) = self.metrics {
            write(&path, rec.metrics_jsonl())?;
            eprintln!("wrote metrics {path}");
        }
        Ok(())
    }
}
