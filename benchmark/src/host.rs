//! The host a result was measured on, read from `/proc` and `/sys`.

use serde::Value;

/// Wall threads every workload runs with: the host's cores, at most 4.
pub fn wall_threads() -> usize {
    cores().min(4)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of cpu0's cache at `level` (unified or data), e.g. `"4096K"`.
pub fn cache_size(level: u32) -> String {
    (0..8)
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
            let is_level = read("level")?.trim() == level.to_string();
            let holds_data = read("type")?.trim() != "Instruction";
            (is_level && holds_data).then(|| read("size"))?
        })
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// First line of a command's output, or `"unknown"` if it cannot run.
fn first_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host record written into every result file. Runs `rustc` and
/// `git`, so only the orchestrating process calls it.
pub fn record() -> Value {
    let s = |v: String| Value::Str(v);
    Value::Map(vec![
        ("nproc".into(), Value::U64(cores() as u64)),
        ("T".into(), Value::U64(wall_threads() as u64)),
        ("l2".into(), s(cache_size(2))),
        ("l3".into(), s(cache_size(3))),
        ("rustc".into(), s(first_line("rustc", &["--version"]))),
        (
            "git_rev".into(),
            s(first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

/// One line for the top of a run's output.
pub fn summary() -> String {
    format!(
        "host: nproc {} T {} L2 {} L3 {}",
        cores(),
        wall_threads(),
        cache_size(2),
        cache_size(3)
    )
}
