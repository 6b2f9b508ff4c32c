//! `omega-cli profile`: the span profile of a saved `--trace-out` file, as a
//! table sorted by self wall time. The trace carries every span's exact
//! dual-clock numbers, so the profile is the run's own.

use crate::opts::Opts;

pub(crate) fn run(mut opts: Opts) -> Result<(), String> {
    let input: String = opts.require("input")?;
    let top: usize = opts.get_or("top", 0)?;
    opts.finish()?;
    let text = std::fs::read_to_string(&input).map_err(|e| format!("reading {input}: {e}"))?;
    let spans =
        omega::obs::export::parse_chrome_trace(&text).map_err(|e| format!("{input}: {e}"))?;
    let mut aggs = omega::obs::profile::aggregate(&spans);
    aggs.sort_by(|a, b| {
        b.self_wall_us
            .cmp(&a.self_wall_us)
            .then_with(|| a.name.cmp(&b.name))
    });
    let shown = aggs.len().min(if top > 0 { top } else { usize::MAX });
    println!(
        "{:<28} {:>8} {:>13} {:>14} {:>15} {:>15}",
        "span", "count", "self_wall_us", "total_wall_us", "self_sim_ns", "total_sim_ns"
    );
    for a in &aggs[..shown] {
        println!(
            "{:<28} {:>8} {:>13} {:>14} {:>15} {:>15}",
            a.name, a.count, a.self_wall_us, a.total_wall_us, a.self_sim_ns, a.total_sim_ns
        );
    }
    if shown < aggs.len() {
        println!("... {} more span names (raise --top)", aggs.len() - shown);
    }
    Ok(())
}
