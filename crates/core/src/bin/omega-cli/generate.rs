//! `omega-cli generate`: write a skewed R-MAT edge list.

use crate::opts::Opts;
use omega_graph::RmatConfig;

pub(crate) fn run(mut opts: Opts) -> Result<(), String> {
    let nodes: u32 = opts.require("nodes")?;
    if nodes < 2 {
        return Err(format!("--nodes must be at least 2 (got {nodes})"));
    }
    let edges: u64 = opts.require("edges")?;
    let seed: u64 = opts.get_or("seed", 42)?;
    let output: String = opts.require("output")?;
    opts.finish()?;
    let list = RmatConfig::social(nodes, edges, seed).generate_edges();
    std::fs::write(&output, list.to_text()).map_err(|e| format!("writing {output}: {e}"))?;
    eprintln!("wrote {} edges to {output}", list.len());
    Ok(())
}
