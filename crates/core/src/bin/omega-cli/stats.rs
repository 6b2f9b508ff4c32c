//! `omega-cli stats`: degree and structure statistics of an edge list.

use crate::opts::Opts;
use omega_graph::GraphStats;

pub(crate) fn run(mut opts: Opts) -> Result<(), String> {
    let input: String = opts.require("input")?;
    opts.finish()?;
    let graph = crate::load_graph(&input)?;
    let s = GraphStats::of(&graph);
    println!("nodes             {}", s.nodes);
    println!("edges             {}", s.edges);
    println!("max degree        {}", s.max_degree);
    println!("avg degree        {:.2}", s.avg_degree);
    println!("distinct degrees  {}", s.distinct_degrees);
    println!(
        "degree entropy    {:.3} (normalised {:.3})",
        s.entropy, s.normalized_entropy
    );
    println!(
        "largest component {}",
        omega_graph::largest_component_size(&graph)
    );
    println!(
        "avg clustering    {:.4}",
        omega_graph::avg_clustering(&graph, 500)
    );
    Ok(())
}
