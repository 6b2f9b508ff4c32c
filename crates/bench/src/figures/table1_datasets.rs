//! Table I — dataset statistics.
//!
//! Prints the paper's published statistics for each of the six evaluation
//! graphs next to the measured statistics of the scaled synthetic twins the
//! reproduction runs on (R-MAT, 1:`scale`, 1:1000 for the paper-scale runs).

use crate::{print_table, twin};
use omega_graph::Dataset;
use omega_graph::GraphStats;
use serde::Value;

pub(crate) fn run(scale: u64) -> Vec<Value> {
    println!("Table I: dataset statistics (twins at 1:{scale})");

    let rows: Vec<Vec<String>> = Dataset::ALL
        .iter()
        .map(|&d| {
            let paper = d.paper_stats();
            let s = GraphStats::of(&twin(d, scale));
            vec![
                d.label().to_string(),
                paper.name.to_string(),
                format!("{:.2} M", paper.nodes as f64 / 1e6),
                format!("{:.2} M", paper.edges as f64 / 1e6),
                paper.max_degree.to_string(),
                s.nodes.to_string(),
                s.edges.to_string(),
                s.max_degree.to_string(),
                format!("{:.1}", s.avg_degree),
                s.distinct_degrees.to_string(),
            ]
        })
        .collect();

    print_table(
        "Table I (paper | twin)",
        &[
            "graph",
            "name",
            "paper |V|",
            "paper |E|",
            "paper maxdeg",
            "twin |V|",
            "twin |E|",
            "twin maxdeg",
            "twin avgdeg",
            "twin |Degree|",
        ],
        &rows,
    );
    Vec::new()
}
