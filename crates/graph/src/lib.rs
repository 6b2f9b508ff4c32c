//! # omega-graph — graph substrate for the OMeGa reproduction
//!
//! Provides everything between raw edge data and the SpMM engine:
//!
//! * [`edgelist`] — whitespace-separated edge-list parsing/serialisation;
//! * [`builder`] — undirected graph construction (dedup, self-loop removal);
//! * [`csr`] — the standard Compressed Sparse Row baseline format;
//! * [`csdb`] — the paper's Compressed Sparse Degree-Block format (§III-A)
//!   with `Deg_list`/`Deg_ind` indices, matrix operators and the CSR ↔ CSDB
//!   conversions (`Csdb::from_csr`, `Csdb::to_csr_original`);
//! * [`rmat`] — the seeded recursive-matrix generator used for the
//!   scalability study (Fig. 17(b));
//! * [`datasets`] — scaled-down synthetic twins of the paper's six
//!   real-world graphs (Table I);
//! * [`stats`] — degree distributions, workload entropy and scatter factors.
//!
//! Node ids are `u32`; edge weights (`nnz` values) are `f32`, matching the
//! paper's initial unit weights.

pub mod algo;
pub mod builder;
#[cfg(test)]
mod convert;
pub mod csdb;
pub mod csr;
pub mod datasets;
pub mod edgelist;
pub mod read_cost;
pub mod rmat;
pub mod sbm;
pub mod stats;

pub use builder::GraphBuilder;
pub use csdb::Csdb;
pub use csr::Csr;
pub use datasets::{Dataset, DatasetStats};
pub use edgelist::EdgeList;
pub use rmat::RmatConfig;
pub use sbm::SbmConfig;

/// Errors from graph construction and IO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A line in an edge list could not be parsed.
    Parse { line: usize, content: String },
    /// An edge referenced a node id ≥ the declared node count.
    NodeOutOfRange { node: u32, nodes: u32 },
    /// Operation requires matching dimensions.
    DimensionMismatch { left: (u32, u32), right: (u32, u32) },
    /// The structure is empty where a non-empty graph is required.
    EmptyGraph,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Parse { line, content } => {
                write!(f, "cannot parse edge list line {line}: {content:?}")
            }
            GraphError::NodeOutOfRange { node, nodes } => {
                write!(f, "node id {node} out of range (|V| = {nodes})")
            }
            GraphError::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: {left:?} vs {right:?}")
            }
            GraphError::EmptyGraph => write!(f, "operation requires a non-empty graph"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
