//! # omega-embed — the ProNE embedding model over the OMeGa SpMM engine
//!
//! The paper uses ProNE (Zhang et al., IJCAI 2019) as the model prototype:
//! the fastest matrix-factorisation embedding method, whose runtime is ~70 %
//! SpMM. This crate re-implements it from scratch:
//!
//! 1. **Sparse matrix factorisation** (`tsvd`): a randomized truncated
//!    SVD (Halko et al.) of the log-transformed transition matrix yields the
//!    initial embedding;
//! 2. **Spectral propagation** ([`chebyshev`]): a Chebyshev expansion of a
//!    band-pass filter on the modulated graph Laplacian refines it.
//!
//! Every sparse multiply goes through `omega_spmm::SpmmEngine`, so the whole
//! pipeline is costed on the simulated heterogeneous memory system, and the
//! per-phase simulated times aggregate into a [`prone::ProneReport`].

#![warn(unreachable_pub)]

pub mod chebyshev;
mod embedding;
pub mod eval;
pub mod laplacian;
pub mod prone;
mod tsvd;

pub use embedding::{Embedding, Metric, TopK};
pub use prone::{Prone, ProneConfig, ProneReport};

/// Errors from the embedding pipeline.
#[derive(Debug)]
pub enum EmbedError {
    Spmm(omega_spmm::SpmmError),
    Graph(omega_graph::GraphError),
    Linalg(omega_linalg::LinalgError),
    /// Configuration inconsistency (e.g. dimension larger than the graph).
    InvalidConfig(String),
}

impl From<omega_spmm::SpmmError> for EmbedError {
    fn from(e: omega_spmm::SpmmError) -> Self {
        EmbedError::Spmm(e)
    }
}

impl From<omega_graph::GraphError> for EmbedError {
    fn from(e: omega_graph::GraphError) -> Self {
        EmbedError::Graph(e)
    }
}

impl From<omega_linalg::LinalgError> for EmbedError {
    fn from(e: omega_linalg::LinalgError) -> Self {
        EmbedError::Linalg(e)
    }
}

impl std::fmt::Display for EmbedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmbedError::Spmm(e) => write!(f, "spmm: {e}"),
            EmbedError::Graph(e) => write!(f, "graph: {e}"),
            EmbedError::Linalg(e) => write!(f, "linalg: {e}"),
            EmbedError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for EmbedError {}

impl EmbedError {
    /// Whether the failure is a simulated out-of-memory.
    pub fn is_oom(&self) -> bool {
        matches!(self, EmbedError::Spmm(e) if e.is_oom())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EmbedError>;
