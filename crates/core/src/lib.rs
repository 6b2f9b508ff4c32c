//! # omega — heterogeneous-memory graph embedding (OMeGa, ICDE 2025)
//!
//! The top-level system: given a graph, produce node embeddings efficiently
//! on a (simulated) DRAM + persistent-memory machine, combining every
//! technique of the paper —
//!
//! * **CSDB** compressed sparse degree-block graph format (§III-A),
//! * **EaTA** entropy-aware thread allocation (§III-B),
//! * **WoFP** workload feature-aware prefetching (§III-C),
//! * **NaDP** NUMA-aware data placement (§III-D),
//! * **ASL** asynchronous adaptive streaming loading (§III-E),
//!
//! on top of the ProNE embedding model (randomized t-SVD + Chebyshev
//! spectral propagation).
//!
//! ## Quickstart
//!
//! ```
//! use omega::{Omega, OmegaConfig};
//! use omega_graph::RmatConfig;
//!
//! // A small scale-free graph.
//! let graph = RmatConfig::social(1 << 9, 4_000, 7).generate_csr().unwrap();
//!
//! // The full OMeGa system on the simulated two-socket DRAM+PM machine.
//! let omega = Omega::new(OmegaConfig::default().with_dim(16)).unwrap();
//! let run = omega.embed(&graph).unwrap();
//!
//! assert_eq!(run.embedding.nodes(), 1 << 9);
//! assert_eq!(run.embedding.dim(), 16);
//! println!("simulated end-to-end time: {}", run.report.total());
//! ```

mod config;
mod report;
mod system;

pub use config::{OmegaConfig, SystemVariant};
pub use report::OmegaRun;
pub use system::Omega;

// Re-export the building blocks a downstream user needs.
pub use omega_embed::Embedding;
pub use omega_faults as faults;
pub use omega_hetmem as hetmem;
pub use omega_linalg as linalg;
pub use omega_obs as obs;
pub use omega_par as par;
pub use omega_plane as plane;
pub use omega_serve as serve;

/// Crate-wide result alias.
type Result<T> = std::result::Result<T, omega_embed::EmbedError>;
