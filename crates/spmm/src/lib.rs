//! # omega-spmm — the OMeGa parallel SpMM engine
//!
//! Sparse-matrix × dense-matrix multiplication is the kernel graph embedding
//! spends ~70 % of its time in (paper §II-A); this crate implements the
//! paper's entire §III around it, with one entry point: [`SpmmEngine::spmm`]
//! under an [`SpmmConfig`] that switches each mechanism.
//!
//! * thread allocation ([`AllocScheme`]) — Round-Robin (`RR`),
//!   workload-balancing (`WaTA`), and the paper's entropy-aware `EaTA`
//!   (Algorithm 2, Eq. 3–7), each cutting the rows into one contiguous
//!   [`Workload`] per thread;
//! * the workload feature-aware prefetcher ([`WofpConfig`], §III-C): hybrid
//!   frequency-/degree-based top-M prefetching into DRAM;
//! * NUMA-aware data placement (`SpmmConfig::nadp`, §III-D): partitioned
//!   sparse and dense operands, CPU-bound thread groups, local
//!   intermediates, global-sequential-read / local-write discipline;
//! * asynchronous adaptive streaming loading (`SpmmConfig::asl`, §III-E,
//!   Eq. 8–9): column batches sized against half the staging device's free
//!   capacity, pipelined between DRAM and PM;
//! * the simulated-time executor: [`SpmmEngine::spmm`] plans each socket
//!   group (placements, capacity, batches, workloads, prefetchers), runs its
//!   column batches through the charged Algorithm 1 kernel, and folds
//!   per-thread costs into a [`SpmmRun`], whose [`SpmmRun::op_shares`] is
//!   Fig. 7(a)'s time breakdown.
//!
//! Configuration ([`SpmmConfig`], [`MemMode`]) and report types
//! ([`SpmmRun`], [`WorkloadReport`], [`ThreadStats`]) are re-exported here.

mod alloc;
mod analysis;
mod asl;
mod config;
mod exec;
mod kernel;
mod nadp;
mod plan;
mod report;
mod wofp;
mod workload;

pub use alloc::AllocScheme;
pub use config::{MemMode, SpmmConfig};
pub use exec::SpmmEngine;
pub use report::{SpmmRun, ThreadStats, WorkloadReport};
pub use wofp::WofpConfig;
pub use workload::Workload;

/// Errors from the SpMM engine.
#[derive(Debug)]
pub enum SpmmError {
    /// Capacity failure in the simulated memory system.
    Mem(omega_hetmem::HetMemError),
    /// Operand shapes are incompatible.
    ShapeMismatch {
        sparse: (u32, u32),
        dense: (usize, usize),
    },
    /// The configuration is inconsistent (e.g. zero threads).
    InvalidConfig(String),
}

impl From<omega_hetmem::HetMemError> for SpmmError {
    fn from(e: omega_hetmem::HetMemError) -> Self {
        SpmmError::Mem(e)
    }
}

impl std::fmt::Display for SpmmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpmmError::Mem(e) => write!(f, "memory system: {e}"),
            SpmmError::ShapeMismatch { sparse, dense } => {
                write!(f, "shape mismatch: sparse {sparse:?} × dense {dense:?}")
            }
            SpmmError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for SpmmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpmmError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl SpmmError {
    /// Whether the failure is a simulated out-of-memory (the paper's "fails
    /// to run" outcome).
    pub fn is_oom(&self) -> bool {
        matches!(self, SpmmError::Mem(e) if e.is_oom())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SpmmError>;
