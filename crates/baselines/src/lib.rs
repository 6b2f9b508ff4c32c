//! # omega-baselines — the comparator systems of the paper's evaluation
//!
//! Every system OMeGa is compared against in §IV, rebuilt over the same
//! simulated machine so the comparisons are apples-to-apples:
//!
//! * [`ProneBaseline`] — ProNE-DRAM and ProNE-HM (§IV-B): the unmodified ProNE
//!   pipeline (CSR format, library-default round-robin threading, OS NUMA
//!   policy, no prefetching/streaming) on DRAM and on the naive DRAM-PM
//!   split;
//! * [`GinexLike`] and [`MariusLike`] — Ginex-like and MariusGNN-like out-of-core systems:
//!   SSD-resident features/embeddings behind a DRAM page cache
//!   (random-access, Ginex) or partition swapping (sequential, Marius),
//!   with GPU-accelerated compute;
//! * [`DistDglLike`] and [`DistGerLike`] — DistDGL-like and DistGER-like four-machine distributed
//!   systems over the [`omega_hetmem::Cluster`] network model (§IV-G);
//! * [`SemSpmm`] and [`FusedMm`] — the SpMM-specialised comparators SEM-SpMM
//!   (semi-external, sparse on SSD) and FusedMM (fused in-memory kernel)
//!   of §IV-H.
//!
//! Absolute constants (epochs, fan-outs, GPU speed-ups) are calibrated so
//! the paper's *orderings and rough factors* reproduce — documented per
//! system; the harness reports measured ratios in `EXPERIMENTS.md`.

mod dist;
mod prone_like;
mod spmm_systems;
mod ssd_systems;

pub use dist::{DistConfig, DistDglLike, DistGerLike};
pub use prone_like::ProneBaseline;
pub use spmm_systems::{omega_spmm_time, FusedMm, SemSpmm};
pub use ssd_systems::{GinexLike, MariusLike, SsdSystemConfig};

use omega_hetmem::SimDuration;

/// Outcome of running a system on a graph — mirrors how the paper reports
/// results: a time, or a capacity failure ("fails to run").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    Completed(SimDuration),
    OutOfMemory,
}

impl RunOutcome {
    pub fn time(&self) -> Option<SimDuration> {
        match self {
            RunOutcome::Completed(t) => Some(*t),
            RunOutcome::OutOfMemory => None,
        }
    }

    pub fn is_oom(&self) -> bool {
        matches!(self, RunOutcome::OutOfMemory)
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Completed(t) => write!(f, "{t}"),
            RunOutcome::OutOfMemory => write!(f, "OOM"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let ok = RunOutcome::Completed(SimDuration::from_millis(5));
        assert_eq!(ok.time(), Some(SimDuration::from_millis(5)));
        assert!(!ok.is_oom());
        assert_eq!(format!("{ok}"), "5.00 ms");
        let oom = RunOutcome::OutOfMemory;
        assert!(oom.is_oom());
        assert_eq!(oom.time(), None);
        assert_eq!(format!("{oom}"), "OOM");
    }
}
