//! # omega-baselines — the comparator systems of the paper's evaluation
//!
//! Every system OMeGa is compared against in §IV, rebuilt over the same
//! simulated machine so the comparisons are apples-to-apples. One
//! [`Comparator`] names each; [`Comparator::run`] prices it on a machine
//! and graph:
//!
//! * [`Comparator::ProneDram`] and [`Comparator::ProneHm`] — ProNE-DRAM and
//!   ProNE-HM (§IV-B): the unmodified ProNE pipeline (CSR format,
//!   library-default round-robin threading, OS NUMA policy, no
//!   prefetching/streaming) on DRAM and on the naive DRAM-PM split;
//! * [`Comparator::Ginex`] and [`Comparator::Marius`] — Ginex-like and
//!   MariusGNN-like out-of-core systems: SSD-resident features/embeddings
//!   behind a DRAM page cache (random-access, Ginex) or partition swapping
//!   (sequential, Marius), with GPU-accelerated compute;
//! * [`Comparator::DistDgl`] and [`Comparator::DistGer`] — DistDGL-like and
//!   DistGER-like four-machine distributed systems over the
//!   [`omega_hetmem::Cluster`] network model (§IV-G);
//! * [`Comparator::SemSpmm`] and [`Comparator::FusedMm`] — the
//!   SpMM-specialised comparators SEM-SpMM (semi-external, sparse on SSD)
//!   and FusedMM (fused in-memory kernel) of §IV-H.
//!
//! Absolute constants (epochs, fan-outs, GPU speed-ups) are private to each
//! system's module and calibrated so the paper's *orderings and rough
//! factors* reproduce; the harness reports measured ratios in
//! `EXPERIMENTS.md`.

mod dist;
mod prone_like;
mod spmm_systems;
mod ssd;
mod ssd_systems;

use omega_graph::Csr;
use omega_hetmem::{SimDuration, Topology};
use omega_spmm::MemMode;
use std::num::NonZeroUsize;

/// A comparator system of Fig. 12 and 18.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparator {
    /// ProNE with everything in DRAM.
    ProneDram,
    /// ProNE with the sparse matrix in PM and the dense matrices in DRAM.
    ProneHm,
    /// Ginex-like: SSD feature store behind a DRAM page cache.
    Ginex,
    /// MariusGNN-like: sequential partition swapping from SSD.
    Marius,
    /// DistDGL-like: sampled GraphSAGE training on a four-machine cluster.
    DistDgl,
    /// DistGER-like: information-oriented walks + SGNS on the cluster.
    DistGer,
    /// SEM-SpMM: semi-external SpMM, sparse matrix on SSD.
    SemSpmm,
    /// FusedMM: fused in-memory SpMM on DRAM.
    FusedMm,
}

impl Comparator {
    /// The name the paper's figures print.
    pub const fn label(self) -> &'static str {
        match self {
            Comparator::ProneDram => "ProNE-DRAM",
            Comparator::ProneHm => "ProNE-HM",
            Comparator::Ginex => "Ginex",
            Comparator::Marius => "MariusGNN",
            Comparator::DistDgl => "DistDGL",
            Comparator::DistGer => "DistGER",
            Comparator::SemSpmm => "SEM-SpMM",
            Comparator::FusedMm => "FusedMM",
        }
    }

    /// Run the system on `g` over `machine` with `threads` simulated
    /// threads (per machine, for the distributed systems). `SemSpmm` and
    /// `FusedMm` price one SpMM of `dim` dense columns; the others an
    /// end-to-end embedding of dimension `dim`.
    ///
    /// A system with no thread has no time to report, so zero threads is
    /// refused by the type, not priced:
    ///
    /// ```compile_fail,E0308
    /// # use omega_baselines::Comparator;
    /// # let machine = omega_hetmem::Topology::twin(1000);
    /// # let g = omega_graph::RmatConfig::social(512, 5_000, 3).generate_csr().unwrap();
    /// Comparator::Ginex.run(&machine, &g, 0, 16);
    /// ```
    ///
    /// ```
    /// # use omega_baselines::Comparator;
    /// # use std::num::NonZeroUsize;
    /// # let machine = omega_hetmem::Topology::twin(1000);
    /// # let g = omega_graph::RmatConfig::social(512, 5_000, 3).generate_csr().unwrap();
    /// let threads = NonZeroUsize::new(8).unwrap();
    /// assert!(Comparator::Ginex.run(&machine, &g, threads, 16).time().is_some());
    /// ```
    pub fn run(self, machine: &Topology, g: &Csr, threads: NonZeroUsize, dim: usize) -> RunOutcome {
        let threads = threads.get();
        match self {
            Comparator::ProneDram => prone_like::prone(machine, g, threads, dim, MemMode::DramOnly),
            Comparator::ProneHm => {
                prone_like::prone(machine, g, threads, dim, MemMode::SparsePmDenseDram)
            }
            Comparator::Ginex => ssd_systems::ginex(machine, g, threads, dim),
            Comparator::Marius => ssd_systems::marius(machine, g, threads, dim),
            Comparator::DistDgl => dist::distdgl(machine, g, threads, dim),
            Comparator::DistGer => dist::distger(machine, g, threads, dim),
            Comparator::SemSpmm => spmm_systems::sem_spmm(machine, g, threads, dim),
            Comparator::FusedMm => spmm_systems::fused_mm(machine, g, threads, dim),
        }
    }
}

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
