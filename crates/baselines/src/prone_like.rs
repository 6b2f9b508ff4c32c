//! [`Comparator::ProneDram`] and [`Comparator::ProneHm`]: the unmodified
//! ProNE system (§IV-A baselines).
//!
//! The reference ProNE has none of OMeGa's machinery: CSR graph reading, the
//! threading library's default round-robin work split, the OS NUMA policy
//! (interleaved pages), no prefetcher and no streaming. `ProNE-DRAM` runs it
//! with everything in DRAM; `ProNE-HM` is the naive DRAM-PM port the paper
//! describes ("matrix operations are handled on DRAM"): sparse matrix in
//! PM, dense matrices in DRAM.
//!
//! [`Comparator::ProneDram`]: crate::Comparator::ProneDram
//! [`Comparator::ProneHm`]: crate::Comparator::ProneHm

use crate::RunOutcome;
use omega_embed::prone::{Prone, ProneConfig};
use omega_graph::Csr;
use omega_graph::GraphFormat;
use omega_hetmem::{MemSystem, Topology};
use omega_spmm::{AllocScheme, MemMode, SpmmConfig, SpmmEngine};

/// The unmodified ProNE with its memory in `mode`: end-to-end run (graph
/// reading + embedding generation).
pub(crate) fn prone(
    topology: &Topology,
    adj: &Csr,
    threads: usize,
    dim: usize,
    mode: MemMode,
) -> RunOutcome {
    let spmm = SpmmConfig {
        threads,
        alloc: AllocScheme::RoundRobin,
        wofp: None,
        nadp: false,
        asl: false,
        mode,
    };
    let prone = ProneConfig {
        dim,
        read_format: GraphFormat::Csr,
        ..ProneConfig::default()
    };
    let engine = match SpmmEngine::new(MemSystem::new(topology.clone()), spmm) {
        Ok(e) => e,
        Err(e) if e.is_oom() => return RunOutcome::OutOfMemory,
        Err(other) => panic!("unexpected baseline failure: {other}"),
    };
    match Prone::new(engine, prone).embed(adj) {
        Ok((_, report)) => RunOutcome::Completed(report.total()),
        Err(e) if e.is_oom() => RunOutcome::OutOfMemory,
        Err(other) => panic!("unexpected baseline failure: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use crate::Comparator::{ProneDram, ProneHm};
    use omega_graph::{Csr, RmatConfig};
    use omega_hetmem::Topology;
    use std::num::NonZeroUsize;

    const T4: NonZeroUsize = NonZeroUsize::new(4).unwrap();
    const T8: NonZeroUsize = NonZeroUsize::new(8).unwrap();

    fn topo() -> Topology {
        Topology::twin(1000)
    }

    fn graph() -> Csr {
        RmatConfig::social(512, 5_000, 3).generate_csr().unwrap()
    }

    #[test]
    fn both_variants_complete_on_small_graphs() {
        let g = graph();
        let t_dram = ProneDram.run(&topo(), &g, T8, 16).time();
        let t_hm = ProneHm.run(&topo(), &g, T8, 16).time();
        let t_dram = t_dram.expect("ProNE-DRAM completes");
        let t_hm = t_hm.expect("ProNE-HM completes");
        // The HM split pays PM for sparse streams: slower than pure DRAM.
        assert!(
            t_hm > t_dram,
            "HM {t_hm} should be slower than DRAM {t_dram}"
        );
    }

    #[test]
    fn dram_variant_ooms_when_dram_is_tiny() {
        let g = graph();
        let tiny = Topology::new(2, 4, 48 << 10, 64 << 20, 1 << 30).unwrap();
        assert!(ProneDram.run(&tiny, &g, T4, 16).is_oom());
    }
}
