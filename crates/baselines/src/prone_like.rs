//! ProNE-DRAM and ProNE-HM: the unmodified ProNE system (§IV-A baselines).
//!
//! The reference ProNE has none of OMeGa's machinery: CSR graph reading, the
//! threading library's default round-robin work split, the OS NUMA policy
//! (interleaved pages), no prefetcher and no streaming. `ProNE-DRAM` runs it
//! with everything in DRAM; `ProNE-HM` is the naive DRAM-PM port the paper
//! describes ("matrix operations are handled on DRAM"): sparse matrix in
//! PM, dense matrices in DRAM.

use crate::RunOutcome;
use omega_embed::prone::{Prone, ProneConfig};
use omega_graph::read_cost::GraphFormat;
use omega_graph::Csr;
use omega_hetmem::{MemSystem, Topology};
use omega_spmm::{AllocScheme, MemMode, SpmmConfig, SpmmEngine};

/// Shared construction for the two ProNE variants.
#[derive(Debug, Clone)]
pub struct ProneBaseline {
    name: &'static str,
    topology: Topology,
    spmm: SpmmConfig,
    prone: ProneConfig,
}

impl ProneBaseline {
    /// ProNE on DRAM only.
    pub fn dram(topology: Topology, threads: usize, dim: usize) -> ProneBaseline {
        Self::build("ProNE-DRAM", topology, threads, dim, MemMode::DramOnly)
    }

    /// ProNE on the naive DRAM-PM split.
    pub fn hm(topology: Topology, threads: usize, dim: usize) -> ProneBaseline {
        Self::build(
            "ProNE-HM",
            topology,
            threads,
            dim,
            MemMode::SparsePmDenseDram,
        )
    }

    fn build(
        name: &'static str,
        topology: Topology,
        threads: usize,
        dim: usize,
        mode: MemMode,
    ) -> ProneBaseline {
        ProneBaseline {
            name,
            topology,
            spmm: SpmmConfig {
                threads,
                alloc: AllocScheme::RoundRobin,
                wofp: None,
                nadp: false,
                asl: None,
                mode,
            },
            prone: ProneConfig {
                dim,
                read_format: GraphFormat::Csr,
                ..ProneConfig::default()
            },
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// End-to-end run (graph reading + embedding generation).
    pub fn run(&self, adj: &Csr) -> RunOutcome {
        let sys = MemSystem::new(self.topology.clone());
        let engine = match SpmmEngine::new(sys, self.spmm) {
            Ok(e) => e,
            Err(_) => return RunOutcome::OutOfMemory,
        };
        match Prone::new(engine, self.prone).embed(adj) {
            Ok((_, report)) => RunOutcome::Completed(report.total()),
            Err(e) if e.is_oom() => RunOutcome::OutOfMemory,
            Err(other) => panic!("unexpected baseline failure: {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::RmatConfig;

    fn topo() -> Topology {
        Topology::paper_machine_scaled(24 << 20)
    }

    fn graph() -> Csr {
        RmatConfig::social(512, 5_000, 3).generate_csr().unwrap()
    }

    #[test]
    fn both_variants_complete_on_small_graphs() {
        let g = graph();
        let dram = ProneBaseline::dram(topo(), 8, 16).run(&g);
        let hm = ProneBaseline::hm(topo(), 8, 16).run(&g);
        let t_dram = dram.time().expect("ProNE-DRAM completes");
        let t_hm = hm.time().expect("ProNE-HM completes");
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
        let out = ProneBaseline::dram(tiny, 4, 16).run(&g);
        assert!(out.is_oom());
    }

    #[test]
    fn names() {
        assert_eq!(ProneBaseline::dram(topo(), 1, 8).name(), "ProNE-DRAM");
        assert_eq!(ProneBaseline::hm(topo(), 1, 8).name(), "ProNE-HM");
    }
}
