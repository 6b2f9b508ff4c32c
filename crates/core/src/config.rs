//! System configuration: which machine, which variant, which model
//! hyper-parameters.

use omega_embed::prone::ProneConfig;
use omega_hetmem::Topology;
#[cfg(test)]
use omega_spmm::MemMode;
use omega_spmm::SpmmConfig;

/// The paper's named system variants (§IV-A baselines plus ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemVariant {
    /// Full OMeGa on heterogeneous memory.
    Omega,
    /// Everything in DRAM (ideal baseline).
    OmegaDram,
    /// Everything in PM, heterogeneous optimisations off (worst baseline).
    OmegaPm,
    /// OMeGa with the prefetcher disabled (Fig. 14 ablation).
    OmegaWithoutWofp,
    /// OMeGa with OS-interleaved placement instead of NaDP (Fig. 15).
    OmegaWithoutNadp,
    /// OMeGa with streaming disabled.
    OmegaWithoutAsl,
}

impl SystemVariant {
    pub const fn label(self) -> &'static str {
        match self {
            SystemVariant::Omega => "OMeGa",
            SystemVariant::OmegaDram => "OMeGa-DRAM",
            SystemVariant::OmegaPm => "OMeGa-PM",
            SystemVariant::OmegaWithoutWofp => "OMeGa-w/o-WoFP",
            SystemVariant::OmegaWithoutNadp => "OMeGa-w/o-NaDP",
            SystemVariant::OmegaWithoutAsl => "OMeGa-w/o-ASL",
        }
    }

    /// The SpMM engine configuration of this variant.
    pub fn spmm_config(self, threads: usize) -> SpmmConfig {
        match self {
            SystemVariant::Omega => SpmmConfig::omega(threads),
            SystemVariant::OmegaDram => SpmmConfig::omega_dram(threads),
            SystemVariant::OmegaPm => SpmmConfig::omega_pm(threads),
            SystemVariant::OmegaWithoutWofp => SpmmConfig {
                wofp: None,
                ..SpmmConfig::omega(threads)
            },
            SystemVariant::OmegaWithoutNadp => SpmmConfig {
                nadp: false,
                ..SpmmConfig::omega(threads)
            },
            SystemVariant::OmegaWithoutAsl => SpmmConfig {
                asl: false,
                ..SpmmConfig::omega(threads)
            },
        }
    }
}

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct OmegaConfig {
    /// The simulated machine. Default: the paper's two-socket Optane box
    /// scaled 1:1000 alongside the dataset twins, [`Topology::twin`]`(1000)`
    /// (24 MiB DRAM + 192 MiB PM per socket).
    pub topology: Topology,
    pub variant: SystemVariant,
    /// Simulated threads (the paper's experiments use 30).
    pub threads: usize,
    /// Embedding model hyper-parameters.
    pub prone: ProneConfig,
}

impl Default for OmegaConfig {
    fn default() -> Self {
        OmegaConfig {
            topology: Topology::twin(1000),
            variant: SystemVariant::Omega,
            threads: 30,
            prone: ProneConfig::default(),
        }
    }
}

impl OmegaConfig {
    pub fn with_variant(mut self, variant: SystemVariant) -> Self {
        self.variant = variant;
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Wall-clock worker threads for the training path (SpMM workload
    /// execution and the dense GEMM/QR/SVD/Chebyshev kernels). Distinct
    /// from [`Self::with_threads`], which sets the *simulated* thread count
    /// and changes the cost model: this knob only changes real elapsed
    /// time — embeddings, sim clocks, byte ledgers and metrics are
    /// bit-identical at every value.
    pub fn with_wall_threads(mut self, wall_threads: usize) -> Self {
        self.prone.threads = wall_threads.max(1);
        self
    }

    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    pub fn with_dim(mut self, dim: usize) -> Self {
        self.prone.dim = dim;
        self
    }

    /// The resolved SpMM configuration.
    pub(crate) fn spmm_config(&self) -> SpmmConfig {
        self.variant.spmm_config(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_omega() {
        let cfg = OmegaConfig::default();
        assert_eq!(cfg.variant, SystemVariant::Omega);
        assert_eq!(cfg.threads, 30);
        let spmm = cfg.spmm_config();
        assert!(spmm.nadp);
        assert!(spmm.wofp.is_some());
        assert!(spmm.asl);
        assert_eq!(spmm.mode, MemMode::Hetero);
    }

    #[test]
    fn variants_toggle_the_right_knobs() {
        let t = 8;
        assert_eq!(
            SystemVariant::OmegaDram.spmm_config(t).mode,
            MemMode::DramOnly
        );
        assert_eq!(SystemVariant::OmegaPm.spmm_config(t).mode, MemMode::PmOnly);
        assert!(SystemVariant::OmegaWithoutWofp
            .spmm_config(t)
            .wofp
            .is_none());
        assert!(!SystemVariant::OmegaWithoutNadp.spmm_config(t).nadp);
        assert!(!SystemVariant::OmegaWithoutAsl.spmm_config(t).asl);
        assert_eq!(SystemVariant::Omega.label(), "OMeGa");
        assert_eq!(SystemVariant::OmegaWithoutNadp.label(), "OMeGa-w/o-NaDP");
    }

    #[test]
    fn wall_threads_is_separate_from_simulated_threads() {
        let cfg = OmegaConfig::default().with_threads(30).with_wall_threads(8);
        assert_eq!(cfg.threads, 30);
        assert_eq!(cfg.prone.threads, 8);
        // The simulated cost model only sees the simulated count.
        assert_eq!(cfg.spmm_config().threads, 30);
        // Clamped to at least one worker.
        assert_eq!(OmegaConfig::default().with_wall_threads(0).prone.threads, 1);
    }

    #[test]
    fn builders_compose() {
        let cfg = OmegaConfig::default()
            .with_threads(4)
            .with_dim(16)
            .with_variant(SystemVariant::OmegaDram);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.prone.dim, 16);
        assert_eq!(cfg.spmm_config().mode, MemMode::DramOnly);
    }
}
