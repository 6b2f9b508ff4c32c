//! Engine configuration: which devices hold what, and which of the paper's
//! four mechanisms are on.

use crate::alloc::AllocScheme;
use crate::asl::AslConfig;
use crate::wofp::WofpConfig;
use omega_hetmem::DeviceKind;

/// Which devices hold the operands (the paper's configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemMode {
    /// Everything in DRAM — the ideal baseline (`OMeGa-DRAM`).
    DramOnly,
    /// Everything in PM, staging included — the worst baseline
    /// (`OMeGa-PM`): WoFP/ASL stage into PM and thus buy nothing.
    PmOnly,
    /// Operands in PM, staging/streaming windows in DRAM — OMeGa proper.
    Hetero,
    /// Sparse matrix in PM, dense matrices in DRAM — the naive DRAM-PM
    /// split of `ProNE-HM` ("matrix operations are handled on DRAM").
    SparsePmDenseDram,
}

impl MemMode {
    /// Device holding the sparse operand.
    pub fn operand_device(self) -> DeviceKind {
        match self {
            MemMode::DramOnly => DeviceKind::Dram,
            MemMode::PmOnly | MemMode::Hetero | MemMode::SparsePmDenseDram => DeviceKind::Pm,
        }
    }

    /// Device holding the dense operand and result matrices.
    pub fn dense_device(self) -> DeviceKind {
        match self {
            MemMode::DramOnly | MemMode::SparsePmDenseDram => DeviceKind::Dram,
            MemMode::PmOnly | MemMode::Hetero => DeviceKind::Pm,
        }
    }

    /// Device holding WoFP/ASL staging windows.
    pub fn staging_device(self) -> DeviceKind {
        match self {
            MemMode::DramOnly | MemMode::Hetero | MemMode::SparsePmDenseDram => DeviceKind::Dram,
            MemMode::PmOnly => DeviceKind::Pm,
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpmmConfig {
    /// Simulated thread count (the paper's experiments use 30).
    pub threads: usize,
    pub alloc: AllocScheme,
    /// `None` disables the prefetcher (`OMeGa-w/o-WoFP`).
    pub wofp: Option<WofpConfig>,
    /// `false` replaces NaDP with the OS Interleave policy
    /// (`OMeGa-w/o-NaDP`).
    pub nadp: bool,
    /// `None` disables streaming: result writes go straight to the operand
    /// device.
    pub asl: Option<AslConfig>,
    pub mode: MemMode,
}

impl SpmmConfig {
    /// The full OMeGa system on heterogeneous memory.
    pub fn omega(threads: usize) -> Self {
        SpmmConfig {
            threads,
            alloc: AllocScheme::eata_default(),
            wofp: Some(WofpConfig::default()),
            nadp: true,
            asl: Some(AslConfig::default()),
            mode: MemMode::Hetero,
        }
    }

    /// OMeGa with everything in DRAM (ideal baseline).
    pub fn omega_dram(threads: usize) -> Self {
        SpmmConfig {
            mode: MemMode::DramOnly,
            ..Self::omega(threads)
        }
    }

    /// OMeGa with everything in PM, heterogeneous optimisations off (worst
    /// baseline).
    pub fn omega_pm(threads: usize) -> Self {
        SpmmConfig {
            mode: MemMode::PmOnly,
            wofp: None,
            asl: None,
            ..Self::omega(threads)
        }
    }

    pub fn with_alloc(mut self, alloc: AllocScheme) -> Self {
        self.alloc = alloc;
        self
    }

    pub fn with_wofp(mut self, wofp: Option<WofpConfig>) -> Self {
        self.wofp = wofp;
        self
    }

    pub fn with_nadp(mut self, nadp: bool) -> Self {
        self.nadp = nadp;
        self
    }

    pub fn with_asl(mut self, asl: Option<AslConfig>) -> Self {
        self.asl = asl;
        self
    }
}
