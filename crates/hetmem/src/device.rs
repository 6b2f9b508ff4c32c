//! Memory device kinds and their physical media characteristics.

/// The kind of memory device backing an allocation.
///
/// The simulated machine mirrors the paper's testbed (§IV-A): each socket
/// holds DRAM DIMMs and Optane DC PM DIMMs, and the machine also has an NVMe
/// SSD used by the out-of-core baselines (Ginex, MariusGNN, SEM-SpMM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceKind {
    /// DDR4 DRAM: fast, low capacity, expensive.
    Dram,
    /// Optane DC Persistent Memory: byte-addressable, ~1/3 read and ~1/6
    /// write bandwidth of DRAM, 256 B internal access granularity (XPLine).
    Pm,
    /// NVMe SSD: block device, 4 KiB page granularity, microsecond latency.
    Ssd,
}

impl DeviceKind {
    /// All device kinds, in index order (used by the class tables).
    pub const ALL: [DeviceKind; 3] = [DeviceKind::Dram, DeviceKind::Pm, DeviceKind::Ssd];

    /// Dense index for table lookups.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            DeviceKind::Dram => 0,
            DeviceKind::Pm => 1,
            DeviceKind::Ssd => 2,
        }
    }

    /// Internal media access granularity in bytes.
    ///
    /// A random access of any size transfers (and is billed) at least one
    /// granularity unit: a 64 B cache line on DRAM, a 256 B XPLine on Optane
    /// PM (the behaviour XPGraph exploits), and a 4 KiB page on SSD.
    #[inline]
    pub const fn access_granularity(self) -> u64 {
        match self {
            DeviceKind::Dram => 64,
            DeviceKind::Pm => 256,
            DeviceKind::Ssd => 4096,
        }
    }

    /// Short display label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            DeviceKind::Dram => "DRAM",
            DeviceKind::Pm => "PM",
            DeviceKind::Ssd => "SSD",
        }
    }

    /// Approximate price per GiB in USD, used by capacity/cost reporting.
    ///
    /// The paper cites PM at up to 2.1× lower price per capacity than DRAM
    /// (§I, ref.\[18\]); the SSD figure is a contemporary NVMe price.
    pub(crate) const fn price_per_gib_usd(self) -> f64 {
        match self {
            DeviceKind::Dram => 7.0,
            DeviceKind::Pm => 3.3,
            DeviceKind::Ssd => 0.11,
        }
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, d) in DeviceKind::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn granularity_ordering_matches_hardware() {
        assert!(DeviceKind::Dram.access_granularity() < DeviceKind::Pm.access_granularity());
        assert!(DeviceKind::Pm.access_granularity() < DeviceKind::Ssd.access_granularity());
    }

    #[test]
    fn pm_is_cheaper_than_dram() {
        // The paper's premise: PM offers ~2.1x lower price per capacity.
        let ratio = DeviceKind::Dram.price_per_gib_usd() / DeviceKind::Pm.price_per_gib_usd();
        assert!(ratio > 2.0 && ratio < 2.3, "ratio={ratio}");
    }
}
