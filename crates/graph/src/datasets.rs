//! Scaled-down synthetic twins of the paper's six evaluation graphs
//! (Table I).
//!
//! The originals (SNAP social networks up to 3.61 B edges) are too large to
//! redistribute and gated behind the paper's testbed capacity; what drives
//! every OMeGa mechanism — EaTA's entropy, WoFP's hit rates, NaDP's traffic
//! split — is the *degree distribution shape* and the node/edge ratio, both
//! of which a skewed R-MAT reproduces. Each twin divides the paper's node
//! and edge counts by the caller's scale factor (1000 for the paper-scale
//! runs) while the simulated machine's capacities are scaled by the same
//! policy, so capacity-limited outcomes (DRAM OOM on TW-2010/FR) reproduce.

use crate::csr::Csr;
use crate::rmat::RmatConfig;
use crate::Result;

/// The six graphs of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// soc-Pokec.
    Pk,
    /// soc-LiveJournal.
    Lj,
    /// com-Orkut.
    Or,
    /// Twitter (11.3 M nodes).
    Tw,
    /// Twitter-2010 (billion-edge).
    Tw2010,
    /// com-Friendster (billion-edge).
    Fr,
}

/// Table I row: the original graph's published statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetStats {
    pub name: &'static str,
    pub nodes: u64,
    pub edges: u64,
    pub max_degree: u64,
}

impl Dataset {
    /// All datasets in Table I order.
    pub const ALL: [Dataset; 6] = [
        Dataset::Pk,
        Dataset::Lj,
        Dataset::Or,
        Dataset::Tw,
        Dataset::Tw2010,
        Dataset::Fr,
    ];

    /// The five smaller graphs used by figures that exclude FR.
    pub const SMALL_FIVE: [Dataset; 5] = [
        Dataset::Pk,
        Dataset::Lj,
        Dataset::Or,
        Dataset::Tw,
        Dataset::Tw2010,
    ];

    /// Short label used in tables.
    pub const fn label(self) -> &'static str {
        match self {
            Dataset::Pk => "PK",
            Dataset::Lj => "LJ",
            Dataset::Or => "OR",
            Dataset::Tw => "TW",
            Dataset::Tw2010 => "TW-2010",
            Dataset::Fr => "FR",
        }
    }

    /// Paper Table I statistics of the original graph.
    pub const fn paper_stats(self) -> DatasetStats {
        match self {
            Dataset::Pk => DatasetStats {
                name: "soc-Pokec",
                nodes: 1_630_000,
                edges: 44_600_000,
                max_degree: 803,
            },
            Dataset::Lj => DatasetStats {
                name: "soc-LiveJournal",
                nodes: 4_850_000,
                edges: 85_700_000,
                max_degree: 1_641,
            },
            Dataset::Or => DatasetStats {
                name: "com-Orkut",
                nodes: 3_070_000,
                edges: 234_470_000,
                max_degree: 2_863,
            },
            Dataset::Tw => DatasetStats {
                name: "Twitter",
                nodes: 11_320_000,
                edges: 127_110_000,
                max_degree: 5_373,
            },
            Dataset::Tw2010 => DatasetStats {
                name: "Twitter-2010",
                nodes: 41_650_000,
                edges: 2_410_000_000,
                max_degree: 15_760,
            },
            Dataset::Fr => DatasetStats {
                name: "com-Friendster",
                nodes: 65_610_000,
                edges: 3_610_000_000,
                max_degree: 3_148,
            },
        }
    }

    /// Deterministic per-dataset seed so every harness sees the same twin.
    const fn seed(self) -> u64 {
        match self {
            Dataset::Pk => 0x9e3779b97f4a7c15,
            Dataset::Lj => 0xbf58476d1ce4e5b9,
            Dataset::Or => 0x94d049bb133111eb,
            Dataset::Tw => 0x2545f4914f6cdd1d,
            Dataset::Tw2010 => 0xd6e8feb86659fd93,
            Dataset::Fr => 0xa0761d6478bd642f,
        }
    }

    /// The R-MAT configuration of the twin at scale `scale` (paper counts
    /// divided by `scale`).
    fn twin_config(self, scale: u64) -> RmatConfig {
        let stats = self.paper_stats();
        let nodes = (stats.nodes / scale).max(64) as u32;
        let edges = (stats.edges / scale).max(256);
        RmatConfig::social(nodes, edges, self.seed())
    }

    /// Generate the twin graph at scale `scale`.
    pub fn load_scaled(self, scale: u64) -> Result<Csr> {
        self.twin_config(scale).generate_csr()
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn table1_order_and_labels() {
        let labels: Vec<_> = Dataset::ALL.iter().map(|d| d.label()).collect();
        assert_eq!(labels, ["PK", "LJ", "OR", "TW", "TW-2010", "FR"]);
        assert_eq!(Dataset::Pk.paper_stats().name, "soc-Pokec");
    }

    #[test]
    fn twin_counts_scale_with_paper() {
        let cfg = Dataset::Pk.twin_config(1000);
        assert_eq!(cfg.nodes, 1_630);
        assert_eq!(cfg.edges, 44_600);
        let cfg = Dataset::Fr.twin_config(1000);
        assert_eq!(cfg.nodes, 65_610);
        assert_eq!(cfg.edges, 3_610_000);
    }

    #[test]
    fn twins_are_deterministic_and_distinct() {
        let a = Dataset::Pk.load_scaled(4000).unwrap();
        let b = Dataset::Pk.load_scaled(4000).unwrap();
        assert_eq!(a, b);
        let c = Dataset::Lj.load_scaled(4000).unwrap();
        assert_ne!(a.nnz(), c.nnz());
    }

    #[test]
    fn twin_preserves_skew_shape() {
        let g = Dataset::Pk.load_scaled(1000).unwrap();
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, 1_630);
        // Heavy-tailed: hub degree well above average.
        assert!(s.max_degree as f64 > s.avg_degree * 5.0);
        // Average degree roughly tracks the original (PK ~ 2*44.6M/1.63M = 54
        // directed nnz per node; R-MAT dedup loses some, so allow slack).
        assert!(s.avg_degree > 15.0, "avg={}", s.avg_degree);
    }

    #[test]
    fn scale_floor_prevents_degenerate_twins() {
        let cfg = Dataset::Pk.twin_config(u64::MAX);
        assert!(cfg.nodes >= 64);
        assert!(cfg.edges >= 256);
    }
}
