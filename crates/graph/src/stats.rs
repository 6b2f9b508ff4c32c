//! Graph statistics: degree distributions, Shannon entropy, and the
//! workload scatter factor — the quantities EaTA's analysis (§III-B) is
//! built on.

use crate::csr::Csr;
use std::collections::BTreeMap;

/// Degree histogram: degree → node count, sorted by degree.
fn degree_histogram(csr: &Csr) -> BTreeMap<u64, u64> {
    let mut hist = BTreeMap::new();
    for r in 0..csr.rows() {
        *hist.entry(csr.degree(r)).or_insert(0u64) += 1;
    }
    hist
}

/// Number of distinct degrees (`|Degree|`, the size driver of CSDB).
fn distinct_degrees(csr: &Csr) -> usize {
    degree_histogram(csr).len()
}

/// Average degree.
fn avg_degree(csr: &Csr) -> f64 {
    if csr.rows() == 0 {
        return 0.0;
    }
    csr.nnz() as f64 / csr.rows() as f64
}

/// Shannon entropy (nats) of a workload: the degree distribution of a row
/// range, Eq. 3 of the paper:
/// `H = Σ_j −(|Row_j| / W) · ln(|Row_j| / W)` where `W = Σ_j |Row_j|`.
///
/// Empty rows contribute nothing (lim x→0 of −x ln x = 0).
pub fn workload_entropy(row_nnz: &[u64]) -> f64 {
    let w: u64 = row_nnz.iter().sum();
    if w == 0 {
        return 0.0;
    }
    let w = w as f64;
    row_nnz
        .iter()
        .filter(|&&r| r > 0)
        .map(|&r| {
            let p = r as f64 / w;
            -p * p.ln()
        })
        .sum()
}

/// Entropy normalised to [0, 1]: `Z(H) = H / ln |V|` (§III-B, Eq. 5).
pub fn normalized_entropy(h: f64, total_cols: u32) -> f64 {
    if total_cols <= 1 {
        return 0.0;
    }
    (h / (total_cols as f64).ln()).clamp(0.0, 1.0)
}

/// The workload inherent scatter factor `W_sca` (§III-B): the average
/// number of non-zero indices per row in the workload, divided by the total
/// number of columns `|V|`. Smaller values mean the dense-matrix rows
/// fetched by `get_dense_nnz` are more scattered.
pub fn scatter_factor(row_nnz: &[u64], total_cols: u32) -> f64 {
    if row_nnz.is_empty() || total_cols == 0 {
        return 0.0;
    }
    let w: u64 = row_nnz.iter().sum();
    let avg_per_row = w as f64 / row_nnz.len() as f64;
    avg_per_row / total_cols as f64
}

/// Full per-graph report used by the Table I harness.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    pub nodes: u32,
    /// Undirected edge count (stored nnz / 2 for symmetric matrices).
    pub edges: u64,
    pub max_degree: u64,
    pub avg_degree: f64,
    pub distinct_degrees: usize,
    pub entropy: f64,
    pub normalized_entropy: f64,
}

impl GraphStats {
    pub fn of(csr: &Csr) -> GraphStats {
        let degrees = csr.degrees();
        let h = workload_entropy(&degrees);
        GraphStats {
            nodes: csr.rows(),
            edges: csr.nnz() as u64 / 2,
            max_degree: csr.max_degree(),
            avg_degree: avg_degree(csr),
            distinct_degrees: distinct_degrees(csr),
            entropy: h,
            normalized_entropy: normalized_entropy(h, csr.rows()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::rmat::RmatConfig;

    /// Maximum-likelihood estimate of the power-law exponent for degrees ≥
    /// `d_min` (Clauset et al.): `α = 1 + n / Σ ln(d_i / (d_min − ½))`.
    /// Returns `None` if no nodes reach `d_min`.
    fn power_law_alpha(csr: &Csr, d_min: u64) -> Option<f64> {
        let d_min = d_min.max(1);
        let mut n = 0u64;
        let mut log_sum = 0f64;
        for r in 0..csr.rows() {
            let d = csr.degree(r);
            if d >= d_min {
                n += 1;
                log_sum += (d as f64 / (d_min as f64 - 0.5)).ln();
            }
        }
        (n > 0 && log_sum > 0.0).then(|| 1.0 + n as f64 / log_sum)
    }

    fn star(leaves: u32) -> Csr {
        let mut b = GraphBuilder::new(leaves + 1);
        for leaf in 1..=leaves {
            b.add_edge(0, leaf, 1.0).unwrap();
        }
        b.build_csr().unwrap()
    }

    #[test]
    fn histogram_and_distinct() {
        let g = star(10);
        let h = degree_histogram(&g);
        assert_eq!(h[&10], 1);
        assert_eq!(h[&1], 10);
        assert_eq!(distinct_degrees(&g), 2);
        assert!((avg_degree(&g) - 20.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_rows_maximise_entropy() {
        // k equal rows -> H = ln k.
        let rows = vec![5u64; 8];
        assert!((workload_entropy(&rows) - (8f64).ln()).abs() < 1e-12);
        // One dominant row -> entropy near 0.
        let skewed = vec![1000u64, 1, 1];
        assert!(workload_entropy(&skewed) < 0.1);
        // Empty workload.
        assert_eq!(workload_entropy(&[]), 0.0);
        assert_eq!(workload_entropy(&[0, 0]), 0.0);
    }

    #[test]
    fn normalized_entropy_in_unit_interval() {
        let rows = vec![5u64; 8];
        let h = workload_entropy(&rows);
        let z = normalized_entropy(h, 8);
        assert!((z - 1.0).abs() < 1e-12);
        assert_eq!(normalized_entropy(h, 1), 0.0);
        assert!(normalized_entropy(100.0, 8) <= 1.0); // clamped
    }

    #[test]
    fn scatter_factor_definition() {
        // 4 rows, 20 nnz total, 100 columns: avg 5 per row / 100 = 0.05.
        assert!((scatter_factor(&[5, 5, 5, 5], 100) - 0.05).abs() < 1e-12);
        assert_eq!(scatter_factor(&[], 100), 0.0);
        assert_eq!(scatter_factor(&[5], 0), 0.0);
    }

    #[test]
    fn power_law_fit_on_rmat() {
        let g = RmatConfig::social(1 << 12, 60_000, 3)
            .generate_csr()
            .unwrap();
        let alpha = power_law_alpha(&g, 4).expect("enough high-degree nodes");
        // Social graphs live around alpha in [1.5, 3.5].
        assert!((1.2..4.5).contains(&alpha), "alpha={alpha}");
        // Star graph with no node over threshold.
        let tiny = star(2);
        assert!(power_law_alpha(&tiny, 50).is_none());
    }

    #[test]
    fn graph_stats_report() {
        let g = star(99);
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, 100);
        assert_eq!(s.edges, 99);
        assert_eq!(s.max_degree, 99);
        assert_eq!(s.distinct_degrees, 2);
        assert!(s.entropy > 0.0);
        assert!(s.normalized_entropy > 0.0 && s.normalized_entropy < 1.0);
    }
}
