//! Graph operators ProNE factorises and propagates over: the row-normalised
//! transition matrix, the log-transformed proximity matrix, and the
//! modulated normalised Laplacian.

use crate::Result;
use omega_graph::{Csdb, Csr};

/// Row-normalised transition matrix `P = D⁻¹·A` (rows with zero degree stay
/// zero).
pub fn transition_matrix(adj: &Csr) -> Csr {
    let mut p = adj.clone();
    let degrees: Vec<f32> = (0..adj.rows())
        .map(|r| {
            let (_, vals) = adj.row(r);
            vals.iter().sum::<f32>()
        })
        .collect();
    p.map_values(|r, _, v| {
        let d = degrees[r as usize];
        if d > 0.0 {
            v / d
        } else {
            0.0
        }
    });
    p
}

/// ProNE's log-transformed proximity matrix for the t-SVD step:
/// `M_ij = max(ln p_ij − ln(λ·q_j), 0)` with `q_j = d_j / Σd` — the
/// shifted-PMI style enhancement with negative-sampling ratio `λ`.
pub fn log_proximity(adj: &Csr, lambda: f32) -> Csr {
    let p = transition_matrix(adj);
    let total: f32 = (0..adj.rows())
        .map(|r| adj.row(r).1.iter().sum::<f32>())
        .sum();
    let q: Vec<f32> = (0..adj.cols())
        .map(|c| {
            // Symmetric adjacency: column sum = row sum.
            let (_, vals) = adj.row(c);
            vals.iter().sum::<f32>() / total.max(f32::MIN_POSITIVE)
        })
        .collect();
    let mut m = p;
    m.map_values(|_, c, v| {
        if v <= 0.0 {
            return 0.0;
        }
        let offset = (lambda * q[c as usize]).max(f32::MIN_POSITIVE);
        (v.ln() - offset.ln()).max(0.0)
    });
    m
}

/// Symmetrically-normalised adjacency `G = D^{-1/2}·A·D^{-1/2}`.
pub fn normalized_adjacency(adj: &Csr) -> Csr {
    let inv_sqrt: Vec<f32> = (0..adj.rows())
        .map(|r| {
            let d: f32 = adj.row(r).1.iter().sum();
            if d > 0.0 {
                1.0 / d.sqrt()
            } else {
                0.0
            }
        })
        .collect();
    let mut g = adj.clone();
    // Group the scaling product: multiplication is commutative (so
    // inv[r]·inv[c] == inv[c]·inv[r] exactly) but not associative — this
    // grouping keeps the result bit-symmetric.
    g.map_values(|r, c, v| v * (inv_sqrt[r as usize] * inv_sqrt[c as usize]));
    g
}

/// Convert an operator to CSDB for the OMeGa engine.
pub(crate) fn to_csdb(m: &Csr) -> Result<Csdb> {
    Ok(Csdb::from_csr(m)?)
}

/// `A + I`: the self-looped adjacency ProNE's propagation renormalises.
pub fn adjacency_plus_identity(adj: &Csr) -> Result<Csr> {
    let diag: Vec<(u32, u32, f32)> = (0..adj.rows()).map(|r| (r, r, 1.0)).collect();
    let eye = Csr::from_triples(adj.rows(), adj.cols(), diag)?;
    Ok(adj.add(&eye)?)
}

/// ProNE's propagation operator `M = L − μI = (1−μ)·I − D⁻¹(A+I)` — the
/// modulated random-walk Laplacian of the self-looped graph.
pub fn modulated_rw_laplacian(adj: &Csr, mu: f32) -> Result<Csr> {
    let a1 = adjacency_plus_identity(adj)?;
    let mut da = transition_matrix(&a1);
    da.scale(-1.0);
    let diag: Vec<(u32, u32, f32)> = (0..adj.rows()).map(|r| (r, r, 1.0 - mu)).collect();
    let shift = Csr::from_triples(adj.rows(), adj.cols(), diag)?;
    Ok(shift.add(&da)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::GraphBuilder;

    fn triangle_plus_leaf() -> Csr {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(2, 0, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.build_csr().unwrap()
    }

    #[test]
    fn transition_rows_sum_to_one() {
        let p = transition_matrix(&triangle_plus_leaf());
        for r in 0..p.rows() {
            let s: f32 = p.row(r).1.iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn log_proximity_is_nonnegative_and_sparse() {
        let m = log_proximity(&triangle_plus_leaf(), 1.0);
        assert!(m.values().iter().all(|&v| v >= 0.0));
        assert_eq!(m.nnz(), triangle_plus_leaf().nnz());
        // Low-degree neighbours (rarer contexts) score higher: the leaf
        // node 3 as a context of node 2 beats the hub contexts.
        let (cols, vals) = m.row(2);
        let leaf_score = vals[cols.iter().position(|&c| c == 3).unwrap()];
        let hub_score = vals[cols.iter().position(|&c| c == 0).unwrap()];
        assert!(leaf_score > hub_score);
    }

    #[test]
    fn normalized_adjacency_spectrum_bounded() {
        let g = normalized_adjacency(&triangle_plus_leaf());
        // Power iteration: the dominant eigenvalue of G is <= 1.
        let mut x = vec![1.0f32; 4];
        for _ in 0..50 {
            let y = g.spmv(&x).unwrap();
            let n = y.iter().map(|v| v * v).sum::<f32>().sqrt();
            x = y.iter().map(|v| v / n.max(1e-12)).collect();
        }
        let y = g.spmv(&x).unwrap();
        let lambda: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!(lambda <= 1.0 + 1e-4, "lambda={lambda}");
        assert!(lambda > 0.9, "connected graph should be near 1");
    }

    #[test]
    fn zero_degree_rows_stay_zero() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        let adj = b.build_csr().unwrap();
        let p = transition_matrix(&adj);
        assert_eq!(p.row(2).0.len(), 0);
        let g = normalized_adjacency(&adj);
        assert_eq!(g.row(2).0.len(), 0);
    }

    #[test]
    fn self_looped_adjacency() {
        let a1 = adjacency_plus_identity(&triangle_plus_leaf()).unwrap();
        assert_eq!(a1.nnz(), triangle_plus_leaf().nnz() + 4);
        for r in 0..4 {
            let (cols, vals) = a1.row(r);
            let at = cols.iter().position(|&c| c == r).unwrap();
            assert_eq!(vals[at], 1.0);
        }
    }

    #[test]
    fn modulated_rw_laplacian_rows_sum_to_minus_mu() {
        // Row sum of (1-mu)I - D^-1(A+I) = (1-mu) - 1 = -mu.
        let m = modulated_rw_laplacian(&triangle_plus_leaf(), 0.2).unwrap();
        for r in 0..m.rows() {
            let s: f32 = m.row(r).1.iter().sum();
            assert!((s + 0.2).abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn csdb_conversion() {
        let m = modulated_rw_laplacian(&triangle_plus_leaf(), 0.2).unwrap();
        let csdb = to_csdb(&m).unwrap();
        assert_eq!(csdb.nnz(), m.nnz());
    }
}
