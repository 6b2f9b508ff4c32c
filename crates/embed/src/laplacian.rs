//! Graph operators ProNE factorises and propagates over: the row-normalised
//! transition matrix, the log-transformed proximity matrix, and the
//! modulated random-walk Laplacian of the self-looped graph.

use crate::Result;
use omega_graph::{Csdb, Csr};

/// Row-normalised transition matrix `P = D⁻¹·A` (rows with zero degree stay
/// zero).
pub(crate) fn transition_matrix(adj: &Csr) -> Csr {
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
pub(crate) fn log_proximity(adj: &Csr, lambda: f32) -> Csr {
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

/// Convert an operator to CSDB for the OMeGa engine.
pub(crate) fn to_csdb(m: &Csr) -> Result<Csdb> {
    Ok(Csdb::from_csr(m)?)
}

/// `A + I`: the self-looped adjacency ProNE's propagation renormalises.
pub(crate) fn adjacency_plus_identity(adj: &Csr) -> Result<Csr> {
    let diag: Vec<(u32, u32, f32)> = (0..adj.rows()).map(|r| (r, r, 1.0)).collect();
    let eye = Csr::from_triples(adj.rows(), adj.cols(), diag)?;
    Ok(adj.add(&eye)?)
}

/// ProNE's propagation operator `M = L − μI = (1−μ)·I − D⁻¹(A+I)` — the
/// modulated random-walk Laplacian of the self-looped graph, built from
/// that graph's adjacency `a1 = A + I` ([`adjacency_plus_identity`]).
pub(crate) fn modulated_rw_laplacian(a1: &Csr, mu: f32) -> Result<Csr> {
    let mut da = transition_matrix(a1);
    da.scale(-1.0);
    let diag: Vec<(u32, u32, f32)> = (0..a1.rows()).map(|r| (r, r, 1.0 - mu)).collect();
    let shift = Csr::from_triples(a1.rows(), a1.cols(), diag)?;
    Ok(shift.add(&da)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::GraphBuilder;
    use proptest::prelude::*;

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
    fn zero_degree_rows_stay_zero() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        let adj = b.build_csr().unwrap();
        let p = transition_matrix(&adj);
        assert_eq!(p.row(2).0.len(), 0);
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
        let a1 = adjacency_plus_identity(&triangle_plus_leaf()).unwrap();
        let m = modulated_rw_laplacian(&a1, 0.2).unwrap();
        for r in 0..m.rows() {
            let s: f32 = m.row(r).1.iter().sum();
            assert!((s + 0.2).abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn csdb_conversion() {
        let a1 = adjacency_plus_identity(&triangle_plus_leaf()).unwrap();
        let m = modulated_rw_laplacian(&a1, 0.2).unwrap();
        let csdb = to_csdb(&m).unwrap();
        assert_eq!(csdb.nnz(), m.nnz());
    }

    fn arb_graph() -> impl Strategy<Value = Csr> {
        (3u32..40, 2usize..80).prop_flat_map(|(n, edges)| {
            proptest::collection::vec((0..n, 0..n), edges).prop_map(move |pairs| {
                let mut b = GraphBuilder::new(n);
                for (u, v) in pairs {
                    if u != v {
                        b.add_edge(u, v, 1.0).unwrap();
                    }
                }
                b.add_edge(0, 1, 1.0).ok();
                b.build_csr().unwrap()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Transition-matrix rows are stochastic (or empty).
        #[test]
        fn transition_rows_stochastic(g in arb_graph()) {
            let p = transition_matrix(&g);
            for r in 0..p.rows() {
                let s: f32 = p.row(r).1.iter().sum();
                if g.degree(r) > 0 {
                    prop_assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
                } else {
                    prop_assert_eq!(s, 0.0);
                }
            }
        }

        /// The modulated random-walk Laplacian's rows sum to −μ (every node
        /// is non-isolated after the +I self-loop), and it has exactly the
        /// self-looped graph's structure.
        #[test]
        fn rw_laplacian_row_sums(g in arb_graph(), mu in 0.0f32..0.9) {
            let a1 = adjacency_plus_identity(&g).unwrap();
            let m = modulated_rw_laplacian(&a1, mu).unwrap();
            for r in 0..m.rows() {
                let s: f32 = m.row(r).1.iter().sum();
                prop_assert!((s + mu).abs() < 1e-4, "row {r} sums to {s}, want {}", -mu);
            }
            prop_assert_eq!(m.nnz(), a1.nnz());
        }

        /// Log-proximity keeps the sparsity pattern and non-negative values.
        #[test]
        fn log_proximity_structure(g in arb_graph(), lambda in 0.1f32..5.0) {
            let m = log_proximity(&g, lambda);
            prop_assert_eq!(m.nnz(), g.nnz());
            prop_assert!(m.values().iter().all(|&v| v >= 0.0 && v.is_finite()));
        }
    }
}
