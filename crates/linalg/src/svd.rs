//! One-sided Jacobi SVD.
//!
//! Randomized t-SVD reduces the big sparse problem to an SVD of a small
//! `k × k` (or `n × k`, `k ≤ 256`) dense matrix; one-sided Jacobi is simple,
//! accurate, and plenty fast at that size.

use crate::matrix::DenseMatrix;
use crate::ops::norm2;
use crate::{LinalgError, Result};

/// A thin singular value decomposition `A = U · diag(s) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `(m, k)`.
    pub u: DenseMatrix,
    /// Singular values, descending.
    pub s: Vec<f32>,
    /// Right singular vectors transposed, `(k, n)`.
    pub vt: DenseMatrix,
}

/// One-sided Jacobi SVD of an `m × n` matrix with `m ≥ n` (callers with
/// wide matrices decompose the transpose and swap factors).
pub fn svd_jacobi(a: &DenseMatrix) -> Result<Svd> {
    let (m, n) = a.shape();
    if m < n {
        // Decompose Aᵀ = U' S V'ᵀ, so A = V' S U'ᵀ.
        let t = svd_jacobi(&a.transposed())?;
        return Ok(Svd {
            u: t.vt.transposed(),
            s: t.s,
            vt: t.u.transposed(),
        });
    }

    let mut u = a.clone();
    let mut v = DenseMatrix::identity(n);
    // Relative orthogonality tolerance. Dots accumulate in f64, but the
    // stored data is f32, so 1e-6 relative is the practical floor.
    let eps = 1e-6f64;
    let max_sweeps = 100;
    let mut converged = false;

    for _ in 0..max_sweeps {
        let mut off = 0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // 2x2 Gram block of columns p, q, accumulated in f64 so the
                // tolerance is meaningful for long columns.
                let (up, uq) = (u.col(p), u.col(q));
                let mut app = 0f64;
                let mut aqq = 0f64;
                let mut apq = 0f64;
                for i in 0..m {
                    let (x, y) = (up[i] as f64, uq[i] as f64);
                    app += x * x;
                    aqq += y * y;
                    apq += x * y;
                }
                let rel = apq.abs() / (app * aqq).sqrt().max(f64::MIN_POSITIVE);
                if rel <= eps {
                    continue;
                }
                off = off.max(rel);
                // Jacobi rotation annihilating the off-diagonal element.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = (1.0 / (1.0 + t * t).sqrt()) as f32;
                let s = c * t as f32;
                rotate_columns(&mut u, p, q, c, s);
                rotate_columns(&mut v, p, q, c, s);
            }
        }
        if off <= eps {
            converged = true;
            break;
        }
    }
    if !converged {
        // One-sided Jacobi converges in well under 100 sweeps at our
        // sizes; if it didn't, surface it rather than return garbage.
        return Err(LinalgError::NoConvergence {
            iterations: max_sweeps,
        });
    }

    // Singular values = column norms of U; normalise and sort descending.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f32> = (0..n).map(|c| norm2(u.col(c))).collect();
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).expect("finite norms"));

    let mut u_sorted = DenseMatrix::zeros(m, n);
    let mut v_sorted = DenseMatrix::zeros(n, n);
    let mut s = Vec::with_capacity(n);
    for (dst, &src) in order.iter().enumerate() {
        let sigma = norms[src];
        s.push(sigma);
        let scale = if sigma > 0.0 { 1.0 / sigma } else { 0.0 };
        for r in 0..m {
            u_sorted[(r, dst)] = u[(r, src)] * scale;
        }
        for r in 0..n {
            v_sorted[(r, dst)] = v[(r, src)];
        }
    }

    Ok(Svd {
        u: u_sorted,
        s,
        vt: v_sorted.transposed(),
    })
}

#[inline]
fn rotate_columns(m: &mut DenseMatrix, p: usize, q: usize, c: f32, s: f32) {
    let rows = m.rows();
    for r in 0..rows {
        let xp = m[(r, p)];
        let xq = m[(r, q)];
        m[(r, p)] = c * xp - s * xq;
        m[(r, q)] = s * xp + c * xq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::gaussian_matrix;
    use crate::{gemm_threads, gram_threads, svd_tall_threads};

    fn reconstruct(svd: &Svd) -> DenseMatrix {
        let k = svd.s.len();
        let mut us = svd.u.clone();
        for c in 0..k {
            let sc = svd.s[c];
            for v in us.col_mut(c) {
                *v *= sc;
            }
        }
        gemm_threads(&us, &svd.vt, 1).unwrap()
    }

    #[test]
    fn reconstructs_random_tall_matrix() {
        let a = gaussian_matrix(12, 5, 11);
        let svd = svd_jacobi(&a).unwrap();
        assert!(reconstruct(&svd).max_abs_diff(&a) < 1e-3);
        // Singular values descending and non-negative.
        assert!(svd.s.windows(2).all(|w| w[0] >= w[1]));
        assert!(svd.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn factors_are_orthonormal() {
        let a = gaussian_matrix(10, 4, 5);
        let svd = svd_jacobi(&a).unwrap();
        let utu = gram_threads(&svd.u, 1);
        assert!(utu.max_abs_diff(&DenseMatrix::identity(4)) < 1e-3);
        let v = svd.vt.transposed();
        let vtv = gram_threads(&v, 1);
        assert!(vtv.max_abs_diff(&DenseMatrix::identity(4)) < 1e-3);
    }

    #[test]
    fn diagonal_matrix_recovers_entries() {
        let mut a = DenseMatrix::zeros(4, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 1.0;
        a[(2, 2)] = 2.0;
        let svd = svd_jacobi(&a).unwrap();
        assert!((svd.s[0] - 3.0).abs() < 1e-5);
        assert!((svd.s[1] - 2.0).abs() < 1e-5);
        assert!((svd.s[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn wide_matrix_via_transpose() {
        let a = gaussian_matrix(3, 8, 2);
        let svd = svd_jacobi(&a).unwrap();
        assert_eq!(svd.u.shape(), (3, 3));
        assert_eq!(svd.vt.shape(), (3, 8));
        assert!(reconstruct(&svd).max_abs_diff(&a) < 1e-3);
    }

    #[test]
    fn rank_deficient_matrix_has_zero_singular_values() {
        let mut a = DenseMatrix::zeros(5, 3);
        for r in 0..5 {
            a[(r, 0)] = 1.0;
            a[(r, 1)] = 2.0; // col1 = 2*col0
            a[(r, 2)] = 0.0;
        }
        let svd = svd_jacobi(&a).unwrap();
        assert!(svd.s[0] > 1.0);
        assert!(svd.s[1].abs() < 1e-4);
        assert!(svd.s[2].abs() < 1e-4);
        assert!(reconstruct(&svd).max_abs_diff(&a) < 1e-4);
    }

    #[test]
    fn svd_tall_matches_jacobi_on_tall_matrices() {
        let a = gaussian_matrix(100, 6, 31);
        let fast = svd_tall_threads(&a, 1).unwrap();
        let slow = svd_jacobi(&a).unwrap();
        for (x, y) in fast.s.iter().zip(&slow.s) {
            assert!((x - y).abs() / y.max(1e-3) < 1e-2, "{x} vs {y}");
        }
        assert!(reconstruct(&fast).max_abs_diff(&a) < 1e-2);
        // Small inputs fall back to plain Jacobi.
        let small = gaussian_matrix(5, 4, 2);
        let f = svd_tall_threads(&small, 1).unwrap();
        assert!(reconstruct(&f).max_abs_diff(&small) < 1e-3);
    }

    #[test]
    fn singular_values_match_gram_eigenvalues() {
        let a = gaussian_matrix(9, 3, 77);
        let svd = svd_jacobi(&a).unwrap();
        // trace(AtA) = sum of squared singular values.
        let gram = gram_threads(&a, 1);
        let trace: f32 = (0..3).map(|i| gram[(i, i)]).sum();
        let s2: f32 = svd.s.iter().map(|&x| x * x).sum();
        assert!((trace - s2).abs() / trace < 1e-4);
    }
}
