//! Dense matrix-matrix products.
//!
//! Simple cache-aware loops are sufficient here: all dense-dense products in
//! ProNE involve at least one small (`d × d` or `n × d`, `d ≤ 256`)
//! operand; the heavy kernel is the *sparse* SpMM in `omega-spmm`. The one
//! product whose every element is a long reduction — `AᵀB` over tall
//! operands — runs through a 4 × 4 register tile ([`gemm_tn`], [`gram`]).

use crate::matrix::DenseMatrix;
use crate::{LinalgError, Result};
use std::ops::Range;

/// `C = A · B`.
pub fn gemm(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = DenseMatrix::zeros(m, n);
    // Column-major friendly order: for each output column, accumulate
    // columns of A scaled by B's entries (axpy formulation).
    for j in 0..n {
        let bj = b.col(j);
        let cj = c.col_mut(j);
        for (l, &blj) in bj.iter().enumerate().take(k) {
            if blj == 0.0 {
                continue;
            }
            let al = a.col(l);
            for i in 0..m {
                cj[i] += al[i] * blj;
            }
        }
    }
    Ok(c)
}

/// `C = Aᵀ · B` without materialising the transpose (the Gram-style product
/// used by randomized SVD: both operands are tall and skinny). Element
/// `(i, j)` is the strictly sequential sum `Σ_l a[l, i] · b[l, j]`, one
/// rounded multiply and one rounded add per step.
pub fn gemm_tn(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.rows() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    let mut c = DenseMatrix::zeros(a.cols(), b.cols());
    gemm_tn_cols(a, b, 0..b.cols(), false, c.data_mut());
    Ok(c)
}

/// The Gram matrix `AᵀA`, bit-identical to `gemm_tn(a, a)` at half the
/// work: only the tiles on and above the diagonal are computed and the rest
/// is mirrored — `x · y` and `y · x` round to the same f32, and element
/// `(j, i)` sums the same products in the same order as `(i, j)`.
pub fn gram(a: &DenseMatrix) -> DenseMatrix {
    let n = a.cols();
    let mut c = DenseMatrix::zeros(n, n);
    gemm_tn_cols(a, a, 0..n, true, c.data_mut());
    mirror_upper(&mut c);
    c
}

/// Edge of the register tile of [`tile_tn`].
const TILE: usize = 4;

/// Sixteen elements of `AᵀB` in one pass over the shared dimension, as a
/// column-major tile: `acc[j][i] = Σ_l a[i][l] · b[j][l]`. Each accumulator
/// is its element's own sequential sum, exactly the chain the one-element
/// loop runs — but sixteen independent chains keep the adders busy where a
/// single chain waits out every add's latency, and each loaded value is
/// used four times.
#[inline]
fn tile_tn(a: [&[f32]; TILE], b: [&[f32]; TILE]) -> [[f32; TILE]; TILE] {
    let k = a[0].len();
    let (a, b) = (a.map(|col| &col[..k]), b.map(|col| &col[..k]));
    let mut acc = [[0f32; TILE]; TILE];
    for l in 0..k {
        for j in 0..TILE {
            for i in 0..TILE {
                acc[j][i] += a[i][l] * b[j][l];
            }
        }
    }
    acc
}

/// Columns `cols` of `AᵀB` into `out` (column-major, `a.cols()` rows per
/// column), tile by tile — the one routine behind [`gemm_tn`], [`gram`] and
/// their blocked parallel forms. With `upper`, a column's tiles stop at the
/// one that holds its diagonal element and the rows below stay as they
/// were. A ragged last tile repeats its final column to stay 4 × 4 and
/// drops the copies.
pub(crate) fn gemm_tn_cols(
    a: &DenseMatrix,
    b: &DenseMatrix,
    cols: Range<usize>,
    upper: bool,
    out: &mut [f32],
) {
    let m = a.cols();
    if m == 0 {
        return;
    }
    for j0 in cols.clone().step_by(TILE) {
        let nj = TILE.min(cols.end - j0);
        let bj = std::array::from_fn(|t| b.col(j0 + t.min(nj - 1)));
        let row_end = if upper { m.min(j0 + nj) } else { m };
        for i0 in (0..row_end).step_by(TILE) {
            let mi = TILE.min(m - i0);
            let acc = tile_tn(std::array::from_fn(|t| a.col(i0 + t.min(mi - 1))), bj);
            for (jj, col) in acc.iter().enumerate().take(nj) {
                let at = (j0 - cols.start + jj) * m + i0;
                out[at..at + mi].copy_from_slice(&col[..mi]);
            }
        }
    }
}

/// Copy the strict upper triangle of a square matrix onto the lower one.
pub(crate) fn mirror_upper(c: &mut DenseMatrix) {
    let n = c.cols();
    for j in 0..n {
        for i in j + 1..n {
            c[(i, j)] = c[(j, i)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_small_known_product() {
        let a = DenseMatrix::from_row_major(2, 3, &[1., 2., 3., 4., 5., 6.]).unwrap();
        let b = DenseMatrix::from_row_major(3, 2, &[7., 8., 9., 10., 11., 12.]).unwrap();
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = DenseMatrix::from_row_major(2, 2, &[1., 2., 3., 4.]).unwrap();
        let i = DenseMatrix::identity(2);
        assert_eq!(gemm(&a, &i).unwrap(), a);
        assert_eq!(gemm(&i, &a).unwrap(), a);
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let a = DenseMatrix::from_row_major(3, 2, &[1., 2., 3., 4., 5., 6.]).unwrap();
        let b = DenseMatrix::from_row_major(3, 2, &[7., 8., 9., 10., 11., 12.]).unwrap();
        let via_t = gemm(&a.transposed(), &b).unwrap();
        let direct = gemm_tn(&a, &b).unwrap();
        assert!(direct.max_abs_diff(&via_t) < 1e-5);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(gemm(&a, &b).is_err());
        let c = DenseMatrix::zeros(3, 1);
        assert!(gemm_tn(&a, &c).is_err());
    }
}
