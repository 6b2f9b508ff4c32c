//! The tile routine of the dense `AᵀA` product.
//!
//! Simple cache-aware loops are sufficient for the dense products in
//! ProNE: each involves at least one small (`d × d` or `n × d`, `d ≤ 256`)
//! operand; the heavy kernel is the *sparse* SpMM in `omega-spmm`. The one
//! product whose every element is a long reduction — the Gram matrix `AᵀA`
//! of a tall `A`, [`gram_threads`](crate::gram_threads) — runs through a
//! 4 × 4 register tile, [`gemm_tn_cols`], which the pooled panels of `par`
//! call.

use crate::matrix::DenseMatrix;
use std::ops::Range;

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

/// Columns `cols` of the Gram matrix `AᵀA` into `out` (column-major,
/// `a.cols()` rows per column), tile by tile, down to the tile that holds
/// each column's diagonal element; the rows below stay as they were. This
/// is the one routine behind [`gram_threads`](crate::gram_threads). A
/// ragged last tile repeats its final column to stay 4 × 4 and drops the
/// copies.
pub(crate) fn gemm_tn_cols(a: &DenseMatrix, cols: Range<usize>, out: &mut [f32]) {
    let m = a.cols();
    for j0 in cols.clone().step_by(TILE) {
        let nj = TILE.min(cols.end - j0);
        let bj = std::array::from_fn(|t| a.col(j0 + t.min(nj - 1)));
        for i0 in (0..m.min(j0 + nj)).step_by(TILE) {
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
    use crate::gemm_threads;

    #[test]
    fn gemm_small_known_product() {
        let a = DenseMatrix::from_row_major(2, 3, &[1., 2., 3., 4., 5., 6.]).unwrap();
        let b = DenseMatrix::from_row_major(3, 2, &[7., 8., 9., 10., 11., 12.]).unwrap();
        let c = gemm_threads(&a, &b, 1).unwrap();
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
        assert_eq!(gemm_threads(&a, &i, 1).unwrap(), a);
        assert_eq!(gemm_threads(&i, &a, 1).unwrap(), a);
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let a = DenseMatrix::from_row_major(3, 2, &[1., 2., 3., 4., 5., 6.]).unwrap();
        let via_t = gemm_threads(&a.transposed(), &a, 1).unwrap();
        let mut direct = DenseMatrix::zeros(2, 2);
        gemm_tn_cols(&a, 0..2, direct.data_mut());
        mirror_upper(&mut direct);
        assert!(direct.max_abs_diff(&via_t) < 1e-5);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(gemm_threads(&a, &b, 1).is_err());
    }
}
