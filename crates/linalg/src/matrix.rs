//! Column-major dense matrices.
//!
//! Column-major is the paper's storage order for the dense operand and the
//! result matrix of SpMM (Algorithm 1 walks one column of `B` at a time and
//! writes `C` column-by-column), so the whole stack standardises on it.

use crate::{LinalgError, Result};
use std::ops::Range;

/// A dense `rows × cols` matrix of `f32`, stored column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Wrap a column-major buffer.
    pub(crate) fn from_column_major(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Build from a row-major buffer (transposing into column-major).
    pub fn from_row_major(rows: usize, cols: usize, data: &[f32]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        // The buffer is a column-major `cols × rows` matrix; its transpose
        // is the matrix asked for.
        let mut m = Self::zeros(rows, cols);
        transpose_tiles(data, cols, 0..cols, rows, &mut m.data, rows);
        Ok(m)
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Column `c` as a slice (contiguous in column-major).
    #[inline]
    pub fn col(&self, c: usize) -> &[f32] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutable column.
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [f32] {
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutable columns `cols`, one slice each, in order.
    #[inline]
    pub fn cols_mut(&mut self, cols: Range<usize>) -> std::slice::ChunksExactMut<'_, f32> {
        let rows = self.rows;
        self.data[cols.start * rows..cols.end * rows].chunks_exact_mut(rows.max(1))
    }

    /// Row `r` copied out (strided in column-major).
    pub fn row_copied(&self, r: usize) -> Vec<f32> {
        (0..self.cols).map(|c| self[(r, c)]).collect()
    }

    /// Raw column-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Transposed copy: the row-major form of `self`, read as column-major.
    pub fn transposed(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        self.pack_rows(0..self.rows, 0..self.cols, self.cols, &mut t.data);
        t
    }

    /// Convert to a row-major buffer (used to hand embeddings back in the
    /// conventional per-node layout). Still the element-wise walk, not
    /// [`Self::pack_rows`]: this is all of `Embedding::from_matrix`, which
    /// is a third of the serve workloads' timed set-up in the benchmark of
    /// record, and how many set-ups that benchmark repeats — and with it
    /// the allocator's high-water mark it reports — depends on how long
    /// one takes (CHANGES.md, PR 20). It moves with the benchmark.
    pub fn to_row_major(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.rows * self.cols];
        for c in 0..self.cols {
            for r in 0..self.rows {
                out[r * self.cols + c] = self[(r, c)];
            }
        }
        out
    }

    /// Copy the `rows × cols` block into `out` row-major, `stride` floats
    /// per row (`stride ≥ cols.len()`; what lies past a row's last column
    /// is left as the caller set it): the one blocked transpose, behind
    /// [`Self::from_row_major`], [`Self::transposed`] and the SpMM operand
    /// panel.
    pub fn pack_rows(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
        stride: usize,
        out: &mut [f32],
    ) {
        assert!(rows.end <= self.rows && cols.end <= self.cols && cols.len() <= stride);
        let block = &self.data[cols.start * self.rows..cols.end * self.rows];
        transpose_tiles(block, self.rows, rows, cols.len(), out, stride);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute element difference to another matrix.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Take a contiguous block of columns as a new matrix.
    pub fn columns(&self, range: Range<usize>) -> DenseMatrix {
        let data = self.data[range.start * self.rows..range.end * self.rows].to_vec();
        DenseMatrix {
            rows: self.rows,
            cols: range.len(),
            data,
        }
    }

    /// Payload bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }
}

/// Edge of the square tiles [`transpose_tiles`] copies by: 32 × 32 f32 is
/// two cache lines per tile row on the side read and on the side written,
/// so a tile's 128 lines sit in L1 while it is turned.
const TRANSPOSE_TILE: usize = 32;

/// `dst[(r − rows.start) · dst_ld + c] = src[c · src_ld + r]` for `r` in
/// `rows` and `c < cols`: rows `rows` of a column-major block with leading
/// dimension `src_ld`, written row-major with leading dimension `dst_ld`.
/// Tiled on both axes so neither a tall nor a wide operand is walked with a
/// cache-line stride.
fn transpose_tiles(
    src: &[f32],
    src_ld: usize,
    rows: Range<usize>,
    cols: usize,
    dst: &mut [f32],
    dst_ld: usize,
) {
    for r0 in rows.clone().step_by(TRANSPOSE_TILE) {
        let r1 = (r0 + TRANSPOSE_TILE).min(rows.end);
        let dst_rows = &mut dst[(r0 - rows.start) * dst_ld..];
        for c0 in (0..cols).step_by(TRANSPOSE_TILE) {
            for c in c0..(c0 + TRANSPOSE_TILE).min(cols) {
                let col = &src[c * src_ld + r0..c * src_ld + r1];
                for (i, &x) in col.iter().enumerate() {
                    dst_rows[i * dst_ld + c] = x;
                }
            }
        }
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[c * self.rows + r]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[c * self.rows + r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_column_major() {
        let m = DenseMatrix::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.col(0), &[1.0, 4.0]);
        assert_eq!(m.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(m.row_copied(1), vec![4.0, 5.0, 6.0]);
        assert_eq!(m.to_row_major(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn construction_validates_length() {
        assert!(DenseMatrix::from_column_major(2, 2, vec![0.0; 3]).is_err());
        assert!(DenseMatrix::from_row_major(2, 2, &[0.0; 5]).is_err());
    }

    #[test]
    fn identity_and_transpose() {
        let i = DenseMatrix::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let m = DenseMatrix::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = m.transposed();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transposed(), m);
    }

    /// Shapes that straddle the transpose tile on either axis, against the
    /// element-wise definition — including a strided, offset `pack_rows`.
    #[test]
    fn blocked_transposes_match_the_definition() {
        for (rows, cols) in [(0, 3), (3, 0), (1, 1), (33, 5), (5, 33), (70, 67)] {
            let data: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
            let m = DenseMatrix::from_column_major(rows, cols, data).unwrap();
            let rm = m.to_row_major();
            let t = m.transposed();
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(rm[r * cols + c], m[(r, c)]);
                    assert_eq!(t[(c, r)], m[(r, c)]);
                }
            }
            assert_eq!(DenseMatrix::from_row_major(rows, cols, &rm).unwrap(), m);
        }
        let m =
            DenseMatrix::from_column_major(70, 9, (0..630).map(|i| i as f32).collect()).unwrap();
        let (rows, cols, stride) = (31..69, 2..7, 8);
        let mut out = vec![-1f32; rows.len() * stride];
        m.pack_rows(rows.clone(), cols.clone(), stride, &mut out);
        for (i, row) in out.chunks_exact(stride).enumerate() {
            for (j, &x) in row.iter().enumerate() {
                let want = if j < cols.len() {
                    m[(rows.start + i, cols.start + j)]
                } else {
                    -1.0
                };
                assert_eq!(x, want, "row {i} col {j}");
            }
        }
    }

    #[test]
    fn axpy_and_scale() {
        use crate::{axpy_threads, scale_threads};
        let mut a = DenseMatrix::identity(2);
        let b = DenseMatrix::identity(2);
        axpy_threads(&mut a, 2.0, &b, 1).unwrap();
        assert_eq!(a[(0, 0)], 3.0);
        scale_threads(&mut a, 0.5, 1);
        assert_eq!(a[(1, 1)], 1.5);
        let c = DenseMatrix::zeros(3, 2);
        assert!(axpy_threads(&mut a, 1.0, &c, 1).is_err());
    }

    #[test]
    fn norms_and_diffs() {
        let m = DenseMatrix::from_row_major(1, 2, &[3.0, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        let z = DenseMatrix::zeros(1, 2);
        assert_eq!(m.max_abs_diff(&z), 4.0);
    }

    #[test]
    fn column_blocks() {
        let m = DenseMatrix::from_row_major(2, 4, &[1., 2., 3., 4., 5., 6., 7., 8.]).unwrap();
        let left = m.columns(0..2);
        let right = m.columns(2..4);
        assert_eq!(left.shape(), (2, 2));
        assert_eq!(right[(0, 0)], 3.0);
        assert_eq!(right[(1, 1)], 8.0);
    }

    #[test]
    fn size_bytes() {
        assert_eq!(DenseMatrix::zeros(4, 4).size_bytes(), 64);
    }
}
