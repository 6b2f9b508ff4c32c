//! Thin Householder QR for tall-skinny matrices.
//!
//! Randomized truncated SVD (Halko et al., the t-SVD inside ProNE) needs the
//! orthonormal range basis `Q` of an `n × k` sample matrix with `n ≫ k`;
//! Householder reflections give that stably in `O(n·k²)`. The steps are
//! here; [`qr_thin_threads`](crate::qr_thin_threads) runs them on the pool.

use crate::matrix::DenseMatrix;
use crate::ops::norm2;

/// The unit Householder vector that zeroes `col` below row `j` (length
/// `col.len()`, zero above the pivot), or `None` when the column is already
/// zero from the pivot down and the step's reflector is the identity.
pub(crate) fn build_reflector(col: &[f32], j: usize) -> Option<Vec<f32>> {
    let mut v: Vec<f32> = vec![0.0; col.len()];
    v[j..].copy_from_slice(&col[j..]);
    let alpha = -v[j].signum() * norm2(&v[j..]);
    if alpha == 0.0 {
        return None;
    }
    v[j] -= alpha;
    let vnorm = norm2(&v[j..]);
    if vnorm > 0.0 {
        for x in &mut v[j..] {
            *x /= vnorm;
        }
    }
    Some(v)
}

/// `R`: the leading `k × k` upper triangle of the transformed workspace.
pub(crate) fn upper_triangle(work: &DenseMatrix, steps: usize) -> DenseMatrix {
    let k = work.cols();
    let mut r = DenseMatrix::zeros(k, k);
    for c in 0..k {
        let rows = (c + 1).min(steps);
        r.col_mut(c)[..rows].copy_from_slice(&work.col(c)[..rows]);
    }
    r
}

/// Columns one projection pass of [`apply_reflector`] carries side by side.
const REFLECT_COLS: usize = 4;

/// A column-major buffer of `n`-long columns in groups of [`REFLECT_COLS`]:
/// the unit of work of the parallel QR and of [`build_q_columns`].
pub(crate) fn quads(cols: &mut [f32], n: usize) -> std::slice::ChunksMut<'_, f32> {
    cols.chunks_mut((REFLECT_COLS * n).max(1))
}

/// Group `quad` of the columns of `Q = H_0 H_1 … H_{s−1} · I` into the
/// zeroed `cols`:
/// `e_c` per column, then the reflectors in reverse order — starting at the
/// group's last column, not at `s − 1`. Reflector `j` is zero above row
/// `j`, so its projection of `e_c` is exactly zero for every `c < j` and
/// [`apply_reflector`] skips the update: the applies left out here change
/// nothing. That holds for finite input only. A non-finite entry makes
/// `0 · v[i]` NaN; the full loop would then spread one poisoned reflector
/// into every column of `Q`, where this one leaves the column groups before
/// it finite. The basis is unusable either way and still says so, from the
/// poisoned column on.
pub(crate) fn build_q_columns(reflectors: &[Vec<f32>], quad: usize, cols: &mut [f32]) {
    let first = quad * REFLECT_COLS;
    let n = reflectors[0].len();
    let count = cols.len() / n;
    for (c, col) in cols.chunks_exact_mut(n).enumerate() {
        if let Some(one) = col.get_mut(first + c) {
            *one = 1.0;
        }
    }
    let last = (first + count - 1).min(reflectors.len() - 1);
    for (j, v) in reflectors[..=last].iter().enumerate().rev() {
        apply_reflector(v, j, cols);
    }
}

/// Apply `H = I − 2vvᵀ` (with `v` zero before `from`) in place to every
/// `v.len()`-long column of `cols`. Each column gets exactly the arithmetic
/// of a one-column apply — its own sequential projection `Σ v[i] · x[i]`,
/// the exact-zero early-out, its own update — so how columns are grouped
/// changes no bit; [`REFLECT_COLS`] projections at a time merely run as
/// independent chains over one load of `v`. The one reflector routine of
/// [`crate::qr_thin_threads`], which is what makes it bit-identical at
/// every width.
#[inline]
pub(crate) fn apply_reflector(v: &[f32], from: usize, cols: &mut [f32]) {
    let n = v.len();
    if n == 0 {
        return;
    }
    let v = &v[from..];
    let mut quads = cols.chunks_exact_mut(REFLECT_COLS * n);
    for quad in &mut quads {
        let mut columns = quad.chunks_exact_mut(n);
        reflect::<REFLECT_COLS>(
            v,
            std::array::from_fn(|_| &mut columns.next().expect("four columns")[from..]),
        );
    }
    for col in quads.into_remainder().chunks_exact_mut(n) {
        reflect(v, [&mut col[from..]]);
    }
}

#[inline]
fn reflect<const Q: usize>(v: &[f32], cols: [&mut [f32]; Q]) {
    let mut proj = [0f32; Q];
    {
        let cols: [&[f32]; Q] = std::array::from_fn(|q| &cols[q][..v.len()]);
        for (i, &vi) in v.iter().enumerate() {
            for q in 0..Q {
                proj[q] += vi * cols[q][i];
            }
        }
    }
    for (x, proj) in cols.into_iter().zip(proj) {
        if proj == 0.0 {
            continue;
        }
        let proj2 = 2.0 * proj;
        for (xi, &vi) in x.iter_mut().zip(v) {
            *xi -= proj2 * vi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::gaussian_matrix;
    use crate::{gemm_threads, gram_threads, qr_thin_threads};

    fn assert_orthonormal(q: &DenseMatrix, tol: f32) {
        let gram = gram_threads(q, 1);
        let eye = DenseMatrix::identity(q.cols());
        assert!(
            gram.max_abs_diff(&eye) < tol,
            "QtQ deviates from I by {}",
            gram.max_abs_diff(&eye)
        );
    }

    #[test]
    fn reconstructs_a_from_qr() {
        let a = gaussian_matrix(20, 5, 17);
        let (q, r) = qr_thin_threads(&a, 1).unwrap();
        assert_eq!(q.shape(), (20, 5));
        assert_eq!(r.shape(), (5, 5));
        assert_orthonormal(&q, 1e-4);
        let back = gemm_threads(&q, &r, 1).unwrap();
        assert!(back.max_abs_diff(&a) < 1e-4);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = gaussian_matrix(10, 4, 3);
        let (_, r) = qr_thin_threads(&a, 1).unwrap();
        for c in 0..4 {
            for row in c + 1..4 {
                assert_eq!(r[(row, c)], 0.0);
            }
        }
    }

    #[test]
    fn handles_rank_deficiency() {
        // Two identical columns: QR still produces an orthonormal Q and a
        // reconstruction of A.
        let mut a = DenseMatrix::zeros(6, 2);
        for i in 0..6 {
            a[(i, 0)] = (i + 1) as f32;
            a[(i, 1)] = (i + 1) as f32;
        }
        let (q, r) = qr_thin_threads(&a, 1).unwrap();
        let back = gemm_threads(&q, &r, 1).unwrap();
        assert!(back.max_abs_diff(&a) < 1e-4);
        // Rank 1: second diagonal entry of R vanishes.
        assert!(r[(1, 1)].abs() < 1e-4);
    }

    #[test]
    fn square_and_identity_inputs() {
        let i = DenseMatrix::identity(4);
        let (q, r) = qr_thin_threads(&i, 1).unwrap();
        assert_orthonormal(&q, 1e-5);
        let back = gemm_threads(&q, &r, 1).unwrap();
        assert!(back.max_abs_diff(&i) < 1e-5);
    }

    #[test]
    fn zero_matrix() {
        let z = DenseMatrix::zeros(5, 2);
        let (q, r) = qr_thin_threads(&z, 1).unwrap();
        let back = gemm_threads(&q, &r, 1).unwrap();
        assert!(back.max_abs_diff(&z) < 1e-6);
    }
}
