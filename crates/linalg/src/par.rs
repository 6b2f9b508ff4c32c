//! Deterministic parallel dense kernels on the shared [`omega_par`] pool:
//! the one entry point of each dense operation.
//!
//! Every routine here gives the same bits at any thread count, by
//! construction rather than by tolerance:
//!
//! * the work is partitioned over *output elements* only — row panels for
//!   [`gemm_threads`], output-column panels for [`gram_threads`], groups of
//!   four columns for the QR reflector applies — never over a
//!   floating-point reduction, so each output element accumulates in
//!   exactly the order of its one-element definition;
//! * panel sizes are compile-time constants, never derived from the thread
//!   count, so the same panels exist at `threads = 1` and `threads = 8`;
//! * workers only fill private panel buffers; the caller merges them back
//!   in ascending panel order.
//!
//! Inside a task the same rule applies one level down: the tile routine of
//! `AᵀB` and the multi-column Householder reflector run several output
//! elements' chains side by side and leave each chain's order alone.
//!
//! Thread count is therefore a pure wall-clock knob for the training
//! pipeline, exactly as it is for the serving path: simulated clocks and
//! metrics cannot observe it, and the golden-snapshot tests pin that.
//!
//! Every kernel hands the pool its width at every problem size: the pool's
//! per-site cost estimate alone decides whether a call runs inline (one
//! thread, one panel, a tiny inner factorisation) or fans out, and both
//! paths compute identical bits — at width 1 a kernel is the sequential
//! routine.

use crate::gemm::{gemm_tn_cols, mirror_upper};
use crate::matrix::DenseMatrix;
use crate::qr::{apply_reflector, build_q_columns, build_reflector, quads, upper_triangle};
use crate::svd::{svd_jacobi, Svd};
use crate::{LinalgError, Result};

/// Row-panel height of [`gemm_threads`].
const GEMM_PANEL_ROWS: usize = 512;
/// Output-column panel width of the `AᵀB` panels behind [`gram_threads`].
const GEMM_TN_PANEL_COLS: usize = 4;
/// Element count per chunk for the element-wise kernels.
const ELEM_CHUNK: usize = 1 << 15;

/// `C = A · B` on up to `threads` workers, rows of `C` in fixed panels of
/// `GEMM_PANEL_ROWS` (512). Element `(i, j)` is the sequential sum of
/// `a[i, l] · b[l, j]` over ascending `l`, skipping the steps where
/// `b[l, j]` is exactly zero; a panel runs that loop over its row range
/// only, so every thread count gives the same bits.
pub fn gemm_threads(a: &DenseMatrix, b: &DenseMatrix, threads: usize) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = DenseMatrix::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(c);
    }
    let panels = m.div_ceil(GEMM_PANEL_ROWS);
    // Each task fills a private (rows × n) column-major panel buffer,
    // accumulating columns of A scaled by B's entries (axpy formulation).
    let blocks = omega_par::run_labeled("linalg.gemm", threads, panels, |_: &mut (), p| {
        let r0 = p * GEMM_PANEL_ROWS;
        let r1 = (r0 + GEMM_PANEL_ROWS).min(m);
        let rows = r1 - r0;
        let mut buf = vec![0f32; rows * n];
        for j in 0..n {
            let bj = b.col(j);
            let cj = &mut buf[j * rows..(j + 1) * rows];
            for (l, &blj) in bj.iter().enumerate().take(k) {
                if blj == 0.0 {
                    continue;
                }
                let al = &a.col(l)[r0..r1];
                for i in 0..rows {
                    cj[i] += al[i] * blj;
                }
            }
        }
        buf
    });
    // Fixed-order merge: panels scatter back ascending; every element is
    // written exactly once.
    for (p, buf) in blocks.iter().enumerate() {
        let r0 = p * GEMM_PANEL_ROWS;
        let rows = buf.len() / n;
        for j in 0..n {
            c.col_mut(j)[r0..r0 + rows].copy_from_slice(&buf[j * rows..(j + 1) * rows]);
        }
    }
    Ok(c)
}

/// `AᵀB` (`a` and `b` sharing their row count) in output-column panels of
/// [`GEMM_TN_PANEL_COLS`] on the pool, each panel through the tile routine
/// `gemm_tn_cols`; the reduction over the shared rows is never split. With
/// `upper`, only down to each panel's diagonal tile (the rows below stay
/// zero).
fn tn_panels(a: &DenseMatrix, b: &DenseMatrix, threads: usize, upper: bool) -> DenseMatrix {
    let (m, n) = (a.cols(), b.cols());
    let mut c = DenseMatrix::zeros(m, n);
    if m == 0 || n == 0 {
        return c;
    }
    let panels = n.div_ceil(GEMM_TN_PANEL_COLS);
    let blocks = omega_par::run_labeled("linalg.gemm_tn", threads, panels, |_: &mut (), p| {
        let cols = p * GEMM_TN_PANEL_COLS..((p + 1) * GEMM_TN_PANEL_COLS).min(n);
        let mut buf = vec![0f32; m * cols.len()];
        gemm_tn_cols(a, b, cols, upper, &mut buf);
        buf
    });
    for (p, buf) in blocks.iter().enumerate() {
        let at = p * GEMM_TN_PANEL_COLS * m;
        c.data_mut()[at..at + buf.len()].copy_from_slice(buf);
    }
    c
}

/// The Gram matrix `AᵀA` on up to `threads` workers: the panels of the
/// upper triangle on the pool, mirrored by the caller. Only the tiles on
/// and above the diagonal are computed — `x · y` and `y · x` round to the
/// same f32, and element `(j, i)` sums the same products in the same order
/// as `(i, j)` — so the result is the full `AᵀB` with `B = A`, bit for bit.
pub fn gram_threads(a: &DenseMatrix, threads: usize) -> DenseMatrix {
    let mut c = tn_panels(a, a, threads, true);
    mirror_upper(&mut c);
    c
}

/// Element-wise `dst += alpha * src` over fixed chunks on up to `threads`
/// workers. Chunk boundaries are compile-time constants, so every element
/// sees the same one multiply and one add at every thread count.
pub fn axpy_threads(
    dst: &mut DenseMatrix,
    alpha: f32,
    src: &DenseMatrix,
    threads: usize,
) -> Result<()> {
    if dst.shape() != src.shape() {
        return Err(LinalgError::ShapeMismatch {
            left: dst.shape(),
            right: src.shape(),
        });
    }
    let s = src.data();
    let chunks: Vec<&mut [f32]> = dst.data_mut().chunks_mut(ELEM_CHUNK).collect();
    omega_par::for_each_chunk_labeled("linalg.axpy", threads, chunks, |ci, chunk| {
        let base = ci * ELEM_CHUNK;
        let len = chunk.len();
        for (d, &b) in chunk.iter_mut().zip(&s[base..base + len]) {
            *d += alpha * b;
        }
    });
    Ok(())
}

/// Element-wise `m *= alpha` over fixed chunks on up to `threads` workers.
pub fn scale_threads(m: &mut DenseMatrix, alpha: f32, threads: usize) {
    let chunks: Vec<&mut [f32]> = m.data_mut().chunks_mut(ELEM_CHUNK).collect();
    omega_par::for_each_chunk_labeled("linalg.scale", threads, chunks, |_, chunk| {
        for v in chunk.iter_mut() {
            *v *= alpha;
        }
    });
}

/// Thin Householder QR: `(Q, R)` with `Q` of shape `(n, k)` having
/// orthonormal columns and `R` upper-triangular `(k, k)`, such that
/// `A = Q·R`. The per-step trailing-column applies and the final `Q` build
/// fan out over groups of four columns (`quads`); every column is
/// transformed by the same `apply_reflector` arithmetic in the same order
/// whichever task holds it, so the result is bit-identical at every thread
/// count.
pub fn qr_thin_threads(a: &DenseMatrix, threads: usize) -> Result<(DenseMatrix, DenseMatrix)> {
    let (n, k) = a.shape();
    let steps = n.min(k);
    let mut work = a.clone();
    let mut reflectors: Vec<Vec<f32>> = Vec::with_capacity(steps);

    for j in 0..steps {
        // Reflector construction reads one column — inherently sequential
        // across steps.
        let Some(v) = build_reflector(work.col(j), j) else {
            reflectors.push(vec![0.0; n]);
            continue;
        };
        // Trailing columns j..k transform independently.
        let groups: Vec<&mut [f32]> = quads(&mut work.data_mut()[j * n..], n).collect();
        omega_par::for_each_chunk_labeled("linalg.qr", threads, groups, |_, cols| {
            apply_reflector(&v, j, cols)
        });
        reflectors.push(v);
    }

    let r = upper_triangle(&work, steps);
    let mut q = DenseMatrix::zeros(n, k);
    let groups: Vec<&mut [f32]> = quads(q.data_mut(), n).collect();
    omega_par::for_each_chunk_labeled("linalg.qr", threads, groups, |quad, cols| {
        build_q_columns(&reflectors, quad, cols)
    });
    Ok((q, r))
}

/// SVD of a tall matrix via its `n × n` Gram matrix: `AᵀA = V·Σ²·Vᵀ`, then
/// `U = A·V·Σ⁻¹` ([`crate::svd_jacobi`] below 3:1). For `m ≫ n` this
/// replaces Jacobi sweeps over long columns (`O(sweeps·n²·m)`) with one
/// Gram product plus a tiny Jacobi (`O(m·n²)`), at the cost of squaring the
/// condition number — fine for the well-conditioned embedding matrices
/// ProNE decomposes. The two big dense products (the Gram matrix and the
/// `U` recovery) run on the pooled kernels; the tiny `n × n` Jacobi stays
/// sequential. Bit-identical at every thread count.
pub fn svd_tall_threads(a: &DenseMatrix, threads: usize) -> Result<Svd> {
    let (m, n) = a.shape();
    if m < 3 * n || n == 0 {
        return svd_jacobi(a);
    }
    let gram = gram_threads(a, threads);
    let eig = svd_jacobi(&gram)?; // symmetric PSD: U = V, s = sigma^2
    let s: Vec<f32> = eig.s.iter().map(|&x| x.max(0.0).sqrt()).collect();
    let v = eig.u;
    let mut u = gemm_threads(a, &v, threads)?;
    let tol = s.first().copied().unwrap_or(0.0) * 1e-6;
    for (c, &sc) in s.iter().enumerate().take(n) {
        let inv = if sc > tol { 1.0 / sc } else { 0.0 };
        for x in u.col_mut(c) {
            *x *= inv;
        }
    }
    Ok(Svd {
        u,
        s,
        vt: v.transposed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_definition::{gemm_by_definition, gemm_tn_by_definition, qr_by_definition};
    use crate::random::gaussian_matrix;
    use omega_par::{with_dispatch_policy, DispatchPolicy};

    fn assert_bits_eq(a: &DenseMatrix, b: &DenseMatrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    /// `check(threads, label)` at 1, 2 and 8 workers, under the default
    /// dispatch policy (which may keep the call inline) and under
    /// `always_parallel` (which fans out whenever the width allows).
    fn at_every_width(mut check: impl FnMut(usize, &str)) {
        for policy in [DispatchPolicy::default(), DispatchPolicy::always_parallel()] {
            for threads in [1, 2, 8] {
                let what = format!("{policy:?} threads={threads}");
                with_dispatch_policy(policy, || check(threads, &what));
            }
        }
    }

    /// A product over three row panels, the last one ragged, with exact
    /// zeros in `B` (the kernel skips those steps, as the definition does).
    #[test]
    fn blocked_gemm_bit_identical_across_panels_and_threads() {
        let a = gaussian_matrix(2 * GEMM_PANEL_ROWS + 76, 13, 3);
        let mut b = gaussian_matrix(13, 9, 4);
        b.col_mut(5).fill(0.0);
        b[(2, 1)] = 0.0;
        let want = gemm_by_definition(&a, &b);
        at_every_width(|threads, what| {
            assert_bits_eq(&gemm_threads(&a, &b, threads).unwrap(), &want, what);
        });
    }

    /// `AᵀB` with two operands over ragged column panels, and the mirrored
    /// Gram, against the definition.
    #[test]
    fn blocked_gemm_tn_bit_identical() {
        let a = gaussian_matrix(83, 7, 5);
        let b = gaussian_matrix(83, 11, 6);
        let want = gemm_tn_by_definition(&a, &b);
        let want_gram = gemm_tn_by_definition(&b, &b);
        at_every_width(|threads, what| {
            assert_bits_eq(&tn_panels(&a, &b, threads, false), &want, what);
            assert_bits_eq(&gram_threads(&b, threads), &want_gram, what);
        });
    }

    #[test]
    fn degenerate_shapes() {
        // k = 0: the product is all zeros.
        let a = DenseMatrix::zeros(5, 0);
        let b = DenseMatrix::zeros(0, 3);
        let c = gemm_threads(&a, &b, 8).unwrap();
        assert_eq!(c, DenseMatrix::zeros(5, 3));
        // Fewer rows than threads.
        let a = gaussian_matrix(3, 2, 9);
        let b = gaussian_matrix(2, 2, 10);
        assert_bits_eq(
            &gemm_threads(&a, &b, 8).unwrap(),
            &gemm_by_definition(&a, &b),
            "rows < threads",
        );
        // Shape mismatches still rejected.
        assert!(gemm_threads(&DenseMatrix::zeros(2, 3), &DenseMatrix::zeros(2, 3), 2).is_err());
    }

    /// `axpy_threads` and `scale_threads` against the one-element loops, on
    /// part of one chunk, exactly two chunks and three chunks.
    #[test]
    fn elementwise_kernels_bit_identical() {
        for rows in [100, ELEM_CHUNK / 2, 3 * ELEM_CHUNK / 4] {
            let src = gaussian_matrix(rows, 4, 11);
            let start = gaussian_matrix(rows, 4, 12);
            let mut want = start.clone();
            for (x, &y) in want.data_mut().iter_mut().zip(src.data()) {
                *x += 0.37 * y;
            }
            let mut want_scaled = want.clone();
            for x in want_scaled.data_mut() {
                *x *= -1.25;
            }
            at_every_width(|threads, what| {
                let mut got = start.clone();
                axpy_threads(&mut got, 0.37, &src, threads).unwrap();
                assert_bits_eq(&got, &want, &format!("axpy {rows} rows {what}"));
                scale_threads(&mut got, -1.25, threads);
                assert_bits_eq(&got, &want_scaled, &format!("scale {rows} rows {what}"));
            });
        }
        let mut m = DenseMatrix::zeros(2, 2);
        assert!(axpy_threads(&mut m, 1.0, &DenseMatrix::zeros(1, 1), 8).is_err());
    }

    /// The tall SVD from its definition: Jacobi on the Gram matrix, then
    /// `U = A·V·Σ⁻¹` with the negligible singular values cut to zero.
    fn svd_tall_by_definition(a: &DenseMatrix) -> Svd {
        let eig = svd_jacobi(&gemm_tn_by_definition(a, a)).unwrap();
        let s: Vec<f32> = eig.s.iter().map(|&x| x.max(0.0).sqrt()).collect();
        let mut u = gemm_by_definition(a, &eig.u);
        let tol = s[0] * 1e-6;
        for (c, &sc) in s.iter().enumerate() {
            let inv = if sc > tol { 1.0 / sc } else { 0.0 };
            u.col_mut(c).iter_mut().for_each(|x| *x *= inv);
        }
        Svd {
            u,
            s,
            vt: eig.u.transposed(),
        }
    }

    #[test]
    fn parallel_qr_and_svd_bit_identical() {
        let a = gaussian_matrix(600, 24, 21);
        let (want_q, want_r) = qr_by_definition(&a);
        let want = svd_tall_by_definition(&a);
        at_every_width(|threads, what| {
            let (q, r) = qr_thin_threads(&a, threads).unwrap();
            assert_bits_eq(&q, &want_q, &format!("Q {what}"));
            assert_bits_eq(&r, &want_r, &format!("R {what}"));
            let got = svd_tall_threads(&a, threads).unwrap();
            assert_bits_eq(&got.u, &want.u, &format!("svd U {what}"));
            assert_bits_eq(&got.vt, &want.vt, &format!("svd Vt {what}"));
            assert_eq!(got.s, want.s, "svd s {what}");
        });
    }

    /// The pooled kernels match the definitions bit for bit at every width,
    /// whether the pool runs them inline or fans them out, on shapes that
    /// once took a sequential bypass in front of the pool: a tall product
    /// of few flops and a small QR with two column groups.
    #[test]
    fn threads_wrappers_match_sequential() {
        let products = [(300, 40, 24), (600, 2, 3)].map(|(m, k, n)| {
            let (a, b) = (gaussian_matrix(m, k, 7), gaussian_matrix(k, n, 8));
            let want = gemm_by_definition(&a, &b);
            (a, b, want)
        });
        let tall = gaussian_matrix(200, 6, 33);
        let (want_q, want_r) = qr_by_definition(&tall);
        at_every_width(|threads, what| {
            for (a, b, want) in &products {
                assert_bits_eq(&gemm_threads(a, b, threads).unwrap(), want, what);
            }
            let (q, r) = qr_thin_threads(&tall, threads).unwrap();
            assert_bits_eq(&q, &want_q, what);
            assert_bits_eq(&r, &want_r, what);
        });
    }
}
