//! Deterministic parallel dense kernels on the shared [`omega_par`] pool.
//!
//! Every routine here is **bit-identical** to its sequential counterpart at
//! any thread count, by construction rather than by tolerance:
//!
//! * the work is partitioned over *output elements* only — row panels for
//!   [`gemm_blocked`], output-column panels for [`gemm_tn_blocked`] and
//!   [`gram_threads`], groups of four columns for the QR reflector applies
//!   — never over a floating-point reduction, so each output element
//!   accumulates in exactly the order the sequential loop uses;
//! * panel boundaries are fixed by the caller (or a compile-time default),
//!   never derived from the thread count, so the same panels exist at
//!   `threads = 1` and `threads = 8`;
//! * workers only fill private panel buffers; the caller merges them back
//!   in ascending panel order.
//!
//! Inside a task the same rule applies one level down: the tile routine of
//! `gemm_tn` and the multi-column reflector of `qr_thin` (both shared with
//! the sequential entry points, not re-implemented here) run several output
//! elements' chains side by side and leave each chain's order alone.
//!
//! Thread count is therefore a pure wall-clock knob for the training
//! pipeline, exactly as it is for the serving path: simulated clocks and
//! metrics cannot observe it, and the golden-snapshot tests pin that.
//!
//! Small problems bypass the pool entirely (the dispatch decision depends
//! only on operand shapes, and both paths compute identical bits), so the
//! sequential configuration and tiny inner factorisations pay no spawn
//! overhead.

use crate::gemm::{gemm, gemm_tn_cols, gram, mirror_upper};
use crate::matrix::DenseMatrix;
use crate::qr::{apply_reflector, build_q_columns, build_reflector, quads, upper_triangle};
use crate::svd::{svd_jacobi, Svd};
use crate::{LinalgError, Result};

/// Default row-panel height for [`gemm_blocked`].
pub(crate) const GEMM_PANEL_ROWS: usize = 512;
/// Default output-column panel width for [`gemm_tn_blocked`].
pub(crate) const GEMM_TN_PANEL_COLS: usize = 4;
/// Element count per chunk for the element-wise kernels.
const ELEM_CHUNK: usize = 1 << 15;
/// Flop count below which the blocked GEMMs run the plain sequential loop.
const GEMM_SEQ_FLOPS: usize = 1 << 20;
/// Element count below which the QR column fan-outs stay inline.
const QR_SEQ_ELEMS: usize = 1 << 14;

/// `C = A · B` with rows of `C` computed in fixed panels of `panel_rows`
/// on up to `threads` workers. Bit-identical to [`gemm`] for every panel
/// size and thread count: a panel kernel runs the sequential loop
/// restricted to its row range, which preserves each element's
/// accumulation order exactly.
pub fn gemm_blocked(
    a: &DenseMatrix,
    b: &DenseMatrix,
    threads: usize,
    panel_rows: usize,
) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let panel_rows = panel_rows.max(1);
    let panels = m.div_ceil(panel_rows.min(m.max(1)));
    let mut c = DenseMatrix::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(c);
    }
    // Each task fills a private (rows × n) column-major panel buffer with
    // the same axpy-formulated loop `gemm` uses, over its row range only.
    let blocks = omega_par::run_labeled("linalg.gemm", threads, panels, |_: &mut (), p| {
        let r0 = p * panel_rows;
        let r1 = ((p + 1) * panel_rows).min(m);
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
        let r0 = p * panel_rows;
        let rows = buf.len() / n;
        for j in 0..n {
            c.col_mut(j)[r0..r0 + rows].copy_from_slice(&buf[j * rows..(j + 1) * rows]);
        }
    }
    Ok(c)
}

/// `C = Aᵀ · B` with output columns computed in fixed panels of
/// `panel_cols`. The reduction over `A`'s rows is never split, so every
/// element accumulates exactly as in [`gemm_tn`](crate::gemm_tn).
pub fn gemm_tn_blocked(
    a: &DenseMatrix,
    b: &DenseMatrix,
    threads: usize,
    panel_cols: usize,
) -> Result<DenseMatrix> {
    if a.rows() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    Ok(tn_panels(a, b, threads, panel_cols, false))
}

/// `AᵀB` by column panels on the pool, each panel through the tile routine
/// of [`gemm_tn`](crate::gemm_tn); with `upper`, only down to each panel's diagonal tile
/// (the rows below stay zero).
fn tn_panels(
    a: &DenseMatrix,
    b: &DenseMatrix,
    threads: usize,
    panel_cols: usize,
    upper: bool,
) -> DenseMatrix {
    let (m, n) = (a.cols(), b.cols());
    let panel_cols = panel_cols.max(1);
    let panels = n.div_ceil(panel_cols.min(n.max(1)));
    let mut c = DenseMatrix::zeros(m, n);
    if m == 0 || n == 0 {
        return c;
    }
    let blocks = omega_par::run_labeled("linalg.gemm_tn", threads, panels, |_: &mut (), p| {
        let cols = p * panel_cols..((p + 1) * panel_cols).min(n);
        let mut buf = vec![0f32; m * cols.len()];
        gemm_tn_cols(a, b, cols, upper, &mut buf);
        buf
    });
    for (p, buf) in blocks.iter().enumerate() {
        let at = p * panel_cols * m;
        c.data_mut()[at..at + buf.len()].copy_from_slice(buf);
    }
    c
}

/// [`gemm`] that fans out on `threads` workers when the product is large
/// enough to amortise the spawn, at the default panel height.
pub fn gemm_threads(a: &DenseMatrix, b: &DenseMatrix, threads: usize) -> Result<DenseMatrix> {
    if threads <= 1 || 2 * a.rows() * a.cols() * b.cols() < GEMM_SEQ_FLOPS {
        return omega_par::record_seq("linalg.gemm", || gemm(a, b));
    }
    gemm_blocked(a, b, threads, GEMM_PANEL_ROWS)
}

/// [`gram`] that fans out on `threads` workers when large enough: panels
/// of the upper triangle on the pool, mirrored by the caller.
pub fn gram_threads(a: &DenseMatrix, threads: usize) -> DenseMatrix {
    if threads <= 1 || 2 * a.rows() * a.cols() * a.cols() < GEMM_SEQ_FLOPS {
        return omega_par::record_seq("linalg.gemm_tn", || gram(a));
    }
    let mut c = tn_panels(a, a, threads, GEMM_TN_PANEL_COLS, true);
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
    if threads <= 1 || dst.data().len() < 2 * ELEM_CHUNK {
        return omega_par::record_seq("linalg.axpy", || dst.axpy(alpha, src));
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
    if threads <= 1 || m.data().len() < 2 * ELEM_CHUNK {
        omega_par::record_seq("linalg.scale", || m.scale(alpha));
        return;
    }
    let chunks: Vec<&mut [f32]> = m.data_mut().chunks_mut(ELEM_CHUNK).collect();
    omega_par::for_each_chunk_labeled("linalg.scale", threads, chunks, |_, chunk| {
        for v in chunk.iter_mut() {
            *v *= alpha;
        }
    });
}

/// Thin Householder QR with the per-step trailing-column applies and the
/// final Q build fanned out over groups of four columns (`quads`). Each
/// column is transformed by exactly the same `apply_reflector`
/// arithmetic, in the same order, as in [`crate::qr_thin`] — columns are
/// independent, so the result is bit-identical at every thread count.
pub fn qr_thin_threads(a: &DenseMatrix, threads: usize) -> Result<(DenseMatrix, DenseMatrix)> {
    let (n, k) = a.shape();
    if threads <= 1 || n * k < QR_SEQ_ELEMS {
        return omega_par::record_seq("linalg.qr", || crate::qr_thin(a));
    }
    let steps = n.min(k);
    let mut work = a.clone();
    let mut reflectors: Vec<Vec<f32>> = Vec::with_capacity(steps);

    for j in 0..steps {
        // Reflector construction reads one column — inherently sequential
        // across steps, identical to the reference implementation.
        let Some(v) = build_reflector(work.col(j), j) else {
            reflectors.push(vec![0.0; n]);
            continue;
        };
        // Trailing columns j..k transform independently; fan them out when
        // the step still carries enough work.
        let trailing = &mut work.data_mut()[j * n..];
        if (k - j) * (n - j) >= QR_SEQ_ELEMS {
            let groups: Vec<&mut [f32]> = quads(trailing, n).collect();
            omega_par::for_each_chunk_labeled("linalg.qr", threads, groups, |_, cols| {
                apply_reflector(&v, j, cols)
            });
        } else {
            omega_par::record_seq("linalg.qr", || apply_reflector(&v, j, trailing));
        }
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

/// [`crate::svd_tall`] with its two big dense products (the `n × n` Gram
/// matrix and the `U` recovery) running on the blocked parallel GEMMs. The
/// tiny `n × n` Jacobi stays sequential. Bit-identical to the sequential
/// routine at every thread count.
pub fn svd_tall_threads(a: &DenseMatrix, threads: usize) -> Result<Svd> {
    let (m, n) = a.shape();
    if m < 3 * n || n == 0 {
        return omega_par::record_seq("linalg.svd_jacobi", || svd_jacobi(a));
    }
    let gram = gram_threads(a, threads);
    let eig = omega_par::record_seq("linalg.svd_jacobi", || svd_jacobi(&gram))?;
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
    use crate::random::gaussian_matrix;
    use crate::{gemm_tn, svd_tall};

    fn assert_bits_eq(a: &DenseMatrix, b: &DenseMatrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_gemm_bit_identical_across_panels_and_threads() {
        let a = gaussian_matrix(97, 13, 3);
        let b = gaussian_matrix(13, 9, 4);
        let want = gemm(&a, &b).unwrap();
        for panel in [1, 2, 7, 64, 512] {
            for threads in [1, 2, 8] {
                let got = gemm_blocked(&a, &b, threads, panel).unwrap();
                assert_bits_eq(&got, &want, &format!("panel={panel} threads={threads}"));
            }
        }
    }

    #[test]
    fn blocked_gemm_tn_bit_identical() {
        let a = gaussian_matrix(83, 7, 5);
        let b = gaussian_matrix(83, 11, 6);
        let want = gemm_tn(&a, &b).unwrap();
        for panel in [1, 3, 16] {
            for threads in [1, 2, 8] {
                let got = gemm_tn_blocked(&a, &b, threads, panel).unwrap();
                assert_bits_eq(&got, &want, &format!("panel={panel} threads={threads}"));
            }
        }
    }

    #[test]
    fn degenerate_shapes() {
        // k = 0: the product is all zeros, at every partition.
        let a = DenseMatrix::zeros(5, 0);
        let b = DenseMatrix::zeros(0, 3);
        let c = gemm_blocked(&a, &b, 8, 2).unwrap();
        assert_eq!(c, DenseMatrix::zeros(5, 3));
        // Fewer rows than threads.
        let a = gaussian_matrix(3, 2, 9);
        let b = gaussian_matrix(2, 2, 10);
        assert_bits_eq(
            &gemm_blocked(&a, &b, 8, 1).unwrap(),
            &gemm(&a, &b).unwrap(),
            "rows < threads",
        );
        // Shape mismatches still rejected.
        assert!(gemm_blocked(&DenseMatrix::zeros(2, 3), &DenseMatrix::zeros(2, 3), 2, 4).is_err());
        assert!(
            gemm_tn_blocked(&DenseMatrix::zeros(2, 3), &DenseMatrix::zeros(3, 1), 2, 4).is_err()
        );
    }

    #[test]
    fn elementwise_kernels_bit_identical() {
        // Above the chunk threshold so the parallel path actually runs.
        let rows = 3 * ELEM_CHUNK / 4;
        let src = gaussian_matrix(rows, 4, 11);
        let mut seq = gaussian_matrix(rows, 4, 12);
        let mut par = seq.clone();
        seq.axpy(0.37, &src).unwrap();
        axpy_threads(&mut par, 0.37, &src, 8).unwrap();
        assert_bits_eq(&par, &seq, "axpy");
        seq.scale(-1.25);
        scale_threads(&mut par, -1.25, 8);
        assert_bits_eq(&par, &seq, "scale");
        assert!(axpy_threads(&mut par, 1.0, &DenseMatrix::zeros(1, 1), 8).is_err());
    }

    #[test]
    fn parallel_qr_and_svd_bit_identical() {
        let a = gaussian_matrix(600, 24, 21);
        let (q1, r1) = crate::qr_thin(&a).unwrap();
        for threads in [1, 2, 8] {
            let (q, r) = qr_thin_threads(&a, threads).unwrap();
            assert_bits_eq(&q, &q1, &format!("Q threads={threads}"));
            assert_bits_eq(&r, &r1, &format!("R threads={threads}"));
        }
        let want = svd_tall(&a).unwrap();
        for threads in [1, 2, 8] {
            let got = svd_tall_threads(&a, threads).unwrap();
            assert_bits_eq(&got.u, &want.u, "svd U");
            assert_bits_eq(&got.vt, &want.vt, "svd Vt");
            assert_eq!(got.s, want.s);
        }
    }

    #[test]
    fn threads_wrappers_match_sequential() {
        let a = gaussian_matrix(300, 40, 7);
        let b = gaussian_matrix(40, 24, 8);
        assert_bits_eq(
            &gemm_threads(&a, &b, 8).unwrap(),
            &gemm(&a, &b).unwrap(),
            "gemm_threads",
        );
    }
}
