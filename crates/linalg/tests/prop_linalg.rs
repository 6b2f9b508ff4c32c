//! Property-based tests of the dense linear-algebra substrate.

use omega_linalg::{
    gaussian_matrix, gemm, gemm_blocked, gemm_tn, gemm_tn_blocked, gram, gram_threads, qr_thin,
    qr_thin_threads, svd_jacobi, DenseMatrix,
};
use proptest::prelude::*;

fn arb_tall() -> impl Strategy<Value = DenseMatrix> {
    (2usize..24, 1usize..8, any::<u64>()).prop_map(|(m, k, seed)| {
        let k = k.min(m);
        gaussian_matrix(m, k, seed)
    })
}

/// Ragged GEMM operand pairs: shapes deliberately include rows < threads,
/// single rows/columns, and `k = 0` (empty inner dimension).
fn arb_gemm_pair() -> impl Strategy<Value = (DenseMatrix, DenseMatrix)> {
    (1usize..40, 0usize..12, 1usize..10, any::<u64>()).prop_map(|(m, k, n, seed)| {
        (
            gaussian_matrix(m, k, seed),
            gaussian_matrix(k, n, seed.wrapping_add(1)),
        )
    })
}

fn assert_bits_equal(
    a: &DenseMatrix,
    b: &DenseMatrix,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape());
    for (x, y) in a.data().iter().zip(b.data()) {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
    }
    Ok(())
}

/// `AᵀB` transcribed from its definition: one accumulator per element,
/// summed over the shared dimension in order.
fn gemm_tn_by_definition(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut c = DenseMatrix::zeros(a.cols(), b.cols());
    for j in 0..b.cols() {
        for i in 0..a.cols() {
            let mut acc = 0f32;
            for l in 0..a.rows() {
                acc += a[(l, i)] * b[(l, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// Householder QR transcribed from its definition: every reflector applied
/// to one column at a time, `Q` built by applying all of them, last first,
/// to every identity column.
fn qr_by_definition(a: &DenseMatrix) -> (DenseMatrix, DenseMatrix) {
    fn reflect(v: &[f32], from: usize, x: &mut [f32]) {
        let mut proj = 0f32;
        for i in from..x.len() {
            proj += v[i] * x[i];
        }
        if proj == 0.0 {
            return;
        }
        let proj2 = 2.0 * proj;
        for i in from..x.len() {
            x[i] -= proj2 * v[i];
        }
    }
    let norm = |x: &[f32]| x.iter().map(|&v| v * v).sum::<f32>().sqrt();
    let (n, k) = a.shape();
    let mut work = a.clone();
    let mut reflectors = Vec::new();
    for j in 0..n.min(k) {
        let mut v = vec![0f32; n];
        v[j..].copy_from_slice(&work.col(j)[j..]);
        let alpha = -v[j].signum() * norm(&v[j..]);
        if alpha != 0.0 {
            v[j] -= alpha;
            let vnorm = norm(&v[j..]);
            if vnorm > 0.0 {
                v[j..].iter_mut().for_each(|x| *x /= vnorm);
            }
            for c in j..k {
                reflect(&v, j, work.col_mut(c));
            }
        } else {
            v.fill(0.0);
        }
        reflectors.push(v);
    }
    let mut r = DenseMatrix::zeros(k, k);
    let mut q = DenseMatrix::zeros(n, k);
    for c in 0..k {
        for row in 0..(c + 1).min(n) {
            r[(row, c)] = work[(row, c)];
        }
        if c < n {
            q[(c, c)] = 1.0;
        }
        for (j, v) in reflectors.iter().enumerate().rev() {
            reflect(v, j, q.col_mut(c));
        }
    }
    (q, r)
}

/// The quad-column reflectors against the one-column definition, bit for
/// bit, on shapes past the pool cut-off: a column count that is not a
/// multiple of four, a zero column (its step's reflector is the identity)
/// and 1, 2 and 8 workers.
#[test]
fn quad_reflectors_match_the_definition_bitwise() {
    for (n, k, zero_col) in [(1_500, 13, Some(5)), (1_400, 12, None), (2_100, 9, Some(0))] {
        let mut a = gaussian_matrix(n, k, (n + k) as u64);
        if let Some(c) = zero_col {
            a.col_mut(c).fill(0.0);
        }
        let (q, r) = qr_by_definition(&a);
        let bits = |m: &DenseMatrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (qs, rs) = qr_thin(&a).unwrap();
        assert_eq!((bits(&qs), bits(&rs)), (bits(&q), bits(&r)), "{n}x{k}");
        for threads in [1, 2, 8] {
            let (qt, rt) = qr_thin_threads(&a, threads).unwrap();
            assert_eq!(
                (bits(&qt), bits(&rt)),
                (bits(&q), bits(&r)),
                "{n}x{k}, {threads} threads"
            );
        }
    }
}

/// The finite-input caveat of the shortened `Q` build: a non-finite entry
/// still surfaces in `Q` — in every column from the poisoned one on — it
/// just no longer spreads back into the column groups before it.
#[test]
fn non_finite_input_still_poisons_q() {
    let mut a = gaussian_matrix(1_500, 13, 3);
    a[(700, 6)] = f32::NAN;
    let (seq, _) = qr_thin(&a).unwrap();
    let (par, _) = qr_thin_threads(&a, 2).unwrap();
    for q in [seq, par] {
        for c in 6..13 {
            assert!(q.col(c).iter().any(|x| x.is_nan()), "column {c}");
        }
        assert!(q.col(0).iter().all(|x| x.is_finite()));
    }
}

/// The pooled Gram is the definition's `AᵀA`, bit for bit, past the
/// sequential cut-off and with a ragged last tile.
#[test]
fn pooled_gram_matches_the_definition_bitwise() {
    let a = gaussian_matrix(700, 30, 11);
    let want = gemm_tn_by_definition(&a, &a);
    for threads in [1, 2, 8] {
        let got = gram_threads(&a, threads);
        assert_eq!(got.shape(), want.shape());
        for (x, y) in got.data().iter().zip(want.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{threads} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The register-tiled `AᵀB` and the mirrored Gram are the definition,
    /// bit for bit, on shapes with `m`, `n` on every side of the 4-wide
    /// tile and an empty shared dimension.
    #[test]
    fn tiled_gemm_tn_and_gram_match_the_definition(
        k in 0usize..40,
        m in 0usize..11,
        n in 0usize..11,
        seed in any::<u64>(),
    ) {
        let a = gaussian_matrix(k, m, seed);
        let b = gaussian_matrix(k, n, seed.wrapping_add(1));
        assert_bits_equal(&gemm_tn(&a, &b).unwrap(), &gemm_tn_by_definition(&a, &b))?;
        assert_bits_equal(&gram(&a), &gemm_tn_by_definition(&a, &a))?;
    }

    /// QR reconstructs A and produces an orthonormal Q for any tall matrix.
    #[test]
    fn qr_reconstructs(a in arb_tall()) {
        let (q, r) = qr_thin(&a).unwrap();
        let back = gemm(&q, &r).unwrap();
        let scale = a.frobenius_norm().max(1.0);
        prop_assert!(back.max_abs_diff(&a) / scale < 1e-3);
        let gram = gemm_tn(&q, &q).unwrap();
        prop_assert!(gram.max_abs_diff(&DenseMatrix::identity(q.cols())) < 1e-3);
    }

    /// SVD reconstructs A with non-negative, descending singular values.
    #[test]
    fn svd_reconstructs(a in arb_tall()) {
        let svd = svd_jacobi(&a).unwrap();
        prop_assert!(svd.s.iter().all(|&s| s >= 0.0));
        prop_assert!(svd.s.windows(2).all(|w| w[0] >= w[1] - 1e-4));
        // U diag(s) Vt == A.
        let mut us = svd.u.clone();
        for c in 0..svd.s.len() {
            let s = svd.s[c];
            for v in us.col_mut(c) {
                *v *= s;
            }
        }
        let back = gemm(&us, &svd.vt).unwrap();
        let scale = a.frobenius_norm().max(1.0);
        prop_assert!(back.max_abs_diff(&a) / scale < 1e-2);
    }

    /// Frobenius norm is preserved by transposition; transpose is an
    /// involution; row-major round-trips.
    #[test]
    fn transpose_involution(a in arb_tall()) {
        let t = a.transposed();
        prop_assert!((t.frobenius_norm() - a.frobenius_norm()).abs() < 1e-4);
        prop_assert_eq!(t.transposed(), a.clone());
        let rm = a.to_row_major();
        let back = DenseMatrix::from_row_major(a.rows(), a.cols(), &rm).unwrap();
        prop_assert_eq!(back, a);
    }

    /// GEMM with identity is the identity map; gemm_tn matches the explicit
    /// transpose product.
    #[test]
    fn gemm_identities(a in arb_tall()) {
        let i = DenseMatrix::identity(a.cols());
        prop_assert_eq!(gemm(&a, &i).unwrap(), a.clone());
        let direct = gemm_tn(&a, &a).unwrap();
        let explicit = gemm(&a.transposed(), &a).unwrap();
        prop_assert!(direct.max_abs_diff(&explicit) < 1e-3);
    }

    /// axpy is linear: (x + 2y) - 2y == x up to float error.
    #[test]
    fn axpy_linearity(seed in any::<u64>()) {
        let x = gaussian_matrix(10, 3, seed);
        let y = gaussian_matrix(10, 3, seed.wrapping_add(1));
        let mut z = x.clone();
        z.axpy(2.0, &y).unwrap();
        z.axpy(-2.0, &y).unwrap();
        prop_assert!(z.max_abs_diff(&x) < 1e-4);
    }

    /// Blocked parallel GEMM is *bit-identical* to the sequential kernel for
    /// every panel size and worker count, on ragged shapes too (rows fewer
    /// than workers, k = 0): the partition covers only the output rows, so
    /// each element's reduction order never changes.
    #[test]
    fn blocked_gemm_bit_identical((a, b) in arb_gemm_pair(),
                                  panel in 1usize..64,
                                  threads in (0usize..3).prop_map(|i| [1usize, 2, 8][i])) {
        let seq = gemm(&a, &b).unwrap();
        let par = gemm_blocked(&a, &b, threads, panel).unwrap();
        assert_bits_equal(&seq, &par)?;
    }

    /// Same contract for GEMM-TN (AᵀB): output-column panels keep the full
    /// k-reduction per element intact at every panel size and worker count.
    #[test]
    fn blocked_gemm_tn_bit_identical((a, c) in arb_gemm_pair(),
                                     panel in 1usize..64,
                                     threads in (0usize..3).prop_map(|i| [1usize, 2, 8][i])) {
        // a is (m, k); pair it with a second (m, n) operand sharing rows.
        let b = gaussian_matrix(a.rows(), c.cols(), 0xb10c);
        let seq = gemm_tn(&a, &b).unwrap();
        let par = gemm_tn_blocked(&a, &b, threads, panel).unwrap();
        assert_bits_equal(&seq, &par)?;
    }
}
