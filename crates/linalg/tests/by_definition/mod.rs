//! The dense operations transcribed from their definitions, one output
//! element (or one column) at a time: the independent references the
//! pooled kernels are held to bit for bit, by the unit tests of `par` and
//! by `prop_linalg`.

use crate::DenseMatrix;

/// `AB` transcribed from its definition: one accumulator per element,
/// summed over the shared dimension in ascending order, skipping the steps
/// where `b[l, j]` is exactly zero.
pub(crate) fn gemm_by_definition(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    for j in 0..b.cols() {
        for i in 0..a.rows() {
            let mut acc = 0f32;
            for l in 0..a.cols() {
                if b[(l, j)] != 0.0 {
                    acc += a[(i, l)] * b[(l, j)];
                }
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// `AᵀB` transcribed from its definition: one accumulator per element,
/// summed over the shared dimension in order.
pub(crate) fn gemm_tn_by_definition(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
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
pub(crate) fn qr_by_definition(a: &DenseMatrix) -> (DenseMatrix, DenseMatrix) {
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
