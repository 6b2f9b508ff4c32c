//! The sequential vector norm of the QR reflectors and the Jacobi SVD, and
//! the row normalisation of the embedding code.

/// Euclidean norm: the square root of `Σ a[i]²` summed in index order,
/// one rounded multiply and one rounded add per step. The QR and SVD
/// results, and so the goldens, pin that order; `kernels::dot` sums in
/// eight lanes instead.
#[inline]
pub(crate) fn norm2(a: &[f32]) -> f32 {
    a.iter().map(|&x| x * x).sum::<f32>().sqrt()
}

/// Normalise to unit length; returns the original norm. Zero vectors are
/// left untouched and report 0.
pub fn normalize(x: &mut [f32]) -> f32 {
    let n = norm2(x);
    if n > 0.0 {
        let alpha = 1.0 / n;
        for v in x {
            *v *= alpha;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The norm is the square root of the index-order dot of the vector
    /// with itself, bit for bit.
    #[test]
    fn dot_and_norm() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
        let x: Vec<f32> = (1..40).map(|i| (i as f32).sin() * 1e3).collect();
        let mut dot = 0f32;
        for &v in &x {
            dot += v * v;
        }
        assert_eq!(norm2(&x).to_bits(), dot.sqrt().to_bits());
    }

    #[test]
    fn normalize_unit_and_zero() {
        let mut v = vec![3.0, 4.0];
        let n = normalize(&mut v);
        assert!((n - 5.0).abs() < 1e-6);
        assert!((norm2(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }
}
