//! Seeded random matrices (Gaussian projections for randomized t-SVD).

use crate::matrix::DenseMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A `rows × cols` matrix of i.i.d. standard normals, deterministic in the
/// seed (Box–Muller over the crate's seeded RNG — the sanctioned `rand`
/// crate has no normal distribution without `rand_distr`).
pub fn gaussian_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(rows * cols);
    while data.len() < rows * cols {
        let (z0, z1) = box_muller(&mut rng);
        data.push(z0);
        if data.len() < rows * cols {
            data.push(z1);
        }
    }
    DenseMatrix::from_column_major(rows, cols, data).expect("sized buffer")
}

/// One Box–Muller draw: two independent standard normals.
fn box_muller(rng: &mut SmallRng) -> (f32, f32) {
    // Avoid ln(0).
    let u1: f64 = loop {
        let u = rng.gen::<f64>();
        if u > 1e-300 {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    ((r * theta.cos()) as f32, (r * theta.sin()) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = gaussian_matrix(8, 3, 42);
        let b = gaussian_matrix(8, 3, 42);
        assert_eq!(a, b);
        assert_ne!(a, gaussian_matrix(8, 3, 43));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let m = gaussian_matrix(200, 50, 7);
        let data = m.data();
        let n = data.len() as f64;
        let mean: f64 = data.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var: f64 = data.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }

    #[test]
    fn odd_element_counts_fill_exactly() {
        let m = gaussian_matrix(3, 3, 1); // 9 elements, odd
        assert_eq!(m.data().len(), 9);
    }
}
