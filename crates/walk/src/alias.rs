//! Walker's alias method: O(n) construction, O(1) weighted sampling.

use omega_graph::Csr;
use rand::Rng;

/// A pre-built table for sampling `0..n` with probabilities proportional to
/// the construction weights.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build from non-negative weights (at least one must be positive).
    pub(crate) fn new(weights: &[f32]) -> AliasTable {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let total: f64 = weights.iter().map(|&w| w.max(0.0) as f64).sum();
        assert!(total > 0.0, "alias table needs positive total weight");
        let n = weights.len();
        let mut prob: Vec<f64> = weights
            .iter()
            .map(|&w| w.max(0.0) as f64 * n as f64 / total)
            .collect();
        let mut alias = vec![0u32; n];

        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l as u32;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers all resolve to probability 1.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// One table per node over its weighted out-edges; `None` at sinks.
    pub(crate) fn per_node(graph: &Csr) -> Vec<Option<AliasTable>> {
        (0..graph.rows())
            .map(|v| {
                let (_, w) = graph.row(v);
                (!w.is_empty()).then(|| AliasTable::new(w))
            })
            .collect()
    }

    /// Draw one index.
    #[inline]
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_weights_sample_uniformly() {
        let t = AliasTable::new(&[1.0; 8]);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[t.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "count={c}");
        }
    }

    #[test]
    fn skewed_weights_match_expectation() {
        let t = AliasTable::new(&[1.0, 3.0]);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ones = 0u32;
        for _ in 0..40_000 {
            if t.sample(&mut rng) == 1 {
                ones += 1;
            }
        }
        let frac = ones as f64 / 40_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn zero_weight_entries_never_sampled() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 2.0]);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let s = t.sample(&mut rng);
            assert!(s == 1 || s == 3);
        }
    }

    #[test]
    fn single_outcome() {
        let t = AliasTable::new(&[5.0]);
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(t.sample(&mut rng), 0);
        assert_eq!(t.prob.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn all_zero_weights_panic() {
        AliasTable::new(&[0.0, 0.0]);
    }
}
