//! Skip-gram with negative sampling (word2vec/DeepWalk's trainer).

use crate::alias::AliasTable;
use crate::corpus::SkipGramPair;
use omega_linalg::DenseMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// SGNS hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgnsConfig {
    pub dim: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Initial learning rate (linearly decayed over epochs).
    pub learning_rate: f32,
    pub epochs: usize,
    pub seed: u64,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        SgnsConfig {
            dim: 32,
            negatives: 5,
            learning_rate: 0.025,
            epochs: 2,
            seed: 0xdeed,
        }
    }
}

/// The two-matrix SGNS model (input/center and output/context vectors).
#[derive(Debug)]
pub struct SgnsModel {
    nodes: u32,
    cfg: SgnsConfig,
    input: Vec<f32>,
    output: Vec<f32>,
}

impl SgnsModel {
    /// Initialise with small random input vectors and zero output vectors
    /// (the word2vec convention).
    pub fn new(nodes: u32, cfg: SgnsConfig) -> SgnsModel {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let input = (0..nodes as usize * cfg.dim)
            .map(|_| (rng.gen::<f32>() - 0.5) / cfg.dim as f32)
            .collect();
        SgnsModel {
            nodes,
            cfg,
            input,
            output: vec![0.0; nodes as usize * cfg.dim],
        }
    }

    #[inline]
    fn in_vec(&mut self, v: u32) -> &mut [f32] {
        let d = self.cfg.dim;
        &mut self.input[v as usize * d..(v as usize + 1) * d]
    }

    /// Train on a corpus of pairs with a ¾-power unigram negative table.
    /// Returns the mean loss of the final epoch.
    pub fn train(&mut self, pairs: &[SkipGramPair], unigram: &[u64]) -> f32 {
        assert_eq!(unigram.len(), self.nodes as usize);
        let weights: Vec<f32> = unigram
            .iter()
            .map(|&c| (c as f32).powf(0.75).max(1e-6))
            .collect();
        let negatives = AliasTable::new(&weights);
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed ^ 0x5a5a);
        let d = self.cfg.dim;
        let mut last_loss = 0f32;

        for epoch in 0..self.cfg.epochs {
            let lr = self.cfg.learning_rate
                * (1.0 - epoch as f32 / self.cfg.epochs.max(1) as f32).max(0.1);
            let mut loss_sum = 0f64;
            for pair in pairs {
                let mut grad_in = vec![0f32; d];
                // Positive + negative updates against the center vector.
                let center = pair.center as usize;
                let targets: Vec<(u32, f32)> = std::iter::once((pair.context, 1.0))
                    .chain(
                        (0..self.cfg.negatives).map(|_| (negatives.sample(&mut rng) as u32, 0.0)),
                    )
                    .collect();
                for (target, label) in targets {
                    let t = target as usize;
                    let mut dot = 0f32;
                    for i in 0..d {
                        dot += self.input[center * d + i] * self.output[t * d + i];
                    }
                    let p = 1.0 / (1.0 + (-dot).exp());
                    let g = (p - label) * lr;
                    loss_sum += if label > 0.5 {
                        -(p.max(1e-7).ln()) as f64
                    } else {
                        -((1.0 - p).max(1e-7).ln()) as f64
                    };
                    for (i, gi) in grad_in.iter_mut().enumerate() {
                        *gi += g * self.output[t * d + i];
                        self.output[t * d + i] -= g * self.input[center * d + i];
                    }
                }
                let iv = self.in_vec(pair.center);
                for i in 0..d {
                    iv[i] -= grad_in[i];
                }
            }
            last_loss = (loss_sum / pairs.len().max(1) as f64) as f32;
        }
        last_loss
    }

    /// The learned (input) embedding matrix, `nodes × dim` rows.
    pub fn embedding(&self) -> DenseMatrix {
        DenseMatrix::from_row_major(self.nodes as usize, self.cfg.dim, &self.input)
            .expect("consistent shape")
    }

    /// CPU operations one pair costs (for the cost models of the
    /// distributed baselines): (1 + negatives) dot products + updates.
    pub fn ops_per_pair(cfg: &SgnsConfig) -> u64 {
        (1 + cfg.negatives as u64) * (4 * cfg.dim as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{pairs_from_walks, unigram_counts};
    use crate::walker::{WalkConfig, Walker};
    use omega_graph::SbmConfig;

    #[test]
    fn training_reduces_loss() {
        let sbm = SbmConfig::assortative(120, 4);
        let g = sbm.generate_csr().unwrap();
        let walker = Walker::new(&g, WalkConfig::deepwalk(4, 10, 2));
        let walks = walker.generate_all(1);
        let pairs = pairs_from_walks(&walks, 3);
        let unigram = unigram_counts(&walks, 120);

        let mut one = SgnsModel::new(
            120,
            SgnsConfig {
                epochs: 1,
                ..SgnsConfig::default()
            },
        );
        let loss1 = one.train(&pairs, &unigram);
        let mut five = SgnsModel::new(
            120,
            SgnsConfig {
                epochs: 5,
                ..SgnsConfig::default()
            },
        );
        let loss5 = five.train(&pairs, &unigram);
        assert!(
            loss5 < loss1,
            "more epochs should reduce loss: {loss5} !< {loss1}"
        );
    }

    #[test]
    fn embeddings_separate_sbm_communities() {
        let sbm = SbmConfig::assortative(120, 8);
        let g = sbm.generate_csr().unwrap();
        let labels = sbm.labels();
        let walker = Walker::new(&g, WalkConfig::deepwalk(6, 12, 3));
        let walks = walker.generate_all(1);
        let pairs = pairs_from_walks(&walks, 3);
        let unigram = unigram_counts(&walks, 120);
        let mut model = SgnsModel::new(
            120,
            SgnsConfig {
                dim: 16,
                epochs: 4,
                ..SgnsConfig::default()
            },
        );
        model.train(&pairs, &unigram);
        let emb = model.embedding();

        let mut same = 0f64;
        let mut cross = 0f64;
        let (mut ns, mut nc) = (0u32, 0u32);
        for u in (0..120).step_by(2) {
            for v in (1..120).step_by(5) {
                if u == v {
                    continue;
                }
                let cos =
                    omega_linalg::kernels::cosine(&emb.row_copied(u), &emb.row_copied(v)) as f64;
                if labels[u] == labels[v] {
                    same += cos;
                    ns += 1;
                } else {
                    cross += cos;
                    nc += 1;
                }
            }
        }
        let gap = same / ns as f64 - cross / nc as f64;
        assert!(gap > 0.1, "community separation gap {gap} too small");
    }

    #[test]
    fn deterministic_training() {
        let walks = vec![vec![0u32, 1, 2, 1, 0]; 10];
        let pairs = pairs_from_walks(&walks, 2);
        let unigram = unigram_counts(&walks, 3);
        let mut a = SgnsModel::new(3, SgnsConfig::default());
        let mut b = SgnsModel::new(3, SgnsConfig::default());
        a.train(&pairs, &unigram);
        b.train(&pairs, &unigram);
        assert_eq!(a.embedding(), b.embedding());
    }

    #[test]
    fn ops_per_pair_model() {
        let cfg = SgnsConfig {
            dim: 10,
            negatives: 5,
            ..SgnsConfig::default()
        };
        assert_eq!(SgnsModel::ops_per_pair(&cfg), 6 * 40);
    }
}
