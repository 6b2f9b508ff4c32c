//! LINE (Tang et al., WWW'15) — the edge-sampling embedding model the
//! paper's introduction benchmarks ProNE against ("it would take weeks for
//! LINE … to learn embeddings for a graph with 100 M nodes").
//!
//! LINE skips random walks entirely: it samples *edges* proportional to
//! their weight (alias table over all edges) and trains with negative
//! sampling on first-order (endpoint ↔ endpoint) or second-order
//! (endpoint ↔ context vector) proximity.

use crate::alias::AliasTable;
use omega_graph::Csr;
use omega_linalg::DenseMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which proximity LINE optimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOrder {
    /// First-order: direct neighbours should have similar vectors.
    First,
    /// Second-order: nodes with similar neighbourhoods should align (uses a
    /// separate context matrix, like SGNS).
    Second,
}

/// LINE hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineConfig {
    pub dim: usize,
    pub order: LineOrder,
    /// Total edge samples (the model's unit of work).
    pub samples: usize,
    pub negatives: usize,
    pub learning_rate: f32,
    pub seed: u64,
}

impl Default for LineConfig {
    fn default() -> Self {
        LineConfig {
            dim: 32,
            order: LineOrder::Second,
            samples: 200_000,
            negatives: 5,
            learning_rate: 0.025,
            seed: 0x11e,
        }
    }
}

/// The LINE trainer.
#[derive(Debug)]
pub struct LineModel {
    cfg: LineConfig,
    nodes: u32,
    vertex: Vec<f32>,
    context: Vec<f32>,
}

impl LineModel {
    pub fn new(nodes: u32, cfg: LineConfig) -> LineModel {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let vertex = (0..nodes as usize * cfg.dim)
            .map(|_| (rng.gen::<f32>() - 0.5) / cfg.dim as f32)
            .collect();
        LineModel {
            cfg,
            nodes,
            vertex,
            context: vec![0.0; nodes as usize * cfg.dim],
        }
    }

    /// Train on a graph; returns the mean loss of the final 10% of samples.
    pub fn train(&mut self, g: &Csr) -> f32 {
        assert_eq!(g.rows(), self.nodes);
        // Edge alias table over all stored (directed) nnz.
        let mut edge_src = Vec::with_capacity(g.nnz());
        let mut edge_dst = Vec::with_capacity(g.nnz());
        let mut weights = Vec::with_capacity(g.nnz());
        for u in 0..g.rows() {
            let (cols, vals) = g.row(u);
            for (&v, &w) in cols.iter().zip(vals) {
                edge_src.push(u);
                edge_dst.push(v);
                weights.push(w);
            }
        }
        assert!(!weights.is_empty(), "graph has no edges");
        let edges = AliasTable::new(&weights);
        // Negative table over degree^0.75.
        let neg_weights: Vec<f32> = (0..g.rows())
            .map(|v| (g.degree(v) as f32).powf(0.75).max(1e-6))
            .collect();
        let negatives = AliasTable::new(&neg_weights);

        let d = self.cfg.dim;
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed ^ TRAIN_SEED_TWEAK);
        let tail_start = self.cfg.samples - self.cfg.samples / 10;
        let mut tail_loss = 0f64;
        let mut tail_n = 0u64;

        for step in 0..self.cfg.samples {
            let lr =
                self.cfg.learning_rate * (1.0 - step as f32 / self.cfg.samples as f32).max(0.1);
            let e = edges.sample(&mut rng);
            let (u, v) = (edge_src[e] as usize, edge_dst[e] as usize);
            // Snapshot u's vector so target updates (which may alias u in
            // first-order mode) borrow cleanly.
            let uvec: Vec<f32> = self.vertex[u * d..(u + 1) * d].to_vec();
            let mut grad_u = vec![0f32; d];
            for neg in 0..=self.cfg.negatives {
                let (target, label) = if neg == 0 {
                    (v, 1.0f32)
                } else {
                    (negatives.sample(&mut rng), 0.0)
                };
                let tvec: &mut [f32] = match self.cfg.order {
                    LineOrder::First => &mut self.vertex[target * d..(target + 1) * d],
                    LineOrder::Second => &mut self.context[target * d..(target + 1) * d],
                };
                let mut dot = 0f32;
                for i in 0..d {
                    dot += uvec[i] * tvec[i];
                }
                let p = 1.0 / (1.0 + (-dot).exp());
                let gscale = (p - label) * lr;
                if step >= tail_start {
                    tail_loss += if label > 0.5 {
                        -(p.max(1e-7).ln()) as f64
                    } else {
                        -((1.0 - p).max(1e-7).ln()) as f64
                    };
                    tail_n += 1;
                }
                for i in 0..d {
                    grad_u[i] += gscale * tvec[i];
                    tvec[i] -= gscale * uvec[i];
                }
            }
            for (i, g) in grad_u.iter().enumerate() {
                self.vertex[u * d + i] -= g;
            }
        }
        (tail_loss / tail_n.max(1) as f64) as f32
    }

    /// The learned vertex embedding, `nodes × dim` rows.
    pub fn embedding(&self) -> DenseMatrix {
        DenseMatrix::from_row_major(self.nodes as usize, self.cfg.dim, &self.vertex)
            .expect("consistent shape")
    }
}

/// Decorrelates the training RNG from the initialisation RNG.
const TRAIN_SEED_TWEAK: u64 = 0x0001_111e;

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::SbmConfig;
    use omega_linalg::kernels::cosine;

    fn community_gap(emb: &DenseMatrix, labels: &[u32]) -> f64 {
        let n = emb.rows();
        let mut same = 0.0;
        let mut cross = 0.0;
        let (mut ns, mut nc) = (0u32, 0u32);
        for u in (0..n).step_by(3) {
            for v in (1..n).step_by(7) {
                if u == v {
                    continue;
                }
                let c = cosine(&emb.row_copied(u), &emb.row_copied(v)) as f64;
                if labels[u] == labels[v] {
                    same += c;
                    ns += 1;
                } else {
                    cross += c;
                    nc += 1;
                }
            }
        }
        same / ns as f64 - cross / nc as f64
    }

    #[test]
    fn line_learns_communities() {
        let sbm = SbmConfig::assortative(150, 4);
        let g = sbm.generate_csr().unwrap();
        for order in [LineOrder::First, LineOrder::Second] {
            let mut model = LineModel::new(
                150,
                LineConfig {
                    dim: 16,
                    order,
                    samples: 120_000,
                    ..LineConfig::default()
                },
            );
            model.train(&g);
            let gap = community_gap(&model.embedding(), &sbm.labels());
            assert!(gap > 0.08, "{order:?} gap {gap} too small");
        }
    }

    #[test]
    fn more_samples_reduce_loss() {
        let sbm = SbmConfig::assortative(100, 2);
        let g = sbm.generate_csr().unwrap();
        let loss_at = |samples| {
            let mut m = LineModel::new(
                100,
                LineConfig {
                    samples,
                    ..LineConfig::default()
                },
            );
            m.train(&g)
        };
        assert!(loss_at(100_000) < loss_at(5_000));
    }

    #[test]
    fn deterministic() {
        let sbm = SbmConfig::assortative(60, 9);
        let g = sbm.generate_csr().unwrap();
        let run = || {
            let mut m = LineModel::new(
                60,
                LineConfig {
                    samples: 10_000,
                    ..LineConfig::default()
                },
            );
            m.train(&g);
            m.embedding()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "no edges")]
    fn empty_graph_panics() {
        let g = omega_graph::GraphBuilder::new(3).build_csr().unwrap();
        LineModel::new(3, LineConfig::default()).train(&g);
    }
}
