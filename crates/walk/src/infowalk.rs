//! Information-oriented random walks — the mechanism behind DistGER (and
//! HuGE), the strongest distributed competitor in Fig. 18(a).
//!
//! Instead of a fixed walk length, each walk continues only while it keeps
//! gaining information: the walker tracks the entropy of its visit
//! distribution and stops once the relative entropy gain of a step falls
//! below a threshold for a few consecutive steps. This concentrates effort
//! on informative regions and is why DistGER needs far fewer sampled steps
//! than DeepWalk-style systems for the same quality.

use crate::alias::AliasTable;
use crate::corpus::generate_corpus;
use omega_graph::Csr;
use rand::rngs::SmallRng;
use std::collections::HashMap;

/// Information-oriented walk parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfoWalkConfig {
    /// Walks started per node.
    pub walks_per_node: usize,
    /// Hard cap on walk length (safety bound).
    pub max_length: usize,
    /// Minimum relative entropy gain per step to keep walking.
    pub gain_threshold: f64,
    /// Consecutive low-gain steps tolerated before stopping.
    pub patience: usize,
    pub seed: u64,
}

impl Default for InfoWalkConfig {
    fn default() -> Self {
        InfoWalkConfig {
            walks_per_node: 10,
            max_length: 80,
            gain_threshold: 0.01,
            patience: 3,
            seed: 0x1f0,
        }
    }
}

/// Generator of entropy-adaptive walks.
#[derive(Debug)]
pub struct InfoWalker<'g> {
    graph: &'g Csr,
    tables: Vec<Option<AliasTable>>,
    cfg: InfoWalkConfig,
}

impl<'g> InfoWalker<'g> {
    pub fn new(graph: &'g Csr, cfg: InfoWalkConfig) -> InfoWalker<'g> {
        InfoWalker {
            graph,
            tables: AliasTable::per_node(graph),
            cfg,
        }
    }

    /// Shannon entropy of a visit-count multiset.
    fn entropy(counts: &HashMap<u32, u32>, total: u32) -> f64 {
        counts
            .values()
            .map(|&c| {
                let p = c as f64 / total as f64;
                -p * p.ln()
            })
            .sum()
    }

    /// One adaptive walk from `start`.
    pub fn walk_from(&self, start: u32, rng: &mut SmallRng) -> Vec<u32> {
        let mut walk = vec![start];
        let mut counts: HashMap<u32, u32> = HashMap::new();
        counts.insert(start, 1);
        let mut h_prev = 0.0f64;
        let mut low_gain_steps = 0usize;
        let mut curr = start;

        while walk.len() < self.cfg.max_length {
            let Some(table) = self.tables[curr as usize].as_ref() else {
                break;
            };
            let (neigh, _) = self.graph.row(curr);
            let next = neigh[table.sample(rng)];
            walk.push(next);
            *counts.entry(next).or_insert(0) += 1;
            curr = next;

            let h = Self::entropy(&counts, walk.len() as u32);
            let gain = if h_prev > 0.0 {
                (h - h_prev) / h_prev
            } else {
                1.0
            };
            h_prev = h;
            if gain < self.cfg.gain_threshold {
                low_gain_steps += 1;
                if low_gain_steps >= self.cfg.patience {
                    break;
                }
            } else {
                low_gain_steps = 0;
            }
        }
        walk
    }

    /// Generate the adaptive corpus on up to `threads` pool workers:
    /// deterministic in the seed and identical at every width.
    pub fn generate_all(&self, threads: usize) -> Vec<Vec<u32>> {
        let cfg = &self.cfg;
        generate_corpus(
            "walk.infowalk",
            self.graph.rows(),
            cfg.walks_per_node,
            cfg.seed,
            threads,
            |v, rng| self.walk_from(v, rng),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::{GraphBuilder, RmatConfig};
    use rand::SeedableRng;

    #[test]
    fn adaptive_walks_are_shorter_than_the_cap() {
        let g = RmatConfig::social(512, 4_000, 6).generate_csr().unwrap();
        let w = InfoWalker::new(&g, InfoWalkConfig::default());
        let walks = w.generate_all(1);
        let total: usize = walks.iter().map(|w| w.len()).sum();
        let avg = total as f64 / walks.len() as f64;
        assert!(
            avg < 80.0 * 0.8,
            "information stopping should cut average length, got {avg}"
        );
        assert!(walks.iter().all(|w| w.len() <= 80));
        // Walks still follow edges.
        for walk in walks.iter().take(50) {
            for pair in walk.windows(2) {
                assert!(g.row(pair[0]).0.binary_search(&pair[1]).is_ok());
            }
        }
    }

    #[test]
    fn revisiting_cliques_stop_early_vs_paths() {
        // A tight triangle forces revisits (no entropy gain) -> short walks.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(2, 0, 1.0).unwrap();
        let tri = b.build_csr().unwrap();
        // A long path keeps discovering new nodes -> walks run to the cap
        // (modulo direction reversals).
        let mut b = GraphBuilder::new(200);
        for v in 0..199 {
            b.add_edge(v, v + 1, 1.0).unwrap();
        }
        let path = b.build_csr().unwrap();

        let cfg = InfoWalkConfig {
            walks_per_node: 3,
            ..InfoWalkConfig::default()
        };
        let avg = |g: &Csr| {
            let w = InfoWalker::new(g, cfg);
            let walks = w.generate_all(1);
            walks.iter().map(|w| w.len()).sum::<usize>() as f64 / walks.len() as f64
        };
        assert!(
            avg(&tri) < avg(&path),
            "clique walks should stop earlier than path walks"
        );
    }

    #[test]
    fn deterministic() {
        let g = RmatConfig::social(128, 600, 2).generate_csr().unwrap();
        let w = InfoWalker::new(&g, InfoWalkConfig::default());
        assert_eq!(w.generate_all(1), w.generate_all(1));
    }

    /// At every width the corpus is the serial loop `generate_corpus`
    /// documents: walk `(round, v)` in `(round, node)` order, each from an
    /// RNG seeded `seed + (round << 32) + v`.
    #[test]
    fn parallel_generation_matches_serial() {
        let g = RmatConfig::social(150, 900, 8).generate_csr().unwrap();
        let cfg = InfoWalkConfig::default();
        let w = InfoWalker::new(&g, cfg);
        let mut serial = Vec::new();
        for round in 0..cfg.walks_per_node as u64 {
            for v in 0..g.rows() {
                let seed = cfg.seed + (round << 32) + v as u64;
                serial.push(w.walk_from(v, &mut SmallRng::seed_from_u64(seed)));
            }
        }
        for workers in [1, 2, 5, 16] {
            assert_eq!(w.generate_all(workers), serial, "{workers} workers");
        }
    }

    #[test]
    fn entropy_helper() {
        let mut counts = HashMap::new();
        counts.insert(0u32, 2u32);
        counts.insert(1, 2);
        // Uniform over 2 symbols: ln 2.
        assert!((InfoWalker::entropy(&counts, 4) - (2f64).ln()).abs() < 1e-12);
    }
}
