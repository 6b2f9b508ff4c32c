//! Random-walk generation: uniform first-order (DeepWalk) and biased
//! second-order (node2vec) walks.

use crate::alias::AliasTable;
use crate::corpus::generate_corpus;
use omega_graph::Csr;
use rand::rngs::SmallRng;

/// Walk-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkConfig {
    /// Walks started per node.
    pub walks_per_node: usize,
    /// Steps per walk (including the start node).
    pub walk_length: usize,
    /// node2vec return parameter `p` (1.0 = unbiased).
    pub p: f32,
    /// node2vec in-out parameter `q` (1.0 = unbiased).
    pub q: f32,
    pub seed: u64,
}

impl WalkConfig {
    /// DeepWalk defaults (uniform second-order behaviour).
    pub fn deepwalk(walks_per_node: usize, walk_length: usize, seed: u64) -> Self {
        WalkConfig {
            walks_per_node,
            walk_length,
            p: 1.0,
            q: 1.0,
            seed,
        }
    }

    /// Whether the walk is biased (requires the slower second-order step).
    pub(crate) fn is_biased(&self) -> bool {
        (self.p - 1.0).abs() > 1e-6 || (self.q - 1.0).abs() > 1e-6
    }
}

/// A random-walk generator over a CSR graph.
///
/// ```
/// use omega_graph::RmatConfig;
/// use omega_walk::{WalkConfig, Walker};
///
/// let g = RmatConfig::social(128, 800, 2).generate_csr().unwrap();
/// let walker = Walker::new(&g, WalkConfig::deepwalk(2, 10, 9));
/// let walks = walker.generate_all(1);
/// assert_eq!(walks.len(), 128 * 2);
/// assert!(walks.iter().all(|w| w.len() <= 10));
/// ```
#[derive(Debug)]
pub struct Walker<'g> {
    graph: &'g Csr,
    tables: Vec<Option<AliasTable>>,
    cfg: WalkConfig,
}

impl<'g> Walker<'g> {
    pub fn new(graph: &'g Csr, cfg: WalkConfig) -> Walker<'g> {
        Walker {
            graph,
            tables: AliasTable::per_node(graph),
            cfg,
        }
    }

    /// One walk from `start`. Stops early at sink nodes.
    pub(crate) fn walk_from(&self, start: u32, rng: &mut SmallRng) -> Vec<u32> {
        let mut walk = Vec::with_capacity(self.cfg.walk_length);
        walk.push(start);
        let mut prev: Option<u32> = None;
        let mut curr = start;
        while walk.len() < self.cfg.walk_length {
            let (neigh, weights) = self.graph.row(curr);
            if neigh.is_empty() {
                break;
            }
            let next = match prev {
                Some(p) if self.cfg.is_biased() => self.biased_step(p, neigh, weights, rng),
                _ => {
                    let t = self.tables[curr as usize].as_ref().expect("non-empty row");
                    neigh[t.sample(rng)]
                }
            };
            walk.push(next);
            prev = Some(curr);
            curr = next;
        }
        walk
    }

    /// node2vec second-order transition: weight × 1/p when returning to the
    /// previous node, ×1 for common neighbours of `prev`, ×1/q otherwise.
    fn biased_step(&self, prev: u32, neigh: &[u32], weights: &[f32], rng: &mut SmallRng) -> u32 {
        let (prev_neigh, _) = self.graph.row(prev);
        let biased: Vec<f32> = neigh
            .iter()
            .zip(weights)
            .map(|(&n, &w)| {
                if n == prev {
                    w / self.cfg.p
                } else if prev_neigh.binary_search(&n).is_ok() {
                    w
                } else {
                    w / self.cfg.q
                }
            })
            .collect();
        neigh[AliasTable::new(&biased).sample(rng)]
    }

    /// Generate the full corpus, `walks_per_node` walks from every node,
    /// on up to `threads` pool workers: deterministic in the seed and
    /// identical at every width.
    pub fn generate_all(&self, threads: usize) -> Vec<Vec<u32>> {
        let cfg = &self.cfg;
        generate_corpus(
            "walk.generate",
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

    fn path_graph() -> Csr {
        let mut b = GraphBuilder::new(5);
        for v in 0..4 {
            b.add_edge(v, v + 1, 1.0).unwrap();
        }
        b.build_csr().unwrap()
    }

    #[test]
    fn walks_follow_edges() {
        let g = RmatConfig::social(256, 2_000, 3).generate_csr().unwrap();
        let w = Walker::new(&g, WalkConfig::deepwalk(2, 10, 5));
        for walk in w.generate_all(1) {
            assert!(!walk.is_empty() && walk.len() <= 10);
            for pair in walk.windows(2) {
                assert!(
                    g.row(pair[0]).0.binary_search(&pair[1]).is_ok(),
                    "step {}->{} is not an edge",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn corpus_is_deterministic_and_sized() {
        let g = path_graph();
        let cfg = WalkConfig::deepwalk(3, 6, 9);
        let w = Walker::new(&g, cfg);
        let a = w.generate_all(1);
        let b = w.generate_all(1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5 * 3);
    }

    #[test]
    fn isolated_nodes_yield_single_step_walks() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build_csr().unwrap();
        let w = Walker::new(&g, WalkConfig::deepwalk(1, 5, 1));
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(w.walk_from(2, &mut rng), vec![2]);
    }

    /// At every width the corpus is the serial loop `generate_corpus`
    /// documents: walk `(round, v)` in `(round, node)` order, each from an
    /// RNG seeded `seed + (round << 32) + v`; unbiased and node2vec-biased.
    #[test]
    fn parallel_generation_matches_serial() {
        let g = RmatConfig::social(200, 1_500, 4).generate_csr().unwrap();
        let deepwalk = WalkConfig::deepwalk(3, 8, 11);
        for cfg in [
            deepwalk,
            WalkConfig {
                p: 0.5,
                q: 2.0,
                ..deepwalk
            },
        ] {
            let w = Walker::new(&g, cfg);
            let mut serial = Vec::new();
            for round in 0..cfg.walks_per_node as u64 {
                for v in 0..g.rows() {
                    let seed = cfg.seed + (round << 32) + v as u64;
                    serial.push(w.walk_from(v, &mut SmallRng::seed_from_u64(seed)));
                }
            }
            for workers in [1, 2, 5, 16] {
                assert_eq!(
                    w.generate_all(workers),
                    serial,
                    "{cfg:?}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn low_q_explores_farther_than_high_q() {
        // On a path graph, q < 1 pushes outward (DFS-like), q > 1 keeps
        // walks near the start (BFS-like).
        let g = path_graph();
        let reach = |p: f32, q: f32| -> f64 {
            let cfg = WalkConfig {
                walks_per_node: 40,
                walk_length: 5,
                p,
                q,
                seed: 7,
            };
            let w = Walker::new(&g, cfg);
            let walks = w.generate_all(1);
            let total: u32 = walks
                .iter()
                .filter(|wk| wk[0] == 0)
                .map(|wk| *wk.last().unwrap())
                .sum();
            total as f64
        };
        let explorer = reach(4.0, 0.25);
        let homebody = reach(0.25, 4.0);
        assert!(
            explorer > homebody,
            "explorer reach {explorer} should beat homebody {homebody}"
        );
    }
}
