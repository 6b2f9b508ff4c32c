//! Deterministic closed-loop load generation: seeded node-popularity
//! distributions (uniform and Zipfian) and the request stream the server
//! replays.
//!
//! Popularity rank maps directly to node id (node 0 is the most popular) —
//! the same convention RMAT social generators follow, where low ids carry
//! the high degrees, so a Zipfian stream concentrates on the first shards
//! exactly as production traffic concentrates on celebrity vertices.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Node-popularity distribution of the generated stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Every node equally likely.
    Uniform,
    /// `P(node v) ∝ 1 / (v + 1)^s` — the classic Zipf law over popularity
    /// ranks. `s = 0` degenerates to uniform; `s = 1` is the web/social
    /// default.
    Zipf { s: f64 },
}

/// What a single request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Point lookup: return the node's embedding vector.
    Get,
    /// Nearest-neighbour query seeded by the node's vector. `nprobe`
    /// overrides the server's configured IVF probe count for this request
    /// (`None` = server default; ignored by exact-scan servers) — the
    /// channel the plane's degrade ladder uses to trade recall for time.
    TopK { k: usize, nprobe: Option<usize> },
}

impl RequestKind {
    /// A full-fidelity top-k request (server-default probe count).
    pub fn top_k(k: usize) -> RequestKind {
        RequestKind::TopK { k, nprobe: None }
    }
}

/// One request of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub node: u32,
    pub kind: RequestKind,
}

impl Request {
    /// A batch of point lookups in the given order.
    pub fn gets(nodes: &[u32]) -> Vec<Request> {
        nodes
            .iter()
            .map(|&node| Request {
                node,
                kind: RequestKind::Get,
            })
            .collect()
    }
}

/// Configuration of a [`RequestStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of addressable nodes (requests draw ids from `0..nodes`).
    pub nodes: u32,
    pub popularity: Popularity,
    pub seed: u64,
    /// Fraction of requests that are top-k queries instead of point lookups.
    pub topk_fraction: f64,
    /// `k` used by top-k requests.
    pub k: usize,
}

impl WorkloadConfig {
    /// A lookup-only stream with the given popularity.
    pub fn lookups(nodes: u32, popularity: Popularity, seed: u64) -> Self {
        WorkloadConfig {
            nodes,
            popularity,
            seed,
            topk_fraction: 0.0,
            k: 10,
        }
    }

    /// Mix in a fraction of top-k requests.
    pub fn with_topk(mut self, fraction: f64, k: usize) -> Self {
        self.topk_fraction = fraction;
        self.k = k;
        self
    }
}

/// Deterministic request generator: the same seed always produces the same
/// stream, on any machine.
#[derive(Debug, Clone)]
pub struct RequestStream {
    cfg: WorkloadConfig,
    rng: SmallRng,
    /// Cumulative popularity distribution for Zipfian sampling (empty for
    /// uniform). `cdf[v]` = P(node ≤ v); sampled by binary search.
    cdf: Vec<f64>,
}

impl RequestStream {
    pub fn new(cfg: WorkloadConfig) -> RequestStream {
        assert!(cfg.nodes > 0, "workload needs at least one node");
        let cdf = match cfg.popularity {
            Popularity::Uniform => Vec::new(),
            Popularity::Zipf { s } => {
                let mut acc = 0.0f64;
                let mut cdf: Vec<f64> = (0..cfg.nodes)
                    .map(|v| {
                        acc += 1.0 / ((v + 1) as f64).powf(s);
                        acc
                    })
                    .collect();
                let total = acc;
                for w in &mut cdf {
                    *w /= total;
                }
                cdf
            }
        };
        RequestStream {
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            cdf,
        }
    }

    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// Draw one node id from the configured popularity distribution.
    pub(crate) fn next_node(&mut self) -> u32 {
        if self.cdf.is_empty() {
            self.rng.gen_range(0..self.cfg.nodes)
        } else {
            let u: f64 = self.rng.gen();
            self.cdf.partition_point(|&c| c < u) as u32
        }
    }

    /// Draw the next request.
    pub fn next_request(&mut self) -> Request {
        let node = self.next_node();
        let kind = if self.cfg.topk_fraction > 0.0 && self.rng.gen_bool(self.cfg.topk_fraction) {
            RequestKind::top_k(self.cfg.k)
        } else {
            RequestKind::Get
        };
        Request { node, kind }
    }

    /// Materialise the next `n` requests.
    pub fn take_requests(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(nodes: u32, pop: Popularity, seed: u64) -> RequestStream {
        RequestStream::new(WorkloadConfig::lookups(nodes, pop, seed))
    }

    #[test]
    fn same_seed_identical_stream() {
        for pop in [Popularity::Uniform, Popularity::Zipf { s: 1.0 }] {
            let a = stream(1000, pop, 7).take_requests(5_000);
            let b = stream(1000, pop, 7).take_requests(5_000);
            assert_eq!(a, b, "popularity {pop:?}");
        }
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        for pop in [Popularity::Uniform, Popularity::Zipf { s: 1.0 }] {
            let a = stream(1000, pop, 7).take_requests(2_000);
            let b = stream(1000, pop, 8).take_requests(2_000);
            assert_ne!(a, b, "popularity {pop:?}");
        }
    }

    #[test]
    fn zipf_concentrates_on_low_ids() {
        let reqs = stream(10_000, Popularity::Zipf { s: 1.0 }, 3).take_requests(20_000);
        let head = reqs.iter().filter(|r| r.node < 100).count();
        // Zipf(1.0) over 10k ranks puts ~H(100)/H(10000) ≈ 53% of mass on
        // the first 100 ranks.
        assert!(head > reqs.len() / 3, "head share {head}/{}", reqs.len());
        let top_node = reqs.iter().filter(|r| r.node == 0).count();
        let mid_node = reqs.iter().filter(|r| r.node == 5_000).count();
        assert!(top_node > mid_node, "rank 0 must beat rank 5000");
    }

    #[test]
    fn uniform_spreads_mass() {
        let reqs = stream(10, Popularity::Uniform, 11).take_requests(10_000);
        let mut counts = [0u32; 10];
        for r in &reqs {
            counts[r.node as usize] += 1;
        }
        for (v, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "node {v} count {c}");
        }
    }

    #[test]
    fn zipf_zero_skew_is_near_uniform() {
        let reqs = stream(10, Popularity::Zipf { s: 0.0 }, 5).take_requests(10_000);
        let head = reqs.iter().filter(|r| r.node == 0).count();
        assert!((700..1300).contains(&head), "head count {head}");
    }

    #[test]
    fn all_ids_in_range_and_topk_mix() {
        let mut s = RequestStream::new(
            WorkloadConfig::lookups(50, Popularity::Zipf { s: 1.2 }, 9).with_topk(0.3, 5),
        );
        let reqs = s.take_requests(2_000);
        assert!(reqs.iter().all(|r| r.node < 50));
        let topks = reqs
            .iter()
            .filter(|r| matches!(r.kind, RequestKind::TopK { k: 5, nprobe: None }))
            .count();
        assert!((400..800).contains(&topks), "topk count {topks}");
    }
}
