//! Walk corpora: generation on the shared pool and skip-gram pair
//! extraction.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Walks per pool task. Fixed, so the tasks are the same at every width,
/// and small, so the pool's stealing deques rebalance skewed walk lengths
/// (hub-heavy regions and adaptive stops walk longer).
const WALKS_PER_TASK: usize = 128;

/// `walks_per_node` walks from every one of `nodes` nodes, in `(round,
/// node)` order, on up to `threads` pool workers under the call-site label
/// `site`. Walk `(round, v)` is `walk(v, rng)` with its own RNG seeded from
/// `seed + (round << 32) + v`, so the corpus is identical at every width.
pub(crate) fn generate_corpus(
    site: &'static str,
    nodes: u32,
    walks_per_node: usize,
    seed: u64,
    threads: usize,
    walk: impl Fn(u32, &mut SmallRng) -> Vec<u32> + Sync,
) -> Vec<Vec<u32>> {
    let n = nodes as usize;
    let total = n * walks_per_node;
    let tasks = total.div_ceil(WALKS_PER_TASK);
    omega_par::run_labeled(site, threads, tasks, |_: &mut (), t| {
        (t * WALKS_PER_TASK..((t + 1) * WALKS_PER_TASK).min(total))
            .map(|idx| {
                let (round, v) = (idx / n, (idx % n) as u32);
                let walk_seed = seed
                    .wrapping_add((round as u64) << 32)
                    .wrapping_add(v as u64);
                walk(v, &mut SmallRng::seed_from_u64(walk_seed))
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// One (center, context) training pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipGramPair {
    pub center: u32,
    pub context: u32,
}

/// Extract all (center, context) pairs within `window` of each other in
/// every walk — the corpus the word2vec/SGNS stage trains on.
pub fn pairs_from_walks(walks: &[Vec<u32>], window: usize) -> Vec<SkipGramPair> {
    let mut pairs = Vec::new();
    for walk in walks {
        for (i, &center) in walk.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(walk.len());
            for (j, &context) in walk.iter().enumerate().take(hi).skip(lo) {
                if i != j {
                    pairs.push(SkipGramPair { center, context });
                }
            }
        }
    }
    pairs
}

/// Unigram frequencies of nodes in the corpus (the negative-sampling base
/// distribution before the ¾ power).
pub fn unigram_counts(walks: &[Vec<u32>], nodes: u32) -> Vec<u64> {
    let mut counts = vec![0u64; nodes as usize];
    for walk in walks {
        for &v in walk {
            counts[v as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_pairs() {
        let walks = vec![vec![1, 2, 3]];
        let pairs = pairs_from_walks(&walks, 1);
        assert_eq!(
            pairs,
            vec![
                SkipGramPair {
                    center: 1,
                    context: 2
                },
                SkipGramPair {
                    center: 2,
                    context: 1
                },
                SkipGramPair {
                    center: 2,
                    context: 3
                },
                SkipGramPair {
                    center: 3,
                    context: 2
                },
            ]
        );
        // Window 2 covers the ends too.
        assert_eq!(pairs_from_walks(&walks, 2).len(), 6);
    }

    #[test]
    fn short_walks_produce_no_pairs() {
        assert!(pairs_from_walks(&[vec![5]], 2).is_empty());
        assert!(pairs_from_walks(&[], 2).is_empty());
    }

    #[test]
    fn unigram_counts_tally() {
        let walks = vec![vec![0, 1, 1], vec![2]];
        assert_eq!(unigram_counts(&walks, 4), vec![1, 2, 1, 0]);
    }
}
