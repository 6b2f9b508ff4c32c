//! The embedding output type: per-node vectors with lookup, similarity and
//! text serialisation (the word2vec-style format graph-embedding tools
//! exchange).

use omega_linalg::{kernels, DenseMatrix};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Rows scored per block by [`Embedding::top_k`]: large enough to amortise
/// the selector, small enough that the score scratch stays cache-resident.
const TOPK_BLOCK_ROWS: usize = 256;

/// Most candidates [`TopK::new`] makes room for up front. The heap never
/// holds more than `k`, but `k` is the caller's, and a `k` far past any
/// table (a request may ask for 2^40) must not reserve memory for it: past
/// this the heap grows only as candidates arrive, which a scan of `n` rows
/// bounds by `n`.
const PREALLOCATED_CANDIDATES: usize = 1 << 12;

/// Similarity metric used to score a query vector against node vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Raw dot product (the link-prediction score).
    Dot,
    /// Cosine similarity (dot product of L2-normalised vectors).
    Cosine,
}

impl Metric {
    /// Score `candidate` against `query` through the shared lane-unrolled
    /// kernels, so a single-row score is bit-identical to the same row's
    /// entry in [`Metric::scores_into`].
    #[inline]
    pub fn score(self, query: &[f32], candidate: &[f32]) -> f32 {
        match self {
            Metric::Dot => kernels::dot(query, candidate),
            Metric::Cosine => kernels::cosine(query, candidate),
        }
    }

    /// Score a set of queries — one or more `d`-wide queries back to
    /// back — against every `d`-wide row of a contiguous row-major block,
    /// writing into the reusable `out` scratch (no old entry survives),
    /// `n = rows.len() / d` entries a query. The blocked form of
    /// [`Metric::score`]: entry `q * n + i` is bit-identical to
    /// `self.score(query q, &rows[i*d..(i+1)*d])`, however many queries
    /// share the call.
    #[inline]
    pub fn scores_into(self, queries: &[f32], rows: &[f32], d: usize, out: &mut Vec<f32>) {
        match self {
            Metric::Dot => kernels::dot_scores_into(queries, rows, d, out),
            Metric::Cosine => kernels::cosine_scores_into(queries, rows, d, out),
        }
    }

    pub const fn label(self) -> &'static str {
        match self {
            Metric::Dot => "dot",
            Metric::Cosine => "cosine",
        }
    }
}

/// A scored candidate in a top-k selection. Ordering is total and
/// deterministic: higher score wins, ties break towards the *smaller* node
/// id.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    score: f32,
    node: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Streaming partial top-k selection (no full sort): a bounded min-heap that
/// keeps the `k` best `(node, score)` pairs pushed so far. Shared by
/// [`Embedding::top_k`] and the blocked scan kernel in `omega-serve`, so both
/// paths produce bit-identical results, including tie order.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// A score that compares `<` this cannot be kept: `-∞` until `k`
    /// candidates are held, from then on the worst kept score (`+∞` when
    /// `k = 0`). Equal scores, either zero and NaN of either sign all fail
    /// `score < floor`, so only the total order ever decides a close call.
    floor: f32,
    heap: BinaryHeap<Reverse<Scored>>,
}

impl TopK {
    /// A selector that keeps the best `k` candidates.
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            floor: if k == 0 {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            },
            heap: BinaryHeap::with_capacity(k.min(PREALLOCATED_CANDIDATES)),
        }
    }

    /// Offer one candidate. O(log k) when it displaces, O(1) when rejected
    /// — one compare against the floor for nearly every row of a long scan.
    #[inline]
    pub fn push(&mut self, node: u32, score: f32) {
        if score < self.floor || self.k == 0 {
            return;
        }
        let cand = Scored { score, node };
        if self.heap.len() < self.k {
            self.heap.push(Reverse(cand));
        } else if let Some(&Reverse(worst)) = self.heap.peek() {
            if cand <= worst {
                return;
            }
            self.heap.pop();
            self.heap.push(Reverse(cand));
        }
        if self.heap.len() == self.k {
            if let Some(&Reverse(worst)) = self.heap.peek() {
                self.floor = worst.score;
            }
        }
    }

    /// Number of candidates currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Absorb another selector's survivors (parallel-scan merge). Because
    /// the candidate order is total and strict — higher score first, equal
    /// scores by ascending node id — the global top-k *set* is unique, so
    /// merging per-shard partial selections in any order yields the same
    /// final selection as one sequential scan.
    pub fn merge(&mut self, other: TopK) {
        for Reverse(s) in other.heap {
            self.push(s.node, s.score);
        }
    }

    /// The kept candidates, best first (score descending, ties by ascending
    /// node id).
    pub fn into_sorted_vec(self) -> Vec<(u32, f32)> {
        let mut out: Vec<Scored> = self.heap.into_iter().map(|Reverse(s)| s).collect();
        out.sort_unstable_by(|a, b| b.cmp(a));
        out.into_iter().map(|s| (s.node, s.score)).collect()
    }
}

/// A learned embedding: `nodes × d`, row-major, rows in original node order.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    nodes: u32,
    d: usize,
    data: Vec<f32>,
}

impl Embedding {
    /// Build from a dense matrix whose rows are node vectors.
    pub fn from_matrix(m: &DenseMatrix) -> Embedding {
        Embedding {
            nodes: m.rows() as u32,
            d: m.cols(),
            data: m.to_row_major(),
        }
    }

    /// Build from a raw row-major buffer.
    pub fn from_row_major(nodes: u32, d: usize, data: Vec<f32>) -> Embedding {
        assert_eq!(data.len(), nodes as usize * d);
        Embedding { nodes, d, data }
    }

    #[inline]
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The vector of node `v`. Panics if `v` is out of range; use
    /// [`Embedding::try_vector`] for checked access.
    #[inline]
    pub fn vector(&self, v: u32) -> &[f32] {
        self.try_vector(v).unwrap_or_else(|| {
            panic!(
                "node id {v} out of range (embedding has {} nodes)",
                self.nodes
            )
        })
    }

    /// The vector of node `v`, or `None` if `v >= nodes`. Serving paths and
    /// samplers that handle untrusted node ids go through this.
    #[inline]
    pub fn try_vector(&self, v: u32) -> Option<&[f32]> {
        if v < self.nodes {
            let start = v as usize * self.d;
            Some(&self.data[start..start + self.d])
        } else {
            None
        }
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Dot-product score between two nodes (the link-prediction score).
    pub fn dot(&self, u: u32, v: u32) -> f32 {
        kernels::dot(self.vector(u), self.vector(v))
    }

    /// Cosine similarity between two nodes.
    pub fn cosine(&self, u: u32, v: u32) -> f32 {
        kernels::cosine(self.vector(u), self.vector(v))
    }

    /// The `k` best-scoring nodes for an arbitrary query vector, by blocked
    /// partial selection: rows are scored block-by-block through the shared
    /// lane-unrolled kernels into one reused scratch buffer, then offered to
    /// a bounded heap — no full sort of all `nodes` scores.
    ///
    /// Results are score-descending; equal scores order by **ascending node
    /// id**, pinned across block boundaries (a tie between the last row of
    /// one block and the first row of the next resolves exactly as it would
    /// in a single flat scan), so the output is fully deterministic. `query`
    /// must have length `d`.
    pub fn top_k(&self, query: &[f32], k: usize, metric: Metric) -> Vec<(u32, f32)> {
        assert_eq!(query.len(), self.d, "query dimension mismatch");
        let mut sel = TopK::new(k);
        if self.d == 0 {
            // Degenerate width: every score is the empty dot product.
            for v in 0..self.nodes {
                sel.push(v, 0.0);
            }
            return sel.into_sorted_vec();
        }
        let mut scores = Vec::with_capacity(TOPK_BLOCK_ROWS);
        for (blk, rows) in self.data.chunks(TOPK_BLOCK_ROWS * self.d).enumerate() {
            metric.scores_into(query, rows, self.d, &mut scores);
            let lo = (blk * TOPK_BLOCK_ROWS) as u32;
            for (i, &score) in scores.iter().enumerate() {
                sel.push(lo + i as u32, score);
            }
        }
        sel.into_sorted_vec()
    }

    /// The `k` nearest nodes to `v` by cosine similarity (excluding `v`).
    pub fn nearest(&self, v: u32, k: usize) -> Vec<(u32, f32)> {
        self.top_k(self.vector(v), k + 1, Metric::Cosine)
            .into_iter()
            .filter(|&(u, _)| u != v)
            .take(k)
            .collect()
    }

    /// Serialise in the word2vec text format (`nodes d` header then one
    /// line per node).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.data.len() * 10);
        out.push_str(&format!("{} {}\n", self.nodes, self.d));
        for v in 0..self.nodes {
            out.push_str(&v.to_string());
            for x in self.vector(v) {
                out.push(' ');
                out.push_str(&format!("{x:.6}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parse the word2vec text format: a `nodes d` header, then one row per
    /// node, its id and exactly `d` values. `None` unless every id below
    /// `nodes` has exactly one row. A header whose table could not fit in the text
    /// (every id and value takes at least two bytes) is refused before
    /// anything is allocated.
    pub fn parse(text: &str) -> Option<Embedding> {
        let mut lines = text.lines();
        let mut header = lines.next()?.split_whitespace();
        let nodes: u32 = header.next()?.parse().ok()?;
        let d: usize = header.next()?.parse().ok()?;
        let tokens = (nodes as usize).checked_mul(d.checked_add(1)?)?;
        if tokens.checked_mul(2)? > text.len() {
            return None;
        }
        let mut data = vec![0f32; nodes as usize * d];
        let mut seen = vec![false; nodes as usize];
        for line in lines {
            let mut parts = line.split_whitespace();
            let v: usize = parts.next()?.parse().ok()?;
            if std::mem::replace(seen.get_mut(v)?, true) {
                return None;
            }
            for i in 0..d {
                data[v * d + i] = parts.next()?.parse().ok()?;
            }
            if parts.next().is_some() {
                return None;
            }
        }
        seen.iter()
            .all(|&s| s)
            .then_some(Embedding { nodes, d, data })
    }

    /// Payload bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Embedding {
        // Node 0 and 1 aligned, node 2 orthogonal.
        Embedding::from_row_major(3, 2, vec![1.0, 0.0, 2.0, 0.0, 0.0, 1.0])
    }

    #[test]
    fn vectors_and_scores() {
        let e = sample();
        assert_eq!(e.vector(1), &[2.0, 0.0]);
        assert_eq!(e.dot(0, 1), 2.0);
        assert!((e.cosine(0, 1) - 1.0).abs() < 1e-6);
        assert!(e.cosine(0, 2).abs() < 1e-6);
        assert_eq!(e.nodes(), 3);
        assert_eq!(e.dim(), 2);
        assert_eq!(e.size_bytes(), 24);
    }

    #[test]
    fn nearest_ranks_by_cosine() {
        let e = sample();
        let nn = e.nearest(0, 2);
        assert_eq!(nn.len(), 2);
        assert_eq!(nn[0].0, 1);
        assert_eq!(nn[1].0, 2);
        let top1 = e.nearest(0, 1);
        assert_eq!(top1.len(), 1);
    }

    #[test]
    fn try_vector_boundary() {
        let e = sample(); // 3 nodes
        assert_eq!(e.try_vector(0), Some(&[1.0f32, 0.0][..]));
        assert_eq!(e.try_vector(2), Some(&[0.0f32, 1.0][..]));
        // The boundary: v == nodes is the first out-of-range id.
        assert_eq!(e.try_vector(3), None);
        assert_eq!(e.try_vector(u32::MAX), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vector_panics_past_boundary() {
        let _ = sample().vector(3);
    }

    #[test]
    fn top_k_matches_full_sort() {
        let e = Embedding::from_row_major(
            5,
            2,
            vec![1.0, 0.0, 0.5, 0.5, -1.0, 0.0, 0.0, 1.0, 2.0, 0.0],
        );
        let q = [1.0f32, 0.25];
        for metric in [Metric::Dot, Metric::Cosine] {
            let got = e.top_k(&q, 3, metric);
            let mut full: Vec<(u32, f32)> =
                (0..5).map(|v| (v, metric.score(&q, e.vector(v)))).collect();
            full.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            full.truncate(3);
            assert_eq!(got, full, "metric {}", metric.label());
        }
    }

    #[test]
    fn top_k_ties_break_by_ascending_id() {
        // Nodes 0, 1 and 3 are identical; 2 is orthogonal.
        let e = Embedding::from_row_major(4, 2, vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        let top = e.top_k(&[1.0, 0.0], 2, Metric::Dot);
        assert_eq!(top, vec![(0, 1.0), (1, 1.0)]);
        // Deterministic: repeated calls give byte-identical output.
        assert_eq!(top, e.top_k(&[1.0, 0.0], 2, Metric::Dot));
        // k larger than the tie group keeps ids sorted within the tie.
        let top3 = e.top_k(&[1.0, 0.0], 3, Metric::Dot);
        assert_eq!(top3, vec![(0, 1.0), (1, 1.0), (3, 1.0)]);
    }

    #[test]
    fn top_k_ties_break_by_ascending_id_across_blocks() {
        // Three identical rows straddle the 256-row block boundary: the last
        // row of block 0 (255) and the first two of block 1 (256, 257). The
        // tie must resolve index-ascending exactly as in one flat scan.
        let d = 3;
        let n = 300u32;
        let mut data = vec![0f32; n as usize * d];
        for v in [255usize, 256, 257] {
            data[v * d] = 1.0;
        }
        let e = Embedding::from_row_major(n, d, data);
        let top = e.top_k(&[1.0, 0.0, 0.0], 2, Metric::Dot);
        assert_eq!(top, vec![(255, 1.0), (256, 1.0)]);
        let top3 = e.top_k(&[1.0, 0.0, 0.0], 3, Metric::Dot);
        assert_eq!(top3, vec![(255, 1.0), (256, 1.0), (257, 1.0)]);
        // k ≥ n: the full ranking stays deterministic, ties id-ascending.
        let all = e.top_k(&[1.0, 0.0, 0.0], n as usize + 5, Metric::Dot);
        assert_eq!(all.len(), n as usize);
        assert_eq!(&all[..3], &[(255, 1.0), (256, 1.0), (257, 1.0)]);
        assert_eq!(all[3], (0, 0.0));
    }

    #[test]
    fn top_k_blocked_matches_flat_selection() {
        // > one block of varied rows: blocked scan == flat per-row scoring.
        let d = 5;
        let n = 600u32;
        let data: Vec<f32> = (0..n as usize * d)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.11)
            .collect();
        let e = Embedding::from_row_major(n, d, data);
        let q: Vec<f32> = (0..d).map(|i| (i as f32) - 1.5).collect();
        for metric in [Metric::Dot, Metric::Cosine] {
            let got = e.top_k(&q, 17, metric);
            let mut sel = TopK::new(17);
            for v in 0..n {
                sel.push(v, metric.score(&q, e.vector(v)));
            }
            assert_eq!(got, sel.into_sorted_vec(), "metric {}", metric.label());
        }
    }

    #[test]
    fn top_k_merge_matches_single_scan() {
        // Partial selections over disjoint halves, merged in either order,
        // equal one selection over the whole range — including ties.
        let scores = |v: u32| ((v * 13 % 7) as f32) * 0.5;
        let mut whole = TopK::new(5);
        for v in 0..40 {
            whole.push(v, scores(v));
        }
        for swap in [false, true] {
            let mut lo = TopK::new(5);
            let mut hi = TopK::new(5);
            for v in 0..20 {
                lo.push(v, scores(v));
            }
            for v in 20..40 {
                hi.push(v, scores(v));
            }
            let merged = if swap {
                hi.merge(lo);
                hi
            } else {
                lo.merge(hi);
                lo
            };
            assert_eq!(merged.into_sorted_vec(), whole.clone().into_sorted_vec());
        }
    }

    #[test]
    fn top_k_handles_degenerate_k() {
        let e = sample();
        assert!(e.top_k(&[1.0, 0.0], 0, Metric::Dot).is_empty());
        assert_eq!(e.top_k(&[1.0, 0.0], 10, Metric::Dot).len(), 3);
    }

    /// A `k` no table reaches returns every row, best first, without
    /// reserving room for `k` candidates or computing `k + 1`.
    #[test]
    fn top_k_past_any_table_returns_every_row() {
        let e = sample();
        let every = e.top_k(&[1.0, 0.0], 3, Metric::Dot);
        for k in [usize::MAX, 1 << 40] {
            assert_eq!(e.top_k(&[1.0, 0.0], k, Metric::Dot), every, "k = {k}");
            let mut sel = TopK::new(k);
            sel.push(7, 1.0);
            sel.merge(TopK::new(k));
            assert_eq!(sel.into_sorted_vec(), vec![(7, 1.0)]);
        }
    }

    #[test]
    fn top_k_selector_streams() {
        let mut sel = TopK::new(2);
        assert!(sel.is_empty());
        for (node, score) in [(4u32, 0.5f32), (1, 1.5), (2, 1.5), (3, -2.0)] {
            sel.push(node, score);
        }
        assert_eq!(sel.len(), 2);
        assert_eq!(sel.into_sorted_vec(), vec![(1, 1.5), (2, 1.5)]);
    }

    /// The selector against a plain model — sort by `(total_cmp desc, id
    /// asc)`, truncate — after every push, flat and as merged partial
    /// selectors, on streams built to sit on the floor: equal scores
    /// arriving in descending-id order (each later one must displace),
    /// both zeros, both infinities, NaN of both signs. The floor itself is
    /// held to its definition.
    #[test]
    fn selector_matches_a_sorted_model_after_every_push() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        fn model(seen: &[(u32, f32)], k: usize) -> Vec<(u32, u32)> {
            let mut all = seen.to_vec();
            all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            all.truncate(k);
            all.into_iter().map(|(v, s)| (v, s.to_bits())).collect()
        }
        fn kept(sel: &TopK) -> Vec<(u32, u32)> {
            let kept = sel.clone().into_sorted_vec();
            let worst = kept.last().map(|&(_, s)| s.to_bits());
            let floor = if sel.k == 0 {
                f32::INFINITY.to_bits()
            } else if kept.len() < sel.k {
                f32::NEG_INFINITY.to_bits()
            } else {
                worst.expect("k > 0 candidates held")
            };
            assert_eq!(
                sel.floor.to_bits(),
                floor,
                "floor with {kept:?} of {}",
                sel.k
            );
            kept.into_iter().map(|(v, s)| (v, s.to_bits())).collect()
        }

        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE / 4.0,
            1.5,
            1.5,
        ];
        for seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 30 + (seed as usize * 7) % 50;
            // Ids descend, so a run of equal scores arrives worst-first.
            let stream: Vec<(u32, f32)> = (0..n)
                .map(|i| {
                    let draw: u32 = rng.gen();
                    let score = match draw % 4 {
                        0 => specials[(draw >> 8) as usize % specials.len()],
                        1 => ((draw >> 8) % 5) as f32 - 2.0,
                        _ => ((draw >> 8) as f32 / (1 << 24) as f32 - 0.5) * 8.0,
                    };
                    ((n - 1 - i) as u32 * 3, score)
                })
                .collect();
            for k in [0, 1, 10, n, n + 5] {
                let mut flat = TopK::new(k);
                for (i, &(v, s)) in stream.iter().enumerate() {
                    flat.push(v, s);
                    assert_eq!(kept(&flat), model(&stream[..=i], k), "seed {seed} k {k}");
                }
                // Partial selectors over four runs of the stream, merged
                // into a fifth: after every merge, the model of the prefix.
                let mut merged = TopK::new(k);
                let run = n.div_ceil(4);
                for (p, part) in stream.chunks(run).enumerate() {
                    let mut sel = TopK::new(k);
                    for &(v, s) in part {
                        sel.push(v, s);
                    }
                    assert_eq!(kept(&sel), model(part, k), "seed {seed} k {k} part {p}");
                    merged.merge(sel);
                    let upto = stream.len().min((p + 1) * run);
                    assert_eq!(
                        kept(&merged),
                        model(&stream[..upto], k),
                        "seed {seed} k {k} merged {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn text_roundtrip() {
        let e = sample();
        let text = e.to_text();
        assert!(text.starts_with("3 2\n"));
        let back = Embedding::parse(&text).unwrap();
        assert_eq!(back.nodes(), 3);
        for v in 0..3 {
            for (a, b) in back.vector(v).iter().zip(e.vector(v)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Embedding::parse("").is_none());
        assert!(Embedding::parse("2 2\n5 1 2\n").is_none()); // id out of range
        assert!(Embedding::parse("1 2\n0 1\n").is_none()); // short row
    }

    /// Headers whose table cannot be in the text are refused before the
    /// table is allocated: one that overflows `nodes × (d + 1)` bytes and one
    /// that asks for terabytes; and a table with a node missing or listed
    /// twice is refused, not served with zero rows.
    #[test]
    fn parse_refuses_hostile_headers_and_missing_or_repeated_rows() {
        assert!(Embedding::parse("4000000000 4000000000\n0 1 2\n").is_none());
        assert!(Embedding::parse("3 1000000000000\n0 1 2\n").is_none());
        assert!(Embedding::parse("3 2\n0 1 2\n").is_none());
        assert!(Embedding::parse("2 1\n0 1\n0 2\n").is_none());
        assert!(Embedding::parse("2 1\n1 1\n1 2\n").is_none());
        assert!(Embedding::parse("2 1\n0 1 9\n1 2\n").is_none());
        let e = Embedding::parse("2 1\n1 1\n0 2").unwrap();
        assert_eq!((e.vector(0), e.vector(1)), (&[2.0][..], &[1.0][..]));
        assert_eq!(Embedding::parse("0 5\n").unwrap().nodes(), 0);
    }

    #[test]
    fn from_matrix_roundtrip() {
        let m = DenseMatrix::from_row_major(2, 3, &[1., 2., 3., 4., 5., 6.]).unwrap();
        let e = Embedding::from_matrix(&m);
        assert_eq!(e.vector(0), &[1.0, 2.0, 3.0]);
        assert_eq!(e.vector(1), &[4.0, 5.0, 6.0]);
    }
}
