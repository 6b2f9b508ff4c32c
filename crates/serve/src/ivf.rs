//! IVF (inverted-file) approximate top-k: a seeded k-means coarse
//! quantizer over the embedding plus tier-aware inverted lists, giving the
//! server a cluster-then-probe path whose cost scales with the *probed*
//! rows instead of |V|.
//!
//! ## Determinism contract
//!
//! The build is a pure function of `(embedding, nlist, seed)`:
//!
//! * **Init** — a partial Fisher–Yates shuffle driven by a splitmix64
//!   stream picks `nlist` distinct seed rows.
//! * **Assignment** — rows are scored against every centroid through the
//!   shared [`Metric::scores_into`] kernels in fixed 256-row blocks; the
//!   worker pool only partitions the *block index space*, and per-block
//!   results are concatenated in block order, so the assignment vector is
//!   byte-identical at any wall-thread count.
//! * **Update** — centroid accumulation walks rows in ascending id order
//!   on the caller thread (empty clusters keep their previous centroid),
//!   so float summation order never depends on scheduling.
//!
//! Rebuilding with the same inputs therefore yields bit-identical
//! centroids, list membership and placement at `threads = 1` and
//! `threads = 64` alike.
//!
//! ## Tier-aware placement
//!
//! Centroids always live in the serving node's DRAM. Inverted lists are
//! placed largest-first into DRAM until [`ServeConfig::ivf_hot_bytes`] is
//! spent; the remainder — the long tail — goes to the cold tier
//! ([`ServeConfig::cold`]) as placed [`HetVec`]s, so every probe of a cold
//! list streams through the hetmem cost model and is fault-injectable
//! exactly like a shard scan.

use crate::config::{ServeConfig, HOT, METRIC};
use omega_embed::{Embedding, Metric, TopK};
use omega_hetmem::{HetVec, MemSystem};

/// Fixed k-means refinement rounds. A constant (not a knob): recall is
/// steered by `nprobe`, and a fixed iteration count keeps builds
/// reproducible across configurations.
pub(crate) const KMEANS_ITERS: usize = 8;

/// Seed of the k-means init stream. Builds are deterministic, not
/// configurable-random: the index is infrastructure, not an experiment.
const KMEANS_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Rows scored per parallel assignment task. Fixed (never derived from the
/// thread count) so the block partition — and with it every float — is
/// identical at any pool width.
const ASSIGN_BLOCK_ROWS: usize = 256;

/// How the server answers top-k queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMode {
    /// Brute-force blocked scan over every shard (the oracle).
    Exact,
    /// Cluster-then-probe through an [`IvfIndex`]. `nlist == 0` resolves
    /// to `ceil(sqrt(|V|))`; `nprobe == 0` resolves to five-eighths of
    /// `nlist`, rounded up. Both are clamped into `1..=nlist`.
    Ivf { nlist: usize, nprobe: usize },
}

/// The auto list count: `ceil(sqrt(nodes))`, the classic IVF sizing that
/// balances centroid-scan cost against per-list length.
pub(crate) fn auto_nlist(nodes: u32) -> usize {
    ((nodes.max(1) as f64).sqrt().ceil() as usize).max(1)
}

/// The auto probe count: five-eighths of the lists. On a 6 k-node Gaussian
/// table (dot metric) half the lists sits right at 95 % recall@10, so the
/// default probes 5/8 of them for ~98 % recall with margin while still
/// cutting the simulated probe cost by over a third; the sweep is pinned by
/// `tests/integration_serving.rs::ivf_recall_sweep_is_pinned`.
pub(crate) fn default_nprobe(nlist: usize) -> usize {
    (nlist * 5).div_ceil(8).max(1)
}

impl IndexMode {
    /// Resolve the auto (`0`) knobs against a concrete table size. `Exact`
    /// resolves to itself; `Ivf` comes back with both knobs in
    /// `1..=nlist` and `nlist <= max(nodes, 1)`.
    pub fn resolved(self, nodes: u32) -> IndexMode {
        match self {
            IndexMode::Exact => IndexMode::Exact,
            IndexMode::Ivf { nlist, nprobe } => {
                let cap = (nodes.max(1)) as usize;
                let nlist = if nlist == 0 { auto_nlist(nodes) } else { nlist }.clamp(1, cap);
                let nprobe = if nprobe == 0 {
                    default_nprobe(nlist)
                } else {
                    nprobe
                }
                .clamp(1, nlist);
                IndexMode::Ivf { nlist, nprobe }
            }
        }
    }
}

/// One inverted list: the member node ids (index metadata, DRAM-resident
/// like the shard directory) and their gathered rows as a placed,
/// cost-charged [`HetVec`].
#[derive(Debug)]
struct IvfList {
    ids: Vec<u32>,
    rows: HetVec<f32>,
    hot: bool,
}

/// A built IVF index over one embedding table.
#[derive(Debug)]
pub struct IvfIndex {
    nlist: usize,
    nprobe: usize,
    dim: usize,
    nodes: u32,
    /// `nlist × dim` row-major centroids, always in serving-node DRAM.
    centroids: HetVec<f32>,
    lists: Vec<IvfList>,
    hot_lists: usize,
}

/// splitmix64 — the standard 64-bit mix, used only to drive the k-means
/// init shuffle deterministically.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Assign every row to its best centroid (highest metric score, ties to
/// the smaller centroid id), in parallel over fixed-size row blocks.
/// Returns the per-row centroid ids in row order — byte-identical at any
/// wall-thread count because blocks are fixed and results concatenate in
/// block order.
fn assign_rows(emb: &Embedding, centroids: &[f32], nlist: usize, threads: usize) -> Vec<u32> {
    let d = emb.dim();
    let n = emb.nodes() as usize;
    let blocks = n.div_ceil(ASSIGN_BLOCK_ROWS);
    let per_block = omega_par::run_labeled(
        "serve.ivf.assign",
        threads,
        blocks,
        |scores: &mut Vec<f32>, b| {
            let lo = b * ASSIGN_BLOCK_ROWS;
            let hi = n.min(lo + ASSIGN_BLOCK_ROWS);
            let mut out = Vec::with_capacity(hi - lo);
            for v in lo..hi {
                let row = &emb.data()[v * d..(v + 1) * d];
                METRIC.scores_into(row, centroids, d, scores);
                let mut best = 0usize;
                for c in 1..nlist {
                    if scores[c].total_cmp(&scores[best]) == std::cmp::Ordering::Greater {
                        best = c;
                    }
                }
                out.push(best as u32);
            }
            out
        },
    );
    let mut assign = Vec::with_capacity(n);
    for block in per_block {
        assign.extend(block);
    }
    assign
}

impl IvfIndex {
    /// Train the coarse quantizer and build the placed inverted lists.
    /// `nlist`/`nprobe` must already be resolved (see
    /// [`IndexMode::resolved`]); the embedding must be non-empty with
    /// `dim > 0`. Fails if a tier cannot hold its lists.
    pub(crate) fn build(
        sys: &MemSystem,
        emb: &Embedding,
        cfg: &ServeConfig,
        nlist: usize,
        nprobe: usize,
    ) -> omega_hetmem::Result<IvfIndex> {
        let n = emb.nodes() as usize;
        let d = emb.dim();
        assert!(n > 0 && d > 0, "IVF needs a non-empty embedding");
        assert!((1..=n).contains(&nlist), "nlist must be in 1..=nodes");

        // Seeded init: a partial Fisher–Yates shuffle picks nlist distinct
        // seed rows.
        let mut order: Vec<u32> = (0..emb.nodes()).collect();
        let mut state = KMEANS_SEED;
        for i in 0..nlist {
            let j = i + (splitmix64(&mut state) as usize) % (n - i);
            order.swap(i, j);
        }
        let mut centroids = Vec::with_capacity(nlist * d);
        for &v in &order[..nlist] {
            centroids.extend_from_slice(emb.vector(v));
        }

        // Lloyd rounds: parallel assignment, fixed-order (row-ascending)
        // accumulation, empty clusters keep their previous centroid.
        let mut assign = vec![0u32; n];
        for _ in 0..KMEANS_ITERS {
            assign = assign_rows(emb, &centroids, nlist, cfg.threads);
            let mut sums = vec![0f64; nlist * d];
            let mut counts = vec![0u64; nlist];
            for (v, &c) in assign.iter().enumerate() {
                let c = c as usize;
                counts[c] += 1;
                let row = &emb.data()[v * d..(v + 1) * d];
                for (acc, &x) in sums[c * d..(c + 1) * d].iter_mut().zip(row) {
                    *acc += x as f64;
                }
            }
            for c in 0..nlist {
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f64;
                    for i in 0..d {
                        centroids[c * d + i] = (sums[c * d + i] * inv) as f32;
                    }
                }
            }
        }

        // Gather list membership in ascending row order (ids within a list
        // come out sorted, which also pins tie order downstream).
        let mut ids: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (v, &c) in assign.iter().enumerate() {
            ids[c as usize].push(v as u32);
        }

        // Tier-aware placement: largest lists first (ties to the smaller
        // list id) go hot until the DRAM budget is spent; the tail goes to
        // the cold tier.
        let mut by_size: Vec<usize> = (0..nlist).collect();
        by_size.sort_unstable_by_key(|&c| (std::cmp::Reverse(ids[c].len()), c));
        let mut hot = vec![false; nlist];
        let mut spent = 0u64;
        let mut hot_lists = 0usize;
        for &c in &by_size {
            let bytes = (ids[c].len() * d * 4) as u64;
            if spent + bytes <= cfg.ivf_hot_bytes {
                spent += bytes;
                hot[c] = true;
                hot_lists += 1;
            }
        }

        let centroids = sys.alloc_from(HOT, centroids)?;
        let mut lists = Vec::with_capacity(nlist);
        for (c, ids) in ids.into_iter().enumerate() {
            let mut rows = Vec::with_capacity(ids.len() * d);
            for &v in &ids {
                rows.extend_from_slice(emb.vector(v));
            }
            let placement = if hot[c] { HOT } else { cfg.cold };
            lists.push(IvfList {
                ids,
                rows: sys.alloc_from(placement, rows)?,
                hot: hot[c],
            });
        }

        Ok(IvfIndex {
            nlist,
            nprobe,
            dim: d,
            nodes: emb.nodes(),
            centroids,
            lists,
            hot_lists,
        })
    }

    #[inline]
    pub fn nlist(&self) -> usize {
        self.nlist
    }

    /// The resolved default probe count (per-query overrides clamp against
    /// [`IvfIndex::nlist`]).
    #[inline]
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Payload bytes of the centroid table (one probe's DRAM scan).
    #[inline]
    pub fn centroid_bytes(&self) -> u64 {
        self.centroids.size_bytes()
    }

    /// Member node ids of list `c`, ascending.
    #[inline]
    pub fn list_ids(&self, c: usize) -> &[u32] {
        &self.lists[c].ids
    }

    /// Whether list `c` was placed in DRAM by the hot budget.
    #[inline]
    pub fn list_is_hot(&self, c: usize) -> bool {
        self.lists[c].hot
    }

    /// Lists resident in DRAM.
    #[inline]
    pub fn hot_list_count(&self) -> usize {
        self.hot_lists
    }

    /// Lists left empty by a skewed clustering (probed for free).
    pub fn empty_list_count(&self) -> usize {
        self.lists.iter().filter(|l| l.ids.is_empty()).count()
    }

    /// List `c`'s rows as the placed, charged buffer a probe leg streams.
    #[inline]
    pub(crate) fn list_rows(&self, c: usize) -> &HetVec<f32> {
        &self.lists[c].rows
    }

    /// The `nprobe` best lists for `query` (highest centroid score, ties
    /// to the smaller list id), returned in **ascending list id** order —
    /// the fixed merge order of the probe fan-out. Selection goes through
    /// the shared [`TopK`] order, so the probed set at `nprobe` is always
    /// a subset of the probed set at `nprobe + 1` (recall is monotone in
    /// `nprobe` by construction).
    pub fn select_lists(
        &self,
        query: &[f32],
        metric: Metric,
        nprobe: usize,
        scores: &mut Vec<f32>,
    ) -> Vec<u32> {
        metric.scores_into(query, self.centroids.raw(), self.dim, scores);
        let mut sel = TopK::new(nprobe);
        for (c, &score) in scores.iter().enumerate() {
            sel.push(c as u32, score);
        }
        let mut lists: Vec<u32> = sel.into_sorted_vec().into_iter().map(|(c, _)| c).collect();
        lists.sort_unstable();
        lists
    }

    /// FNV-1a digest of everything the build decided: centroid bits, list
    /// membership and placement. Two builds are interchangeable iff their
    /// digests match — the determinism tests' one-number assert.
    #[cfg(test)]
    fn build_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(self.nlist as u64);
        for &x in self.centroids.raw() {
            eat(x.to_bits() as u64);
        }
        for list in &self.lists {
            eat(list.ids.len() as u64);
            eat(list.hot as u64);
            for &id in &list.ids {
                eat(id as u64);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_hetmem::Topology;

    fn emb(nodes: u32, d: usize) -> Embedding {
        let data: Vec<f32> = (0..nodes as usize * d)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        Embedding::from_row_major(nodes, d, data)
    }

    fn build(nodes: u32, d: usize, nlist: usize, threads: usize) -> IvfIndex {
        let sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
        let cfg = ServeConfig::new(1 << 16).threads(threads);
        IvfIndex::build(&sys, &emb(nodes, d), &cfg, nlist, nlist).unwrap()
    }

    #[test]
    fn resolved_fills_auto_knobs() {
        assert_eq!(IndexMode::Exact.resolved(100), IndexMode::Exact);
        let m = IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        }
        .resolved(100);
        assert_eq!(
            m,
            IndexMode::Ivf {
                nlist: 10,
                nprobe: 7
            }
        );
        // Explicit knobs clamp into range.
        let m = IndexMode::Ivf {
            nlist: 500,
            nprobe: 900,
        }
        .resolved(100);
        assert_eq!(
            m,
            IndexMode::Ivf {
                nlist: 100,
                nprobe: 100
            }
        );
    }

    #[test]
    fn lists_partition_the_table() {
        let ivf = build(300, 8, 16, 1);
        let mut seen = vec![false; 300];
        for c in 0..ivf.nlist() {
            let ids = ivf.list_ids(c);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids sorted");
            for &v in ids {
                assert!(!seen[v as usize], "node {v} in two lists");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every node in some list");
    }

    #[test]
    fn build_is_thread_invariant_and_rerun_stable() {
        let base = build(300, 8, 16, 1).build_digest();
        for threads in [1, 2, 8] {
            assert_eq!(
                build(300, 8, 16, threads).build_digest(),
                base,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn placement_respects_hot_budget() {
        let sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
        let e = emb(300, 8);
        // Zero budget: everything cold.
        let cfg = ServeConfig::new(1 << 16).ivf_hot_bytes(0);
        let cold = IvfIndex::build(&sys, &e, &cfg, 16, 16).unwrap();
        assert_eq!(cold.hot_list_count(), cold.empty_list_count());
        // Huge budget: everything hot.
        let cfg = ServeConfig::new(1 << 16).ivf_hot_bytes(u64::MAX);
        let hot = IvfIndex::build(&sys, &e, &cfg, 16, 16).unwrap();
        assert_eq!(hot.hot_list_count(), 16);
        // Same clustering either way.
        assert_eq!(
            (0..16)
                .map(|c| cold.list_ids(c).to_vec())
                .collect::<Vec<_>>(),
            (0..16)
                .map(|c| hot.list_ids(c).to_vec())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn select_lists_is_nested_in_nprobe() {
        let ivf = build(300, 8, 16, 1);
        let e = emb(300, 8);
        let mut scores = Vec::new();
        for q in [3u32, 77, 250] {
            let query = e.vector(q);
            let mut prev: Vec<u32> = Vec::new();
            for nprobe in 1..=16 {
                let sel = ivf.select_lists(query, Metric::Dot, nprobe, &mut scores);
                assert_eq!(sel.len(), nprobe);
                assert!(sel.windows(2).all(|w| w[0] < w[1]), "ascending ids");
                assert!(
                    prev.iter().all(|c| sel.contains(c)),
                    "top-{nprobe} must contain top-{}",
                    nprobe - 1
                );
                prev = sel;
            }
        }
    }
}
