//! Thread-allocation schemes: Round-Robin, workload-balancing WaTA, and the
//! paper's entropy-aware EaTA (§III-B, Algorithm 2).

use crate::workload::Workload;
use omega_graph::Csdb;

/// Which allocation scheme assigns sparse-matrix rows to threads.
///
/// ```
/// use omega_graph::{Csdb, RmatConfig};
/// use omega_spmm::AllocScheme;
///
/// let csr = RmatConfig::social(512, 4_000, 7).generate_csr().unwrap();
/// let csdb = Csdb::from_csr(&csr).unwrap();
/// let workloads = AllocScheme::EaTA.allocate(&csdb, 8);
/// assert_eq!(workloads.len(), 8);
/// let nnz: u64 = workloads.iter().map(|w| w.nnzs).sum();
/// assert_eq!(nnz, csdb.nnz() as u64); // every nnz assigned exactly once
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocScheme {
    /// Library-default scheduling (Fig. 6(a)): the row space dealt out in
    /// equal-row contiguous chunks, one per thread, blind to the nnz
    /// distribution — a stock parallel-for without OMeGa's preprocessing.
    /// On degree-sorted data the hub chunk dwarfs the rest.
    RoundRobin,
    /// Workload-balancing: contiguous ranges with equal nnz per thread
    /// (Fig. 6(b), ref.\[49\]). Balances bytes but not effective bandwidth.
    WaTA,
    /// Entropy-aware (Algorithm 2): equalises *predicted time* using the
    /// workload entropy weight of Eq. 7 with bandwidth ratio β = 0.25.
    EaTA,
}

/// EaTA's β — the end-to-end effective-bandwidth ratio between a fully
/// random (Z = 1) and fully sequential (Z = 0) workload. It folds together
/// the media amplification of 4-byte random fetches (a 64 B line per
/// element) *and* the Z-independent sparse-stream traffic each workload
/// carries; on the paper machine the total per-nnz cost ratio is ≈ 4x,
/// i.e. β ≈ 0.25 (a real deployment fits this constant from measurement
/// exactly as the paper fits K in Fig. 7(c)).
const EATA_BETA: f64 = 0.25;

impl AllocScheme {
    pub const fn label(&self) -> &'static str {
        match self {
            AllocScheme::RoundRobin => "RR",
            AllocScheme::WaTA => "WaTA",
            AllocScheme::EaTA => "EaTA",
        }
    }

    /// Partition the matrix's rows over `threads` simulated threads.
    pub fn allocate(&self, csdb: &Csdb, threads: usize) -> Vec<Workload> {
        let threads = threads.max(1);
        match *self {
            AllocScheme::RoundRobin => allocate_round_robin(csdb, threads),
            AllocScheme::WaTA => allocate_wata(csdb, threads),
            AllocScheme::EaTA => allocate_eata(csdb, threads, EATA_BETA),
        }
    }

    /// Analytical allocation overhead in CPU operations: one pass over row
    /// degrees for WaTA, two for EaTA (scan + rescan), none for RR. Charged
    /// by the executor so that Fig. 14's "overhead < 3.17 %" claim is
    /// checkable.
    pub(crate) fn overhead_cpu_ops(&self, rows: u32) -> u64 {
        match self {
            AllocScheme::RoundRobin => 0,
            AllocScheme::WaTA => rows as u64,
            AllocScheme::EaTA => 2 * rows as u64,
        }
    }
}

fn allocate_round_robin(csdb: &Csdb, threads: usize) -> Vec<Workload> {
    // The library default (OpenMP static scheduling): the row index space
    // is dealt out in equal-row contiguous chunks, one per thread, blind to
    // the nnz distribution. On a degree-sorted CSDB matrix the first chunk
    // holds the hub block and carries a massive nnz share — exactly the
    // imbalance Fig. 6(a) illustrates and Table II measures.
    let n = csdb.rows();
    let chunk = n.div_ceil(threads as u32).max(1);
    (0..threads)
        .map(|t| {
            let start = (t as u32 * chunk).min(n);
            let end = ((t as u32 + 1) * chunk).min(n);
            Workload::contiguous(t, csdb, start, end)
        })
        .collect()
}

fn allocate_wata(csdb: &Csdb, threads: usize) -> Vec<Workload> {
    let total = csdb.nnz() as u64;
    let mut out = Vec::with_capacity(threads);
    let mut rst = 0u32;
    let n = csdb.rows();
    for t in 0..threads {
        if rst >= n {
            out.push(Workload::contiguous(t, csdb, n, n));
            continue;
        }
        if t == threads - 1 {
            out.push(Workload::contiguous(t, csdb, rst, n));
            rst = n;
            continue;
        }
        let assigned: u64 = out.iter().map(|w: &Workload| w.nnzs).sum();
        let target = (total - assigned) / (threads - t) as u64;
        let red = advance_until(csdb, rst, target.max(1));
        out.push(Workload::contiguous(t, csdb, rst, red));
        rst = red;
    }
    out
}

/// Algorithm 2: entropy-aware allocation.
///
/// The paper's model (Eq. 4–5) prices a workload's running time as
/// `T(p_i) ∝ W_i / (BW_seq · (1 − Z(H_i) + β·Z(H_i)))` — nnz divided by
/// the entropy-degraded effective bandwidth. EaTA's goal is equal `T`
/// across threads; we solve that directly: scan the rows once, pricing
/// each growing workload with its *own* running entropy (tracked
/// incrementally: `H = ln W − (Σ d·ln d)/W`), and cut a workload when its
/// predicted time reaches the remaining-average target. This is the fixed
/// point the pseudo-code's one-step Eq. 7 rescale approximates; the direct
/// solve is equally O(|V|) and does not under-correct on degree-sorted
/// matrices.
fn allocate_eata(csdb: &Csdb, threads: usize, beta: f64) -> Vec<Workload> {
    let n = csdb.rows();
    let cols = csdb.cols();
    // Algorithm 2 starts from the balanced allocation and adjusts it.
    let balanced = allocate_wata(csdb, threads);
    if threads == 1 || csdb.nnz() == 0 {
        return balanced;
    }
    let time_of = |w: &Workload| predicted_time(w.nnzs as f64, w.entropy, cols, beta);

    // Incremental predicted-time accumulator for a contiguous row scan,
    // tracking the running entropy `H = ln W − (Σ d ln d)/W`.
    struct Acc {
        w: f64,
        dlnd: f64,
    }
    impl Acc {
        fn push(&mut self, d: f64) {
            self.w += d;
            if d > 1.0 {
                self.dlnd += d * d.ln();
            }
        }
        fn time(&self, cols: u32, beta: f64) -> f64 {
            if self.w <= 0.0 {
                return 0.0;
            }
            let h = (self.w.ln() - self.dlnd / self.w).max(0.0);
            predicted_time(self.w, h, cols, beta)
        }
    }

    // Pass 1: total predicted time of the whole matrix as threads-many
    // balanced chunks would see it — the equalisation target.
    let total_time: f64 = balanced.iter().map(time_of).sum();

    // Pass 2: cut workloads at equal predicted-time shares.
    let mut out: Vec<Workload> = Vec::with_capacity(threads);
    let mut allocated_time = 0.0f64;
    let mut rst = 0u32;
    for t in 0..threads {
        if rst >= n {
            out.push(Workload::contiguous(t, csdb, n, n));
            continue;
        }
        if t == threads - 1 {
            out.push(Workload::contiguous(t, csdb, rst, n));
            rst = n;
            continue;
        }
        let target = (total_time - allocated_time) / (threads - t) as f64;
        let mut acc = Acc { w: 0.0, dlnd: 0.0 };
        let mut red = rst;
        while red < n {
            acc.push(csdb.degree(red) as f64);
            red += 1;
            if acc.time(cols, beta) >= target {
                break;
            }
        }
        // Leave at least one row per remaining thread.
        let max_red = n.saturating_sub((threads - t - 1) as u32).max(rst + 1);
        let red = red.min(max_red);
        let w = Workload::contiguous(t, csdb, rst, red);
        allocated_time += time_of(&w);
        rst = red;
        out.push(w);
    }

    // When the adjustment does not improve the predicted makespan (dense
    // graphs with near-uniform workload entropy), keep the balanced split.
    let predicted_max = |ws: &[Workload]| ws.iter().map(time_of).fold(0.0, f64::max);
    if predicted_max(&balanced) < predicted_max(&out) {
        balanced
    } else {
        out
    }
}

/// The model's (Eq. 4–5) price of a workload, in arbitrary units: `W`
/// non-zeros at the per-nnz cost its normalised entropy `Z(H)` implies.
fn predicted_time(nnzs: f64, entropy: f64, cols: u32, beta: f64) -> f64 {
    let z = omega_graph::normalized_entropy(entropy, cols);
    nnzs * affine_cost_factor(z, beta)
}

/// The *affine* effective-cost factor of a workload with normalised
/// entropy `Z(H)` (§III-B, Eq. 3–7): per-nnz cost relative to a fully
/// sequential workload, `1 + (1/β − 1)·Z`, with `β = BW_rand / BW_seq`.
/// It shares Eq. 5's endpoints (cost 1 at Z = 0, cost 1/β at Z = 1) but is
/// linear in Z — the form the measured per-workload costs actually follow
/// (random fetches move whole media units, so traffic grows linearly with
/// the random share). EaTA prices with this factor, exactly as the paper
/// fits its `K` from measurements (Fig. 7(c)).
#[inline]
fn affine_cost_factor(z: f64, beta: f64) -> f64 {
    1.0 + (1.0 / beta.max(1e-6) - 1.0) * z.clamp(0.0, 1.0)
}

/// Smallest `red > rst` such that rows `[rst, red)` hold at least `target`
/// nnz (or the end of the matrix). Always consumes at least one row so the
/// allocator progresses past empty prefixes.
fn advance_until(csdb: &Csdb, rst: u32, target: u64) -> u32 {
    let n = csdb.rows();
    let mut acc = 0u64;
    let mut red = rst;
    while red < n {
        acc += csdb.degree(red) as u64;
        red += 1;
        if acc >= target {
            break;
        }
    }
    red
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::{Csdb, RmatConfig};
    use proptest::prelude::*;

    fn skewed() -> Csdb {
        let csr = RmatConfig::social(1 << 11, 20_000, 5)
            .generate_csr()
            .unwrap();
        Csdb::from_csr(&csr).unwrap()
    }

    fn coverage(ws: &[Workload], csdb: &Csdb) {
        let nnz: u64 = ws.iter().map(|w| w.nnzs).sum();
        assert_eq!(nnz, csdb.nnz() as u64, "all nnz covered exactly once");
        let rows: usize = ws.iter().map(|w| w.rows.len()).sum();
        assert_eq!(rows, csdb.rows() as usize, "all rows covered exactly once");
    }

    #[test]
    fn round_robin_covers_but_imbalances() {
        let g = skewed();
        let ws = AllocScheme::RoundRobin.allocate(&g, 8);
        coverage(&ws, &g);
        // CSDB sorts by degree, so the RR thread owning the first hub rows
        // carries far more nnz than the lightest thread.
        let max = ws.iter().map(|w| w.nnzs).max().unwrap();
        let min = ws.iter().map(|w| w.nnzs).min().unwrap();
        assert!(max > min, "RR should be imbalanced on skewed graphs");
    }

    #[test]
    fn wata_balances_nnz() {
        let g = skewed();
        let ws = AllocScheme::WaTA.allocate(&g, 8);
        coverage(&ws, &g);
        let mean = g.nnz() as f64 / 8.0;
        for w in &ws {
            // Within one hub row of the mean.
            assert!(
                (w.nnzs as f64) < mean * 1.6 && (w.nnzs as f64) > mean * 0.4,
                "nnzs={} mean={mean}",
                w.nnzs
            );
        }
    }

    #[test]
    fn eata_covers_and_stays_near_balance() {
        let g = skewed();
        let ws = AllocScheme::EaTA.allocate(&g, 8);
        coverage(&ws, &g);
        // EaTA still roughly balances nnz (it perturbs WaTA, not replaces it).
        let mean = g.nnz() as f64 / 8.0;
        for w in &ws {
            assert!(
                (w.nnzs as f64) < mean * 2.5,
                "thread {} grossly overloaded: {} vs mean {mean}",
                w.thread,
                w.nnzs
            );
        }
    }

    #[test]
    fn eata_shifts_nnz_from_tail_to_hub_threads() {
        // CSDB sorts descending by degree, so early threads hold compact
        // hub workloads (low entropy, cheap per nnz) and late threads hold
        // scattered tail workloads (high entropy, expensive per nnz). Eq. 7
        // grows the cheap workloads and shrinks the expensive ones.
        let g = skewed();
        let threads = 12;
        let wata = AllocScheme::WaTA.allocate(&g, threads);
        let eata = AllocScheme::EaTA.allocate(&g, threads);
        let tail = threads - threads / 4..threads;
        let tail_nnz = |ws: &[Workload]| -> u64 { ws[tail.clone()].iter().map(|w| w.nnzs).sum() };
        assert!(
            tail_nnz(&eata) < tail_nnz(&wata),
            "EaTA tail share {} should shrink below WaTA's {}",
            tail_nnz(&eata),
            tail_nnz(&wata)
        );
        // And the entropy of EaTA workloads is pulled toward its mean.
        let stddev = |ws: &[Workload]| {
            let hs: Vec<f64> = ws
                .iter()
                .filter(|w| w.nnzs > 0)
                .map(|w| w.entropy)
                .collect();
            let m = hs.iter().sum::<f64>() / hs.len() as f64;
            (hs.iter().map(|h| (h - m).powi(2)).sum::<f64>() / hs.len() as f64).sqrt()
        };
        assert!(stddev(&eata) <= stddev(&wata) * 1.25);
    }

    #[test]
    fn single_thread_gets_everything() {
        let g = skewed();
        for scheme in [
            AllocScheme::RoundRobin,
            AllocScheme::WaTA,
            AllocScheme::EaTA,
        ] {
            let ws = scheme.allocate(&g, 1);
            assert_eq!(ws.len(), 1);
            assert_eq!(ws[0].nnzs, g.nnz() as u64);
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let csr = RmatConfig::social(64, 200, 1).generate_csr().unwrap();
        let g = Csdb::from_csr(&csr).unwrap();
        for scheme in [AllocScheme::WaTA, AllocScheme::EaTA] {
            let ws = scheme.allocate(&g, 200);
            coverage(&ws, &g);
            assert_eq!(ws.len(), 200);
        }
    }

    #[test]
    fn overhead_model() {
        assert_eq!(AllocScheme::RoundRobin.overhead_cpu_ops(100), 0);
        assert_eq!(AllocScheme::WaTA.overhead_cpu_ops(100), 100);
        assert_eq!(AllocScheme::EaTA.overhead_cpu_ops(100), 200);
    }

    #[test]
    fn labels() {
        assert_eq!(AllocScheme::RoundRobin.label(), "RR");
        assert_eq!(AllocScheme::WaTA.label(), "WaTA");
        assert_eq!(AllocScheme::EaTA.label(), "EaTA");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The affine cost factor runs from 1 at Z = 0 to 1/β at Z = 1, and
        /// stays within [1, 1/β] between them.
        #[test]
        fn cost_factor_bounds(z in 0.0f64..1.0, beta in 0.01f64..1.0) {
            let cost = affine_cost_factor(z, beta);
            prop_assert!(cost >= 1.0 - 1e-12 && cost <= 1.0 / beta + 1e-9);
            prop_assert!((affine_cost_factor(0.0, beta) - 1.0).abs() < 1e-12);
            prop_assert!((affine_cost_factor(1.0, beta) - 1.0 / beta).abs() < 1e-6);
        }

        /// EaTA never predicts a worse makespan than the balanced WaTA split
        /// it perturbs, at any β: its heaviest entropy-priced workload is at
        /// most WaTA's (this is the fixed point Algorithm 2 approximates, and
        /// the implementation falls back to WaTA when perturbing does not
        /// help).
        #[test]
        fn eata_predicted_makespan_never_worse_than_wata(
            nodes in 16u32..400,
            edge_factor in 2u64..10,
            seed in 0u64..1_000,
            threads in 2usize..33,
            beta in 0.05f64..0.9,
        ) {
            let csr = RmatConfig::social(nodes, nodes as u64 * edge_factor, seed)
                .generate_csr()
                .unwrap();
            let csdb = Csdb::from_csr(&csr).unwrap();
            // EaTA's price of a workload: its nnz at Eq. 5's affine per-nnz
            // cost `1 + (1/β − 1)·Z(H)`.
            let predicted_max = |ws: &[Workload]| -> f64 {
                ws.iter()
                    .map(|w| {
                        let z = omega_graph::normalized_entropy(w.entropy, csdb.cols());
                        w.nnzs as f64 * (1.0 + (1.0 / beta - 1.0) * z)
                    })
                    .fold(0.0, f64::max)
            };
            let wata = predicted_max(&allocate_wata(&csdb, threads));
            let eata = predicted_max(&allocate_eata(&csdb, threads, beta));
            prop_assert!(
                eata <= wata * (1.0 + 1e-9),
                "EaTA predicts {eata}, WaTA {wata}"
            );
        }
    }
}
