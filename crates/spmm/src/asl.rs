//! Asynchronous adaptive streaming loading (ASL, paper §III-E).
//!
//! The dense and result matrices of graph embedding dwarf DRAM, so OMeGa
//! streams them between DRAM and PM in column batches. ASL sizes the batch
//! count `n` from the peak-memory inequality of Eq. 8, solved as Eq. 9:
//!
//! `n ≥ 3·d·|V|·s / (M_total − M_s − 2·d·|V|·s)`
//!
//! where `s = size(type)` and `M_total` is the DRAM budget. Batches are then
//! processed in a software pipeline: while batch `k` computes (reads and
//! writes hitting fast DRAM), batch `k−1`'s results flush to PM and batch
//! `k+1` loads, asynchronously. [`streaming_schedule`] gives the resulting
//! intervals and schedule length.

use omega_hetmem::SimDuration;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// ASL tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AslConfig {
    /// Fraction of the node's *free* DRAM the streaming window may claim.
    pub dram_fraction: f64,
}

impl Default for AslConfig {
    fn default() -> Self {
        AslConfig { dram_fraction: 0.5 }
    }
}

/// Eq. 9: minimum number of dense-matrix partitions so that the streaming
/// window, its async double-buffer, the result block and intermediates fit
/// in `m_total` bytes alongside the sparse matrix (`m_s` bytes).
///
/// Returns `None` when even maximal partitioning (one column at a time)
/// cannot fit — the fixed `2·d·|V|·s` term (result + result intermediate)
/// exceeds the budget.
pub fn partitions_required(
    d: usize,
    v: u64,
    elem_size: u64,
    m_total: u64,
    m_s: u64,
) -> Option<u64> {
    let dv = d as u64 * v * elem_size;
    let fixed = m_s + 2 * dv;
    if m_total <= fixed {
        return None;
    }
    let free = (m_total - fixed) as f64;
    let n = (3.0 * dv as f64 / free).ceil() as u64;
    Some(n.max(1))
}

/// A concrete batching of `cols` dense columns into `n` partitions.
#[derive(Debug, Clone, PartialEq)]
pub struct AslPlan {
    pub batches: Vec<Range<usize>>,
}

impl AslPlan {
    /// Split `cols` columns into `partitions` near-even contiguous batches
    /// (at most one batch per column).
    pub fn new(cols: Range<usize>, partitions: u64) -> AslPlan {
        let width = cols.len();
        let n = (partitions.max(1) as usize).min(width.max(1));
        let base = width / n;
        let extra = width % n;
        let mut batches = Vec::with_capacity(n);
        let mut at = cols.start;
        for k in 0..n {
            let w = base + usize::from(k < extra);
            batches.push(at..at + w);
            at += w;
        }
        AslPlan { batches }
    }

    /// A degenerate single-batch plan (ASL disabled).
    pub fn single(cols: Range<usize>) -> AslPlan {
        AslPlan {
            batches: vec![cols],
        }
    }

    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Widest batch, the quantity that must fit the DRAM window.
    pub fn max_batch_cols(&self) -> usize {
        self.batches.iter().map(|b| b.len()).max().unwrap_or(0)
    }
}

/// The double-buffered streaming schedule of one phase: while batch `k`
/// computes, the background channel flushes batch `k−1`'s results and then
/// pre-loads batch `k+1`'s dense columns. Makespan =
/// `load_0 + Σ_k max(compute_k, flush_{k−1} + load_{k+1}) + flush_last`,
/// with `flush_{−1} = 0`.
///
/// All instants are offsets from the phase start; the executor prices the
/// phase with [`StreamingSchedule::makespan`] and replays the three
/// interval lists onto its trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamingSchedule {
    /// Per batch: `(start, duration)` of its compute interval.
    pub compute: Vec<(SimDuration, SimDuration)>,
    /// Per batch: `(start, duration)` of its pre-load interval.
    pub load: Vec<(SimDuration, SimDuration)>,
    /// Per batch: `(start, duration)` of its result flush interval.
    pub flush: Vec<(SimDuration, SimDuration)>,
    /// Schedule length: the end of the last flush.
    pub makespan: SimDuration,
}

/// Run the pipeline recurrence over per-batch compute, pre-load and flush
/// times, keeping every interval.
pub fn streaming_schedule(
    compute: &[SimDuration],
    load: &[SimDuration],
    flush: &[SimDuration],
) -> StreamingSchedule {
    assert_eq!(compute.len(), load.len());
    assert_eq!(compute.len(), flush.len());
    let n = compute.len();
    let mut sched = StreamingSchedule::default();
    if n == 0 {
        return sched;
    }
    sched.load.push((SimDuration::ZERO, load[0]));
    // Slot k starts at `t`: compute[k] on the compute lane; flush[k-1] then
    // load[k+1] on the background lane, which is free again at `bg`.
    let mut t = load[0];
    for k in 0..n {
        sched.compute.push((t, compute[k]));
        let mut bg = t;
        if k > 0 {
            sched.flush.push((bg, flush[k - 1]));
            bg += flush[k - 1];
        }
        if k + 1 < n {
            sched.load.push((bg, load[k + 1]));
            bg += load[k + 1];
        }
        t = (t + compute[k]).max(bg);
    }
    sched.flush.push((t, flush[n - 1]));
    sched.makespan = t + flush[n - 1];
    sched
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq9_matches_hand_computation() {
        // d=128, |V|=10^6, f32: dv = 512 MB. Budget 2 GiB, sparse 100 MB.
        let d = 128;
        let v = 1_000_000u64;
        let dv = 512_000_000u64;
        let m_total = 2u64 << 30;
        let m_s = 100_000_000;
        let n = partitions_required(d, v, 4, m_total, m_s).unwrap();
        let free = (m_total - m_s - 2 * dv) as f64;
        let expect = (3.0 * dv as f64 / free).ceil() as u64;
        assert_eq!(n, expect);
        assert!(n >= 2);
    }

    #[test]
    fn eq9_budget_shortfall_is_none() {
        // Result matrices alone exceed the budget.
        assert_eq!(partitions_required(128, 1 << 20, 4, 1 << 20, 0), None);
        // Exactly at the fixed term: still None (strict inequality).
        let dv = 2u64 * (1 << 20) * 4 * 128 / 2;
        let _ = dv;
    }

    #[test]
    fn eq9_large_budget_needs_one_partition() {
        let n = partitions_required(16, 1000, 4, 1 << 30, 0).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn plan_splits_evenly_and_covers() {
        let plan = AslPlan::new(0..10, 3);
        assert_eq!(plan.num_batches(), 3);
        assert_eq!(plan.batches, vec![0..4, 4..7, 7..10]);
        assert_eq!(plan.max_batch_cols(), 4);
        // More partitions than columns: one column per batch.
        let plan = AslPlan::new(0..3, 10);
        assert_eq!(plan.num_batches(), 3);
        assert!(plan.batches.iter().all(|b| b.len() == 1));
        // Offset ranges preserved.
        let plan = AslPlan::new(5..9, 2);
        assert_eq!(plan.batches, vec![5..7, 7..9]);
    }

    #[test]
    fn single_plan() {
        let plan = AslPlan::single(0..8);
        assert_eq!(plan.num_batches(), 1);
        assert_eq!(plan.max_batch_cols(), 8);
    }

    #[test]
    fn streaming_schedule_overlaps_both_directions() {
        let c = |ns| SimDuration::from_nanos(ns);
        // compute [10,10], load [3,3], flush [2,2]:
        // 3 + max(10, 0+3) + max(10, 2+0) + 2 = 25.
        let m = streaming_schedule(&[c(10), c(10)], &[c(3), c(3)], &[c(2), c(2)]).makespan;
        assert_eq!(m.as_nanos(), 25);
        // IO-bound: compute [1,1], load [10,10], flush [10,10]:
        // 10 + max(1, 10) + max(1, 10) + 10 = 40.
        let m = streaming_schedule(&[c(1), c(1)], &[c(10), c(10)], &[c(10), c(10)]).makespan;
        assert_eq!(m.as_nanos(), 40);
    }

    #[test]
    fn schedule_end_equals_makespan() {
        let c = |ns| SimDuration::from_nanos(ns);
        let cases: [(Vec<SimDuration>, Vec<SimDuration>, Vec<SimDuration>); 4] = [
            (vec![c(10), c(10)], vec![c(3), c(3)], vec![c(2), c(2)]),
            (vec![c(1), c(1)], vec![c(10), c(10)], vec![c(10), c(10)]),
            (vec![c(7)], vec![c(0)], vec![c(0)]),
            (
                vec![c(5), c(50), c(5), c(5)],
                vec![c(9), c(1), c(40), c(2)],
                vec![c(3), c(3), c(3), c(30)],
            ),
        ];
        for (compute, load, flush) in &cases {
            let sched = streaming_schedule(compute, load, flush);
            let (last_flush, dur) = *sched.flush.last().unwrap();
            assert_eq!(sched.makespan, last_flush + dur);
            // Intervals don't overlap within a lane and computes are ordered.
            for w in sched.compute.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0);
            }
            // Compute k cannot start before its load finished.
            for (k, (start, _)) in sched.compute.iter().enumerate() {
                let (ls, ld) = sched.load[k];
                assert!(ls + ld <= *start, "batch {k} computes before loaded");
            }
        }
    }

    #[test]
    fn empty_schedule_is_zero() {
        assert_eq!(
            streaming_schedule(&[], &[], &[]),
            StreamingSchedule::default()
        );
    }

    #[test]
    fn pipeline_overlaps_flushes() {
        // Nothing to pre-load: batch `k` computes while batch `k−1` flushes.
        let flush_only = |compute: &[u64], flush: &[u64]| {
            let c =
                |ns: &[u64]| -> Vec<_> { ns.iter().map(|&n| SimDuration::from_nanos(n)).collect() };
            let idle = vec![SimDuration::ZERO; compute.len()];
            streaming_schedule(&c(compute), &idle, &c(flush))
                .makespan
                .as_nanos()
        };
        // total = 10 + max(10,4) + max(10,4) + 4 = 34.
        assert_eq!(flush_only(&[10, 10, 10], &[4, 4, 4]), 34);
        // Flush-bound: total = 2 + max(2,10) + 10 = 22.
        assert_eq!(flush_only(&[2, 2], &[10, 10]), 22);
        // Single batch: compute + flush, no overlap possible.
        assert_eq!(flush_only(&[7], &[3]), 10);
    }
}
