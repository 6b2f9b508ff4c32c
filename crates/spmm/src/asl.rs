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
use std::ops::Range;

/// Eq. 9: minimum number of dense-matrix partitions so that the streaming
/// window, its async double-buffer, the result block and intermediates fit
/// in `m_total` bytes alongside the sparse matrix (`m_s` bytes).
///
/// When the fixed `2·d·|V|·s` term (result + result intermediate) leaves no
/// room, it falls back to streaming the result too: only the current
/// batch's result block occupies the window, so the fixed term is `M_s`
/// alone. Returns `None` when even that cannot fit.
pub(crate) fn partitions_required(
    d: usize,
    v: u64,
    elem_size: u64,
    m_total: u64,
    m_s: u64,
) -> Option<u64> {
    let dv = d as u64 * v * elem_size;
    let fixed = [m_s + 2 * dv, m_s].into_iter().find(|&f| m_total > f)?;
    let free = (m_total - fixed) as f64;
    let n = (3.0 * dv as f64 / free).ceil() as u64;
    Some(n.max(1))
}

/// A concrete batching of `cols` dense columns into `n` partitions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AslPlan {
    pub batches: Vec<Range<usize>>,
}

impl AslPlan {
    /// Split `cols` columns into `partitions` near-even contiguous batches
    /// (at most one batch per column).
    pub(crate) fn new(cols: Range<usize>, partitions: u64) -> AslPlan {
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
    pub(crate) fn single(cols: Range<usize>) -> AslPlan {
        AslPlan {
            batches: vec![cols],
        }
    }

    pub(crate) fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Widest batch, the quantity that must fit the DRAM window.
    pub(crate) fn max_batch_cols(&self) -> usize {
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
pub(crate) struct StreamingSchedule {
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
pub(crate) fn streaming_schedule(
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
    use proptest::prelude::*;

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
        // Not even the sparse matrix fits: nothing is left to stream into.
        assert_eq!(partitions_required(128, 1 << 20, 4, 1 << 20, 1 << 20), None);
        assert_eq!(partitions_required(128, 1 << 20, 4, 1 << 20, 2 << 20), None);
        assert_eq!(partitions_required(16, 1000, 4, 0, 0), None);
    }

    #[test]
    fn eq9_falls_back_to_a_streamed_result() {
        // d=16, |V|=1000, f32: dv = 64 000 B, sparse 10 000 B. Every budget
        // in (M_s, M_s + 2·dv] leaves no room for the resident result, so
        // only the sparse matrix is fixed: n = ceil(3·dv / (budget − M_s)).
        let (d, v, m_s, dv) = (16, 1000u64, 10_000u64, 64_000u64);
        for (free, n) in [(1, 192_000), (1000, 192), (96_000, 2), (2 * dv, 2)] {
            assert_eq!(partitions_required(d, v, 4, m_s + free, m_s), Some(n));
        }
        // One byte past the boundary Eq. 9 proper applies again.
        assert_eq!(
            partitions_required(d, v, 4, m_s + 2 * dv + 1, m_s),
            Some(192_000)
        );
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

    fn durs(ns: Vec<u64>) -> Vec<SimDuration> {
        ns.into_iter().map(SimDuration::from_nanos).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The streaming schedule is bounded below by the compute-only total
        /// plus the first load, and above by the fully-serialised sum.
        #[test]
        fn streaming_makespan_bounds(
            batches in proptest::collection::vec(
                (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
                1..20,
            )
        ) {
            let compute = durs(batches.iter().map(|b| b.0).collect());
            let load = durs(batches.iter().map(|b| b.1).collect());
            let flush = durs(batches.iter().map(|b| b.2).collect());
            let m = streaming_schedule(&compute, &load, &flush).makespan;

            let total_compute: u64 = batches.iter().map(|b| b.0).sum();
            let serial: u64 = batches.iter().map(|b| b.0 + b.1 + b.2).sum();
            prop_assert!(m.as_nanos() >= total_compute + batches[0].1);
            prop_assert!(m.as_nanos() <= serial);
        }

        /// With nothing to pre-load the schedule is a plain flush pipeline:
        /// bounded the same way, and never better than perfect overlap.
        #[test]
        fn pipeline_makespan_bounds(
            batches in proptest::collection::vec((0u64..1_000_000, 0u64..1_000_000), 1..20)
        ) {
            let compute = durs(batches.iter().map(|b| b.0).collect());
            let flush = durs(batches.iter().map(|b| b.1).collect());
            let idle = vec![SimDuration::ZERO; compute.len()];
            let m = streaming_schedule(&compute, &idle, &flush).makespan;
            let total_compute: u64 = batches.iter().map(|b| b.0).sum();
            let total_flush: u64 = batches.iter().map(|b| b.1).sum();
            prop_assert!(m.as_nanos() >= total_compute.max(total_flush));
            prop_assert!(m.as_nanos() <= total_compute + total_flush);
        }

        /// Eq. 9 on both branches: every count satisfies the inequality of
        /// the branch that chose it (the resident result's `2·d·|V|·s` is
        /// fixed above `M_s + 2·d·|V|·s`, only `M_s` below it), more budget
        /// never fails, and within a branch more budget never needs more
        /// partitions. Budgets are drawn around the branch boundary, so
        /// many pairs cross it.
        #[test]
        fn eq9_monotone_and_sound(
            d in 1usize..512,
            v in 1u64..1_000_000,
            at in 0.0f64..2.0,
            up in 0.0f64..1.0,
            m_s in 0u64..(1u64 << 28),
        ) {
            let dv = d as u64 * v * 4;
            let boundary = m_s + 2 * dv;
            let budget = (boundary as f64 * at) as u64;
            let more = budget + (boundary as f64 * up) as u64;
            let fixed = |m: u64| if m > boundary { boundary } else { m_s };
            let a = partitions_required(d, v, 4, budget, m_s);
            let b = partitions_required(d, v, 4, more, m_s);
            prop_assert_eq!(a.is_none(), budget <= m_s);
            prop_assert_eq!(b.is_none(), more <= m_s);
            if let (Some(na), Some(nb)) = (a, b) {
                if fixed(budget) == fixed(more) {
                    prop_assert!(nb <= na, "budget up, partitions up: {na} -> {nb}");
                }
                // Soundness: the chosen n fits its branch's inequality.
                let lhs = 3.0 * dv as f64 / na as f64 + fixed(budget) as f64;
                prop_assert!(lhs <= budget as f64 + 1.0 + 3.0 * dv as f64 * 1e-9);
            }
        }

        /// An ASL plan covers its column range exactly, in order, with batch
        /// widths differing by at most one.
        #[test]
        fn asl_plan_partitions_columns(start in 0usize..1000, width in 1usize..500, parts in 1u64..64) {
            let plan = AslPlan::new(start..start + width, parts);
            let mut at = start;
            for b in &plan.batches {
                prop_assert_eq!(b.start, at);
                at = b.end;
            }
            prop_assert_eq!(at, start + width);
            let min = plan.batches.iter().map(|b| b.len()).min().unwrap();
            prop_assert!(plan.max_batch_cols() - min <= 1);
            prop_assert!(plan.num_batches() as u64 <= parts.max(1));
        }
    }
}
