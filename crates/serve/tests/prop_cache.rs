//! Property-based tests of the hot-tier cache: across arbitrary interleaved
//! admit/evict/access sequences the cache holds exactly what a plain
//! reference model of LRU-with-frequency-admission holds, the byte budget
//! is never exceeded, and the cache's own ledger always equals the sum of
//! its resident shards.

use omega_hetmem::{DeviceKind, MemSystem, Placement, Topology};
use omega_serve::{HotCache, InsertOutcome};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const NUM_SHARDS: usize = 16;

/// One step of a cache workout: touch a shard's frequency/recency, or offer
/// it for residency with some payload size.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access { sid: usize },
    Insert { sid: usize, floats: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NUM_SHARDS).prop_map(|sid| Op::Access { sid }),
        (0..NUM_SHARDS, 1usize..64).prop_map(|(sid, floats)| Op::Insert { sid, floats }),
    ]
}

/// The cache as plain data: every held shard as `(sid, last_use, bytes)`,
/// the victim found by scanning for the smallest `(last_use, sid)` — the
/// definition the cache's recency list has to reproduce — and the same
/// frequency gate and aging.
struct Model {
    held: Vec<(usize, u64, u64)>,
    freq: Vec<u32>,
    clock: u64,
    capacity: u64,
    admission: bool,
}

impl Model {
    fn used(held: &[(usize, u64, u64)]) -> u64 {
        held.iter().map(|&(_, _, bytes)| bytes).sum()
    }

    fn access(&mut self, sid: usize) {
        self.clock += 1;
        self.freq[sid] = self.freq[sid].saturating_add(1);
        if self
            .clock
            .is_multiple_of((16 * NUM_SHARDS as u64).max(1024))
        {
            self.freq.iter_mut().for_each(|f| *f /= 2);
        }
        if let Some(slot) = self.held.iter_mut().find(|slot| slot.0 == sid) {
            slot.1 = self.clock;
        }
    }

    fn insert(&mut self, sid: usize, bytes: u64) -> InsertOutcome {
        // Offering a held shard replaces it: the old copy goes first.
        self.held.retain(|slot| slot.0 != sid);
        if bytes > self.capacity {
            return InsertOutcome::RejectedByCapacity;
        }
        let mut kept = self.held.clone();
        while Model::used(&kept) + bytes > self.capacity {
            let (at, &(victim, _, _)) = kept
                .iter()
                .enumerate()
                .min_by_key(|(_, &(vid, last_use, _))| (last_use, vid))
                .expect("bytes held implies a held shard");
            if self.admission && self.freq[victim] > self.freq[sid] {
                return InsertOutcome::RejectedByFrequency;
            }
            kept.remove(at);
        }
        let evicted = self.held.len() - kept.len();
        self.held = kept;
        self.held.push((sid, self.clock, bytes));
        InsertOutcome::Admitted { evicted }
    }
}

/// Replay `ops` against a cache with `capacity` bytes and against the
/// model, checking after every single step that the two agree on the held
/// set, the byte ledger and the outcome, and that the budget holds.
fn check_sequence(ops: &[Op], capacity: u64, admission: bool) -> Result<(), TestCaseError> {
    let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 20));
    let hot = Placement::node(0, DeviceKind::Dram);
    let mut cache = HotCache::new(NUM_SHARDS, capacity, hot, admission);
    let mut model = Model {
        held: Vec::new(),
        freq: vec![0; NUM_SHARDS],
        clock: 0,
        capacity,
        admission,
    };
    let held = |cache: &HotCache| -> Vec<usize> {
        (0..NUM_SHARDS).filter(|&sid| cache.contains(sid)).collect()
    };

    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Access { sid } => {
                cache.record_access(sid);
                model.access(sid);
            }
            // Inserts between two accesses share a stamp, so victims among
            // them are chosen by shard id; a held shard may be offered
            // again.
            Op::Insert { sid, floats } => {
                let before = (held(&cache), cache.used_bytes());
                let was_held = cache.contains(sid);
                let outcome = cache.insert(&sys, sid, vec![sid as f32; floats]);
                prop_assert_eq!(
                    outcome,
                    model.insert(sid, floats as u64 * 4),
                    "step {}",
                    step
                );
                if outcome.admitted() {
                    prop_assert!(cache.contains(sid), "step {step}: admitted but absent");
                } else if !was_held {
                    prop_assert_eq!(
                        (held(&cache), cache.used_bytes()),
                        before,
                        "step {}: a refused insert changed the cache",
                        step
                    );
                }
            }
        }

        let mut want: Vec<usize> = model.held.iter().map(|slot| slot.0).collect();
        want.sort_unstable();
        prop_assert_eq!(held(&cache), want, "step {}", step);
        prop_assert_eq!(
            cache.used_bytes(),
            Model::used(&model.held),
            "step {}",
            step
        );
        for sid in 0..NUM_SHARDS {
            prop_assert_eq!(cache.freq(sid), model.freq[sid], "step {}", step);
        }
        // The budget invariant: never a byte over capacity.
        prop_assert!(
            cache.used_bytes() <= cache.capacity_bytes(),
            "step {}: used {} exceeds capacity {}",
            step,
            cache.used_bytes(),
            cache.capacity_bytes()
        );
        // The ledger invariant: used_bytes is exactly the resident sum.
        let resident_bytes: u64 = (0..NUM_SHARDS)
            .filter_map(|sid| cache.slot(sid).map(|v| v.size_bytes()))
            .sum();
        prop_assert_eq!(cache.used_bytes(), resident_bytes, "step {}", step);
        prop_assert_eq!(cache.resident(), model.held.len(), "step {}", step);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// LRU-only mode: arbitrary sequences never overrun the byte budget.
    #[test]
    fn lru_cache_never_exceeds_budget(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        capacity in 16u64..512,
    ) {
        check_sequence(&ops, capacity, false)?;
    }

    /// With TinyLFU admission on, the same invariants hold — frequency
    /// rejections must leave the cache untouched.
    #[test]
    fn admission_cache_never_exceeds_budget(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        capacity in 16u64..512,
    ) {
        check_sequence(&ops, capacity, true)?;
    }

    /// A zero-byte cache admits nothing, ever.
    #[test]
    fn zero_capacity_admits_nothing(
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 20));
        let hot = Placement::node(0, DeviceKind::Dram);
        let mut cache = HotCache::new(NUM_SHARDS, 0, hot, false);
        for op in &ops {
            match *op {
                Op::Access { sid } => cache.record_access(sid),
                Op::Insert { sid, floats } => {
                    prop_assert_eq!(
                        cache.insert(&sys, sid, vec![0.0; floats]),
                        InsertOutcome::RejectedByCapacity
                    );
                }
            }
            prop_assert_eq!(cache.used_bytes(), 0);
            prop_assert_eq!(cache.resident(), 0);
        }
    }
}
