//! The hot tier: a capacity-bounded DRAM cache of shards with LRU eviction
//! and TinyLFU-style frequency admission.
//!
//! Admission is what keeps a Zipfian working set resident: a one-off scan
//! (or the cold tail of the popularity curve) cannot displace a shard that
//! has historically seen more traffic than the newcomer. Frequency counters
//! age by periodic halving so the cache still adapts when popularity drifts.

use omega_hetmem::{HetVec, MemSystem, Placement};

/// Outcome of offering a fetched shard to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The shard is now DRAM-resident.
    Admitted {
        /// Shards evicted to make room.
        evicted: usize,
    },
    /// The LRU victim is historically hotter than the candidate; the cache
    /// kept its contents (scan resistance).
    RejectedByFrequency,
    /// The shard cannot fit (bigger than the whole cache budget, or DRAM
    /// itself is exhausted).
    RejectedByCapacity,
}

impl InsertOutcome {
    pub fn admitted(self) -> bool {
        matches!(self, InsertOutcome::Admitted { .. })
    }

    pub fn evicted(self) -> usize {
        match self {
            InsertOutcome::Admitted { evicted } => evicted,
            _ => 0,
        }
    }
}

/// What a slab slot holds for its shard.
#[derive(Debug)]
enum Rows {
    /// Not in the cache.
    Absent,
    /// Reserved by [`HotCache::reserve`]; the rows are still being fetched.
    Pending,
    Resident(HetVec<f32>),
}

/// End-of-list marker of the recency list.
const NIL: u32 = u32::MAX;

/// One slab entry: shard `sid` lives at index `sid`, linked into the
/// recency list while its rows are `Pending` or `Resident`.
#[derive(Debug)]
struct Slot {
    rows: Rows,
    /// Bytes booked against the budget while linked.
    bytes: u64,
    last_use: u64,
    prev: u32,
    next: u32,
}

/// Shard-granular DRAM cache: LRU replacement, frequency-gated admission.
#[derive(Debug)]
pub struct HotCache {
    /// One slot per shard of the table, indexed by shard id.
    slots: Vec<Slot>,
    /// The recency list threaded through `slots`, ascending by
    /// `(last_use, sid)`: `head` is the LRU victim, `tail` the most
    /// recently used.
    head: u32,
    tail: u32,
    /// Slots on the list.
    linked: usize,
    hot: Placement,
    capacity_bytes: u64,
    used_bytes: u64,
    /// Exact per-shard access frequency (the "sketch" of TinyLFU, kept
    /// exact here — shard counts are small).
    freq: Vec<u32>,
    /// Logical access clock; drives LRU ordering and frequency aging.
    clock: u64,
    /// Accesses between halvings of every frequency counter.
    aging_period: u64,
    admission: bool,
}

impl HotCache {
    pub fn new(num_shards: usize, capacity_bytes: u64, hot: Placement, admission: bool) -> Self {
        assert!(
            num_shards < NIL as usize,
            "shard ids must fit the slab link"
        );
        let slots = (0..num_shards)
            .map(|_| Slot {
                rows: Rows::Absent,
                bytes: 0,
                last_use: 0,
                prev: NIL,
                next: NIL,
            })
            .collect();
        HotCache {
            slots,
            head: NIL,
            tail: NIL,
            linked: 0,
            hot,
            capacity_bytes,
            used_bytes: 0,
            freq: vec![0; num_shards],
            clock: 0,
            aging_period: (16 * num_shards as u64).max(1024),
            admission,
        }
    }

    /// The DRAM placement cached shards live at.
    #[inline]
    pub fn placement(&self) -> Placement {
        self.hot
    }

    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    #[inline]
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of resident shards.
    #[inline]
    pub fn resident(&self) -> usize {
        self.linked
    }

    /// Whether `sid` holds a slot (a reservation still waiting for its
    /// rows counts: its bytes are booked and it can be evicted).
    #[inline]
    pub fn contains(&self, sid: usize) -> bool {
        !matches!(self.slots[sid].rows, Rows::Absent)
    }

    /// Whether `sid` holds a reservation whose rows have not arrived.
    #[inline]
    pub(crate) fn pending(&self, sid: usize) -> bool {
        matches!(self.slots[sid].rows, Rows::Pending)
    }

    /// Historical access count of a shard (aged).
    #[inline]
    pub fn freq(&self, sid: usize) -> u32 {
        self.freq[sid]
    }

    /// Record an access to `sid`: bump its frequency, refresh LRU recency if
    /// resident, and age all counters on period boundaries.
    pub fn record_access(&mut self, sid: usize) {
        self.clock += 1;
        self.freq[sid] = self.freq[sid].saturating_add(1);
        if self.clock.is_multiple_of(self.aging_period) {
            for f in &mut self.freq {
                *f /= 2;
            }
        }
        if self.contains(sid) {
            // The clock just advanced, so this stamp is the largest on
            // the list: the slot belongs at the tail.
            self.slots[sid].last_use = self.clock;
            if self.tail != sid as u32 {
                self.unlink(sid);
                self.link_after(self.tail, sid);
            }
        }
    }

    /// The resident buffer for `sid`, if cached. Reads through the returned
    /// [`HetVec`] are charged as DRAM traffic by the caller's context.
    #[inline]
    pub fn slot(&self, sid: usize) -> Option<&HetVec<f32>> {
        match &self.slots[sid].rows {
            Rows::Resident(data) => Some(data),
            Rows::Absent | Rows::Pending => None,
        }
    }

    /// Take `sid` off the recency list (its `prev` / `next` go stale).
    fn unlink(&mut self, sid: usize) {
        let Slot { prev, next, .. } = self.slots[sid];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Put `sid` on the recency list right after `at` (`NIL`: at the head).
    fn link_after(&mut self, at: u32, sid: usize) {
        let next = match at {
            NIL => std::mem::replace(&mut self.head, sid as u32),
            a => std::mem::replace(&mut self.slots[a as usize].next, sid as u32),
        };
        match next {
            NIL => self.tail = sid as u32,
            n => self.slots[n as usize].prev = sid as u32,
        }
        self.slots[sid].prev = at;
        self.slots[sid].next = next;
    }

    /// Give `sid`'s slot back: off the list, bytes returned to the budget,
    /// rows dropped (dropping the `HetVec` releases its governor lease).
    fn release(&mut self, sid: usize) {
        self.unlink(sid);
        self.linked -= 1;
        self.used_bytes -= self.slots[sid].bytes;
        self.slots[sid].rows = Rows::Absent;
    }

    /// Decide whether a `bytes`-sized shard `sid` may become resident —
    /// before anything is fetched, because the verdict needs nothing from
    /// the shard's rows. Evicts LRU victims until the shard fits, unless
    /// admission control finds a victim with strictly higher historical
    /// frequency than the candidate — then the candidate is refused and
    /// the cache keeps every shard it held: the victims are walked first
    /// and evicted only once the whole walk admits (shards differ in size,
    /// so one refusal can come after a smaller, cooler victim). An
    /// admitted shard gets a slot stamped with the current clock, booked
    /// against the budget and waiting for [`HotCache::fill`]; until then
    /// it is a victim candidate like any resident shard, so a later
    /// reservation of the same batch can take the slot back.
    pub(crate) fn reserve(&mut self, sid: usize, bytes: u64) -> InsertOutcome {
        debug_assert!(!self.contains(sid), "reserve of resident shard");
        if bytes > self.capacity_bytes {
            return InsertOutcome::RejectedByCapacity;
        }
        let (mut evicted, mut freed) = (0, 0);
        let mut victim = self.head;
        while self.used_bytes - freed + bytes > self.capacity_bytes {
            debug_assert!(victim != NIL, "bytes still booked implies a linked slot");
            let slot = &self.slots[victim as usize];
            if self.admission && self.freq[victim as usize] > self.freq[sid] {
                return InsertOutcome::RejectedByFrequency;
            }
            freed += slot.bytes;
            evicted += 1;
            victim = slot.next;
        }
        for _ in 0..evicted {
            self.release(self.head as usize);
        }
        // Stamps never exceed the clock, so only the list's tail end can
        // tie with the new slot; among ties the smaller shard id is the
        // earlier victim.
        let mut at = self.tail;
        while at != NIL && self.slots[at as usize].last_use == self.clock && at as usize > sid {
            at = self.slots[at as usize].prev;
        }
        self.link_after(at, sid);
        self.linked += 1;
        self.used_bytes += bytes;
        let slot = &mut self.slots[sid];
        slot.rows = Rows::Pending;
        slot.bytes = bytes;
        slot.last_use = self.clock;
        InsertOutcome::Admitted { evicted }
    }

    /// Move the fetched `rows` into the slot [`HotCache::reserve`] left
    /// pending for `sid`. Returns `false`, and gives the slot back, when
    /// DRAM itself is full (the budget over-promised) — serving falls back
    /// to the cold tier. Whatever the reservation evicted stays evicted,
    /// and was reported by `reserve`.
    pub(crate) fn fill(&mut self, sys: &MemSystem, sid: usize, rows: Vec<f32>) -> bool {
        debug_assert!(self.pending(sid), "fill without a reservation");
        debug_assert_eq!(
            std::mem::size_of_val(rows.as_slice()) as u64,
            self.slots[sid].bytes
        );
        match sys.alloc_from(self.hot, rows) {
            Ok(data) => {
                self.slots[sid].rows = Rows::Resident(data);
                true
            }
            Err(_) => {
                self.release(sid);
                false
            }
        }
    }

    /// Offer shard `sid`'s freshly fetched rows for DRAM residency:
    /// `HotCache::reserve`, then `HotCache::fill` if admitted. Offering
    /// a shard that is already resident replaces it: the old copy gives
    /// its slot back first and the new one is judged like any newcomer.
    pub fn insert(&mut self, sys: &MemSystem, sid: usize, rows: Vec<f32>) -> InsertOutcome {
        if self.contains(sid) {
            self.release(sid);
        }
        let outcome = self.reserve(sid, std::mem::size_of_val(rows.as_slice()) as u64);
        if outcome.admitted() && !self.fill(sys, sid, rows) {
            return InsertOutcome::RejectedByCapacity;
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_hetmem::{DeviceKind, Topology};

    fn sys() -> MemSystem {
        MemSystem::new(Topology::paper_machine_scaled(1 << 20))
    }

    fn dram() -> Placement {
        Placement::node(0, DeviceKind::Dram)
    }

    fn shard(fill: f32) -> Vec<f32> {
        vec![fill; 8] // 32 bytes
    }

    #[test]
    fn admits_until_full_then_evicts_lru() {
        let s = sys();
        let mut c = HotCache::new(8, 64, dram(), false); // room for 2 shards
        assert!(c.insert(&s, 0, shard(0.0)).admitted());
        assert!(c.insert(&s, 1, shard(1.0)).admitted());
        assert_eq!(c.resident(), 2);
        assert_eq!(c.used_bytes(), 64);

        // Touch 0 so 1 becomes the LRU victim.
        c.record_access(0);
        let out = c.insert(&s, 2, shard(2.0));
        assert_eq!(out, InsertOutcome::Admitted { evicted: 1 });
        assert!(c.contains(0) && c.contains(2) && !c.contains(1));
    }

    #[test]
    fn frequency_admission_protects_hot_shard() {
        let s = sys();
        let mut c = HotCache::new(8, 32, dram(), true); // room for 1 shard
        c.record_access(0);
        c.record_access(0);
        assert!(c.insert(&s, 0, shard(0.0)).admitted());

        // Shard 1 has seen less traffic than the resident victim: rejected.
        c.record_access(1);
        assert_eq!(
            c.insert(&s, 1, shard(1.0)),
            InsertOutcome::RejectedByFrequency
        );
        assert!(c.contains(0));

        // Once shard 1 overtakes, it displaces shard 0.
        c.record_access(1);
        c.record_access(1);
        assert!(c.insert(&s, 1, shard(1.0)).admitted());
        assert!(c.contains(1) && !c.contains(0));
    }

    #[test]
    fn admission_off_always_evicts() {
        let s = sys();
        let mut c = HotCache::new(8, 32, dram(), false);
        for _ in 0..10 {
            c.record_access(0);
        }
        assert!(c.insert(&s, 0, shard(0.0)).admitted());
        assert!(c.insert(&s, 1, shard(1.0)).admitted());
        assert!(c.contains(1) && !c.contains(0));
    }

    #[test]
    fn oversized_shard_rejected_by_capacity() {
        let s = sys();
        let mut c = HotCache::new(8, 16, dram(), true);
        assert_eq!(
            c.insert(&s, 0, shard(0.0)),
            InsertOutcome::RejectedByCapacity
        );
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn eviction_releases_dram_lease() {
        let s = sys();
        let mut c = HotCache::new(8, 32, dram(), false);
        assert!(c.insert(&s, 0, shard(0.0)).admitted());
        let used = s.used(0, DeviceKind::Dram);
        assert!(c.insert(&s, 1, shard(1.0)).admitted());
        // One shard in, one out: DRAM footprint unchanged.
        assert_eq!(s.used(0, DeviceKind::Dram), used);
    }

    #[test]
    fn reinserting_a_resident_shard_replaces_it() {
        let s = sys();
        let mut c = HotCache::new(8, 64, dram(), false);
        assert!(c.insert(&s, 0, shard(0.0)).admitted());
        assert!(c.insert(&s, 1, shard(1.0)).admitted());
        c.record_access(7); // advance the clock past both stamps
        assert_eq!(
            c.insert(&s, 0, shard(9.0)),
            InsertOutcome::Admitted { evicted: 0 }
        );
        assert_eq!((c.resident(), c.used_bytes()), (2, 64));
        assert_eq!(c.slot(0).unwrap().raw(), shard(9.0).as_slice());
        // The replacement is the newest arrival: shard 1 is the victim.
        assert_eq!(
            c.insert(&s, 2, shard(2.0)),
            InsertOutcome::Admitted { evicted: 1 }
        );
        assert!(c.contains(0) && c.contains(2) && !c.contains(1));
    }

    /// A reservation is a victim candidate until it is filled: in a
    /// one-slot cache the second reservation of a batch takes the slot
    /// back from the first, exactly as inserting the two in turn would.
    #[test]
    fn a_later_reservation_takes_a_pending_slot_back() {
        let s = sys();
        let mut c = HotCache::new(8, 32, dram(), true);
        assert_eq!(c.reserve(3, 32), InsertOutcome::Admitted { evicted: 0 });
        assert!(c.pending(3) && c.contains(3) && c.slot(3).is_none());
        assert_eq!(c.reserve(5, 32), InsertOutcome::Admitted { evicted: 1 });
        assert!(!c.contains(3) && c.pending(5));
        assert_eq!((c.resident(), c.used_bytes()), (1, 32));
        assert!(c.fill(&s, 5, shard(5.0)));
        assert!(!c.pending(5) && c.slot(5).is_some());
    }

    /// Shards differ in size (the table's ragged tail), so fitting one can
    /// take two victims. When the second is hotter than the candidate the
    /// refusal must leave the first in place too.
    #[test]
    fn a_refused_insert_evicts_nothing() {
        let s = sys();
        let mut c = HotCache::new(8, 96, dram(), true); // room for 3 shards
        let ragged = vec![7.0; 2]; // 8 bytes
        for _ in 0..3 {
            c.record_access(1);
        }
        c.record_access(4);
        assert!(c.insert(&s, 0, ragged).admitted()); // LRU, never accessed
        assert!(c.insert(&s, 1, shard(1.0)).admitted()); // next victim, hot
        assert!(c.insert(&s, 2, shard(2.0)).admitted());
        assert!(c.insert(&s, 3, vec![3.0; 6]).admitted());
        assert_eq!((c.resident(), c.used_bytes()), (4, 96));

        // Shard 4 needs 32 bytes: evicting cold shard 0 frees 8, and the
        // next victim, shard 1, is hotter than the candidate.
        assert_eq!(
            c.insert(&s, 4, shard(4.0)),
            InsertOutcome::RejectedByFrequency
        );
        assert_eq!((c.resident(), c.used_bytes()), (4, 96));
        assert!((0..4).all(|sid| c.contains(sid)) && !c.contains(4));
    }

    #[test]
    fn aging_halves_frequencies() {
        let mut c = HotCache::new(4, 64, dram(), true);
        c.aging_period = 4;
        c.record_access(0);
        c.record_access(0);
        c.record_access(0);
        assert_eq!(c.freq(0), 3);
        c.record_access(1); // 4th access triggers halving
        assert_eq!(c.freq(0), 1);
        assert_eq!(c.freq(1), 0); // 1 incremented, then halved
    }
}
