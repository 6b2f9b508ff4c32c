//! Per-thread access accounting: counters and the [`ThreadMem`] context that
//! kernels charge their classified accesses to.

use crate::bandwidth::{AccessClass, AccessOp, AccessPattern, Locality, NUM_CLASSES};
use crate::clock::SimDuration;
use crate::device::DeviceKind;
use crate::error::HetMemError;
use crate::fault::{FaultAccess, FaultHook, FaultVerdict};
use crate::hetvec::Placement;
use crate::topology::NodeId;
use std::sync::Arc;

/// Accumulated traffic for one access class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    /// Useful (payload) bytes requested by the kernel.
    pub bytes: u64,
    /// Bytes actually moved on the media: for random accesses each access is
    /// rounded up to the device granularity (64 B line / 256 B XPLine /
    /// 4 KiB page), which is what the bandwidth model bills.
    pub media_bytes: u64,
    /// Number of discrete accesses (used for SSD per-IO latency and for the
    /// throughput statistics of Fig. 16).
    pub accesses: u64,
}

/// Per-class counter table for one simulated thread (or one merged
/// phase), with a bitmask of the classes charged so far. A charge is one
/// array index, three additions and one bit set; merging, clearing and
/// pricing walk only the set bits, so a task that touched one class pays
/// for one class, not for all 24.
///
/// Bit `i` is set exactly when class `i` holds a nonzero byte, media-byte
/// or access count. Counters only grow, so the mask is a function of the
/// values and derived equality stays exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassCounters {
    classes: [Counter; NUM_CLASSES],
    cpu_ops: u64,
    touched: u32,
}

// One bit of `touched` per class.
const _: () = assert!(NUM_CLASSES <= u32::BITS as usize);

/// The set bits of `mask`, in ascending order.
#[inline]
fn set_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

impl Default for ClassCounters {
    fn default() -> Self {
        ClassCounters {
            classes: [Counter::default(); NUM_CLASSES],
            cpu_ops: 0,
            touched: 0,
        }
    }
}

impl ClassCounters {
    /// Charge `bytes` payload / `media_bytes` media traffic as `accesses`
    /// discrete accesses of the given class. An all-zero charge changes
    /// nothing, not even which classes count as touched.
    #[inline]
    pub fn charge(&mut self, class: AccessClass, bytes: u64, media_bytes: u64, accesses: u64) {
        if bytes | media_bytes | accesses == 0 {
            return;
        }
        let i = class.index();
        let c = &mut self.classes[i];
        c.bytes += bytes;
        c.media_bytes += media_bytes;
        c.accesses += accesses;
        self.touched |= 1 << i;
    }

    /// The charged classes and their counters, in ascending class order.
    #[inline]
    pub(crate) fn touched(&self) -> impl Iterator<Item = (AccessClass, Counter)> + '_ {
        set_bits(self.touched).map(|i| (AccessClass::from_index(i), self.classes[i]))
    }

    /// Counter for one class.
    #[inline]
    pub fn get(&self, class: AccessClass) -> Counter {
        self.classes[class.index()]
    }

    /// Record scalar CPU work (multiply-accumulates etc.).
    #[inline]
    pub fn add_cpu_ops(&mut self, ops: u64) {
        self.cpu_ops += ops;
    }

    #[inline]
    pub fn cpu_ops(&self) -> u64 {
        self.cpu_ops
    }

    /// Merge another thread's counters into this one.
    pub fn merge(&mut self, other: &ClassCounters) {
        for i in set_bits(other.touched) {
            let (c, o) = (&mut self.classes[i], &other.classes[i]);
            c.bytes += o.bytes;
            c.media_bytes += o.media_bytes;
            c.accesses += o.accesses;
        }
        self.touched |= other.touched;
        self.cpu_ops += other.cpu_ops;
    }

    /// Zero every counter, writing only the classes that were charged.
    fn clear(&mut self) {
        for i in set_bits(self.touched) {
            self.classes[i] = Counter::default();
        }
        self.touched = 0;
        self.cpu_ops = 0;
    }

    /// Total payload bytes across classes matching a predicate.
    pub fn bytes_where(&self, mut pred: impl FnMut(AccessClass) -> bool) -> u64 {
        self.touched()
            .filter(|&(c, _)| pred(c))
            .map(|(_, ctr)| ctr.bytes)
            .sum()
    }

    /// Total payload bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_where(|_| true)
    }

    /// Total discrete accesses.
    pub fn total_accesses(&self) -> u64 {
        self.touched().map(|(_, ctr)| ctr.accesses).sum()
    }
}

/// The per-simulated-thread memory context.
///
/// A kernel running as simulated thread `t` bound to NUMA node `node`
/// performs all its [`crate::HetVec`] accesses through one `ThreadMem`; the
/// context classifies each access (deriving [`Locality`] from its node vs.
/// the buffer placement) and accumulates counters. `ThreadMem` is plain data
/// — one per thread, no sharing, no locks on the hot path.
#[derive(Debug, Clone)]
pub struct ThreadMem {
    node: NodeId,
    sockets: usize,
    counters: ClassCounters,
    /// Fault plan riding along with the context (see [`crate::fault`]).
    /// `None` on the default path: one branch per charge, no other cost.
    hook: Option<Arc<dyn FaultHook>>,
    /// Consumer-set simulated clock handed to the hook (window rules).
    sim_now: SimDuration,
    /// Consult ordinal within this context: repeated identical accesses
    /// draw independent verdicts.
    fault_seq: u64,
    /// Simulated time injected by `Delayed`/`Fail` verdicts; consumers add
    /// it on top of the model cost when they settle the context.
    penalty: SimDuration,
    /// Error parked by the most recent `Fail` verdict, surfaced through
    /// `try_*` accessors. First failure wins until taken.
    pending: Option<HetMemError>,
}

impl ThreadMem {
    /// Create a context for a thread bound to `node` on a machine with
    /// `sockets` NUMA nodes (needed to resolve interleaved placements).
    pub fn new(node: NodeId, sockets: usize) -> Self {
        ThreadMem {
            node,
            sockets: sockets.max(1),
            counters: ClassCounters::default(),
            hook: None,
            sim_now: SimDuration::ZERO,
            fault_seq: 0,
            penalty: SimDuration::ZERO,
            pending: None,
        }
    }

    /// Attach a fault hook (done by [`crate::MemSystem`] when a plan is
    /// installed; kernels never call this directly).
    pub(crate) fn with_hook(mut self, hook: Arc<dyn FaultHook>) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Reset every piece of per-task state — counters, simulated clock,
    /// fault-consult ordinal, injected penalty, parked error — while
    /// keeping the binding (node, sockets, fault hook).
    ///
    /// After a reset the context is observationally identical to a fresh
    /// one from the same [`crate::MemSystem`]: fault verdicts are a pure
    /// function of `(plan, sim_now + penalty, consult ordinal, access)`,
    /// and all four inputs are restored to their initial state. This is
    /// what lets pooled workers recycle one `ThreadMem` across tasks and
    /// across pool calls with byte-identical schedules (the cross-call
    /// reuse proptests pin this equivalence).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.sim_now = SimDuration::ZERO;
        self.fault_seq = 0;
        self.penalty = SimDuration::ZERO;
        self.pending = None;
    }

    /// Whether this context is interchangeable (after [`reset`]) with a
    /// fresh context bound to `node` on a `sockets`-node machine with the
    /// given fault hook. Hooks compare by identity: two plans with equal
    /// rules are still distinct schedules.
    ///
    /// [`reset`]: ThreadMem::reset
    pub fn matches(&self, node: NodeId, sockets: usize, hook: Option<&Arc<dyn FaultHook>>) -> bool {
        self.node == node
            && self.sockets == sockets.max(1)
            && match (&self.hook, hook) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::as_ptr(a) as *const () == Arc::as_ptr(b) as *const (),
                _ => false,
            }
    }

    /// Set the simulated clock the hook sees (consumers with a notion of
    /// "now", like the serve loop, align it before charging).
    pub fn set_sim_now(&mut self, now: SimDuration) {
        self.sim_now = now;
    }

    /// Rebase this context's fault-consult ordinals onto an independent
    /// `stream`: the next consult draws as ordinal `stream << 32`, the one
    /// after as `stream << 32 | 1`, and so on.
    ///
    /// Parallel consumers (per-shard serve tasks, per-chunk SpMM workers)
    /// give each task a stream derived from *what* it processes rather than
    /// *which* thread runs it, so the fault schedule is a pure function of
    /// the work — byte-identical at any thread count and under any
    /// scheduling interleave. Streams below `1 << 32` consults never collide
    /// with each other or with an un-rebased context (stream 0).
    pub fn set_fault_stream(&mut self, stream: u64) {
        self.fault_seq = stream << 32;
    }

    /// Simulated time injected into this context by the active fault plan
    /// (latency spikes, degradation windows, failed-attempt penalties).
    /// Zero when no plan is installed.
    #[inline]
    pub fn injected_penalty(&self) -> SimDuration {
        self.penalty
    }

    /// Take the error parked by the most recent failed access, if any.
    /// Infallible accessors leave it parked (paying only the latency);
    /// `try_*` readers consume it to surface the failure.
    pub fn take_fault(&mut self) -> Option<HetMemError> {
        self.pending.take()
    }

    /// Consult the installed hook (if any) about an access that was just
    /// charged. One consult per public charge call, after the traffic is
    /// booked — a failed attempt still moved bytes on the media.
    #[inline]
    fn consult(
        &mut self,
        device: DeviceKind,
        node: Option<NodeId>,
        op: AccessOp,
        pattern: AccessPattern,
        bytes: u64,
        accesses: u64,
    ) {
        // Borrowed, not cloned: `hook` and the fields updated below are
        // disjoint, and a clone is two contended atomic RMWs per access.
        let Some(hook) = self.hook.as_deref() else {
            return;
        };
        let access = FaultAccess {
            device,
            node,
            op,
            pattern,
            bytes,
            accesses,
        };
        let seq = self.fault_seq;
        self.fault_seq += 1;
        // The hook's "now" includes penalties already injected into this
        // context, so window rules see time advance within a phase.
        match hook.on_access(self.sim_now + self.penalty, seq, &access) {
            FaultVerdict::Ok => {}
            FaultVerdict::Delayed(d) => self.penalty += d,
            FaultVerdict::Fail { error, penalty } => {
                self.penalty += penalty;
                if self.pending.is_none() {
                    self.pending = Some(error);
                }
            }
        }
    }

    /// The NUMA node this thread is bound to.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Accumulated counters.
    #[inline]
    pub fn counters(&self) -> &ClassCounters {
        &self.counters
    }

    /// Take the counters, resetting the context.
    pub fn take_counters(&mut self) -> ClassCounters {
        std::mem::take(&mut self.counters)
    }

    /// Record scalar CPU work.
    #[inline]
    pub fn add_cpu_ops(&mut self, ops: u64) {
        self.counters.add_cpu_ops(ops);
    }

    /// Charge a contiguous block of `bytes` transferred in `accesses`
    /// discrete accesses (1 for a streamed block).
    #[inline]
    pub fn charge_block(
        &mut self,
        placement: Placement,
        op: AccessOp,
        pattern: AccessPattern,
        bytes: u64,
        accesses: u64,
    ) {
        match placement {
            Placement::Node { node, device } => {
                let locality = if node == self.node {
                    Locality::Local
                } else {
                    Locality::Remote
                };
                self.charge_resolved(device, locality, op, pattern, bytes, accesses);
            }
            Placement::Interleaved { device } => {
                // Page-interleaved allocation: 1/sockets of the traffic is
                // local, the rest remote.
                let local = bytes / self.sockets as u64;
                let remote = bytes - local;
                let acc_local = accesses / self.sockets as u64;
                let acc_remote = accesses - acc_local;
                if local > 0 || acc_local > 0 {
                    self.charge_resolved(device, Locality::Local, op, pattern, local, acc_local);
                }
                if remote > 0 || acc_remote > 0 {
                    self.charge_resolved(device, Locality::Remote, op, pattern, remote, acc_remote);
                }
            }
        }
        if self.hook.is_some() {
            self.consult(
                placement.device(),
                placement.home_node(),
                op,
                pattern,
                bytes,
                accesses,
            );
        }
    }

    #[inline]
    fn charge_resolved(
        &mut self,
        device: DeviceKind,
        locality: Locality,
        op: AccessOp,
        pattern: AccessPattern,
        bytes: u64,
        accesses: u64,
    ) {
        let media = match pattern {
            AccessPattern::Seq => bytes,
            // An empty charge moves nothing. Otherwise each random access
            // moves at least one media granularity unit, and larger
            // payloads bill their (ceiling) per-access size.
            AccessPattern::Rand if bytes | accesses == 0 => 0,
            AccessPattern::Rand => {
                let per_access = if accesses == 0 {
                    0
                } else {
                    bytes.div_ceil(accesses)
                };
                accesses.max(1) * device.access_granularity().max(per_access)
            }
        };
        self.counters.charge(
            AccessClass::new(device, locality, op, pattern),
            bytes,
            media,
            accesses,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm_on(node: NodeId) -> Placement {
        Placement::node(node, DeviceKind::Pm)
    }

    #[test]
    fn locality_resolution() {
        let mut ctx = ThreadMem::new(0, 2);
        ctx.charge_block(pm_on(0), AccessOp::Read, AccessPattern::Seq, 8, 1);
        ctx.charge_block(pm_on(1), AccessOp::Read, AccessPattern::Seq, 8, 1);
        let local = ctx.counters().get(AccessClass::new(
            DeviceKind::Pm,
            Locality::Local,
            AccessOp::Read,
            AccessPattern::Seq,
        ));
        let remote = ctx.counters().get(AccessClass::new(
            DeviceKind::Pm,
            Locality::Remote,
            AccessOp::Read,
            AccessPattern::Seq,
        ));
        assert_eq!(local.bytes, 8);
        assert_eq!(remote.bytes, 8);
    }

    #[test]
    fn random_access_bills_media_granularity() {
        let mut ctx = ThreadMem::new(0, 2);
        // One 8-byte random read from PM moves a 256 B XPLine.
        ctx.charge_block(pm_on(0), AccessOp::Read, AccessPattern::Rand, 8, 1);
        let c = ctx.counters().get(AccessClass::new(
            DeviceKind::Pm,
            Locality::Local,
            AccessOp::Read,
            AccessPattern::Rand,
        ));
        assert_eq!(c.bytes, 8);
        assert_eq!(c.media_bytes, 256);
        assert_eq!(c.accesses, 1);
    }

    /// A random charge of no bytes in no accesses bills nothing, on any
    /// placement, and still consults the fault hook once.
    #[test]
    fn empty_random_charge_bills_nothing() {
        #[derive(Debug)]
        struct AlwaysFails;
        impl FaultHook for AlwaysFails {
            fn on_access(&self, _: SimDuration, _: u64, access: &FaultAccess) -> FaultVerdict {
                FaultVerdict::Fail {
                    error: HetMemError::Transient {
                        node: 0,
                        device: access.device,
                        penalty_ns: 7,
                    },
                    penalty: SimDuration::from_nanos(7),
                }
            }
        }
        let mut ctx = ThreadMem::new(0, 2).with_hook(Arc::new(AlwaysFails));
        for placement in [pm_on(0), pm_on(1), Placement::interleaved(DeviceKind::Pm)] {
            ctx.charge_block(placement, AccessOp::Read, AccessPattern::Rand, 0, 0);
        }
        assert_eq!(ctx.counters().touched().count(), 0, "{:?}", ctx.counters());
        assert_eq!(ctx.injected_penalty(), SimDuration::from_nanos(21));
    }

    #[test]
    fn random_block_larger_than_granularity_bills_payload() {
        let mut ctx = ThreadMem::new(0, 2);
        // A 4 KiB random read from DRAM moves 4 KiB, not 64 B.
        ctx.charge_block(
            Placement::node(0, DeviceKind::Dram),
            AccessOp::Read,
            AccessPattern::Rand,
            4096,
            1,
        );
        let c = ctx.counters().get(AccessClass::new(
            DeviceKind::Dram,
            Locality::Local,
            AccessOp::Read,
            AccessPattern::Rand,
        ));
        assert_eq!(c.media_bytes, 4096);
    }

    #[test]
    fn sequential_access_bills_payload() {
        let mut ctx = ThreadMem::new(1, 2);
        ctx.charge_block(pm_on(1), AccessOp::Write, AccessPattern::Seq, 1000, 1);
        let c = ctx.counters().get(AccessClass::new(
            DeviceKind::Pm,
            Locality::Local,
            AccessOp::Write,
            AccessPattern::Seq,
        ));
        assert_eq!(c.bytes, 1000);
        assert_eq!(c.media_bytes, 1000);
    }

    #[test]
    fn interleaved_splits_traffic() {
        let mut ctx = ThreadMem::new(0, 2);
        ctx.charge_block(
            Placement::Interleaved {
                device: DeviceKind::Dram,
            },
            AccessOp::Read,
            AccessPattern::Seq,
            1000,
            2,
        );
        let counters = ctx.counters();
        let local = counters.bytes_where(|c| c.locality == Locality::Local);
        let remote = counters.bytes_where(|c| c.locality == Locality::Remote);
        assert_eq!(local, 500);
        assert_eq!(remote, 500);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ClassCounters::default();
        let mut b = ClassCounters::default();
        let c = AccessClass::new(
            DeviceKind::Dram,
            Locality::Local,
            AccessOp::Read,
            AccessPattern::Seq,
        );
        a.charge(c, 10, 10, 1);
        a.add_cpu_ops(5);
        b.charge(c, 20, 20, 2);
        b.add_cpu_ops(7);
        a.merge(&b);
        assert_eq!(a.get(c).bytes, 30);
        assert_eq!(a.get(c).accesses, 3);
        assert_eq!(a.cpu_ops(), 12);
        assert_eq!(a.total_bytes(), 30);
        assert_eq!(a.total_accesses(), 3);
    }

    #[test]
    fn take_counters_resets() {
        let mut ctx = ThreadMem::new(0, 1);
        ctx.add_cpu_ops(3);
        let taken = ctx.take_counters();
        assert_eq!(taken.cpu_ops(), 3);
        assert_eq!(ctx.counters().cpu_ops(), 0);
    }
}
