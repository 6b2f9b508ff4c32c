//! The assembled memory system: topology + governor + cost model.

use crate::bandwidth::BandwidthModel;
use crate::device::DeviceKind;
use crate::fault::FaultHook;
use crate::governor::{MemGovernor, MemReservation};
use crate::hetvec::{HetVec, Placement};
use crate::topology::{NodeId, Topology};
use crate::tracker::ThreadMem;
use crate::Result;
use std::sync::Arc;

/// One simulated machine: the entry point most code uses.
///
/// `MemSystem` is cheap to clone (shared governor) and is passed by
/// reference into kernels. It is the one door to capacity: buffers
/// ([`alloc_from`](MemSystem::alloc_from)) and leases on data held
/// elsewhere ([`reserve`](MemSystem::reserve)) are taken from its governor,
/// so capacity failures surface as [`crate::HetMemError::OutOfMemory`],
/// and [`used`](MemSystem::used), [`peak`](MemSystem::peak) and
/// [`available`](MemSystem::available) read the same ledger.
#[derive(Debug, Clone)]
pub struct MemSystem {
    governor: Arc<MemGovernor>,
    model: Arc<BandwidthModel>,
    /// Installed fault plan, attached to every context the system hands
    /// out. `None` (the default) keeps the model bit-identical to a
    /// fault-free build.
    fault_hook: Option<Arc<dyn FaultHook>>,
}

impl MemSystem {
    /// Build with the default calibrated paper-machine cost model.
    pub fn new(topology: Topology) -> Self {
        Self::with_model(topology, BandwidthModel::paper_machine())
    }

    /// Build with an explicit cost model (ablations, the CXL model).
    pub fn with_model(topology: Topology, model: BandwidthModel) -> Self {
        MemSystem {
            governor: Arc::new(MemGovernor::new(topology)),
            model: Arc::new(model),
            fault_hook: None,
        }
    }

    /// Install a fault plan: every [`ThreadMem`] this system hands out will
    /// consult it. The governor and model stay shared with the original.
    pub fn with_fault_hook(mut self, hook: Arc<dyn FaultHook>) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// The installed fault plan, if any.
    #[inline]
    pub fn fault_hook(&self) -> Option<&Arc<dyn FaultHook>> {
        self.fault_hook.as_ref()
    }

    #[inline]
    pub fn topology(&self) -> &Topology {
        self.governor.topology()
    }

    #[inline]
    pub fn model(&self) -> &BandwidthModel {
        &self.model
    }

    /// Allocate a buffer at an explicit placement.
    pub fn alloc_from<T: Copy>(&self, placement: Placement, data: Vec<T>) -> Result<HetVec<T>> {
        HetVec::with_governor(self.governor.clone(), placement, data)
    }

    /// Hold `bytes` of capacity at `placement` until the lease drops: the
    /// way to account data whose backing store lives elsewhere. An
    /// interleaved placement splits the bytes across the nodes (see
    /// [`MemReservation`]).
    pub fn reserve(&self, placement: Placement, bytes: u64) -> Result<MemReservation> {
        MemReservation::new(self.governor.clone(), placement, bytes)
    }

    /// Free bytes a reservation at `placement` can draw on: the home
    /// node's for a node placement, the sum over all nodes for an
    /// interleaved one.
    pub fn available(&self, placement: Placement) -> u64 {
        self.governor.available(placement)
    }

    /// Bytes of `device` in use on `node` (0 past the topology).
    pub fn used(&self, node: NodeId, device: DeviceKind) -> u64 {
        self.governor.used(node, device)
    }

    /// The most bytes of `device` ever in use at once on `node`.
    pub fn peak(&self, node: NodeId, device: DeviceKind) -> u64 {
        self.governor.peak(node, device)
    }

    /// Memory context for simulated thread `t` under the default block
    /// binding (threads fill socket 0's cores first).
    pub fn thread_ctx(&self, thread: usize) -> ThreadMem {
        self.attach_hook(ThreadMem::new(
            self.topology().node_of_thread(thread),
            self.topology().nodes(),
        ))
    }

    /// Memory context pinned to a specific node (NaDP's CPU binding).
    pub fn thread_ctx_on(&self, node: NodeId) -> ThreadMem {
        self.attach_hook(ThreadMem::new(node, self.topology().nodes()))
    }

    /// Recycle a pooled context: reuse `slot`'s `ThreadMem` when it is
    /// interchangeable with a fresh [`thread_ctx_on`]`(node)` (same node,
    /// socket count, and fault-hook identity), otherwise replace it.
    /// Either way the returned context is fully [`ThreadMem::reset`] —
    /// observationally identical to a fresh one, without re-running
    /// construction or hook attachment on every task.
    ///
    /// This is the reuse boundary the persistent worker pool relies on:
    /// scratch arenas keep one `Option<ThreadMem>` per thread alive
    /// across pool calls, and recycling preserves byte-identical fault
    /// schedules because verdicts depend only on reset state.
    ///
    /// [`thread_ctx_on`]: MemSystem::thread_ctx_on
    pub fn recycle_ctx_on<'s>(
        &self,
        slot: &'s mut Option<ThreadMem>,
        node: NodeId,
    ) -> &'s mut ThreadMem {
        let sockets = self.topology().nodes();
        let reusable = slot
            .as_ref()
            .is_some_and(|ctx| ctx.matches(node, sockets, self.fault_hook.as_ref()));
        if reusable {
            let ctx = slot.as_mut().expect("checked above");
            ctx.reset();
            ctx
        } else {
            slot.insert(self.thread_ctx_on(node))
        }
    }

    fn attach_hook(&self, ctx: ThreadMem) -> ThreadMem {
        match &self.fault_hook {
            Some(hook) => ctx.with_hook(hook.clone()),
            None => ctx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_alloc_access_cost() {
        let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 20));
        let v = sys
            .alloc_from(Placement::node(0, DeviceKind::Pm), vec![2.0f32; 256])
            .unwrap();
        let mut ctx = sys.thread_ctx(0);
        let acc: f32 = v.read_block(0..v.len(), &mut ctx).iter().sum();
        assert_eq!(acc, 512.0);
        let t = sys.model().thread_time(ctx.counters(), 1);
        assert!(t.as_nanos() > 0);
    }

    #[test]
    fn alloc_zeroed_counts_capacity() {
        let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 20));
        let dram1 = Placement::node(1, DeviceKind::Dram);
        let v = sys.alloc_from(dram1, vec![0u64; 128]).unwrap();
        assert_eq!(sys.used(1, DeviceKind::Dram), 1024);
        assert_eq!(sys.used(0, DeviceKind::Dram), 0);
        drop(v);
        assert_eq!(sys.used(1, DeviceKind::Dram), 0);
        assert_eq!(sys.peak(1, DeviceKind::Dram), 1024);
    }

    #[test]
    fn thread_binding_through_system() {
        let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 20));
        assert_eq!(sys.thread_ctx(0).node(), 0);
        assert_eq!(sys.thread_ctx(18).node(), 1);
        assert_eq!(sys.thread_ctx_on(1).node(), 1);
    }

    #[test]
    fn clone_shares_governor() {
        let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 20));
        let sys2 = sys.clone();
        let dram0 = Placement::node(0, DeviceKind::Dram);
        let _v = sys.alloc_from(dram0, vec![0u8; 100]).unwrap();
        assert_eq!(sys2.used(0, DeviceKind::Dram), 100);
        let _r = sys2.reserve(dram0, 50).unwrap();
        assert_eq!(
            sys.available(dram0),
            sys.topology().capacity(0, DeviceKind::Dram) - 150
        );
    }
}
