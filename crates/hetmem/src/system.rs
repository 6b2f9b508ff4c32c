//! The assembled memory system: topology + governor + cost model.

use crate::bandwidth::BandwidthModel;
use crate::fault::FaultHook;
use crate::governor::MemGovernor;
use crate::hetvec::{HetVec, Placement};
use crate::topology::{NodeId, Topology};
use crate::tracker::ThreadMem;
use crate::Result;
use std::sync::Arc;

/// One simulated machine: the entry point most code uses.
///
/// `MemSystem` is cheap to clone (shared governor) and is passed by
/// reference into kernels. Allocation goes through the governor so capacity
/// failures surface as [`crate::HetMemError::OutOfMemory`].
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
    pub fn governor(&self) -> &Arc<MemGovernor> {
        &self.governor
    }

    #[inline]
    pub fn model(&self) -> &BandwidthModel {
        &self.model
    }

    /// Allocate a buffer at an explicit placement.
    pub fn alloc_from<T: Copy>(&self, placement: Placement, data: Vec<T>) -> Result<HetVec<T>> {
        HetVec::with_governor(self.governor.clone(), placement, data)
    }

    /// Allocate a zero-filled buffer at an explicit placement.
    pub fn alloc_zeroed<T: Copy + Default>(
        &self,
        placement: Placement,
        len: usize,
    ) -> Result<HetVec<T>> {
        self.alloc_from(placement, vec![T::default(); len])
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
    use crate::bandwidth::AccessPattern;
    use crate::device::DeviceKind;

    #[test]
    fn end_to_end_alloc_access_cost() {
        let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 20));
        let v = sys
            .alloc_from(Placement::node(0, DeviceKind::Pm), vec![2.0f32; 256])
            .unwrap();
        let mut ctx = sys.thread_ctx(0);
        let mut acc = 0.0;
        for i in 0..v.len() {
            acc += v.get(i, AccessPattern::Seq, &mut ctx);
        }
        assert_eq!(acc, 512.0);
        let t = sys.model().thread_time(ctx.counters(), 1);
        assert!(t.as_nanos() > 0);
    }

    #[test]
    fn alloc_zeroed_counts_capacity() {
        let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 20));
        let _v: HetVec<u64> = sys
            .alloc_zeroed(Placement::node(1, DeviceKind::Dram), 128)
            .unwrap();
        assert_eq!(sys.governor().usage(1, DeviceKind::Dram).used, 1024);
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
        let _v = sys
            .alloc_zeroed::<u8>(Placement::node(0, DeviceKind::Dram), 100)
            .unwrap();
        assert_eq!(sys2.governor().usage(0, DeviceKind::Dram).used, 100);
    }
}
