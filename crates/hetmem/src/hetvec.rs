//! Placed, cost-accounted buffers: [`HetVec`] and its [`Placement`].

use crate::bandwidth::{AccessOp, AccessPattern};
use crate::device::DeviceKind;
use crate::governor::{MemGovernor, MemReservation};
use crate::topology::NodeId;
use crate::tracker::ThreadMem;
use std::ops::Range;
use std::sync::Arc;

/// Where a buffer physically lives in the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Entirely on one device of one NUMA node (app-directed placement).
    Node { node: NodeId, device: DeviceKind },
    /// Page-interleaved round-robin across all nodes (the OS `Interleave`
    /// NUMA policy the paper's "w/o NaDP" baseline uses).
    Interleaved { device: DeviceKind },
}

impl Placement {
    /// Placement on a specific node.
    pub const fn node(node: NodeId, device: DeviceKind) -> Self {
        Placement::Node { node, device }
    }

    /// Interleaved placement on a device kind.
    pub const fn interleaved(device: DeviceKind) -> Self {
        Placement::Interleaved { device }
    }

    /// The backing device kind.
    pub const fn device(&self) -> DeviceKind {
        match *self {
            Placement::Node { device, .. } | Placement::Interleaved { device } => device,
        }
    }

    /// The home node, if node-local.
    pub const fn home_node(&self) -> Option<NodeId> {
        match *self {
            Placement::Node { node, .. } => Some(node),
            Placement::Interleaved { .. } => None,
        }
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Placement::Node { node, device } => write!(f, "{device}@node{node}"),
            Placement::Interleaved { device } => write!(f, "{device}@interleaved"),
        }
    }
}

/// A typed buffer placed on a simulated memory device.
///
/// Element accesses go through a [`ThreadMem`] context that classifies and
/// charges them. The backing store is an ordinary `Vec<T>` — the simulation
/// costs nothing at the data level and everything at the accounting level.
#[derive(Debug)]
pub struct HetVec<T> {
    data: Vec<T>,
    placement: Placement,
    _lease: MemReservation,
}

impl<T: Copy> HetVec<T> {
    /// Wrap existing data with a placement, reserving capacity from the
    /// governor. Fails with [`crate::HetMemError::OutOfMemory`] if the device
    /// is full.
    pub fn with_governor(
        governor: Arc<MemGovernor>,
        placement: Placement,
        data: Vec<T>,
    ) -> crate::Result<Self> {
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        let lease = MemReservation::new(governor, placement, bytes)?;
        Ok(HetVec {
            data,
            placement,
            _lease: lease,
        })
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Payload size in bytes.
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<T>()) as u64
    }

    /// Read one element, charging the access.
    #[inline]
    pub fn get(&self, i: usize, pattern: AccessPattern, ctx: &mut ThreadMem) -> T {
        ctx.charge_access(
            self.placement,
            AccessOp::Read,
            pattern,
            std::mem::size_of::<T>() as u64,
        );
        self.data[i]
    }

    /// Write one element, charging the access.
    #[inline]
    pub fn set(&mut self, i: usize, value: T, pattern: AccessPattern, ctx: &mut ThreadMem) {
        ctx.charge_access(
            self.placement,
            AccessOp::Write,
            pattern,
            std::mem::size_of::<T>() as u64,
        );
        self.data[i] = value;
    }

    /// Borrow a contiguous range, charging one sequential streamed read of
    /// the whole range.
    pub fn read_block(&self, range: Range<usize>, ctx: &mut ThreadMem) -> &[T] {
        let bytes = (range.len() * std::mem::size_of::<T>()) as u64;
        ctx.charge_block(self.placement, AccessOp::Read, AccessPattern::Seq, bytes, 1);
        &self.data[range]
    }

    /// Fallible variant of [`HetVec::read_block`]: charges the attempt
    /// exactly like the infallible reader (a failed read still moved bytes
    /// and burned its injected penalty), then surfaces any fault the
    /// active plan parked on the context. Without an installed plan this
    /// never fails.
    pub fn try_read_block(&self, range: Range<usize>, ctx: &mut ThreadMem) -> crate::Result<&[T]> {
        let bytes = (range.len() * std::mem::size_of::<T>()) as u64;
        ctx.charge_block(self.placement, AccessOp::Read, AccessPattern::Seq, bytes, 1);
        match ctx.take_fault() {
            Some(err) => Err(err),
            None => Ok(&self.data[range]),
        }
    }

    /// Raw data access, bypassing accounting. For initialization and result
    /// extraction only — kernel code must use the charged accessors.
    #[inline]
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Consume, returning the backing vector (releases the lease).
    pub fn into_inner(self) -> Vec<T> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::{AccessClass, Locality};
    use crate::topology::Topology;

    fn system() -> Arc<MemGovernor> {
        Arc::new(MemGovernor::new(
            Topology::new(2, 4, 4096, 32768, 1 << 20).unwrap(),
        ))
    }

    #[test]
    fn lease_accounts_and_releases() {
        let g = system();
        {
            let v = HetVec::with_governor(
                g.clone(),
                Placement::node(0, DeviceKind::Dram),
                vec![0u64; 64],
            )
            .unwrap();
            assert_eq!(v.size_bytes(), 512);
            assert_eq!(g.usage(0, DeviceKind::Dram).used, 512);
        }
        assert_eq!(g.usage(0, DeviceKind::Dram).used, 0);
    }

    #[test]
    fn oom_propagates() {
        let g = system();
        let err = HetVec::with_governor(
            g,
            Placement::node(0, DeviceKind::Dram),
            vec![0u64; 1024], // 8 KiB > 4 KiB DRAM
        )
        .unwrap_err();
        assert!(err.is_oom());
    }

    #[test]
    fn interleaved_lease_splits_and_rolls_back() {
        let g = system();
        let v = HetVec::with_governor(
            g.clone(),
            Placement::interleaved(DeviceKind::Dram),
            vec![0u8; 1000],
        )
        .unwrap();
        assert_eq!(g.usage(0, DeviceKind::Dram).used, 500);
        assert_eq!(g.usage(1, DeviceKind::Dram).used, 500);
        drop(v);
        assert_eq!(g.usage(0, DeviceKind::Dram).used, 0);

        // A buffer that fits on one node's worth but not per-node split:
        // 4096 per node is the cap; 9000 interleaved needs 4500 per node.
        let err = HetVec::with_governor(
            g.clone(),
            Placement::interleaved(DeviceKind::Dram),
            vec![0u8; 9000],
        )
        .unwrap_err();
        assert!(err.is_oom());
        // Rollback left no residue.
        assert_eq!(g.usage(0, DeviceKind::Dram).used, 0);
        assert_eq!(g.usage(1, DeviceKind::Dram).used, 0);
    }

    #[test]
    fn charged_reads_and_writes() {
        let pm1 = Placement::node(1, DeviceKind::Pm);
        let mut v = HetVec::with_governor(system(), pm1, vec![1.0f64; 16]).unwrap();
        let mut ctx = ThreadMem::new(0, 2);
        let x = v.get(3, AccessPattern::Rand, &mut ctx);
        assert_eq!(x, 1.0);
        v.set(3, 2.0, AccessPattern::Seq, &mut ctx);
        assert_eq!(v.raw()[3], 2.0);
        let remote_rand_read = ctx.counters().get(AccessClass::new(
            DeviceKind::Pm,
            Locality::Remote,
            AccessOp::Read,
            AccessPattern::Rand,
        ));
        assert_eq!(remote_rand_read.bytes, 8);
        assert_eq!(remote_rand_read.media_bytes, 256);
    }

    #[test]
    fn block_ops_stream() {
        let dram0 = Placement::node(0, DeviceKind::Dram);
        let v = HetVec::with_governor(system(), dram0, (0..100u32).collect()).unwrap();
        let mut ctx = ThreadMem::new(0, 2);
        let got = v.read_block(10..30, &mut ctx);
        assert_eq!(got, (10..30).collect::<Vec<_>>());
        let again = v.try_read_block(30..50, &mut ctx).unwrap();
        assert_eq!(again[0], 30);
        assert_eq!(ctx.counters().total_accesses(), 2);
        assert_eq!(ctx.counters().total_bytes(), 160);
    }

    #[test]
    fn placement_helpers() {
        let p = Placement::node(1, DeviceKind::Pm);
        assert_eq!(p.device(), DeviceKind::Pm);
        assert_eq!(p.home_node(), Some(1));
        let q = Placement::interleaved(DeviceKind::Dram);
        assert_eq!(q.home_node(), None);
        assert_eq!(format!("{p}"), "PM@node1");
        assert_eq!(format!("{q}"), "DRAM@interleaved");
    }
}
