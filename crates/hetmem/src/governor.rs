//! Capacity accounting: per-(node, device) usage with typed out-of-memory
//! failures.

use crate::device::DeviceKind;
use crate::error::HetMemError;
use crate::hetvec::Placement;
use crate::topology::{NodeId, Topology};
use crate::Result;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A snapshot of usage for one (node, device) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemUsage {
    pub used: u64,
    pub capacity: u64,
}

impl MemUsage {
    pub fn available(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }
}

#[derive(Debug, Default)]
struct Usage {
    // Indexed [node][device].
    used: Vec<[u64; 3]>,
    peak: Vec<[u64; 3]>,
}

/// Tracks allocations against the topology's capacities.
///
/// The governor is what turns "the dense matrices exceed DRAM" into an
/// observable [`HetMemError::OutOfMemory`], reproducing the paper's OOM rows
/// in Fig. 12 / Fig. 18(b). It also records peak usage so the ASL partition
/// formula (Eq. 8–9) can be validated against actual consumption.
#[derive(Debug)]
pub struct MemGovernor {
    topology: Topology,
    usage: Mutex<Usage>,
}

impl MemGovernor {
    pub fn new(topology: Topology) -> Self {
        let nodes = topology.nodes();
        MemGovernor {
            topology,
            usage: Mutex::new(Usage {
                used: vec![[0; 3]; nodes],
                peak: vec![[0; 3]; nodes],
            }),
        }
    }

    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Lock the usage table. A poisoned lock is recovered: the table is
    /// plain counters, valid after every individual update.
    fn locked(&self) -> MutexGuard<'_, Usage> {
        self.usage.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reserve `bytes` of `device` on `node`.
    pub fn allocate(&self, node: NodeId, device: DeviceKind, bytes: u64) -> Result<()> {
        self.topology.check_node(node)?;
        let capacity = self.topology.capacity(node, device);
        if capacity == 0 && bytes > 0 {
            return Err(HetMemError::DeviceUnavailable { node, device });
        }
        let mut usage = self.locked();
        let used = &mut usage.used[node][device.index()];
        let available = capacity.saturating_sub(*used);
        if bytes > available {
            return Err(HetMemError::OutOfMemory {
                node,
                device,
                requested: bytes,
                available,
            });
        }
        *used += bytes;
        let new_used = *used;
        let peak = &mut usage.peak[node][device.index()];
        *peak = (*peak).max(new_used);
        Ok(())
    }

    /// Release a previous reservation.
    pub fn free(&self, node: NodeId, device: DeviceKind, bytes: u64) -> Result<()> {
        self.topology.check_node(node)?;
        let mut usage = self.locked();
        let used = &mut usage.used[node][device.index()];
        if bytes > *used {
            return Err(HetMemError::AccountingUnderflow {
                node,
                device,
                freed: bytes,
                in_use: *used,
            });
        }
        *used -= bytes;
        Ok(())
    }

    /// Current usage for a (node, device).
    pub fn usage(&self, node: NodeId, device: DeviceKind) -> MemUsage {
        let used = self
            .locked()
            .used
            .get(node)
            .map(|u| u[device.index()])
            .unwrap_or(0);
        MemUsage {
            used,
            capacity: self.topology.capacity(node, device),
        }
    }

    /// Free bytes a reservation at `placement` can draw on: the home
    /// node's for a node placement, the sum over all nodes for an
    /// interleaved one.
    pub fn available(&self, placement: Placement) -> u64 {
        let device = placement.device();
        match placement.home_node() {
            Some(node) => self.usage(node, device).available(),
            None => (0..self.topology.nodes())
                .map(|node| self.usage(node, device).available())
                .sum(),
        }
    }

    /// Per-node shares of `bytes` held at `placement` (see
    /// [`MemReservation`]), in node order.
    fn shares(&self, placement: Placement, bytes: u64) -> impl Iterator<Item = (NodeId, u64)> {
        let nodes = self.topology.nodes();
        let (first, count, each, rest) = match placement.home_node() {
            Some(node) => (node, 1, bytes, 0),
            None => (0, nodes, bytes / nodes as u64, bytes % nodes as u64),
        };
        (first..first + count).map(move |k| (k, each + if k == first { rest } else { 0 }))
    }

    /// Peak usage seen so far for a (node, device).
    pub fn peak(&self, node: NodeId, device: DeviceKind) -> u64 {
        self.locked()
            .peak
            .get(node)
            .map(|u| u[device.index()])
            .unwrap_or(0)
    }

    /// Machine-wide usage of a device kind.
    pub fn total_usage(&self, device: DeviceKind) -> MemUsage {
        let usage = self.locked();
        let used = usage.used.iter().map(|u| u[device.index()]).sum();
        MemUsage {
            used,
            capacity: self.topology.total_capacity(device),
        }
    }
}

/// RAII capacity reservation: `bytes` held at a [`Placement`] until drop —
/// the lease behind every [`crate::HetVec`], and the way to account data
/// whose backing store lives elsewhere (the CSDB arrays owned by the graph
/// crate, operands borrowed in place).
///
/// A node placement holds everything on its node. An interleaved one models
/// round-robin pages as an even split across all nodes, the remainder on
/// node 0; if any node's share does not fit, the shares already taken are
/// returned and that node's out-of-memory error is the result.
#[derive(Debug)]
pub struct MemReservation {
    governor: Arc<MemGovernor>,
    placement: Placement,
    bytes: u64,
}

impl MemReservation {
    /// Reserve `bytes`; fails with [`HetMemError::OutOfMemory`] when full.
    pub fn new(governor: Arc<MemGovernor>, placement: Placement, bytes: u64) -> Result<Self> {
        let device = placement.device();
        for (taken, (node, share)) in governor.shares(placement, bytes).enumerate() {
            if let Err(e) = governor.allocate(node, device, share) {
                for (held_node, held) in governor.shares(placement, bytes).take(taken) {
                    let _ = governor.free(held_node, device, held);
                }
                return Err(e);
            }
        }
        Ok(MemReservation {
            governor,
            placement,
            bytes,
        })
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemReservation {
    fn drop(&mut self) {
        for (node, share) in self.governor.shares(self.placement, self.bytes) {
            let _ = self.governor.free(node, self.placement.device(), share);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemGovernor {
        MemGovernor::new(Topology::new(2, 4, 1000, 8000, 100_000).unwrap())
    }

    #[test]
    fn allocate_free_roundtrip() {
        let g = small();
        g.allocate(0, DeviceKind::Dram, 600).unwrap();
        assert_eq!(g.usage(0, DeviceKind::Dram).used, 600);
        assert_eq!(g.usage(0, DeviceKind::Dram).available(), 400);
        g.free(0, DeviceKind::Dram, 600).unwrap();
        assert_eq!(g.usage(0, DeviceKind::Dram).used, 0);
        assert_eq!(g.peak(0, DeviceKind::Dram), 600);
    }

    #[test]
    fn oom_is_typed() {
        let g = small();
        g.allocate(0, DeviceKind::Dram, 900).unwrap();
        let err = g.allocate(0, DeviceKind::Dram, 200).unwrap_err();
        assert!(err.is_oom());
        match err {
            HetMemError::OutOfMemory {
                requested,
                available,
                ..
            } => {
                assert_eq!(requested, 200);
                assert_eq!(available, 100);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nodes_account_independently() {
        let g = small();
        g.allocate(0, DeviceKind::Dram, 1000).unwrap();
        g.allocate(1, DeviceKind::Dram, 1000).unwrap();
        assert_eq!(g.total_usage(DeviceKind::Dram).used, 2000);
        assert!(g.allocate(0, DeviceKind::Dram, 1).is_err());
    }

    #[test]
    fn double_free_detected() {
        let g = small();
        g.allocate(0, DeviceKind::Pm, 10).unwrap();
        g.free(0, DeviceKind::Pm, 10).unwrap();
        let err = g.free(0, DeviceKind::Pm, 10).unwrap_err();
        assert!(matches!(err, HetMemError::AccountingUnderflow { .. }));
    }

    #[test]
    fn ssd_unavailable_off_node_zero() {
        let g = small();
        assert!(g.allocate(0, DeviceKind::Ssd, 10).is_ok());
        let err = g.allocate(1, DeviceKind::Ssd, 10).unwrap_err();
        assert!(matches!(err, HetMemError::DeviceUnavailable { .. }));
    }

    #[test]
    fn invalid_node_rejected() {
        let g = small();
        assert!(g.allocate(7, DeviceKind::Dram, 1).is_err());
    }

    #[test]
    fn reservation_raii() {
        let g = Arc::new(small());
        let pm0 = Placement::node(0, DeviceKind::Pm);
        {
            let r = MemReservation::new(g.clone(), pm0, 100).unwrap();
            assert_eq!(r.bytes(), 100);
            assert_eq!(g.usage(0, DeviceKind::Pm).used, 100);
            assert_eq!(g.available(pm0), 7_900);
        }
        assert_eq!(g.usage(0, DeviceKind::Pm).used, 0);
        let dram0 = Placement::node(0, DeviceKind::Dram);
        assert!(MemReservation::new(g.clone(), dram0, 10_000).is_err());
    }

    #[test]
    fn interleaved_reservation_splits_and_rolls_back() {
        let g = Arc::new(small());
        let dram = Placement::interleaved(DeviceKind::Dram);
        assert_eq!(g.available(dram), 2_000);
        {
            let _r = MemReservation::new(g.clone(), dram, 1_001).unwrap();
            assert_eq!(
                g.usage(0, DeviceKind::Dram).used,
                501,
                "remainder on node 0"
            );
            assert_eq!(g.usage(1, DeviceKind::Dram).used, 500);
            assert_eq!(g.available(dram), 999);
        }
        assert_eq!(g.total_usage(DeviceKind::Dram).used, 0);

        // Fits node 0 but not node 1: node 0's share is handed back and the
        // error names the node that ran out.
        g.allocate(1, DeviceKind::Dram, 600).unwrap();
        let err = MemReservation::new(g.clone(), dram, 1_000).unwrap_err();
        assert!(
            matches!(
                err,
                HetMemError::OutOfMemory {
                    node: 1,
                    requested: 500,
                    available: 400,
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(g.usage(0, DeviceKind::Dram).used, 0);
    }
}
