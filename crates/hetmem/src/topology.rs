//! Simulated NUMA topology: sockets, cores, and per-socket device capacities.

use crate::device::DeviceKind;
use crate::error::HetMemError;
use crate::Result;

/// Identifier of a NUMA node (socket). Dense, `0..topology.nodes()`.
pub type NodeId = usize;

/// Description of the simulated machine.
///
/// The paper's testbed (§IV-A) is a two-socket Xeon Gold 6240 (18 physical
/// cores per socket) with 96 GB DRAM (3×32 GB) and 768 GB Optane PM
/// (3×256 GB) per socket plus a 3.84 TB NVMe SSD. [`Topology::paper_machine`]
/// reproduces it exactly; [`Topology::paper_machine_scaled`] shrinks the
/// capacities proportionally so the scaled-down dataset twins exhibit the
/// same "fits in PM but not in DRAM" regimes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    sockets: usize,
    cores_per_socket: usize,
    dram_per_node: u64,
    pm_per_node: u64,
    /// SSD is machine-global; modelled as attached to node 0.
    ssd_capacity: u64,
}

impl Topology {
    /// Build a topology, validating the description.
    pub fn new(
        sockets: usize,
        cores_per_socket: usize,
        dram_per_node: u64,
        pm_per_node: u64,
        ssd_capacity: u64,
    ) -> Result<Self> {
        if sockets == 0 {
            return Err(HetMemError::InvalidTopology("zero sockets".into()));
        }
        if cores_per_socket == 0 {
            return Err(HetMemError::InvalidTopology("zero cores per socket".into()));
        }
        if dram_per_node == 0 {
            return Err(HetMemError::InvalidTopology("zero DRAM capacity".into()));
        }
        Ok(Topology {
            sockets,
            cores_per_socket,
            dram_per_node,
            pm_per_node,
            ssd_capacity,
        })
    }

    /// The paper's two-socket Optane machine at full capacity.
    pub fn paper_machine() -> Self {
        const GIB: u64 = 1 << 30;
        Topology {
            sockets: 2,
            cores_per_socket: 18,
            dram_per_node: 96 * GIB,
            pm_per_node: 768 * GIB,
            ssd_capacity: 3840 * GIB,
        }
    }

    /// The paper machine with memory capacities scaled so that `dram_per_node`
    /// equals the given number of bytes; PM and SSD keep the paper's ratios
    /// (PM = 8× DRAM per node, SSD = 20× total DRAM).
    ///
    /// Used with the scaled-down dataset twins: systems that the paper
    /// reports as OOM on billion-scale graphs also OOM here.
    pub fn paper_machine_scaled(dram_per_node: u64) -> Self {
        Topology {
            sockets: 2,
            cores_per_socket: 18,
            dram_per_node,
            pm_per_node: dram_per_node * 8,
            ssd_capacity: dram_per_node * 2 * 20,
        }
    }

    /// A single-node topology (UMA), useful for DRAM-only / PM-only modes
    /// where NUMA effects are not under study.
    pub fn single_node(cores: usize, dram: u64, pm: u64) -> Result<Self> {
        Topology::new(1, cores, dram, pm, 0)
    }

    /// Number of NUMA nodes (sockets).
    #[inline]
    pub fn nodes(&self) -> usize {
        self.sockets
    }

    /// Physical cores per socket.
    #[inline]
    pub fn cores_per_socket(&self) -> usize {
        self.cores_per_socket
    }

    /// Capacity of a device on a node, in bytes.
    pub fn capacity(&self, node: NodeId, device: DeviceKind) -> u64 {
        if node >= self.sockets {
            return 0;
        }
        match device {
            DeviceKind::Dram => self.dram_per_node,
            DeviceKind::Pm => self.pm_per_node,
            DeviceKind::Ssd => {
                if node == 0 {
                    self.ssd_capacity
                } else {
                    0
                }
            }
        }
    }

    /// Machine-wide capacity of a device kind, in bytes.
    pub fn total_capacity(&self, device: DeviceKind) -> u64 {
        (0..self.sockets).map(|n| self.capacity(n, device)).sum()
    }

    /// Validate that a node id exists.
    pub fn check_node(&self, node: NodeId) -> Result<()> {
        if node < self.sockets {
            Ok(())
        } else {
            Err(HetMemError::InvalidNode {
                node,
                nodes: self.sockets,
            })
        }
    }

    /// The NUMA node a simulated thread is bound to under the default
    /// block-cyclic binding: threads fill socket 0's cores, then socket 1's,
    /// wrapping for oversubscription.
    #[inline]
    pub fn node_of_thread(&self, thread: usize) -> NodeId {
        (thread / self.cores_per_socket) % self.sockets
    }

    /// Round-robin (cyclic) thread binding: thread `t` on socket `t % sockets`.
    /// Used by NaDP when splitting a thread pool evenly across sockets.
    #[inline]
    pub fn node_of_thread_cyclic(&self, thread: usize) -> NodeId {
        thread % self.sockets
    }

    /// Hardware cost of the machine's memory in USD (capacity × unit price),
    /// used by the cost/capacity trade-off reporting of Fig. 1.
    pub fn memory_price_usd(&self) -> f64 {
        const GIB: f64 = (1u64 << 30) as f64;
        DeviceKind::ALL
            .iter()
            .map(|&d| self.total_capacity(d) as f64 / GIB * d.price_per_gib_usd())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_matches_section_iv_a() {
        let t = Topology::paper_machine();
        const GIB: u64 = 1 << 30;
        assert_eq!(t.nodes(), 2);
        assert_eq!(t.cores_per_socket(), 18);
        assert_eq!(t.capacity(0, DeviceKind::Dram), 96 * GIB);
        assert_eq!(t.capacity(1, DeviceKind::Pm), 768 * GIB);
        assert_eq!(t.total_capacity(DeviceKind::Dram), 192 * GIB);
        assert_eq!(t.total_capacity(DeviceKind::Pm), 1536 * GIB);
        assert_eq!(t.total_capacity(DeviceKind::Ssd), 3840 * GIB);
    }

    #[test]
    fn scaled_machine_keeps_ratios() {
        let t = Topology::paper_machine_scaled(1 << 20);
        assert_eq!(
            t.capacity(0, DeviceKind::Pm) / t.capacity(0, DeviceKind::Dram),
            8
        );
        assert_eq!(t.nodes(), 2);
    }

    #[test]
    fn invalid_topologies_rejected() {
        assert!(Topology::new(0, 1, 1, 1, 0).is_err());
        assert!(Topology::new(1, 0, 1, 1, 0).is_err());
        assert!(Topology::new(1, 1, 0, 1, 0).is_err());
    }

    #[test]
    fn node_validation() {
        let t = Topology::paper_machine();
        assert!(t.check_node(1).is_ok());
        assert_eq!(
            t.check_node(2),
            Err(HetMemError::InvalidNode { node: 2, nodes: 2 })
        );
    }

    #[test]
    fn thread_binding_block_and_cyclic() {
        let t = Topology::paper_machine();
        // Block binding: first 18 threads on node 0, next 18 on node 1.
        assert_eq!(t.node_of_thread(0), 0);
        assert_eq!(t.node_of_thread(17), 0);
        assert_eq!(t.node_of_thread(18), 1);
        assert_eq!(t.node_of_thread(35), 1);
        assert_eq!(t.node_of_thread(36), 0); // oversubscription wraps
                                             // Cyclic binding alternates sockets.
        assert_eq!(t.node_of_thread_cyclic(0), 0);
        assert_eq!(t.node_of_thread_cyclic(1), 1);
        assert_eq!(t.node_of_thread_cyclic(2), 0);
    }

    #[test]
    fn ssd_lives_on_node_zero_only() {
        let t = Topology::paper_machine();
        assert!(t.capacity(0, DeviceKind::Ssd) > 0);
        assert_eq!(t.capacity(1, DeviceKind::Ssd), 0);
    }

    #[test]
    fn memory_price_favors_pm_per_capacity() {
        let t = Topology::paper_machine();
        let price = t.memory_price_usd();
        // DRAM: 192 GiB * 7 = 1344; PM: 1536 * 3.3 = 5068.8; SSD: 3840 * 0.11 = 422.4
        assert!(
            (price - (1344.0 + 5068.8 + 422.4)).abs() < 1e-6,
            "price={price}"
        );
    }
}
