//! Cluster interconnect model: the shared [`NetModel`] latency/bandwidth
//! parameters used by the distributed baselines (DistDGL / DistGER,
//! Fig. 18(a)) and by the `omega-plane` request plane's replica routing.
//!
//! The paper's distributed competitors run on a four-machine cluster; their
//! end-to-end times are dominated by traffic volume (gradient synchronisation
//! for DistDGL, walk/message exchange for DistGER) over a datacenter
//! network. This module models that: machines with private memory connected
//! by a bandwidth/latency link, with an all-reduce helper. The
//! same link model charges the request plane's front-to-replica RPC hops,
//! so serving and training traffic share one set of network parameters.

use crate::clock::SimDuration;
use serde::{Deserialize, Serialize};

/// A full-duplex network link between cluster machines — the one shared
/// latency/bandwidth parameter set for every simulated network in the
/// workspace (distributed baselines and the serving request plane alike).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetModel {
    /// Per-machine NIC bandwidth in GiB/s (10 GbE ≈ 1.16, 25 GbE ≈ 2.9).
    pub bandwidth_gib_s: f64,
    /// One-way message latency in microseconds.
    pub latency_us: f64,
}

impl NetModel {
    /// A 25 GbE datacenter network, typical of the paper's cluster era.
    pub fn datacenter_25gbe() -> Self {
        NetModel {
            bandwidth_gib_s: 2.9,
            latency_us: 20.0,
        }
    }

    /// Time to move `bytes` point-to-point in `messages` messages.
    pub fn transfer_time(&self, bytes: u64, messages: u64) -> SimDuration {
        const GIB: f64 = (1u64 << 30) as f64;
        let ns = bytes as f64 / (self.bandwidth_gib_s * GIB) * 1e9
            + messages as f64 * self.latency_us * 1_000.0;
        SimDuration::from_nanos(ns.round() as u64)
    }

    /// One request/response RPC: `request_bytes` one way, `response_bytes`
    /// back, each paying a message latency (the request plane's
    /// front-to-replica hop).
    pub fn rpc_time(&self, request_bytes: u64, response_bytes: u64) -> SimDuration {
        self.transfer_time(request_bytes + response_bytes, 2)
    }

    /// A one-way forward of `bytes` (the extra hop a hedged/rerouted
    /// request pays to reach a non-primary replica).
    pub fn forward_time(&self, bytes: u64) -> SimDuration {
        self.transfer_time(bytes, 1)
    }
}

/// A cluster of identical machines for the distributed baselines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    pub machines: usize,
    /// DRAM per machine, bytes.
    pub mem_per_machine: u64,
    pub network: NetModel,
}

impl Cluster {
    /// The paper's comparison cluster: four machines with the testbed's DRAM
    /// (192 GB) but no PM (§IV-G), scaled by the same factor as the topology.
    pub fn paper_cluster_scaled(mem_per_machine: u64) -> Self {
        Cluster {
            machines: 4,
            mem_per_machine,
            network: NetModel::datacenter_25gbe(),
        }
    }

    /// Total cluster memory.
    pub fn total_memory(&self) -> u64 {
        self.mem_per_machine * self.machines as u64
    }

    /// Time for an all-reduce of `bytes` per machine (ring algorithm:
    /// 2·(p−1)/p of the data crosses each NIC, in 2·(p−1) steps).
    pub fn allreduce_time(&self, bytes: u64) -> SimDuration {
        let p = self.machines as u64;
        if p <= 1 {
            return SimDuration::ZERO;
        }
        let wire_bytes = 2 * bytes * (p - 1) / p;
        self.network.transfer_time(wire_bytes, 2 * (p - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_has_bandwidth_and_latency_terms() {
        let net = NetModel::datacenter_25gbe();
        let just_latency = net.transfer_time(0, 1);
        assert_eq!(just_latency.as_nanos(), 20_000);
        let one_gib = net.transfer_time(1 << 30, 0);
        assert!((one_gib.as_secs_f64() - 1.0 / 2.9).abs() < 1e-3);
    }

    #[test]
    fn allreduce_scales_with_cluster() {
        let c = Cluster::paper_cluster_scaled(1 << 30);
        let t = c.allreduce_time(1 << 20);
        // 2*(4-1)/4 = 1.5x data over the wire.
        let expect = c.network.transfer_time(3 * (1u64 << 20) / 2, 6);
        assert_eq!(t, expect);
        let single = Cluster { machines: 1, ..c };
        assert_eq!(single.allreduce_time(1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn cluster_capacity() {
        let c = Cluster::paper_cluster_scaled(100);
        assert_eq!(c.total_memory(), 400);
        assert_eq!(c.machines, 4);
    }
}
