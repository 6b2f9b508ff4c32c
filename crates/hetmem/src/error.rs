//! Error types for the heterogeneous memory substrate.

use crate::device::DeviceKind;
use crate::topology::NodeId;

/// Errors produced by the memory substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HetMemError {
    /// An allocation exceeded the remaining capacity of a device on a node.
    ///
    /// This is how the reproduction models the paper's "fails to run /
    /// out-of-memory" outcomes for DRAM-only systems on billion-scale graphs
    /// (Fig. 12, Fig. 18(b)).
    OutOfMemory {
        node: NodeId,
        device: DeviceKind,
        requested: u64,
        available: u64,
    },
    /// A node id referred to a socket that does not exist in the topology.
    InvalidNode { node: NodeId, nodes: usize },
    /// The topology description is inconsistent (e.g. zero sockets or cores).
    InvalidTopology(String),
    /// A free returned more bytes than were allocated (double free / corrupt
    /// lease), which indicates a bug in the caller.
    AccountingUnderflow {
        node: NodeId,
        device: DeviceKind,
        freed: u64,
        in_use: u64,
    },
    /// Requested device kind is not present on the node (e.g. SSD capacity 0).
    DeviceUnavailable { node: NodeId, device: DeviceKind },
    /// A transient device failure injected by the active fault plan: the
    /// access did not complete and may be retried. Carries the simulated
    /// nanoseconds the failed attempt burned before the device gave up.
    Transient {
        node: NodeId,
        device: DeviceKind,
        penalty_ns: u64,
    },
    /// A device-level timeout injected by the active fault plan: the access
    /// stalled for `timeout_ns` simulated nanoseconds and was abandoned.
    /// Robust consumers hedge to a replica tier instead of retrying the
    /// same device.
    Timeout {
        node: NodeId,
        device: DeviceKind,
        timeout_ns: u64,
    },
}

impl std::fmt::Display for HetMemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HetMemError::OutOfMemory {
                node,
                device,
                requested,
                available,
            } => write!(
                f,
                "out of memory: requested {requested} B of {device} on node {node} \
                 but only {available} B available"
            ),
            HetMemError::InvalidNode { node, nodes } => {
                write!(f, "invalid NUMA node {node}: topology has {nodes} nodes")
            }
            HetMemError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            HetMemError::AccountingUnderflow {
                node,
                device,
                freed,
                in_use,
            } => write!(
                f,
                "accounting underflow freeing {freed} B of {device} on node {node} \
                 (only {in_use} B in use)"
            ),
            HetMemError::DeviceUnavailable { node, device } => {
                write!(f, "device {device} unavailable on node {node}")
            }
            HetMemError::Transient {
                node,
                device,
                penalty_ns,
            } => write!(
                f,
                "transient {device} failure on node {node} (attempt burned {penalty_ns} ns)"
            ),
            HetMemError::Timeout {
                node,
                device,
                timeout_ns,
            } => write!(
                f,
                "{device} access on node {node} timed out after {timeout_ns} ns"
            ),
        }
    }
}

impl std::error::Error for HetMemError {}

impl HetMemError {
    /// Whether this error is a capacity failure ("system cannot run"), the
    /// outcome the experiment harness reports as `OOM` like the paper does.
    pub fn is_oom(&self) -> bool {
        matches!(self, HetMemError::OutOfMemory { .. })
    }

    /// Whether this error is an injected timeout, where the robust response
    /// is hedging to a replica rather than retrying.
    pub fn is_timeout(&self) -> bool {
        matches!(self, HetMemError::Timeout { .. })
    }

    /// Simulated nanoseconds the failed access burned before surfacing
    /// (zero for non-injected errors).
    pub fn penalty_ns(&self) -> u64 {
        match self {
            HetMemError::Transient { penalty_ns, .. } => *penalty_ns,
            HetMemError::Timeout { timeout_ns, .. } => *timeout_ns,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = HetMemError::OutOfMemory {
            node: 0,
            device: DeviceKind::Dram,
            requested: 1024,
            available: 512,
        };
        let msg = e.to_string();
        assert!(msg.contains("1024"));
        assert!(msg.contains("DRAM"));
        assert!(e.is_oom());

        let e = HetMemError::InvalidNode { node: 3, nodes: 2 };
        assert!(e.to_string().contains("node 3"));
        assert!(!e.is_oom());
    }
}
