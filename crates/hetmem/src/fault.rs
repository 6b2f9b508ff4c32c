//! The fault-injection seam of the substrate: a hook trait that every
//! charged access consults when a plan is installed on the
//! [`MemSystem`](crate::MemSystem).
//!
//! The substrate itself knows nothing about fault *policy* — rates,
//! windows, seeds all live in `omega-faults`. What lives here is the
//! mechanism: a [`FaultHook`] installed on the system rides along in every
//! [`crate::ThreadMem`] the system hands out, sees a compact
//! [`FaultAccess`] descriptor for each charged access, and answers with a
//! [`FaultVerdict`]. When no hook is installed (the default) the consult
//! is a single `Option` check and the model's behaviour is bit-identical
//! to a build without this module.
//!
//! Verdicts charge *simulated* time only: a `Delayed` verdict adds
//! nanoseconds to the context's injected-penalty ledger, a `Fail` verdict
//! additionally parks a [`HetMemError`] on the context. Infallible
//! accessors ignore the parked error (they still pay the latency); robust
//! consumers read through `try_*` accessors which surface it, so the core
//! model stays untouched while serve/SpMM can react.

use crate::bandwidth::{AccessOp, AccessPattern};
use crate::clock::SimDuration;
use crate::device::DeviceKind;
use crate::error::HetMemError;

/// Compact descriptor of one charged access, handed to the hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAccess {
    /// Device the access targets.
    pub device: DeviceKind,
    /// Home node of the accessed buffer (`None` for interleaved placements).
    pub node: Option<crate::topology::NodeId>,
    pub op: AccessOp,
    pub pattern: AccessPattern,
    /// Payload bytes of the access.
    pub bytes: u64,
    /// Discrete accesses charged (1 for a streamed block).
    pub accesses: u64,
}

/// The hook's answer for one access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Access proceeds at model cost.
    Ok,
    /// Access succeeds but costs extra simulated time (latency spike,
    /// sustained degradation). Added to the context's injected penalty.
    Delayed(SimDuration),
    /// Access fails. `error` is parked on the context for `try_*` readers;
    /// `penalty` is the simulated time the doomed attempt burned.
    Fail {
        error: HetMemError,
        penalty: SimDuration,
    },
}

/// An installed fault plan. Implementations MUST be deterministic pure
/// functions of their own seed and the arguments: the same
/// `(now, seq, access)` triple must always produce the same verdict, on
/// any thread, in any run — this is what makes chaos runs replayable
/// byte-for-byte.
pub trait FaultHook: std::fmt::Debug + Send + Sync {
    /// Judge one access. `now` is the consulting context's simulated clock
    /// (set by the consumer via [`crate::ThreadMem::set_sim_now`]); `seq`
    /// is the consult ordinal within that context, so repeated identical
    /// accesses draw independently.
    fn on_access(&self, now: SimDuration, seq: u64, access: &FaultAccess) -> FaultVerdict;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessOp, AccessPattern, MemSystem, Placement, Topology};
    use std::sync::Arc;

    /// A hook that fails every Nth consult with a fixed penalty.
    #[derive(Debug)]
    struct EveryNth {
        n: u64,
        penalty: SimDuration,
    }

    impl FaultHook for EveryNth {
        fn on_access(&self, _now: SimDuration, seq: u64, access: &FaultAccess) -> FaultVerdict {
            if (seq + 1).is_multiple_of(self.n) {
                FaultVerdict::Fail {
                    error: HetMemError::Transient {
                        node: access.node.unwrap_or(0),
                        device: access.device,
                        penalty_ns: self.penalty.as_nanos(),
                    },
                    penalty: self.penalty,
                }
            } else {
                FaultVerdict::Ok
            }
        }
    }

    #[test]
    fn hook_parks_error_and_charges_penalty() {
        let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 20)).with_fault_hook(
            Arc::new(EveryNth {
                n: 2,
                penalty: SimDuration::from_nanos(500),
            }),
        );
        let mut ctx = sys.thread_ctx_on(0);
        let pm = Placement::node(0, DeviceKind::Pm);
        // Consult 0: ok. Consult 1: fail.
        ctx.charge_block(pm, AccessOp::Read, AccessPattern::Seq, 64, 1);
        assert!(ctx.take_fault().is_none());
        ctx.charge_block(pm, AccessOp::Read, AccessPattern::Seq, 64, 1);
        let err = ctx.take_fault().expect("second consult fails");
        assert!(matches!(err, HetMemError::Transient { .. }));
        assert_eq!(ctx.injected_penalty(), SimDuration::from_nanos(500));
        // take_fault consumes the parked error.
        assert!(ctx.take_fault().is_none());
        // Counters still charged the attempt's traffic.
        assert_eq!(ctx.counters().total_bytes(), 128);
    }

    /// A hook that records every consult ordinal it sees.
    #[derive(Debug, Default)]
    struct SeqRecorder {
        seen: std::sync::Mutex<Vec<u64>>,
    }

    impl FaultHook for SeqRecorder {
        fn on_access(&self, _now: SimDuration, seq: u64, _access: &FaultAccess) -> FaultVerdict {
            self.seen.lock().unwrap().push(seq);
            FaultVerdict::Ok
        }
    }

    #[test]
    fn fault_streams_partition_the_consult_ordinals() {
        let hook = Arc::new(SeqRecorder::default());
        let sys =
            MemSystem::new(Topology::paper_machine_scaled(1 << 20)).with_fault_hook(hook.clone());
        let pm = Placement::node(0, DeviceKind::Pm);
        let charge = |ctx: &mut crate::ThreadMem| {
            ctx.charge_block(pm, AccessOp::Read, AccessPattern::Seq, 64, 1);
        };
        // Two contexts on distinct streams, consults interleaved: each draws
        // from its own ordinal range, regardless of interleaving.
        let mut a = sys.thread_ctx_on(0);
        a.set_fault_stream(3);
        let mut b = sys.thread_ctx_on(0);
        b.set_fault_stream(9);
        charge(&mut a);
        charge(&mut b);
        charge(&mut a);
        let seen = hook.seen.lock().unwrap().clone();
        assert_eq!(seen, vec![3 << 32, 9 << 32, (3 << 32) | 1]);
        // An un-rebased context stays on stream 0.
        let mut c = sys.thread_ctx_on(0);
        charge(&mut c);
        assert_eq!(*hook.seen.lock().unwrap().last().unwrap(), 0);
    }

    #[test]
    fn no_hook_is_free_of_side_effects() {
        let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 20));
        let mut ctx = sys.thread_ctx_on(0);
        ctx.charge_block(
            Placement::node(0, DeviceKind::Pm),
            AccessOp::Read,
            AccessPattern::Seq,
            64,
            1,
        );
        assert!(ctx.take_fault().is_none());
        assert_eq!(ctx.injected_penalty(), SimDuration::ZERO);
    }
}
