//! Admission control: per-tenant token-bucket quotas and priority-aware
//! queue-depth shedding.
//!
//! The front door admits or rejects every arrival *at its arrival
//! instant* — rejected work never touches a queue, which is what keeps
//! queues bounded under overload. Two gates, in order:
//!
//! 1. **Quota** — a token bucket per tenant (refill `quota_qps`, capacity
//!    `burst`). High-priority tenants may overdraw up to one extra burst,
//!    so a misbehaving bulk tenant exhausts its own bucket before it can
//!    starve an interactive one.
//! 2. **Queue depth** — the routed replica's queue has a hard bound, with
//!    priority-tiered thresholds: low-priority work is shed first (at ¾
//!    of the bound), normal at ⅞, and only high-priority requests may
//!    fill the final eighth.
//!
//! All arithmetic is fixed-order IEEE f64 and integer comparison on
//! simulated instants — deterministic on any machine.

use crate::arrivals::Priority;

/// Why an arrival was or was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Admitted,
    /// The tenant's token bucket was empty (and overdraft, if any, spent).
    RejectedQuota,
    /// The routed replica's queue was at this priority's depth threshold.
    RejectedQueue,
}

/// A deterministic token bucket over simulated time.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    /// Tokens added per simulated nanosecond.
    rate_per_ns: f64,
    /// Capacity: tokens never accumulate beyond this.
    burst: f64,
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    /// A bucket refilling at `quota_qps` requests per simulated second,
    /// starting full at `burst` tokens.
    pub(crate) fn new(quota_qps: f64, burst: f64) -> TokenBucket {
        assert!(quota_qps > 0.0, "quota must be positive");
        assert!(burst >= 1.0, "burst must allow at least one request");
        TokenBucket {
            rate_per_ns: quota_qps * 1e-9,
            burst,
            tokens: burst,
            last_ns: 0,
        }
    }

    /// Refill up to `now_ns` (arrivals are processed in time order, so
    /// `now_ns` never runs backwards).
    fn refill(&mut self, now_ns: u64) {
        let dt = now_ns.saturating_sub(self.last_ns);
        self.last_ns = self.last_ns.max(now_ns);
        self.tokens = (self.tokens + dt as f64 * self.rate_per_ns).min(self.burst);
    }

    /// Take one token at `now_ns` if the balance (plus `overdraft`) covers
    /// it. The overdraft lets high-priority work run the balance negative
    /// — the debt is repaid by refill before any further admission.
    pub(crate) fn try_take(&mut self, now_ns: u64, overdraft: f64) -> bool {
        self.refill(now_ns);
        if self.tokens + overdraft >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Current balance (after refilling to `now_ns`); may be negative
    /// while a high-priority overdraft is being repaid.
    #[cfg(test)]
    fn balance(&mut self, now_ns: u64) -> f64 {
        self.refill(now_ns);
        self.tokens
    }
}

/// The admission front: one bucket per tenant plus the queue-depth policy.
#[derive(Debug)]
pub struct Admission {
    buckets: Vec<TokenBucket>,
    /// Hard bound on any replica queue.
    max_queue: usize,
}

impl Admission {
    pub fn new(quotas: &[(f64, f64)], max_queue: usize) -> Admission {
        assert!(max_queue > 0, "queue bound must be positive");
        Admission {
            buckets: quotas
                .iter()
                .map(|&(qps, burst)| TokenBucket::new(qps, burst))
                .collect(),
            max_queue,
        }
    }

    /// Depth at which this priority stops being admitted.
    pub(crate) fn depth_limit(&self, priority: Priority) -> usize {
        match priority {
            Priority::High => self.max_queue,
            Priority::Normal => self.max_queue - self.max_queue / 8,
            Priority::Low => self.max_queue - self.max_queue / 4,
        }
    }

    /// Admission decision for one arrival: tenant quota first, then the
    /// routed replica's queue depth against the priority's threshold.
    pub fn admit(
        &mut self,
        tenant: usize,
        priority: Priority,
        now_ns: u64,
        queue_depth: usize,
    ) -> Verdict {
        let bucket = &mut self.buckets[tenant];
        let overdraft = if priority == Priority::High {
            bucket.burst
        } else {
            0.0
        };
        if !bucket.try_take(now_ns, overdraft) {
            return Verdict::RejectedQuota;
        }
        if queue_depth >= self.depth_limit(priority) {
            return Verdict::RejectedQueue;
        }
        Verdict::Admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_starts_full_and_drains() {
        let mut b = TokenBucket::new(1000.0, 4.0);
        for _ in 0..4 {
            assert!(b.try_take(0, 0.0));
        }
        assert!(!b.try_take(0, 0.0));
        // 1 ms at 1000 qps refills exactly one token.
        assert!(b.try_take(1_000_000, 0.0));
        assert!(!b.try_take(1_000_000, 0.0));
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut b = TokenBucket::new(1_000_000.0, 2.0);
        // A long idle period must not bank more than `burst` tokens.
        assert!(b.try_take(1_000_000_000, 0.0));
        assert!(b.try_take(1_000_000_000, 0.0));
        assert!(!b.try_take(1_000_000_000, 0.0));
    }

    #[test]
    fn overdraft_admits_then_repays() {
        let mut b = TokenBucket::new(1000.0, 2.0);
        assert!(b.try_take(0, 0.0));
        assert!(b.try_take(0, 0.0));
        // Empty: normal work is refused, overdraft still admits.
        assert!(!b.try_take(0, 0.0));
        assert!(b.try_take(0, 2.0));
        assert!(b.try_take(0, 2.0));
        assert!(!b.try_take(0, 2.0));
        assert!(b.balance(0) < 0.0, "overdraft must leave a debt");
        // The debt is repaid before normal admission resumes: one token
        // (1 ms) only brings the balance to -1.
        assert!(!b.try_take(1_000_000, 0.0));
        assert!(b.try_take(3_000_000, 0.0));
    }

    #[test]
    fn queue_thresholds_order_by_priority() {
        let adm = Admission::new(&[(1000.0, 8.0)], 64);
        assert_eq!(adm.depth_limit(Priority::High), 64);
        assert_eq!(adm.depth_limit(Priority::Normal), 56);
        assert_eq!(adm.depth_limit(Priority::Low), 48);
    }

    #[test]
    fn admit_orders_quota_before_queue() {
        let mut adm = Admission::new(&[(1000.0, 1.0)], 8);
        assert_eq!(adm.admit(0, Priority::Normal, 0, 0), Verdict::Admitted);
        // Bucket now empty: quota rejection wins even with a free queue.
        assert_eq!(adm.admit(0, Priority::Normal, 0, 0), Verdict::RejectedQuota);
        // Refilled but the queue is at the normal threshold (8 - 1 = 7).
        assert_eq!(
            adm.admit(0, Priority::Normal, 1_000_000, 7),
            Verdict::RejectedQueue
        );
        // High priority may use the final slots (and the overdraft).
        assert_eq!(
            adm.admit(0, Priority::High, 1_000_000, 7),
            Verdict::Admitted
        );
    }
}
