//! Block-device semantics for the simulated NVMe SSD, plus the LRU page
//! cache the Ginex-like baseline builds on.
//!
//! The SSD is a block device: any access moves whole 4 KiB pages
//! ([`DeviceKind::Ssd`]'s access granularity) and pays a per-IO latency,
//! which the bandwidth model applies to the SSD classes. The SSD hangs off
//! node 0.

use omega_hetmem::{AccessOp, AccessPattern, DeviceKind, Placement, ThreadMem};
use std::collections::HashMap;

/// Bytes one SSD I/O moves.
pub(crate) const PAGE_SIZE: u64 = DeviceKind::Ssd.access_granularity();

/// Charge `pages` whole pages of `op`/`pattern` traffic on the SSD.
fn charge_pages(op: AccessOp, pattern: AccessPattern, pages: u64, ctx: &mut ThreadMem) {
    let ssd = Placement::node(0, DeviceKind::Ssd);
    ctx.charge_block(ssd, op, pattern, pages * PAGE_SIZE, pages);
}

/// Charge a sequential streamed read of `bytes` from SSD.
pub(crate) fn charge_seq_read(bytes: u64, ctx: &mut ThreadMem) {
    let pages = bytes.div_ceil(PAGE_SIZE);
    charge_pages(AccessOp::Read, AccessPattern::Seq, pages, ctx);
}

/// Charge a sequential streamed write of `bytes` to SSD.
pub(crate) fn charge_seq_write(bytes: u64, ctx: &mut ThreadMem) {
    let pages = bytes.div_ceil(PAGE_SIZE);
    charge_pages(AccessOp::Write, AccessPattern::Seq, pages, ctx);
}

/// Charge one random page read.
pub(crate) fn charge_rand_page_read(ctx: &mut ThreadMem) {
    charge_pages(AccessOp::Read, AccessPattern::Rand, 1, ctx);
}

/// A fixed-capacity LRU cache of SSD page ids: which pages an in-DRAM page
/// cache holds.
#[derive(Debug)]
pub(crate) struct PageCache {
    capacity_pages: usize,
    // page id -> recency stamp
    resident: HashMap<u64, u64>,
    stamp: u64,
}

impl PageCache {
    pub(crate) fn new(capacity_pages: usize) -> Self {
        PageCache {
            capacity_pages,
            resident: HashMap::with_capacity(capacity_pages),
            stamp: 0,
        }
    }

    /// Touch a page: returns `true` on a hit; on a miss the page is loaded,
    /// evicting the least-recently-used resident page if at capacity.
    pub(crate) fn access(&mut self, page: u64) -> bool {
        self.stamp += 1;
        if let Some(entry) = self.resident.get_mut(&page) {
            *entry = self.stamp;
            return true;
        }
        if self.capacity_pages == 0 {
            return false;
        }
        if self.resident.len() >= self.capacity_pages {
            // O(n) eviction scan: fine at the cache sizes the baselines use;
            // this is an accounting structure, not a production cache.
            if let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, &s)| s) {
                self.resident.remove(&victim);
            }
        }
        self.resident.insert(page, self.stamp);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_hetmem::{AccessClass, Locality};

    fn charged(ctx: &ThreadMem, op: AccessOp, pattern: AccessPattern) -> (u64, u64) {
        let class = AccessClass::new(DeviceKind::Ssd, Locality::Local, op, pattern);
        let c = ctx.counters().get(class);
        (c.bytes, c.accesses)
    }

    #[test]
    fn page_math() {
        for (bytes, pages) in [(0, 0), (1, 1), (4096, 1), (4097, 2)] {
            let mut ctx = ThreadMem::new(0, 2);
            charge_seq_write(bytes, &mut ctx);
            let got = charged(&ctx, AccessOp::Write, AccessPattern::Seq);
            assert_eq!(got, (pages * 4096, pages), "{bytes} bytes");
        }
    }

    #[test]
    fn charges_are_page_granular() {
        let mut ctx = ThreadMem::new(0, 2);
        charge_seq_read(100, &mut ctx); // rounds up to one 4 KiB page
        assert_eq!(charged(&ctx, AccessOp::Read, AccessPattern::Seq), (4096, 1));
    }

    #[test]
    fn random_page_read_charges_one_io() {
        let mut ctx = ThreadMem::new(0, 2);
        charge_rand_page_read(&mut ctx);
        let class = AccessClass::new(
            DeviceKind::Ssd,
            Locality::Local,
            AccessOp::Read,
            AccessPattern::Rand,
        );
        let c = ctx.counters().get(class);
        assert_eq!(c.accesses, 1);
        assert_eq!(c.media_bytes, 4096);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut cache = PageCache::new(2);
        assert!(!cache.access(1)); // miss, load
        assert!(!cache.access(2)); // miss, load
        assert!(cache.access(1)); // hit (1 now most recent)
        assert!(!cache.access(3)); // miss, evicts 2
        assert!(cache.access(1)); // 1 stayed
        assert!(cache.access(3)); // 3 loaded
        assert!(!cache.access(2)); // 2 was evicted
    }

    #[test]
    fn zero_capacity_cache_never_hits() {
        let mut cache = PageCache::new(0);
        assert!(!cache.access(1));
        assert!(!cache.access(1));
    }
}
