//! Block-device semantics for the simulated NVMe SSD, plus the LRU page
//! cache the out-of-core baselines (Ginex, SEM-SpMM) build on.

use crate::bandwidth::{AccessOp, AccessPattern};
use crate::device::DeviceKind;
use crate::hetvec::Placement;
use crate::topology::NodeId;
use crate::tracker::ThreadMem;
use std::collections::HashMap;

/// Helpers for charging page-granular SSD I/O.
///
/// The SSD is a block device: any access moves whole 4 KiB pages and pays a
/// per-IO latency (applied by the bandwidth model for SSD classes). Systems
/// like Ginex hide this behind an in-DRAM page cache; [`PageCache`] provides
/// that building block.
#[derive(Debug, Clone, Copy)]
pub struct SsdModel {
    pub page_size: u64,
    node: NodeId,
}

impl Default for SsdModel {
    fn default() -> Self {
        SsdModel {
            page_size: DeviceKind::Ssd.access_granularity(),
            node: 0,
        }
    }
}

impl SsdModel {
    pub fn new(page_size: u64, node: NodeId) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        SsdModel { page_size, node }
    }

    /// Number of pages covering `bytes`.
    #[inline]
    pub fn pages_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_size)
    }

    /// Charge a sequential streamed read of `bytes` from SSD.
    pub fn charge_seq_read(&self, bytes: u64, ctx: &mut ThreadMem) {
        let pages = self.pages_for(bytes);
        ctx.charge_block(
            Placement::node(self.node, DeviceKind::Ssd),
            AccessOp::Read,
            AccessPattern::Seq,
            pages * self.page_size,
            pages,
        );
    }

    /// Charge a sequential streamed write of `bytes` to SSD.
    pub fn charge_seq_write(&self, bytes: u64, ctx: &mut ThreadMem) {
        let pages = self.pages_for(bytes);
        ctx.charge_block(
            Placement::node(self.node, DeviceKind::Ssd),
            AccessOp::Write,
            AccessPattern::Seq,
            pages * self.page_size,
            pages,
        );
    }

    /// Charge one random page read.
    pub fn charge_rand_page_read(&self, ctx: &mut ThreadMem) {
        ctx.charge_block(
            Placement::node(self.node, DeviceKind::Ssd),
            AccessOp::Read,
            AccessPattern::Rand,
            self.page_size,
            1,
        );
    }
}

/// A fixed-capacity LRU page cache mapping SSD page ids to residency,
/// counting hits and misses. The Ginex-like baseline stages hot embedding
/// pages in DRAM through this cache.
#[derive(Debug)]
pub struct PageCache {
    capacity_pages: usize,
    // page id -> recency stamp
    resident: HashMap<u64, u64>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl PageCache {
    pub fn new(capacity_pages: usize) -> Self {
        PageCache {
            capacity_pages,
            resident: HashMap::with_capacity(capacity_pages),
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.resident.len()
    }

    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Touch a page: returns `true` on a hit; on a miss the page is loaded,
    /// evicting the least-recently-used resident page if at capacity.
    pub fn access(&mut self, page: u64) -> bool {
        self.stamp += 1;
        if let Some(entry) = self.resident.get_mut(&page) {
            *entry = self.stamp;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
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

    /// Pre-load a page without counting a miss (warm-up / prefetch).
    pub fn insert(&mut self, page: u64) {
        self.stamp += 1;
        if self.capacity_pages == 0 {
            return;
        }
        if self.resident.len() >= self.capacity_pages && !self.resident.contains_key(&page) {
            if let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, &s)| s) {
                self.resident.remove(&victim);
            }
        }
        self.resident.insert(page, self.stamp);
    }

    pub fn contains(&self, page: u64) -> bool {
        self.resident.contains_key(&page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::AccessClass;
    use crate::bandwidth::Locality;

    #[test]
    fn page_math() {
        let ssd = SsdModel::default();
        assert_eq!(ssd.pages_for(0), 0);
        assert_eq!(ssd.pages_for(1), 1);
        assert_eq!(ssd.pages_for(4096), 1);
        assert_eq!(ssd.pages_for(4097), 2);
    }

    #[test]
    fn charges_are_page_granular() {
        let ssd = SsdModel::default();
        let mut ctx = ThreadMem::new(0, 2);
        ssd.charge_seq_read(100, &mut ctx); // rounds up to one 4 KiB page
        let c = ctx.counters().get(AccessClass::new(
            DeviceKind::Ssd,
            Locality::Local,
            AccessOp::Read,
            AccessPattern::Seq,
        ));
        assert_eq!(c.bytes, 4096);
        assert_eq!(c.accesses, 1);
    }

    #[test]
    fn random_page_read_charges_one_io() {
        let ssd = SsdModel::default();
        let mut ctx = ThreadMem::new(0, 2);
        ssd.charge_rand_page_read(&mut ctx);
        let c = ctx.counters().get(AccessClass::new(
            DeviceKind::Ssd,
            Locality::Local,
            AccessOp::Read,
            AccessPattern::Rand,
        ));
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
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        assert!(cache.contains(3));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
        assert!((cache.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_cache_never_hits() {
        let mut cache = PageCache::new(0);
        assert!(!cache.access(1));
        assert!(!cache.access(1));
        assert_eq!(cache.hits(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn insert_prewarms_without_miss() {
        let mut cache = PageCache::new(1);
        cache.insert(9);
        assert!(cache.access(9));
        assert_eq!(cache.misses(), 0);
    }
}
