//! The cold tier: a trained [`Embedding`] sharded into fixed-size row
//! blocks, each block a placed [`HetVec`] on PM or SSD. The store holds
//! geometry and bytes; its readers (`fetch`, `topk`) charge every read to
//! the hetmem cost model, so a cache miss pays the real (simulated) price
//! of pulling a shard, or a few of its rows, across the memory hierarchy.

use omega_embed::Embedding;
use omega_hetmem::{HetVec, MemSystem, Placement};
use std::ops::Range;

/// Row-block shards of an embedding table, resident on a cold device.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<HetVec<f32>>,
    placement: Placement,
    nodes: u32,
    dim: usize,
    rows_per_shard: usize,
}

impl ShardedStore {
    /// Shard `emb` into blocks of `rows_per_shard` rows and place every
    /// block at `placement` (normally PM or SSD on the cold node). Fails
    /// with `OutOfMemory` if the device cannot hold the table.
    pub fn build(
        sys: &MemSystem,
        emb: &Embedding,
        rows_per_shard: usize,
        placement: Placement,
    ) -> omega_hetmem::Result<ShardedStore> {
        assert!(rows_per_shard > 0, "rows_per_shard must be positive");
        let nodes = emb.nodes();
        let dim = emb.dim();
        let num_shards = (nodes as usize).div_ceil(rows_per_shard);
        let mut shards = Vec::with_capacity(num_shards);
        for sid in 0..num_shards {
            let lo = (sid * rows_per_shard) as u32;
            let hi = nodes.min(lo + rows_per_shard as u32);
            let mut data = Vec::with_capacity((hi - lo) as usize * dim);
            for v in lo..hi {
                // The serve path goes through the checked accessor: a
                // malformed embedding surfaces here, not as a slice panic
                // deep in a query kernel.
                data.extend_from_slice(emb.try_vector(v).expect("shard row in range"));
            }
            shards.push(sys.alloc_from(placement, data)?);
        }
        Ok(ShardedStore {
            shards,
            placement,
            nodes,
            dim,
            rows_per_shard,
        })
    }

    #[inline]
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    pub fn rows_per_shard(&self) -> usize {
        self.rows_per_shard
    }

    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The cold-tier placement all shards share.
    #[inline]
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Whether `node` is an addressable row.
    #[inline]
    pub fn contains(&self, node: u32) -> bool {
        node < self.nodes
    }

    /// The shard holding `node`'s row.
    #[inline]
    pub fn shard_of(&self, node: u32) -> usize {
        node as usize / self.rows_per_shard
    }

    /// The node-id range of shard `sid`.
    pub fn shard_rows(&self, sid: usize) -> Range<u32> {
        let lo = (sid * self.rows_per_shard) as u32;
        lo..self.nodes.min(lo + self.rows_per_shard as u32)
    }

    /// Payload bytes of shard `sid`.
    #[inline]
    pub fn shard_bytes(&self, sid: usize) -> u64 {
        self.shards[sid].size_bytes()
    }

    /// Payload bytes of one row.
    #[inline]
    pub(crate) fn row_bytes(&self) -> u64 {
        (self.dim * std::mem::size_of::<f32>()) as u64
    }

    /// Total payload bytes across all shards.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(HetVec::size_bytes).sum()
    }

    /// Offset of `node`'s row within its shard's data.
    #[inline]
    pub fn row_offset(&self, node: u32) -> usize {
        (node as usize % self.rows_per_shard) * self.dim
    }

    /// Shard `sid` as the placed buffer a top-k query is charged for.
    #[inline]
    pub(crate) fn shard(&self, sid: usize) -> &HetVec<f32> {
        &self.shards[sid]
    }

    /// Uncharged raw view of a shard (result extraction and query-vector
    /// resolution only; query kernels must use the charged readers).
    #[inline]
    pub fn shard_raw(&self, sid: usize) -> &[f32] {
        self.shards[sid].raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_hetmem::{DeviceKind, Topology};

    fn emb(nodes: u32, d: usize) -> Embedding {
        let data: Vec<f32> = (0..nodes as usize * d).map(|i| i as f32).collect();
        Embedding::from_row_major(nodes, d, data)
    }

    fn sys() -> MemSystem {
        MemSystem::new(Topology::paper_machine_scaled(1 << 20))
    }

    #[test]
    fn shard_geometry() {
        let s = sys();
        let store =
            ShardedStore::build(&s, &emb(10, 3), 4, Placement::node(0, DeviceKind::Pm)).unwrap();
        assert_eq!(store.num_shards(), 3);
        assert_eq!(store.shard_rows(0), 0..4);
        assert_eq!(store.shard_rows(2), 8..10); // ragged tail
        assert_eq!(store.shard_bytes(0), 4 * 3 * 4);
        assert_eq!(store.shard_bytes(2), 2 * 3 * 4);
        assert_eq!(store.total_bytes(), 10 * 3 * 4);
        assert_eq!(store.shard_of(7), 1);
        assert_eq!(store.row_offset(7), 3 * 3);
        assert!(store.contains(9));
        assert!(!store.contains(10));
    }

    #[test]
    fn oom_when_cold_tier_too_small() {
        let s = MemSystem::new(Topology::new(2, 4, 1 << 12, 1 << 12, 0).unwrap());
        // 16 KiB of embedding into 4 KiB of PM.
        let err = ShardedStore::build(&s, &emb(1024, 4), 256, Placement::node(0, DeviceKind::Pm))
            .unwrap_err();
        assert!(err.is_oom());
    }
}
