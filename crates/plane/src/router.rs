//! Consistent-hash routing over the replica tier.
//!
//! Requests route by their node's *shard* (the fetch/cache granule), so
//! all traffic for one shard lands on the same replica and its hot cache
//! sees the full reuse — the same locality argument the sharded store
//! makes, lifted one level up. The ring is the classic
//! points-on-a-circle construction with virtual nodes: adding or removing
//! a replica moves only the arcs adjacent to its points.
//!
//! Hashes are SplitMix64 of `(replica, vnode)` and of the shard key —
//! pure functions of identity, never of scheduling, so routing is
//! byte-identical on any machine.

use crate::arrivals::splitmix64;

/// Domain-separation salts: ring points and routed keys must hash from
/// disjoint families, or a small key (shard ids start at 0) can collide
/// exactly with a small-vnode point and pin every shard to one replica.
const POINT_SALT: u64 = 0x9ae1_6a3b_2f90_404f;
const KEY_SALT: u64 = 0xe703_7ed1_a0b4_28db;

#[inline]
fn point_hash(seed: u64, replica: u32, vnode: u32) -> u64 {
    splitmix64(splitmix64(seed ^ POINT_SALT) ^ ((replica as u64) << 32 | vnode as u64))
}

#[inline]
fn key_hash(key: u64) -> u64 {
    splitmix64(key ^ KEY_SALT)
}

/// A consistent-hash ring of `replicas` replicas with `vnodes` virtual
/// points each.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, replica)` sorted by point.
    points: Vec<(u64, u32)>,
    replicas: u32,
}

impl Ring {
    pub fn new(replicas: u32, vnodes: u32, seed: u64) -> Ring {
        assert!(replicas > 0, "ring needs at least one replica");
        assert!(vnodes > 0, "ring needs at least one virtual node");
        let mut points: Vec<(u64, u32)> = (0..replicas)
            .flat_map(|r| (0..vnodes).map(move |v| (point_hash(seed, r, v), r)))
            .collect();
        points.sort_unstable();
        Ring { points, replicas }
    }

    fn successor_index(&self, hash: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < hash);
        if i == self.points.len() {
            0
        } else {
            i
        }
    }

    /// The replica owning `key` (its hash's successor on the ring).
    pub fn primary(&self, key: u64) -> u32 {
        self.points[self.successor_index(key_hash(key))].1
    }

    /// The key's replica preference order: every distinct replica in ring
    /// order starting from the key's arc. `preference(key)[0]` is the
    /// primary; failure steering takes the first live entry and a hedge
    /// the first live entry other than the chosen replica, so routing is
    /// a pure function of the ring and the set of live replicas — not of
    /// when an outage was noticed.
    pub(crate) fn preference(&self, key: u64) -> Vec<u32> {
        let start = self.successor_index(key_hash(key));
        let mut order = Vec::with_capacity(self.replicas as usize);
        for step in 0..self.points.len() {
            let (_, r) = self.points[(start + step) % self.points.len()];
            if !order.contains(&r) {
                order.push(r);
                if order.len() == self.replicas as usize {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The next *distinct* replica after the key's owner, walking the ring
    /// points directly: the reference the preference order's second entry
    /// (the hedge target when every replica is live) must agree with.
    fn ring_successor(ring: &Ring, key: u64) -> u32 {
        let start = ring.successor_index(key_hash(key));
        let owner = ring.points[start].1;
        (1..ring.points.len())
            .map(|step| ring.points[(start + step) % ring.points.len()].1)
            .find(|&r| r != owner)
            .unwrap_or(owner)
    }

    #[test]
    fn routes_are_stable_and_in_range() {
        let ring = Ring::new(4, 16, 42);
        for key in 0..1000u64 {
            let p = ring.primary(key);
            assert!(p < 4);
            assert_eq!(p, ring.primary(key), "routing must be a pure function");
        }
    }

    #[test]
    fn successor_is_distinct_with_multiple_replicas() {
        let ring = Ring::new(4, 16, 7);
        for key in 0..1000u64 {
            let pref = ring.preference(key);
            assert_ne!(pref[0], pref[1], "key {key}");
            assert_ne!(ring.primary(key), ring_successor(&ring, key), "key {key}");
        }
        let single = Ring::new(1, 16, 7);
        assert_eq!(single.preference(5), vec![single.primary(5)]);
        assert_eq!(single.primary(5), ring_successor(&single, 5));
    }

    #[test]
    fn load_spreads_across_replicas() {
        let ring = Ring::new(4, 64, 3);
        let mut counts = [0u32; 4];
        for key in 0..10_000u64 {
            counts[ring.primary(key) as usize] += 1;
        }
        for (r, &c) in counts.iter().enumerate() {
            assert!(
                (1_000..5_000).contains(&c),
                "replica {r} owns {c}/10000 keys"
            );
        }
    }

    #[test]
    fn small_keys_spread_across_replicas() {
        // Regression: shard ids are small consecutive integers; without
        // domain separation they collide with small-vnode points and all
        // route to one replica.
        for seed in [3, 7, 42] {
            let ring = Ring::new(4, 32, seed);
            let mut owners = [false; 4];
            for key in 0..16u64 {
                owners[ring.primary(key) as usize] = true;
            }
            let distinct = owners.iter().filter(|&&o| o).count();
            assert!(
                distinct >= 3,
                "seed {seed}: 16 shards on {distinct} replicas"
            );
        }
    }

    #[test]
    fn preference_lists_every_replica_and_agrees_with_primary_successor() {
        let ring = Ring::new(4, 16, 11);
        for key in 0..1000u64 {
            let pref = ring.preference(key);
            assert_eq!(pref.len(), 4);
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "preference must be a permutation");
            assert_eq!(pref[0], ring.primary(key));
            assert_eq!(pref[1], ring_successor(&ring, key));
        }
        let single = Ring::new(1, 16, 11);
        assert_eq!(single.preference(9), vec![0]);
    }

    #[test]
    fn preference_is_a_permutation_led_by_the_primary() {
        for replicas in 1..=8u32 {
            let ring = Ring::new(replicas, 16, 5);
            let all: Vec<u32> = (0..replicas).collect();
            for key in 0..500u64 {
                let pref = ring.preference(key);
                assert_eq!(pref[0], ring.primary(key), "{replicas} replicas, key {key}");
                let mut sorted = pref.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, all, "{replicas} replicas, key {key}");
            }
        }
    }

    #[test]
    fn removing_a_replica_moves_only_its_keys() {
        // Consistency: keys owned by a surviving replica in the 4-ring
        // keep their owner in the 3-ring built from the same seed.
        let four = Ring::new(4, 64, 9);
        let three = Ring::new(3, 64, 9);
        let mut moved = 0u32;
        let mut kept = 0u32;
        for key in 0..10_000u64 {
            let owner = four.primary(key);
            if owner < 3 {
                if three.primary(key) == owner {
                    kept += 1;
                } else {
                    moved += 1;
                }
            }
        }
        assert!(
            kept > moved * 10,
            "consistent hashing must keep surviving arcs ({kept} kept, {moved} moved)"
        );
    }
}
