//! Dentry cache: memoizes `lookup(dir, name) → ino` during path walks.
//!
//! Lock-striped bounded LRU keyed by `(directory inode, component name)`:
//! entries hash to one of N independently locked shards, so concurrent
//! path walks over different dentries never serialize on one mutex (the
//! same reason Linux moved the dcache to per-bucket locks). The path
//! layer invalidates entries on unlink/rmdir/rename; a stale dcache is
//! itself a classic kernel bug source, so the tests pin the invalidation
//! behaviour.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use sk_ksim::lock::{LockRegistry, TrackedMutex};

use crate::inode::InodeNo;

/// Default shard count; matches the buffer cache's striping.
const DEFAULT_SHARDS: usize = 8;

/// Cache statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DcacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the file system.
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Entries dropped by invalidation.
    pub invalidations: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<(InodeNo, String), InodeNo>,
    lru: Vec<(InodeNo, String)>,
    stats: DcacheStats,
}

/// A bounded, lock-striped dentry cache.
///
/// Shard locks live in the lockdep class `"dcache.shard"`, ranked by
/// shard index: full-table walks ([`Dcache::stats`], [`Dcache::len`],
/// [`Dcache::invalidate_dir`], [`Dcache::clear`]) visit shards in
/// ascending index order, which is the only multi-hold pattern the rank
/// discipline permits. A walk started while the caller already holds a
/// higher-indexed shard lock is flagged by the registry.
pub struct Dcache {
    shards: Vec<TrackedMutex<Inner>>,
    per_shard_cap: usize,
    registry: Arc<LockRegistry>,
}

impl Dcache {
    /// Creates a cache holding at most `capacity` entries, striped over
    /// the default shard count.
    pub fn new(capacity: usize) -> Self {
        Dcache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// Creates a cache with an explicit shard count (1 reproduces the
    /// single-lock global LRU exactly; tests use it for determinism).
    /// Lockdep is disabled on the private registry this creates; use
    /// [`Dcache::with_registry`] to join a shared, enabled graph.
    pub fn with_shards(capacity: usize, nshards: usize) -> Self {
        Dcache::with_registry(capacity, nshards, LockRegistry::new_disabled())
    }

    /// Creates a cache whose shard locks register with `registry`, so a
    /// mounted system can watch VFS and storage locks in one graph.
    pub fn with_registry(capacity: usize, nshards: usize, registry: Arc<LockRegistry>) -> Self {
        let capacity = capacity.max(1);
        let nshards = nshards.clamp(1, capacity);
        Dcache {
            shards: (0..nshards)
                .map(|i| {
                    TrackedMutex::new_ranked(&registry, "dcache.shard", i as u64, Inner::default())
                })
                .collect(),
            per_shard_cap: (capacity / nshards).max(1),
            registry,
        }
    }

    /// The lock registry the shard locks report to.
    pub fn lock_registry(&self) -> &Arc<LockRegistry> {
        &self.registry
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, dir: InodeNo, name: &str) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        dir.hash(&mut h);
        name.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Looks up a cached entry, refreshing its recency.
    pub fn get(&self, dir: InodeNo, name: &str) -> Option<InodeNo> {
        let mut inner = self.shards[self.shard_of(dir, name)].lock();
        let key = (dir, name.to_string());
        if let Some(&ino) = inner.map.get(&key) {
            inner.stats.hits += 1;
            if let Some(pos) = inner.lru.iter().position(|k| *k == key) {
                inner.lru.remove(pos);
            }
            inner.lru.push(key);
            Some(ino)
        } else {
            inner.stats.misses += 1;
            None
        }
    }

    /// Inserts an entry, evicting the shard's least-recent when full.
    pub fn insert(&self, dir: InodeNo, name: &str, ino: InodeNo) {
        let mut inner = self.shards[self.shard_of(dir, name)].lock();
        let key = (dir, name.to_string());
        if inner.map.insert(key.clone(), ino).is_none() {
            inner.lru.push(key);
            if inner.map.len() > self.per_shard_cap {
                let victim = inner.lru.remove(0);
                inner.map.remove(&victim);
                inner.stats.evictions += 1;
            }
        } else if let Some(pos) = inner.lru.iter().position(|k| *k == key) {
            let k = inner.lru.remove(pos);
            inner.lru.push(k);
        }
    }

    /// Drops one entry (on unlink/rmdir/rename of that name).
    pub fn invalidate(&self, dir: InodeNo, name: &str) {
        let mut inner = self.shards[self.shard_of(dir, name)].lock();
        let key = (dir, name.to_string());
        if inner.map.remove(&key).is_some() {
            if let Some(pos) = inner.lru.iter().position(|k| *k == key) {
                inner.lru.remove(pos);
            }
            inner.stats.invalidations += 1;
        }
    }

    /// Drops every entry under directory `dir` (on rmdir of `dir` or a
    /// rename that moves it). Entries of one directory spread across
    /// shards, so every stripe is visited.
    pub fn invalidate_dir(&self, dir: InodeNo) {
        for shard in &self.shards {
            let mut inner = shard.lock();
            let victims: Vec<(InodeNo, String)> = inner
                .map
                .keys()
                .filter(|(d, _)| *d == dir)
                .cloned()
                .collect();
            for key in victims {
                inner.map.remove(&key);
                if let Some(pos) = inner.lru.iter().position(|k| *k == key) {
                    inner.lru.remove(pos);
                }
                inner.stats.invalidations += 1;
            }
        }
    }

    /// Rekeys every entry through `map` (old inode number → new inode
    /// number) after a generation swap: both the directory key and the
    /// target inode are translated, so the warm cache survives the
    /// handoff instead of being cleared cold. Entries either of whose
    /// inodes has no mapping are dropped (counted as invalidations).
    /// Returns how many entries were carried over.
    ///
    /// Rekeyed entries may hash to a different shard, so the transfer is
    /// two-phase: drain every shard (ascending index, the rank-clean
    /// walk), then reinsert with no shard lock held.
    pub fn remap(&self, map: impl Fn(InodeNo) -> Option<InodeNo>) -> u64 {
        let mut drained: Vec<((InodeNo, String), InodeNo)> = Vec::new();
        for shard in &self.shards {
            let mut inner = shard.lock();
            let entries: Vec<_> = inner.map.drain().collect();
            inner.lru.clear();
            drained.extend(entries);
        }
        let mut kept = 0u64;
        let mut dropped = 0u64;
        for ((dir, name), ino) in drained {
            match (map(dir), map(ino)) {
                (Some(ndir), Some(nino)) => {
                    self.insert(ndir, &name, nino);
                    kept += 1;
                }
                _ => dropped += 1,
            }
        }
        if dropped > 0 {
            self.shards[0].lock().stats.invalidations += dropped;
        }
        kept
    }

    /// Drops everything.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut inner = shard.lock();
            let n = inner.map.len() as u64;
            inner.map.clear();
            inner.lru.clear();
            inner.stats.invalidations += n;
        }
    }

    /// Snapshot of the statistics, aggregated over all shards.
    ///
    /// Holds every shard lock at once — acquired in ascending index
    /// order, the one multi-hold order the `"dcache.shard"` rank
    /// discipline allows — so the totals are a consistent cut rather
    /// than a sum of per-shard reads taken at different instants.
    /// Must not be called while the caller holds a shard lock.
    pub fn stats(&self) -> DcacheStats {
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let mut total = DcacheStats::default();
        for g in &guards {
            total.hits += g.stats.hits;
            total.misses += g.stats.misses;
            total.evictions += g.stats.evictions;
            total.invalidations += g.stats.invalidations;
        }
        total
    }

    /// Number of cached entries (consistent snapshot; same ascending
    /// multi-hold walk as [`Dcache::stats`]).
    pub fn len(&self) -> usize {
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        guards.iter().map(|g| g.map.len()).sum()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sk_ksim::lock::Violation;

    #[test]
    fn hit_after_insert() {
        let d = Dcache::new(8);
        assert_eq!(d.get(1, "a"), None);
        d.insert(1, "a", 42);
        assert_eq!(d.get(1, "a"), Some(42));
        let s = d.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn capacity_evicts_least_recent() {
        // One shard: the per-shard LRU is the global LRU.
        let d = Dcache::with_shards(2, 1);
        d.insert(1, "a", 10);
        d.insert(1, "b", 11);
        d.get(1, "a"); // refresh a
        d.insert(1, "c", 12); // evicts b
        assert_eq!(d.get(1, "a"), Some(10));
        assert_eq!(d.get(1, "b"), None);
        assert_eq!(d.get(1, "c"), Some(12));
        assert_eq!(d.stats().evictions, 1);
    }

    #[test]
    fn sharded_capacity_stays_bounded() {
        let d = Dcache::new(16);
        for i in 0..200u64 {
            d.insert(1, &format!("n{i}"), i);
        }
        assert!(d.len() <= 16, "len {} exceeds capacity", d.len());
        assert!(d.stats().evictions >= 184);
    }

    #[test]
    fn shard_count_clamps_to_capacity() {
        assert_eq!(Dcache::new(2).shard_count(), 2);
        assert_eq!(Dcache::with_shards(64, 4).shard_count(), 4);
        assert_eq!(Dcache::with_shards(8, 0).shard_count(), 1);
    }

    #[test]
    fn invalidation_removes_entry() {
        let d = Dcache::new(8);
        d.insert(1, "a", 10);
        d.invalidate(1, "a");
        assert_eq!(d.get(1, "a"), None);
        assert_eq!(d.stats().invalidations, 1);
        // Invalidating a missing entry is a no-op.
        d.invalidate(1, "zzz");
        assert_eq!(d.stats().invalidations, 1);
    }

    #[test]
    fn invalidate_dir_scopes_to_directory() {
        let d = Dcache::new(8);
        d.insert(1, "a", 10);
        d.insert(1, "b", 11);
        d.insert(2, "a", 20);
        d.invalidate_dir(1);
        assert_eq!(d.get(1, "a"), None);
        assert_eq!(d.get(1, "b"), None);
        assert_eq!(d.get(2, "a"), Some(20));
    }

    #[test]
    fn same_name_in_different_dirs_distinct() {
        let d = Dcache::new(8);
        d.insert(1, "x", 100);
        d.insert(2, "x", 200);
        assert_eq!(d.get(1, "x"), Some(100));
        assert_eq!(d.get(2, "x"), Some(200));
    }

    #[test]
    fn reinsert_updates_value() {
        let d = Dcache::new(8);
        d.insert(1, "a", 10);
        d.insert(1, "a", 99);
        assert_eq!(d.get(1, "a"), Some(99));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn remap_rekeys_entries_and_drops_unmapped() {
        let d = Dcache::new(16);
        d.insert(1, "a", 10);
        d.insert(1, "b", 11);
        d.insert(2, "c", 20);
        let kept = d.remap(|ino| match ino {
            1 => Some(100),
            10 => Some(110),
            11 => Some(111),
            _ => None, // dir 2 and ino 20 did not survive the swap
        });
        assert_eq!(kept, 2);
        assert_eq!(d.get(100, "a"), Some(110));
        assert_eq!(d.get(100, "b"), Some(111));
        assert_eq!(d.get(1, "a"), None, "old-generation key must be gone");
        assert_eq!(d.get(2, "c"), None, "unmapped entry must be dropped");
    }

    #[test]
    fn remap_is_lockdep_clean() {
        let d = Dcache::with_registry(64, 4, LockRegistry::new());
        for i in 0..32u64 {
            d.insert(i % 3, &format!("n{i}"), i + 100);
        }
        d.remap(|ino| Some(ino + 1000));
        assert!(
            d.lock_registry().violations().is_empty(),
            "remap must be ordering-clean: {:?}",
            d.lock_registry().violations()
        );
    }

    #[test]
    fn clear_empties() {
        let d = Dcache::new(8);
        d.insert(1, "a", 10);
        d.clear();
        assert!(d.is_empty());
    }

    #[test]
    fn full_table_walks_are_lockdep_clean() {
        // Regression for the shard-sweep ordering fix: stats(), len(),
        // invalidate_dir() and clear() multi-hold or sweep the shard
        // locks in ascending index order. Reverting to an unordered
        // (or descending) walk trips the same-class rank check.
        let d = Dcache::with_registry(64, 4, LockRegistry::new());
        for i in 0..32u64 {
            d.insert(i % 3, &format!("n{i}"), i);
        }
        let _ = d.stats();
        let _ = d.len();
        d.invalidate_dir(1);
        d.clear();
        assert!(
            d.lock_registry().violations().is_empty(),
            "table walks must be ordering-clean: {:?}",
            d.lock_registry().violations()
        );
    }

    #[test]
    fn detector_flags_out_of_order_shard_walk() {
        // The bug class the walks above are fixed against: holding a
        // high-indexed shard while taking a lower one.
        let d = Dcache::with_registry(64, 4, LockRegistry::new());
        {
            let _hi = d.shards[2].lock();
            let _lo = d.shards[0].lock();
        }
        assert!(
            d.lock_registry().violations().iter().any(|v| matches!(
                v,
                Violation::SameClassNesting {
                    class: "dcache.shard"
                }
            )),
            "reversed shard walk must be flagged: {:?}",
            d.lock_registry().violations()
        );
    }

    #[test]
    fn default_constructor_registry_is_disabled() {
        // Bench paths construct via new()/with_shards(); their private
        // registry must not spend graph time or collect reports.
        let d = Dcache::new(8);
        assert!(!d.lock_registry().is_enabled());
        {
            let _hi = d.shards[1].lock();
            let _lo = d.shards[0].lock();
        }
        assert!(d.lock_registry().violations().is_empty());
    }

    #[test]
    fn concurrent_walks_hit_distinct_shards() {
        use std::sync::Arc;
        // Every shard can hold the whole 1,600-entry working set, so no
        // entry is evicted between a thread's insert and its get; with a
        // smaller cache a descheduled thread could lose its entry to the
        // other threads' inserts, which is LRU working, not a striping
        // bug (eviction is covered by `capacity_evicts_least_recent` and
        // `sharded_capacity_stays_bounded`).
        let d = Arc::new(Dcache::new(DEFAULT_SHARDS * 1600));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let name = format!("t{t}-n{i}");
                    d.insert(t, &name, i);
                    assert_eq!(d.get(t, &name), Some(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = d.stats();
        assert_eq!(s.evictions, 0);
        assert_eq!(s.hits, 1600);
        assert_eq!(d.len(), 1600);
        assert!(
            d.shards.iter().all(|sh| !sh.lock().map.is_empty()),
            "entries stripe over every shard"
        );
    }
}
