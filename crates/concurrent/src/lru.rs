//! Strict and "optimized" concurrent LRU.
//!
//! §5.3's comparison points:
//!
//! - **Strict LRU** takes a global lock on *every* operation — hits promote
//!   under the lock, so throughput flattens immediately with threads.
//! - **Optimized LRU** reproduces Cachelib's tricks: the value lookup uses a
//!   sharded read-mostly index, and promotion is (a) rate-limited — an entry
//!   is only promoted again after `promote_every` further hits — and (b)
//!   performed under `try_lock`, skipping the promotion entirely when the
//!   list lock is busy. §5.3: optimized LRU "has both higher throughput and
//!   better scalability [than strict LRU]. However, it cannot scale beyond
//!   two cores."

use crate::{shard_of, AuditReport, ConcurrentCache, SHARDS};
use bytes::Bytes;
use cache_ds::{DList, Handle, IdMap, ShardLocks};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

struct Entry {
    key: u64,
    value: Bytes,
    /// Hits since the last promotion (for rate limiting).
    since_promotion: AtomicU32,
}

/// The LRU list and handle map, guarded by one mutex.
struct ListCore {
    list: DList<u64>,
    handles: IdMap<Handle>,
}

/// A concurrent LRU cache, strict or Cachelib-style optimized.
pub struct MutexLru {
    shards: ShardLocks<IdMap<Arc<Entry>>>,
    core: Mutex<ListCore>,
    capacity: usize,
    strict: bool,
    promote_every: u32,
}

impl MutexLru {
    /// Strict LRU: promotion on every hit, blocking lock.
    pub fn strict(capacity: usize) -> Self {
        Self::build(capacity, true, 1)
    }

    /// Optimized LRU: try-lock promotion, at most one promotion per
    /// `promote_every` hits per object (Cachelib uses a time window; a hit
    /// count is equivalent under closed-loop replay).
    pub fn optimized(capacity: usize) -> Self {
        Self::build(capacity, false, 8)
    }

    fn build(capacity: usize, strict: bool, promote_every: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        MutexLru {
            shards: (0..SHARDS).map(|_| IdMap::default()).collect(),
            core: Mutex::new(ListCore {
                list: DList::with_capacity(capacity + 1),
                handles: IdMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            }),
            capacity,
            strict,
            promote_every,
        }
    }

    fn promote(core: &mut ListCore, key: u64) {
        if let Some(&h) = core.handles.get(&key) {
            core.list.move_to_front(h);
        }
    }

    fn evict_one(&self, core: &mut ListCore) {
        if let Some(victim) = core.list.pop_back() {
            core.handles.remove(&victim);
            self.shards[shard_of(victim)].write().remove(&victim);
        }
    }
}

impl ConcurrentCache for MutexLru {
    fn name(&self) -> String {
        if self.strict {
            "LRU-strict".into()
        } else {
            "LRU-optimized".into()
        }
    }

    // ORDERING: Relaxed promotion counter — a pure rate-limit heuristic;
    // losing or double-counting a tick only shifts when promotion happens.
    // Locks nest core -> shards only: the standalone shard read guards are
    // block-scoped and dropped before core is taken, and the only nesting
    // is the try-lock'd core held across a shard read.
    fn get(&self, key: u64) -> Option<Bytes> {
        let value = {
            let guard = self.shards[shard_of(key)].read();
            let entry = guard.get(&key)?;
            entry.since_promotion.fetch_add(1, Ordering::Relaxed);
            entry.value.clone()
        };
        if self.strict {
            // Every hit promotes, under a blocking lock — *the* global
            // section the paper blames for LRU's flat scaling curve.
            let mut core = self.core.lock();
            Self::promote(&mut core, key);
        } else {
            // Rate-limited, try-lock promotion.
            let due = {
                let guard = self.shards[shard_of(key)].read();
                match guard.get(&key) {
                    Some(e) => e.since_promotion.load(Ordering::Relaxed) >= self.promote_every,
                    None => false,
                }
            };
            if due {
                if let Some(mut core) = self.core.try_lock() {
                    Self::promote(&mut core, key);
                    let guard = self.shards[shard_of(key)].read();
                    if let Some(e) = guard.get(&key) {
                        e.since_promotion.store(0, Ordering::Relaxed);
                    }
                }
            }
        }
        Some(value)
    }

    // Membership changes (insert/remove/evict) all happen inside the core
    // section so the sharded value store and the LRU list can never
    // disagree at quiescence; `audit_quiescent` asserts exactly that.
    fn insert(&self, key: u64, value: Bytes) {
        let entry = Arc::new(Entry {
            key,
            value,
            since_promotion: AtomicU32::new(0),
        });
        let _ = entry.key;
        let mut core = self.core.lock();
        let replaced = {
            let mut guard = self.shards[shard_of(key)].write();
            guard.insert(key, entry).is_some()
        };
        if replaced {
            Self::promote(&mut core, key);
            return;
        }
        while core.handles.len() >= self.capacity {
            self.evict_one(&mut core);
        }
        let h = core.list.push_front(key);
        core.handles.insert(key, h);
    }

    // Membership changes stay in the core section, as in `insert`.
    fn remove(&self, key: u64) -> bool {
        let mut core = self.core.lock();
        let existed = self.shards[shard_of(key)].write().remove(&key).is_some();
        if existed {
            if let Some(h) = core.handles.remove(&key) {
                core.list.remove(h);
            }
        }
        existed
    }

    fn len(&self) -> usize {
        self.core.lock().handles.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn audit_quiescent(&self) -> AuditReport {
        let mut report = AuditReport::default();
        let core = self.core.lock();
        // The LRU list and the handle map must agree exactly.
        if core.list.len() != core.handles.len() {
            report.stale_handles += core.list.len().abs_diff(core.handles.len());
        }
        let mut seen: IdMap<usize> = IdMap::default();
        for &key in core.list.iter() {
            *seen.entry(key).or_insert(0) += 1;
        }
        report.duplicates = seen.values().filter(|&&n| n > 1).count();
        // Every listed key must have a value in the sharded store, and
        // every stored value must be listed (else it can never be evicted).
        for key in core.handles.keys() {
            if !self.shards[shard_of(*key)].read().contains_key(key) {
                report.stale_handles += 1;
            }
        }
        for shard in self.shards.iter() {
            let guard = shard.read();
            report.resident += guard.len();
            for key in guard.keys() {
                if !core.handles.contains_key(key) {
                    report.stale_handles += 1;
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v() -> Bytes {
        Bytes::from_static(b"x")
    }

    #[test]
    fn strict_lru_order() {
        let c = MutexLru::strict(2);
        c.insert(1, v());
        c.insert(2, v());
        c.get(1); // promote
        c.insert(3, v()); // evicts 2
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_none());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn optimized_capacity_bounded() {
        let c = MutexLru::optimized(64);
        for k in 0..10_000u64 {
            c.insert(k, v());
        }
        assert!(c.len() <= 64);
    }

    #[test]
    fn optimized_still_roughly_lru() {
        let c = MutexLru::optimized(100);
        for k in 0..100u64 {
            c.insert(k, v());
        }
        // Hammer a hot key so its promotion becomes due and fires.
        for _ in 0..100 {
            c.get(0);
        }
        for k in 1000..1099u64 {
            c.insert(k, v());
        }
        assert!(c.get(0).is_some(), "hot key evicted despite promotions");
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = Arc::new(MutexLru::optimized(500));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut state = t + 1;
                for _ in 0..20_000 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (state >> 33) % 2000;
                    if c.get(key).is_none() {
                        c.insert(key, Bytes::from_static(b"v"));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 500);
        let audit = c.audit_quiescent();
        assert!(audit.is_clean(0), "audit failed: {audit:?}");
        assert_eq!(audit.resident, c.len());
    }

    #[test]
    fn audit_catches_nothing_on_remove_churn() {
        // Membership changes are serialized by the core mutex, so even a
        // remove-heavy interleaving must leave the list and the sharded
        // store in exact agreement at quiescence.
        let c = Arc::new(MutexLru::strict(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut state = t + 9;
                for i in 0..20_000u64 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (state >> 33) % 300;
                    match i % 3 {
                        0 => c.insert(key, v()),
                        1 => {
                            c.get(key);
                        }
                        _ => {
                            c.remove(key);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let audit = c.audit_quiescent();
        assert!(audit.is_clean(0), "audit failed: {audit:?}");
    }

    #[test]
    fn names() {
        assert_eq!(MutexLru::strict(10).name(), "LRU-strict");
        assert_eq!(MutexLru::optimized(10).name(), "LRU-optimized");
    }
}
