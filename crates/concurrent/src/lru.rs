//! Strict concurrent LRU, §5.3's comparison point: every operation takes
//! the global list lock, and every *hit* promotes under it, so throughput
//! flattens as soon as a second thread arrives. The values live in a
//! sharded map, so only the list splice is serialized.

use crate::{shard_of, AuditReport, ConcurrentCache, SHARDS};
use bytes::Bytes;
use cache_ds::{DList, Handle, IdMap, ShardLocks};
use parking_lot::Mutex;

/// The LRU list and handle map, guarded by one mutex.
struct ListCore {
    list: DList<u64>,
    handles: IdMap<Handle>,
}

/// A strict concurrent LRU cache.
pub struct MutexLru {
    shards: ShardLocks<IdMap<Bytes>>,
    core: Mutex<ListCore>,
    capacity: usize,
}

impl MutexLru {
    /// Strict LRU: promotion on every hit, under a blocking lock.
    pub fn strict(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        MutexLru {
            shards: (0..SHARDS).map(|_| IdMap::default()).collect(),
            core: Mutex::new(ListCore {
                list: DList::with_capacity(capacity + 1),
                handles: IdMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            }),
            capacity,
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
        "LRU-strict".into()
    }

    // Locks nest core -> shards only: the shard read guard is a statement
    // temporary, dropped before core is taken. The loom-lite model
    // (crates/check/src/models/lru.rs) deadlocks if it is kept.
    fn get(&self, key: u64) -> Option<Bytes> {
        let value = self.shards[shard_of(key)].read().get(&key)?.clone();
        // Every hit promotes, under a blocking lock — *the* global section
        // the paper blames for LRU's flat scaling curve.
        let mut core = self.core.lock();
        Self::promote(&mut core, key);
        Some(value)
    }

    // Membership changes (insert/remove/evict) all happen inside the core
    // section so the sharded value store and the LRU list can never
    // disagree at quiescence; `audit_quiescent` asserts exactly that.
    fn insert(&self, key: u64, value: Bytes) {
        let mut core = self.core.lock();
        let replaced = self.shards[shard_of(key)]
            .write()
            .insert(key, value)
            .is_some();
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
    use std::sync::Arc;

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
    fn capacity_bounded() {
        let c = MutexLru::strict(64);
        for k in 0..10_000u64 {
            c.insert(k, v());
        }
        assert!(c.len() <= 64);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = Arc::new(MutexLru::strict(500));
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
    fn name() {
        assert_eq!(MutexLru::strict(10).name(), "LRU-strict");
    }
}
