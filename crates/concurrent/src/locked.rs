//! A global-mutex adapter turning any single-threaded [`Policy`] into a
//! [`ConcurrentCache`].
//!
//! This is how Fig. 8's "advanced algorithm" lines are produced: TinyLFU and
//! 2Q "require locking on both cache hits and cache misses" (§5.3) — wrap
//! the single-threaded implementation behind one mutex and the scalability
//! ceiling follows.

use crate::{AuditReport, ConcurrentCache};
use bytes::Bytes;
use cache_types::{Eviction, Policy, Request};
use parking_lot::Mutex;
use cache_ds::IdMap;
use std::sync::atomic::{AtomicU64, Ordering};

struct Core<P: Policy> {
    policy: P,
    store: IdMap<Bytes>,
    scratch: Vec<Eviction>,
}

/// `Mutex<policy + value store>` — every operation takes the global lock.
pub struct GlobalLock<P: Policy> {
    core: Mutex<Core<P>>,
    name: String,
    clock: AtomicU64,
    capacity: usize,
}

impl<P: Policy> GlobalLock<P> {
    /// Wraps `policy` (whose capacity should be `capacity` entries with
    /// unit sizes) under a global mutex.
    pub fn new(policy: P, capacity: usize) -> Self {
        let name = policy.name();
        GlobalLock {
            core: Mutex::new(Core {
                policy,
                store: IdMap::with_capacity_and_hasher(capacity + 1, Default::default()),
                scratch: Vec::new(),
            }),
            name: format!("{name}-locked"),
            clock: AtomicU64::new(0),
            capacity,
        }
    }
}

impl<P: Policy + Send> ConcurrentCache for GlobalLock<P> {
    fn name(&self) -> String {
        self.name.clone()
    }

    // ORDERING: Relaxed logical-clock tick — the policy only needs a
    // unique monotonic-ish timestamp; real ordering comes from the lock.
    fn get(&self, key: u64) -> Option<Bytes> {
        let t = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut core = self.core.lock();
        if let Some(v) = core.store.get(&key).cloned() {
            // Drive the policy's hit path (metadata update under the lock).
            let mut evs = std::mem::take(&mut core.scratch);
            evs.clear();
            core.policy.request(&Request::get(key, t), &mut evs);
            core.scratch = evs;
            Some(v)
        } else {
            None
        }
    }

    // ORDERING: Relaxed clock tick, as in `get` — the global lock below
    // serializes all policy and store mutation.
    fn insert(&self, key: u64, value: Bytes) {
        let t = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut core = self.core.lock();
        let mut evs = std::mem::take(&mut core.scratch);
        evs.clear();
        core.policy.request(&Request::get(key, t), &mut evs);
        core.store.insert(key, value);
        for e in &evs {
            core.store.remove(&e.id);
        }
        core.scratch = evs;
    }

    // ORDERING: Relaxed clock tick, as in `get`.
    fn remove(&self, key: u64) -> bool {
        let t = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut core = self.core.lock();
        let existed = core.store.remove(&key).is_some();
        if existed {
            let mut evs = std::mem::take(&mut core.scratch);
            evs.clear();
            core.policy.request(&Request::delete(key, t), &mut evs);
            core.scratch = evs;
        }
        existed
    }

    fn len(&self) -> usize {
        self.core.lock().store.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    // The policy's own `validate()` is the deep structural check here; on
    // top of it the audit asserts the value store respects capacity
    // (every policy eviction was applied to the store).
    fn audit_quiescent(&self) -> AuditReport {
        let core = self.core.lock();
        let mut report = AuditReport {
            resident: core.store.len(),
            ..AuditReport::default()
        };
        if core.policy.validate().is_err() {
            report.stale_handles += 1;
        }
        if core.store.len() > self.capacity {
            // Missed evictions leave the store larger than the policy's
            // universe — count the excess as stale handles.
            report.stale_handles += core.store.len() - self.capacity;
        }
        report
    }
}

/// Builds the locked TinyLFU used in Fig. 8.
pub fn locked_tinylfu(capacity: usize) -> GlobalLock<cache_policies::TinyLfu> {
    GlobalLock::new(
        cache_policies::TinyLfu::with_window(capacity as u64, 0.1).expect("capacity > 0"),
        capacity,
    )
}

/// Builds the locked 2Q used in Fig. 8.
pub fn locked_twoq(capacity: usize) -> GlobalLock<cache_policies::TwoQ> {
    GlobalLock::new(
        cache_policies::TwoQ::new(capacity as u64).expect("capacity > 0"),
        capacity,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn behaves_like_a_cache() {
        let c = locked_tinylfu(100);
        assert_eq!(c.get(1), None);
        c.insert(1, Bytes::from_static(b"v"));
        assert_eq!(c.get(1), Some(Bytes::from_static(b"v")));
        assert!(c.name().contains("TinyLFU"));
    }

    #[test]
    fn store_tracks_policy_evictions() {
        let c = locked_twoq(32);
        for k in 0..1000u64 {
            c.insert(k, Bytes::from_static(b"v"));
        }
        assert!(c.len() <= 32, "store leaked: {}", c.len());
    }

    #[test]
    fn concurrent_use_is_safe() {
        let c = Arc::new(locked_tinylfu(200));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut state = t + 7;
                for _ in 0..10_000 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (state >> 33) % 500;
                    if c.get(key).is_none() {
                        c.insert(key, Bytes::from_static(b"v"));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 200);
    }
}
