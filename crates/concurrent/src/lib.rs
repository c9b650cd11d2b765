//! Concurrent cache prototypes for the throughput/scalability evaluation
//! (Fig. 8; the paper's Cachelib experiment).
//!
//! The paper's argument: LRU-family algorithms serialize on a lock because
//! every *hit* mutates the queue, while S3-FIFO's hit path is a single
//! atomic counter bump, so FIFO queues scale with cores. This crate builds
//! both sides:
//!
//! - [`s3fifo::ConcurrentS3Fifo`] — lock-free small/main FIFO rings
//!   ([`cache_ds::MpmcRing`]), sharded hash index, atomic two-bit counters,
//!   sharded fingerprint ghost;
//! - [`lru::MutexLru`] — strict LRU: every hit takes the global list lock;
//! - [`harness`] — the seeded multi-threaded torture harness;
//! - [`oplog`] — a logged variant of the torture harness whose timed
//!   histories feed `cache-check`'s linearizability-lite checker.
//!
//! The throughput of the two sides is measured by the perf ledger
//! (`benchmark/`, workload `lib-mt-zipf`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use s3fifo::ShardStatsSnapshot;

pub mod harness;
mod incbuf;
pub mod lru;
pub mod oplog;
pub mod s3fifo;

use bytes::Bytes;

/// Result of a quiescent full-table audit ([`ConcurrentCache::audit_quiescent`]).
///
/// All fields describe *violations*, so the all-zero default is a clean
/// report. Audits are only meaningful when no other thread is mutating the
/// cache (after joining workers); the torture harness runs one per cache
/// at the end of every run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Entries found resident during the walk (informational).
    pub resident: usize,
    /// Index entries that eviction can no longer reach or account for (no
    /// queue handle, or a handle in the wrong queue), and queue handles
    /// with no index entry.
    pub stale_handles: usize,
    /// Keys that are simultaneously live in the cache and present in a
    /// ghost table. The ghost holds fingerprints, not keys, so a live key
    /// whose fingerprint matches a ghosted one counts here too.
    pub live_ghosted: usize,
    /// Duplicate residency: the same key reachable through two distinct
    /// live storage locations.
    pub duplicates: usize,
}

impl AuditReport {
    /// True when the total violation count (stale handles + duplicates +
    /// live∩ghost keys) is within `slack`. Strict designs pass with
    /// `slack = 0`; callers that audit the lock-free
    /// [`s3fifo::ConcurrentS3Fifo`] after racing threads budget a few per
    /// thread instead, so that a legal artifact such as a fingerprint shared
    /// by a live and a ghosted key does not fail them.
    pub fn is_clean(&self, slack: usize) -> bool {
        self.stale_handles + self.duplicates + self.live_ghosted <= slack
    }

    /// Total violation count.
    pub fn violations(&self) -> usize {
        self.stale_handles + self.duplicates + self.live_ghosted
    }
}

/// A thread-safe fixed-capacity cache keyed by `u64`, storing cheaply
/// cloneable byte payloads.
pub trait ConcurrentCache: Send + Sync {
    /// Algorithm name for reporting.
    fn name(&self) -> String;
    /// Looks up `key`, returning the payload on a hit.
    fn get(&self, key: u64) -> Option<Bytes>;
    /// Inserts `key → value`, evicting as needed.
    fn insert(&self, key: u64, value: Bytes);
    /// Deletes `key`, returning true when it was cached. §4.2 notes that in
    /// a ring-buffer implementation a deleted object's queue slot is only
    /// reclaimed when eviction reaches it — and that S3-FIFO's small queue
    /// recycles such slots sooner than a single large queue. That is the
    /// slot's *storage*; in [`s3fifo::ConcurrentS3Fifo`] the object's
    /// logical space (its share of `capacity`, and its value) is given
    /// back by this call.
    fn remove(&self, key: u64) -> bool;
    /// Approximate number of cached entries.
    fn len(&self) -> usize;
    /// True when no entries are cached (approximate, like `len`).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Maximum number of entries.
    fn capacity(&self) -> usize;
    /// Full-table consistency audit. Only meaningful at quiescence (no
    /// concurrent mutators). The default reports everything clean;
    /// implementations override it with a real walk of their storage.
    fn audit_quiescent(&self) -> AuditReport {
        AuditReport::default()
    }
}

/// Number of hash-index shards used by the scalable implementations.
pub const SHARDS: usize = 64;

#[inline]
pub(crate) fn shard_of(key: u64) -> usize {
    (cache_ds::rng::mix64(key) as usize) & (SHARDS - 1)
}

/// Every concurrent implementation at `capacity`, for cross-cutting tests
/// (the remove suite, the torture harness).
#[cfg(test)]
pub(crate) fn test_caches(capacity: usize) -> Vec<std::sync::Arc<dyn ConcurrentCache>> {
    use std::sync::Arc;
    vec![
        Arc::new(crate::s3fifo::ConcurrentS3Fifo::new(capacity)),
        Arc::new(crate::lru::MutexLru::strict(capacity)),
    ]
}

#[cfg(test)]
mod remove_tests {
    use super::*;

    fn all_caches(capacity: usize) -> Vec<std::sync::Arc<dyn ConcurrentCache>> {
        test_caches(capacity)
    }

    #[test]
    fn remove_makes_key_invisible_everywhere() {
        for c in all_caches(100) {
            c.insert(1, Bytes::from_static(b"v"));
            assert!(c.get(1).is_some(), "{}: insert failed", c.name());
            assert!(c.remove(1), "{}: remove returned false", c.name());
            assert!(c.get(1).is_none(), "{}: key visible after remove", c.name());
            assert!(!c.remove(1), "{}: double remove returned true", c.name());
        }
    }

    #[test]
    fn remove_then_reinsert_works() {
        for c in all_caches(100) {
            c.insert(2, Bytes::from_static(b"a"));
            c.remove(2);
            c.insert(2, Bytes::from_static(b"b"));
            assert_eq!(
                c.get(2),
                Some(Bytes::from_static(b"b")),
                "{}: reinsert after remove failed",
                c.name()
            );
        }
    }

    #[test]
    fn delete_heavy_churn_stays_bounded() {
        // §4.2's deletion discussion: heavy delete traffic must not corrupt
        // accounting or leak space.
        for c in all_caches(64) {
            let mut state = 7u64;
            for i in 0..30_000u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let key = (state >> 33) % 500;
                match i % 3 {
                    0 => c.insert(key, Bytes::from_static(b"v")),
                    1 => {
                        c.get(key);
                    }
                    _ => {
                        c.remove(key);
                    }
                }
            }
            assert!(
                c.len() <= 64 + 8,
                "{}: len {} after delete churn",
                c.name(),
                c.len()
            );
        }
    }
}
