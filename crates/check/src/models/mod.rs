//! loom-lite models of the workspace's lock-free core.
//!
//! Each model is a faithful, down-scaled transcription of a real concurrent
//! structure — same protocol, same per-operation memory orderings — closed
//! over a small bounded workload so the [`crate::loomlite`] explorer can
//! enumerate every bounded-preemption interleaving:
//!
//! - [`ring`]: the Vyukov MPMC ring behind both S3-FIFO queues
//!   (`crates/ds/src/ring.rs`);
//! - [`shard`]: the concurrent S3-FIFO shard insert/evict/remove path
//!   (`crates/concurrent/src/s3fifo.rs`);
//! - [`shardlock`]: the lane/flag/gate reader-writer lock every concurrent
//!   cache's index sits behind (`crates/ds/src/shardlock.rs`);
//! - [`lru`]: the order in which `MutexLru` takes its core lock and its
//!   shard locks (`crates/concurrent/src/lru.rs`);
//! - [`drain`]: the server's shutdown/drain handshake
//!   (`crates/server/src/drain.rs`);
//! - [`incbuf`]: the batched frequency-increment buffer's slot
//!   claim/release handoff (`crates/concurrent/src/incbuf.rs`).
//!
//! Each model also ships *mutants* — deliberately weakened orderings or
//! reordered steps mirroring plausible refactor mistakes — with tests
//! asserting the explorer catches them. A model checker that has never
//! caught a planted bug proves nothing.

use crate::loomlite::sync::{MAtomic, Ord};
use crate::loomlite;

pub mod drain;
pub mod incbuf;
pub mod lru;
pub mod ring;
pub mod shard;
pub mod shardlock;

/// Takes a model spin lock (0 free, 1 held). A waiter parks in
/// [`loomlite::spin_wait`], so a lock nobody will release is reported as a
/// deadlock rather than looped on.
// ORDERING: Acquire CAS, Relaxed on failure — a mutex's acquire edge, which
// is all a real `Mutex` contributes.
pub(crate) fn spin_lock(lock: &MAtomic) {
    while lock
        .compare_exchange(0, 1, Ord::Acquire, Ord::Relaxed)
        .is_err()
    {
        if !loomlite::spin_wait() {
            return;
        }
    }
}

/// Releases a lock taken with [`spin_lock`].
// ORDERING: Release — the mutex's release edge.
pub(crate) fn spin_unlock(lock: &MAtomic) {
    lock.store(0, Ord::Release);
}
