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
//! - [`drain`]: the server's shutdown/drain handshake
//!   (`crates/server/src/drain.rs`);
//! - [`incbuf`]: the batched frequency-increment buffer's slot
//!   claim/release handoff (`crates/concurrent/src/incbuf.rs`).
//!
//! Each model also ships *mutants* — deliberately weakened orderings or
//! reordered steps mirroring plausible refactor mistakes — with tests
//! asserting the explorer catches them. A model checker that has never
//! caught a planted bug proves nothing.

pub mod drain;
pub mod incbuf;
pub mod ring;
pub mod shard;
pub mod shardlock;
