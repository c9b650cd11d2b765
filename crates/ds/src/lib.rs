//! Core data structures for the S3-FIFO reproduction.
//!
//! This crate provides the building blocks shared by the eviction policies,
//! the simulator, and the concurrent cache prototype:
//!
//! - [`dlist::DList`] — a slab-backed doubly-linked list with generation-
//!   checked handles, used by LIRS's `Q` and the strict concurrent LRU.
//! - [`sketch::CountMinSketch`] and [`sketch::Doorkeeper`] — the frequency
//!   estimator TinyLFU uses.
//! - [`bloom::BloomFilter`] — used by the B-LRU baseline and flash admission.
//! - [`ghost::GhostTable`] — the paper's bucketed fingerprint ghost queue
//!   (§4.2): fingerprints plus insertion sequence numbers with lazy expiry;
//!   [`ghost::GhostFifo`] — the exact byte-bounded ghost FIFO of ids that
//!   S3-FIFO-D's monitors use.
//! - [`ring::MpmcRing`] — a bounded lock-free MPMC queue (Vyukov sequence
//!   counters).
//! - [`prefetch::prefetch_read`] — bounds-checked software prefetch hint for
//!   the dense replay loops.
//! - [`poll::poll`] (Unix) — `poll(2)` behind a `&mut [PollFd]`, so that
//!   `cache-server`'s loops block on readiness while the crate itself
//!   forbids `unsafe`.
//! - [`shardlock::ShardLocks`] — sharded reader-writer locks whose readers
//!   announce themselves on a line of their own instead of writing the shard's
//!   lock word; the index lock of every cache in `cache-concurrent`.
//! - [`huge::with_capacity`] / [`huge::filled`] — `Vec`s advised onto 2 MiB
//!   transparent huge pages before first touch, for the simulator's arrays
//!   sized to the id domain or the trace.
//! - [`rng::SplitMix64`] — a tiny deterministic RNG for sampled policies.
//! - [`hist::Histogram`] — streaming histogram with percentile queries.
//! - [`fx::FxHasher`] — FxHash-style multiplicative hasher backing the hot
//!   [`rng::IdMap`]/[`rng::IdSet`] aliases.
//! - [`dense::DenseIds`] — per-trace id interning for the dense-ID simulation
//!   fast path.
//!
//! The ring, the prefetch hint, the `poll(2)` call, the lock and the
//! `madvise(2)` call are the five sites of `unsafe` code in the workspace
//! (`tests/source_rules.rs` at the root holds the list).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bloom;
pub mod dense;
pub mod dlist;
pub mod fx;
pub mod ghost;
pub mod hist;
pub mod huge;
#[cfg(unix)]
pub mod poll;
pub mod prefetch;
pub mod ring;
pub mod rng;
pub mod shardlock;
pub mod sketch;

pub use bloom::BloomFilter;
pub use dense::{DenseIds, NIL};
pub use dlist::{DList, Handle};
pub use fx::{FxBuildHasher, FxHasher, FxMap, FxSet};
pub use ghost::{GhostFifo, GhostTable};
pub use hist::Histogram;
pub use prefetch::prefetch_read;
pub use ring::MpmcRing;
pub use rng::{IdHashBuilder, IdHasher, IdMap, IdSet, SplitMix64};
pub use shardlock::ShardLocks;
pub use sketch::{CountMinSketch, Doorkeeper};
