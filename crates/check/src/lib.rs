//! Differential correctness harness for the cache-eviction workspace.
//!
//! A FIFO-family policy is written once, over the dense slab, and reached
//! through two doors — keyed (`Keyed`: ids interned on the fly, a ghostless
//! policy's slots reused) and pre-interned — with single-pass MRC lanes and a
//! concurrent variant beside it, all required to make *identical
//! decisions*. This crate holds the machinery that enforces that:
//!
//! - [`mod@reference`] — tiny, obviously-correct `Vec`-based interpreters for
//!   FIFO, LRU, CLOCK, SIEVE, 2Q, SLRU, S3-FIFO, ARC, LRU-2 and B-LRU,
//!   written for
//!   readability, not speed: the one second opinion the production
//!   policies are diffed against;
//! - [`fuzz`] — a seeded differential fuzzer replaying generated traces
//!   through reference vs keyed vs dense simultaneously, comparing
//!   outcomes, eviction records, accounting, and self-validation after
//!   every request, and shrinking any divergence to a minimal reproduction.
//!   The reference catches a wrong decision; keyed vs dense catches a slot
//!   the adapter freed under a live object or a ghost entry;
//! - [`mrc`] — a differential for the single-pass multi-capacity MRC
//!   engines: every grid point of [`cache_sim::simulate_mrc`] is diffed
//!   against a per-capacity reference replay, with ddmin shrinking on
//!   mismatch;
//! - [`observer`] — [`Checked`], a policy wrapper driven through
//!   [`cache_sim::Replay`] that shadow-checks residency, accounting, and
//!   structural invariants after every request of any simulation;
//! - [`linear`] — a linearizability-lite checker over the timed operation
//!   logs produced by [`cache_concurrent::oplog`], plus a brute-force
//!   sequential-witness search used to validate the checker itself;
//! - [`loomlite`] — a deterministic-scheduler model checker that explores
//!   every bounded-preemption interleaving of a small model, with a
//!   vector-clock race detector and deadlock detection, and [`models`] —
//!   down-scaled transcriptions of the ring, the S3-FIFO shard, the shard
//!   lock, the increment buffer, `MutexLru`'s lock order and the server's
//!   drain handshake, each with planted mutants the explorer must catch.
//!
//! The `check_gate` binary runs the whole battery on a fixed seed as a CI
//! step; `TESTING.md` at the workspace root explains how to reproduce and
//! shrink failures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod linear;
pub mod loomlite;
pub mod models;
pub mod mrc;
pub mod observer;
pub mod reference;
pub mod stream;

pub use fuzz::{diff_run, fuzz_policy, Divergence, FuzzConfig, FUZZED_ALGORITHMS};
pub use mrc::{fuzz_mrc, mrc_diff, mrc_validate, MrcDivergence, MRC_ALGORITHMS, MRC_GRIDS};
pub use stream::{
    fuzz_stream, stream_diff, StreamDivergence, STREAM_ALGORITHMS, STREAM_SHAPES,
};
pub use linear::{check_history, check_monotonic, witness_exists, LinearViolation};
pub use observer::{CheckReport, Checked};
pub use reference::{reference_for, ReferencePolicy};
