//! S3-FIFO: the eviction algorithm from *FIFO queues are all you need for
//! cache eviction* (SOSP '23).
//!
//! S3-FIFO keeps three static FIFO queues:
//!
//! - a **small** probationary queue `S` (10 % of the cache by default) that
//!   quickly demotes one-hit wonders,
//! - a **main** queue `M` (the remaining 90 %) evicted with two-bit
//!   FIFO-reinsertion, and
//! - a **ghost** queue `G` remembering the identities (no data) of objects
//!   recently evicted from `S`, sized to as many entries as `M` holds.
//!
//! New objects enter `S` unless their id is in `G`, in which case they go
//! straight to `M`. When `S` is full, its tail either moves to `M` (if it was
//! accessed more than once, per Algorithm 1's `freq > 1` test) or falls into
//! `G`. Hits only bump a two-bit counter capped at 3 — no promotion, no lock.
//!
//! This crate provides:
//!
//! - [`DenseS3Fifo`] — the simulation-grade policy implementing Algorithm 1
//!   exactly (exact ghost queue, byte-weighted capacities) over dense slots,
//!   and [`S3Fifo`], the same policy keyed by object id;
//! - [`dense`] — the slab, queues and ghost the FIFO-family policies (here
//!   and in `cache-policies`) are built from, and the [`Keyed`] adapter that
//!   turns any of them into a [`cache_types::Policy`];
//! - [`DenseS3FifoD`] — the adaptive-queue-size variant of §6.2.2, the same
//!   queues plus two monitor ghosts, and [`S3FifoD`], keyed;
//! - [`policy::Queues`] — the §6.3 queue-type ablation (LRU vs FIFO for `S`
//!   and `M`) and §7's SIEVE `M`, as marker types on [`DenseS3Fifo`].
//!
//! An application that wants a bounded map rather than a simulated policy
//! uses `cache_concurrent::s3fifo::ConcurrentS3Fifo`, the thread-safe
//! S3-FIFO with the paper's §4.2 bucketed-fingerprint ghost table.
//!
//! # Examples
//!
//! ```
//! use cache_types::{Policy, Request};
//! use s3fifo::S3Fifo;
//!
//! let mut cache = S3Fifo::new(100).unwrap();
//! let mut evicted = Vec::new();
//! let miss = cache.request(&Request::get(1, 0), &mut evicted);
//! assert!(miss.is_miss());
//! let hit = cache.request(&Request::get(1, 1), &mut evicted);
//! assert!(hit.is_hit());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod policy;

pub use dense::Keyed;
pub use policy::{DenseS3Fifo, DenseS3FifoD, S3Fifo, S3FifoConfig, S3FifoD};
