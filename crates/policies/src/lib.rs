//! Baseline cache eviction algorithms for the S3-FIFO reproduction.
//!
//! §5.2 compares S3-FIFO against the state-of-the-art algorithms of the past
//! three decades. Every algorithm named in the paper's evaluation is
//! implemented here, all behind the shared [`cache_types::Policy`] trait:
//!
//! | Module | Algorithm | Paper's role |
//! |---|---|---|
//! | [`dense`] | FIFO | the baseline all reductions are relative to |
//! | [`dense`] | LRU | the incumbent (§2.2) |
//! | [`dense`] | CLOCK / FIFO-Reinsertion / Second Chance | "different implementations of the same algorithm" (§3) |
//! | [`dense`] | SIEVE | related work, simpler-than-LRU eviction |
//! | [`dense`] | Segmented LRU (4 segments) | §5.2 |
//! | [`dense`] | 2Q | "most similar design to S3-FIFO" |
//! | [`dense`] | ARC | adaptive state of the art |
//! | [`dense`] | LIRS | inter-reference recency competitor |
//! | [`dense`] | W-TinyLFU (1 % and 10 % windows) | "the closest competitor" |
//! | [`dense`] | LRU-K (K=2) | §2 related work |
//! | [`dense`] | Bloom-filter LRU | CDN admission baseline |
//! | [`dense`] | LeCaR | ML-based expert mixing |
//! | [`dense`] | CACHEUS | LeCaR successor |
//! | [`dense`] | LHD | hit-density sampling |
//! | [`dense`] | FIFO-Merge | Segcache's eviction |
//! | [`dense`] | Belady / OPT | offline optimal (Fig. 4) |
//!
//! [`registry`] builds policies by name for the sweep engine. Every
//! algorithm in [`dense`] (and S3-FIFO and S3-FIFO-D in the `s3fifo` crate)
//! exists once, over a slot-indexed slab: [`registry::build_dense_domain`]
//! hands the simulator the policy itself, to be driven with pre-interned
//! slots, and [`registry::build`] the same policy behind the interning
//! [`s3fifo::Keyed`] adapter. Belady is one of them; it is built from the
//! whole trace it will be driven with, so it cannot stream.
//! [`dense::mrc`] holds the multi-capacity engines that compute a whole
//! miss-ratio curve in one trace pass ([`MultiCapacityPolicy`]);
//! [`registry::build_mrc`] selects those.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod registry;
#[cfg(test)]
mod util;

pub use dense::{
    Arc, BloomLru, Cacheus, Clock, Fifo, FifoMerge, LeCar, Lhd, Lirs, Lru, LruK, Sieve, Slru,
    TinyLfu, TwoQ,
};
pub use dense::{
    DenseArc, DenseBelady, DenseBloomLru, DenseCacheus, DenseClock, DenseFifo, DenseFifoMerge,
    DenseLeCar, DenseLhd, DenseLirs, DenseLru, DenseLruK, DenseS3Fifo, DenseS3FifoD, DenseSieve,
    DenseSlru, DenseTinyLfu, DenseTwoQ,
};
pub use dense::{MrcExactFifo, MrcTurboClock, MrcTurboS3Fifo, MrcTurboSieve, MultiCapacityPolicy};
