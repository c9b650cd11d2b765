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
//! | [`lecar`] | LeCaR | ML-based expert mixing |
//! | [`cacheus`] | CACHEUS | LeCaR successor |
//! | [`lhd`] | LHD | hit-density sampling |
//! | [`fifomerge`] | FIFO-Merge | Segcache's eviction |
//! | [`belady`] | Belady / OPT | offline optimal (Fig. 4) |
//!
//! [`registry`] builds policies by name for the sweep engine. The baselines
//! in [`dense`] (and S3-FIFO in the `s3fifo` crate) exist once, over a
//! slot-indexed slab: [`registry::build_dense_domain`] hands the simulator
//! the policy itself, to be driven with pre-interned slots, and
//! [`registry::build`] the same policy behind the interning
//! [`s3fifo::Keyed`] adapter. The other modules keep their objects by id.
//! [`dense::mrc`] holds the multi-capacity engines that compute a whole
//! miss-ratio curve in one trace pass ([`MultiCapacityPolicy`]);
//! [`registry::build_mrc`] selects those.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod belady;
pub mod cacheus;
pub mod dense;
pub mod fifomerge;
pub mod lecar;
pub mod lhd;
pub mod registry;
pub(crate) mod util;

pub use belady::Belady;
pub use cacheus::Cacheus;
pub use dense::{Arc, BloomLru, Clock, Fifo, Lirs, Lru, LruK, Sieve, Slru, TinyLfu, TwoQ};
pub use dense::{
    DenseArc, DenseBloomLru, DenseClock, DenseFifo, DenseLirs, DenseLru, DenseLruK, DenseS3Fifo,
    DenseSieve, DenseSlru, DenseTinyLfu, DenseTwoQ,
};
pub use dense::{MrcExactFifo, MrcTurboClock, MrcTurboS3Fifo, MrcTurboSieve, MultiCapacityPolicy};
pub use fifomerge::FifoMerge;
pub use lecar::LeCar;
pub use lhd::Lhd;
