//! The FIFO-family policies, each written once over the dense slab.
//!
//! FIFO, LRU, CLOCK, SIEVE ([`simple`]), 2Q and SLRU ([`multi`]) keep their
//! per-object state in plain slots indexed by a `u32` (the intrusive-array
//! layout libCacheSim uses) rather than in per-key hash-map nodes; S3-FIFO
//! does the same in the `s3fifo` crate, which also owns the shared plumbing
//! ([`s3fifo::dense`]: slab, queues, ghost, replay loop). The simulator
//! drives them with pre-interned slots, where a request costs a couple of
//! array loads; the keyed names ([`Fifo`], [`Lru`], …) are the same code
//! behind [`s3fifo::Keyed`], which interns ids on the fly.
//!
//! [`mrc`] holds the multi-capacity engines that compute a whole miss-ratio
//! curve in one trace pass.

pub mod mrc;
mod multi;
mod simple;

pub use mrc::{MrcExactFifo, MrcTurboClock, MrcTurboS3Fifo, MrcTurboSieve, MultiCapacityPolicy};
pub use multi::{DenseSlru, DenseTwoQ, Slru, TwoQ};
pub use s3fifo::DenseS3Fifo;
pub use simple::{Clock, DenseClock, DenseFifo, DenseLru, DenseSieve, Fifo, Lru, Sieve};
