//! The slab policies: every algorithm here written once, over dense slots.
//!
//! FIFO, LRU, CLOCK, SIEVE and B-LRU (`simple`), 2Q and SLRU (`multi`),
//! ARC, LIRS, W-TinyLFU, LRU-2, LeCaR, CACHEUS, LHD, FIFO-Merge and Belady
//! keep their per-object state in plain slots indexed by a `u32` (the
//! intrusive-array layout libCacheSim uses) rather than in per-key hash-map
//! nodes; S3-FIFO and S3-FIFO-D do the same in the `s3fifo` crate, which
//! also owns the shared plumbing ([`s3fifo::dense`]: slab, queues, ghost,
//! the request protocol and the traits). Each policy here is one
//! [`s3fifo::dense::SlabPolicy`] impl: its shape, its slab, and its
//! algorithm's steps only — what a hit changes, how an object is admitted
//! and removed, what to warm ahead of a request, and, for LeCaR and
//! CACHEUS, what a miss learns first. [`s3fifo::dense::serve`] answers
//! `Get`, `Set` and `Delete` with those steps and keeps the counts, and the
//! simulator's [`s3fifo::dense::DensePolicy`] is derived from the impl. The
//! simulator drives them with pre-interned slots, where a request costs a
//! couple of array loads; the keyed names ([`Fifo`], [`Arc`], …) are the
//! same code behind [`s3fifo::Keyed`], which interns ids on the fly.
//!
//! [`mrc`] holds the multi-capacity engines that compute a whole miss-ratio
//! curve in one trace pass.

mod arc;
mod belady;
mod cacheus;
mod fifomerge;
mod lecar;
mod lhd;
mod lirs;
mod lruk;
pub mod mrc;
mod multi;
mod simple;
mod tinylfu;

pub use arc::{Arc, DenseArc};
pub use belady::DenseBelady;
pub use cacheus::{Cacheus, DenseCacheus};
pub use fifomerge::{DenseFifoMerge, FifoMerge};
pub use lecar::{DenseLeCar, LeCar};
pub use lhd::{DenseLhd, Lhd};
pub use lirs::{DenseLirs, Lirs};
pub use lruk::{DenseLruK, LruK};
pub use mrc::{MrcExactFifo, MrcTurboClock, MrcTurboS3Fifo, MrcTurboSieve, MultiCapacityPolicy};
pub use multi::{DenseSlru, DenseTwoQ, Slru, TwoQ};
pub use s3fifo::{DenseS3Fifo, DenseS3FifoD};
pub use simple::{
    BloomLru, Clock, DenseBloomLru, DenseClock, DenseFifo, DenseLru, DenseSieve, Fifo, Lru, Sieve,
};
pub use tinylfu::{DenseTinyLfu, TinyLfu};

use s3fifo::dense::DenseSlab;
use std::collections::BTreeSet;

/// LeCaR's and CACHEUS's LFU expert: resident slots ordered by hit count,
/// then by a sequence number stamped at insertion (and, for CACHEUS, at
/// every hit), least first. Stamps are unique, so the slot number never
/// breaks a tie and both doors rank alike. The stamps live in an array
/// beside the slab, which catches up with its domain on insertion.
#[derive(Debug, Default)]
pub(crate) struct LfuOrder {
    set: BTreeSet<(u32, u64, u32)>,
    /// Per slot: its current stamp.
    stamps: Vec<u64>,
    /// The last stamp handed out.
    last: u64,
}

impl LfuOrder {
    fn key(&self, slab: &DenseSlab, slot: u32) -> (u32, u64, u32) {
        let stamp = self.stamps[slot as usize];
        (slab.slots[slot as usize].hits, stamp, slot)
    }

    /// The least frequently used slot, oldest stamp first.
    pub(crate) fn first(&self) -> Option<u32> {
        self.set.first().map(|&(_, _, slot)| slot)
    }

    /// Ranks resident `slot` under a fresh stamp.
    pub(crate) fn insert(&mut self, slab: &DenseSlab, slot: u32) {
        if self.stamps.len() < slab.domain() {
            self.stamps.resize(slab.domain(), 0);
        }
        self.last += 1;
        self.stamps[slot as usize] = self.last;
        self.set.insert(self.key(slab, slot));
    }

    /// Drops `slot` from the order.
    pub(crate) fn remove(&mut self, slab: &DenseSlab, slot: u32) {
        let key = self.key(slab, slot);
        self.set.remove(&key);
    }

    /// Records a hit on `slot` in the slab and re-ranks it, under a fresh
    /// stamp when `restamp`.
    pub(crate) fn hit(&mut self, slab: &mut DenseSlab, slot: u32, restamp: bool) {
        self.remove(slab, slot);
        slab.slots[slot as usize].touch();
        if restamp {
            self.insert(slab, slot);
        } else {
            self.set.insert(self.key(slab, slot));
        }
    }

    /// True when the order ranks exactly the `resident` tagged slots, each
    /// under its current count and stamp.
    pub(crate) fn is_current(&self, slab: &DenseSlab, resident: usize) -> bool {
        let current = |&(hits, stamp, slot): &(u32, u64, u32)| {
            slab.slots[slot as usize].tag != 0 && self.key(slab, slot) == (hits, stamp, slot)
        };
        self.set.len() == resident && self.set.iter().all(current)
    }
}
