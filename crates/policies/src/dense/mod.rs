//! The slab policies: every algorithm here written once, over dense slots.
//!
//! FIFO, LRU, CLOCK, SIEVE and B-LRU ([`simple`]), 2Q and SLRU ([`multi`]),
//! ARC, LIRS, W-TinyLFU and LRU-2 keep their per-object state in plain
//! slots indexed by a `u32` (the intrusive-array layout libCacheSim uses)
//! rather than in per-key hash-map nodes; S3-FIFO does the same in the
//! `s3fifo` crate, which also owns the shared plumbing ([`s3fifo::dense`]:
//! slab, queues, ghost, replay loop). The simulator drives them with
//! pre-interned slots, where a request costs a couple of array loads; the
//! keyed names ([`Fifo`], [`Arc`], …) are the same code behind
//! [`s3fifo::Keyed`], which interns ids on the fly.
//!
//! [`mrc`] holds the multi-capacity engines that compute a whole miss-ratio
//! curve in one trace pass.

mod arc;
mod lirs;
mod lruk;
pub mod mrc;
mod multi;
mod simple;
mod tinylfu;

pub use arc::{Arc, DenseArc};
pub use lirs::{DenseLirs, Lirs};
pub use lruk::{DenseLruK, LruK};
pub use mrc::{MrcExactFifo, MrcTurboClock, MrcTurboS3Fifo, MrcTurboSieve, MultiCapacityPolicy};
pub use multi::{DenseSlru, DenseTwoQ, Slru, TwoQ};
pub use s3fifo::DenseS3Fifo;
pub use simple::{
    BloomLru, Clock, DenseBloomLru, DenseClock, DenseFifo, DenseLru, DenseSieve, Fifo, Lru, Sieve,
};
pub use tinylfu::{DenseTinyLfu, TinyLfu};

use s3fifo::dense::{DenseSlab, PackedQueue};

/// Structural validation shared by the multi-queue slab policies: each
/// `(queue, tag, bytes, label)` links exactly its `len` slots, every one
/// tagged `tag`, together charged `bytes`; no slot outside the queues
/// carries a tag; and the queues fit `capacity`.
pub(crate) fn validate_queues(
    name: &str,
    capacity: u64,
    slab: &DenseSlab,
    queues: &[(&PackedQueue, u8, u64, &str)],
) -> Result<(), String> {
    let mut queued = 0usize;
    let mut total = 0u64;
    for &(queue, tag, used, label) in queues {
        let (mut bytes, mut count) = (0u64, 0u32);
        for slot in queue.iter(&slab.slots) {
            let s = &slab.slots[slot as usize];
            if s.tag != tag {
                return Err(format!(
                    "{name}: slot {slot} sits in {label} but is tagged {}",
                    s.tag
                ));
            }
            bytes += u64::from(s.size);
            count += 1;
        }
        if count != queue.len() {
            return Err(format!(
                "{name}: {label} links walk {count} slots but len says {}",
                queue.len()
            ));
        }
        if bytes != used {
            return Err(format!("{name}: {label} bytes {bytes} != accounted {used}"));
        }
        queued += count as usize;
        total += used;
    }
    if total > capacity {
        return Err(format!("{name}: used {total} > capacity {capacity}"));
    }
    let tagged = slab.slots.iter().filter(|s| s.tag != 0).count();
    if tagged != queued {
        return Err(format!(
            "{name}: {tagged} slots carry a residency tag but {queued} are queued"
        ));
    }
    Ok(())
}
