//! A bounded lock-free multi-producer multi-consumer FIFO ring.
//!
//! §4.2 of the paper argues for ring-buffer FIFO queues: eviction only bumps
//! a tail pointer and insertion a head pointer, both implementable with
//! atomics and no locks. This module implements Dmitry Vyukov's bounded MPMC
//! queue, in which every slot carries a sequence number that encodes whether
//! the slot is ready for the next enqueue or dequeue. The concurrent S3-FIFO
//! prototype (`cache-concurrent`) builds its small and main queues from this
//! ring.
//!
//! One of the workspace's five sites of `unsafe` code (the crate doc names
//! them).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pads a value to a cache line to avoid false sharing between the enqueue
/// and dequeue cursors.
#[repr(align(128))]
struct CachePadded<T>(T);

struct Slot<T> {
    /// Sequence number protocol:
    /// - `seq == pos`      → slot is free for the enqueuer at `pos`;
    /// - `seq == pos + 1`  → slot holds data for the dequeuer at `pos`;
    /// - otherwise the slot is owned by another lap.
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded lock-free MPMC FIFO queue (Vyukov).
///
/// # Examples
///
/// ```
/// use cache_ds::MpmcRing;
///
/// let q = MpmcRing::new(4);
/// q.push("a").unwrap();
/// q.push("b").unwrap();
/// assert_eq!(q.pop(), Some("a")); // FIFO order
/// ```
pub struct MpmcRing<T> {
    buf: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: CachePadded<AtomicUsize>,
    dequeue_pos: CachePadded<AtomicUsize>,
}

// SAFETY: `MpmcRing` hands each value from exactly one producer to exactly
// one consumer (the sequence protocol guarantees exclusive slot ownership),
// so sending the queue between threads only requires `T: Send`.
unsafe impl<T: Send> Send for MpmcRing<T> {}
// SAFETY: All shared-state mutation goes through atomics; slot payloads are
// accessed only by the unique owner for that (position, lap), so `&MpmcRing`
// can be shared across threads when `T: Send`.
unsafe impl<T: Send> Sync for MpmcRing<T> {}

impl<T> MpmcRing<T> {
    /// Creates a ring with capacity `cap` rounded up to a power of two
    /// (minimum 2).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(2).next_power_of_two();
        let buf: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        MpmcRing {
            buf,
            mask: cap - 1,
            enqueue_pos: CachePadded(AtomicUsize::new(0)),
            dequeue_pos: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Capacity (always a power of two).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Approximate number of queued items (exact when quiescent).
    // ORDERING: Relaxed — the result is advisory by contract; readers must
    // not infer payload visibility from it.
    pub fn len(&self) -> usize {
        let tail = self.dequeue_pos.0.load(Ordering::Relaxed);
        let head = self.enqueue_pos.0.load(Ordering::Relaxed);
        head.saturating_sub(tail)
    }

    /// True when the queue appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to enqueue; returns `Err(val)` when the ring is full.
    // ORDERING: the Acquire `seq` load pairs with the dequeuer's Release
    // store, ordering our payload write after the previous lap's read; the
    // Release `seq` store publishes the payload to the dequeuer's Acquire
    // load. Cursor CASes/loads are Relaxed: they only arbitrate ownership,
    // the seq protocol carries all payload ordering. Verified exhaustively
    // by the loom-lite model (crates/check/src/models/ring.rs).
    pub fn push(&self, val: T) -> Result<(), T> {
        let mut pos = self.enqueue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                // Slot is free for this position; try to claim it.
                match self.enqueue_pos.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: The CAS above made us the unique enqueuer
                        // for `pos`; no other thread reads or writes this
                        // slot's payload until we publish `seq = pos + 1`
                        // below, so the exclusive write is sound.
                        unsafe { (*slot.val.get()).write(val) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(cur) => pos = cur,
                }
            } else if diff < 0 {
                // The slot still holds data from the previous lap: full.
                return Err(val);
            } else {
                pos = self.enqueue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Attempts to dequeue; returns `None` when the ring is empty.
    // ORDERING: mirror image of `push` — Acquire `seq` load synchronizes
    // with the enqueuer's Release store (payload fully written before we
    // read it); our Release store hands the recycled slot to the enqueuer
    // one lap ahead. Cursor orderings Relaxed as in `push`.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                // Slot holds data for this position; try to claim it.
                match self.dequeue_pos.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: The CAS made us the unique dequeuer for
                        // `pos`, and the Acquire load of `seq == pos + 1`
                        // synchronizes with the enqueuer's Release store, so
                        // the payload is fully written and exclusively ours.
                        let val = unsafe { (*slot.val.get()).assume_init_read() };
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(val);
                    }
                    Err(cur) => pos = cur,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.0.load(Ordering::Relaxed);
            }
        }
    }
}

impl<T> Drop for MpmcRing<T> {
    fn drop(&mut self) {
        // Drain remaining items so their destructors run.
        while self.pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for MpmcRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpmcRing")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let q = MpmcRing::new(8);
        for i in 0..8 {
            q.push(i).unwrap();
        }
        assert!(q.push(99).is_err());
        for i in 0..8 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_rounds_up() {
        let q: MpmcRing<u32> = MpmcRing::new(5);
        assert_eq!(q.capacity(), 8);
        let q: MpmcRing<u32> = MpmcRing::new(0);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn wraparound_many_laps() {
        let q = MpmcRing::new(4);
        for lap in 0..100 {
            for i in 0..4 {
                q.push(lap * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(q.pop(), Some(lap * 4 + i));
            }
        }
    }

    #[test]
    fn len_tracks() {
        let q = MpmcRing::new(8);
        assert!(q.is_empty());
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    // ORDERING: Relaxed — the drop counter is asserted only after the
    // queue is gone and all drops ran on this thread.
    #[test]
    fn drop_runs_destructors() {
        let counter = Arc::new(AtomicU64::new(0));
        struct D(Arc<AtomicU64>);
        impl Drop for D {
            // ORDERING: Relaxed — monotonic count, read post-quiescence.
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let q = MpmcRing::new(8);
            for _ in 0..5 {
                assert!(q.push(D(counter.clone())).is_ok());
            }
            q.pop(); // one dropped here
        }
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Single-threaded differential test against `VecDeque`.
        #[test]
        fn matches_vecdeque_model(ops in proptest::collection::vec(0u8..2, 0..300)) {
            let q: MpmcRing<u32> = MpmcRing::new(16);
            let mut model = std::collections::VecDeque::new();
            let mut counter = 0u32;
            for op in ops {
                if op == 0 {
                    let ok = q.push(counter).is_ok();
                    let model_ok = model.len() < q.capacity();
                    prop_assert_eq!(ok, model_ok);
                    if ok {
                        model.push_back(counter);
                    }
                    counter += 1;
                } else {
                    prop_assert_eq!(q.pop(), model.pop_front());
                }
                prop_assert_eq!(q.len(), model.len());
            }
        }
    }

    // ORDERING: Relaxed counters throughout — thread joins order the
    // final quiescent asserts.
    #[test]
    fn mpmc_no_loss_no_duplication() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: u64 = 20_000;
        let q = Arc::new(MpmcRing::new(1024));
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let v = (p as u64) * PER_PRODUCER + i;
                    let mut item = v;
                    loop {
                        match q.push(item) {
                            Ok(()) => break,
                            Err(back) => {
                                item = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            }));
        }
        for _ in 0..CONSUMERS {
            let q = q.clone();
            let sum = sum.clone();
            let count = count.clone();
            handles.push(std::thread::spawn(move || {
                let total = PRODUCERS as u64 * PER_PRODUCER;
                loop {
                    if let Some(v) = q.pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    } else if count.load(Ordering::Relaxed) >= total {
                        break;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = PRODUCERS as u64 * PER_PRODUCER;
        assert_eq!(count.load(Ordering::Relaxed), total);
        // Sum of 0..total since ids are a permutation of that range.
        assert_eq!(sum.load(Ordering::Relaxed), total * (total - 1) / 2);
    }
}
