//! Sharded reader-writer locks whose readers write no line another thread
//! writes.
//!
//! A `RwLock` read is two read-modify-writes on the lock word, and the word
//! is shared: with any number of shards, the word a thread is about to take
//! was last written by whichever thread used that shard before, so the line
//! moves between cores on every read even when no two threads ever meet on a
//! shard. Here a reader announces itself on a *lane* instead — one word on a
//! 128-byte line of its own, thread-sticky, one pool of [`LANES`] per
//! [`ShardLocks`] — and a writer raises its shard's flag and then waits until
//! no lane names that shard. The uncontended read is one compare-exchange and
//! one store on a line only this thread touches, plus a load of a flag that
//! only writers write.
//!
//! The protocol is the Dekker pair, and that is why both sides are `SeqCst`:
//!
//! ```text
//! reader                              writer (holding the shard's gate)
//!   lane.cas(0 -> shard + 1)            writer.store(true)
//!   writer.load()                       lane.load(), every lane in use
//! ```
//!
//! Each side writes its own word and then reads the other's. In the single
//! total order of `SeqCst` operations one of the two stores comes first, and
//! the other side's load, which follows its own store, sees it: either the
//! reader sees the flag (and backs out: clears its lane, reads under the gate
//! mutex instead) or the writer sees the lane (and waits for it to clear).
//! With anything weaker both loads may miss both stores — the store-buffer
//! reordering — and a reader and a writer hold the shard together.
//!
//! Writers sweep only the lanes ever claimed: `high_water`, which a reader
//! raises *before* it first claims a lane at or above it and a writer loads
//! *after* raising its flag. A reader on a lane the writer did not sweep
//! raised the mark after the writer's load, hence after the writer's flag
//! store, so its own flag load sees the flag.
//!
//! A read guard's drop is one `Release` store of 0 to its lane; the sweep's
//! load that sees it (directly, or through the claim of the lane's next
//! holder, which continues the release sequence) orders the reader's accesses
//! before the writer's. A write guard's drop clears the flag with `Release`;
//! a reader that loads the cleared flag has the writer's mutations. A reader
//! cannot load a *stale* cleared flag while a later writer's raised one
//! precedes its load in the total order, because the earlier writer's clear
//! happens-before the later writer's raise through the gate mutex.
//!
//! Like a `RwLock` with a queued writer, a read is not reentrant on one
//! shard: a second read by a thread that holds one, arriving after a writer
//! raised the flag, waits on the gate for a writer that waits on the first.
//! Reads of *different* shards nest freely (the second takes the next lane).
//!
//! The loom-lite model (`crates/check/src/models/shardlock.rs`) explores the
//! interleavings with the protected data as a race-checked cell and catches
//! five planted weakenings; it models `SeqCst` as `AcqRel`, so the
//! store-buffer case rests on the argument above and on the real-thread
//! tests below. With the ring, the prefetch hint and `poll(2)`, this is the
//! fourth site of `unsafe` in the workspace.

use std::cell::{Cell, UnsafeCell};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Reader lanes per [`ShardLocks`]. Power of two (masked probing); far more
/// than plausible thread counts so two threads rarely share a hint.
pub const LANES: usize = 32;

/// Lanes a read tries before it falls back to the gate mutex.
const PROBES: usize = 4;

/// Sweep re-reads of one busy lane before the writer starts yielding its
/// time slice between them (the reader it waits for may be off its core).
const SPINS: u32 = 64;

/// One word on two cache lines of its own.
#[repr(align(128))]
struct Padded(AtomicUsize);

/// The reader side of one [`ShardLocks`]: a lane holds `shard + 1` while a
/// reader of that shard is inside, else 0.
struct Lanes {
    lanes: [Padded; LANES],
    /// One past the highest lane ever claimed.
    high_water: Padded,
}

/// Monotone counter handing out starting lanes so threads spread across the
/// pool instead of all probing from lane 0.
static NEXT_HINT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's preferred lane, initialized lazily from `NEXT_HINT`.
    static LANE_HINT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Returns this thread's sticky starting lane.
// ORDERING: Relaxed fetch_add — `NEXT_HINT` only spreads threads across
// lanes; no data is published through it.
fn lane_hint() -> usize {
    LANE_HINT.with(|h| {
        let mut v = h.get();
        if v == usize::MAX {
            v = NEXT_HINT.fetch_add(1, Ordering::Relaxed) & (LANES - 1);
            h.set(v);
        }
        v
    })
}

/// One shard: the value, its writer flag and the gate that serialises
/// writers (and the readers that could not use a lane). Aligned so that one
/// shard's writers do not move the line a neighbouring shard's readers load.
#[repr(align(128))]
pub struct ShardLock<T> {
    writer: AtomicBool,
    /// What a reader of this shard publishes in its lane: the index + 1.
    tag: usize,
    lanes: Arc<Lanes>,
    gate: Mutex<()>,
    data: UnsafeCell<T>,
}

// SAFETY: `data` is reached only through the guards. A `ReadGuard` hands out
// `&T` to any number of threads at once (`T: Sync`); a `WriteGuard` hands
// `&mut T` to whichever thread took it (`T: Send`), and the protocol in the
// module doc keeps the two kinds, and two writers, from overlapping. The
// other fields are atomics, a `Mutex<()>` and an `Arc` of atomics.
unsafe impl<T: Send + Sync> Sync for ShardLock<T> {}

/// `N` values, each behind its own reader-writer lock, sharing one pool of
/// reader lanes. Indexes and iterates as a slice of [`ShardLock`].
///
/// # Examples
///
/// ```
/// use cache_ds::ShardLocks;
///
/// let shards: ShardLocks<Vec<u32>> = (0..4).map(|_| Vec::new()).collect();
/// shards[1].write().push(7);
/// assert_eq!(shards[1].read().len(), 1);
/// assert!(shards[0].read().is_empty());
/// ```
pub struct ShardLocks<T> {
    shards: Box<[ShardLock<T>]>,
}

impl<T> FromIterator<T> for ShardLocks<T> {
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> Self {
        let lanes = Arc::new(Lanes {
            lanes: std::array::from_fn(|_| Padded(AtomicUsize::new(0))),
            high_water: Padded(AtomicUsize::new(0)),
        });
        ShardLocks {
            shards: values
                .into_iter()
                .enumerate()
                .map(|(shard, value)| ShardLock {
                    writer: AtomicBool::new(false),
                    tag: shard + 1,
                    lanes: Arc::clone(&lanes),
                    gate: Mutex::new(()),
                    data: UnsafeCell::new(value),
                })
                .collect(),
        }
    }
}

impl<T> Deref for ShardLocks<T> {
    type Target = [ShardLock<T>];

    fn deref(&self) -> &[ShardLock<T>] {
        &self.shards
    }
}

impl<T> ShardLock<T> {
    /// The gate, whatever a panicking holder left of it: it guards `()`, so
    /// there is no half-made update to protect anyone from.
    fn gate(&self) -> MutexGuard<'_, ()> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Shared access. Blocks only while a writer holds or awaits this shard.
    // ORDERING: SeqCst lane claim then SeqCst flag load — the reader's half
    // of the Dekker pair (module doc): the claim must precede the flag load
    // in the one total order the writer's flag store and lane loads are also
    // in. SeqCst on `high_water`, load and fetch_max alike, so that a lane
    // first used after a writer's load of the mark is claimed after that
    // writer's flag store in the same order. The failed claim is Relaxed: it
    // publishes nothing and reads nothing. The backing-out store is Release
    // like the guard's drop, though nothing was read.
    pub fn read(&self) -> ReadGuard<'_, T> {
        let pool = &*self.lanes;
        let mut at = lane_hint();
        for _ in 0..PROBES {
            if pool.high_water.0.load(Ordering::SeqCst) <= at {
                pool.high_water.0.fetch_max(at + 1, Ordering::SeqCst);
            }
            let lane = &pool.lanes[at].0;
            if lane
                .compare_exchange(0, self.tag, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                if !self.writer.load(Ordering::SeqCst) {
                    return ReadGuard {
                        // SAFETY: the lane names this shard and the flag was
                        // clear after it did, so every writer, present and
                        // future, waits for the lane to clear before it
                        // touches `data`; the guard clears it on drop, after
                        // the last use of this reference.
                        data: unsafe { &*self.data.get() },
                        held: Held::Lane(lane),
                    };
                }
                lane.store(0, Ordering::Release);
                break;
            }
            at = (at + 1) & (LANES - 1);
        }
        let gate = self.gate();
        ReadGuard {
            // SAFETY: every writer holds the gate from before it raises the
            // flag until after its guard drops, so while this guard holds the
            // gate there is no `&mut T`.
            data: unsafe { &*self.data.get() },
            held: Held::Gate { _gate: gate },
        }
    }

    /// Exclusive access: takes the gate, raises the flag, and waits until no
    /// lane in use names this shard.
    // ORDERING: SeqCst flag store then SeqCst loads of the mark and of each
    // lane — the writer's half of the Dekker pair (module doc). A lane load
    // that sees the reader's Release clear (or a later claim of that lane, an
    // RMW continuing the release sequence) also acquires the reader's reads.
    pub fn write(&self) -> WriteGuard<'_, T> {
        let gate = self.gate();
        self.writer.store(true, Ordering::SeqCst);
        let pool = &*self.lanes;
        let in_use = pool.high_water.0.load(Ordering::SeqCst);
        for lane in &pool.lanes[..in_use] {
            let mut spins = 0;
            while lane.0.load(Ordering::SeqCst) == self.tag {
                if spins < SPINS {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        WriteGuard {
            lock: self,
            _gate: gate,
        }
    }
}

/// What keeps writers out while a [`ReadGuard`] lives.
enum Held<'a> {
    /// This reader's lane, holding the shard's tag.
    Lane(&'a AtomicUsize),
    /// The shard's gate (no lane was free, or a writer was in the way).
    Gate { _gate: MutexGuard<'a, ()> },
}

/// Shared access to one shard's value; see [`ShardLock::read`].
pub struct ReadGuard<'a, T> {
    data: &'a T,
    held: Held<'a>,
}

impl<T> Deref for ReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.data
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    // ORDERING: Release — pairs with the writer's sweep load, ordering this
    // reader's accesses before the mutation that follows the sweep.
    fn drop(&mut self) {
        if let Held::Lane(lane) = self.held {
            lane.store(0, Ordering::Release);
        }
    }
}

/// Exclusive access to one shard's value; see [`ShardLock::write`].
pub struct WriteGuard<'a, T> {
    lock: &'a ShardLock<T>,
    _gate: MutexGuard<'a, ()>,
}

impl<T> Deref for WriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this guard holds the gate (no other writer, no gate
        // reader) and its sweep found no lane naming the shard after the flag
        // went up (no lane reader, and none can enter until it comes down).
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; `&mut self` makes the borrow unique among
        // this guard's own.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for WriteGuard<'_, T> {
    // ORDERING: Release — a reader whose flag load sees this clear has the
    // mutations made under the guard. The gate is released after it (field
    // drop follows), so the next writer's raise is ordered after this clear.
    fn drop(&mut self) {
        self.lock.writer.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    /// Two fields a writer always changes together.
    #[derive(Default)]
    struct Pair {
        a: u64,
        b: u64,
    }

    fn pairs(n: usize) -> ShardLocks<Pair> {
        (0..n).map(|_| Pair::default()).collect()
    }

    /// Writers bump both fields, readers assert them equal: a reader inside
    /// with a writer sees them differ. `OPS` operations per thread, each
    /// thread on the shard its turn names.
    // ORDERING: Relaxed — the tally is read after the scope joined.
    fn hammer(shards: usize) {
        const THREADS: u64 = 4;
        const OPS: u64 = 100_000;
        let locks = pairs(shards);
        let written = AtomicU64::new(0);
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (locks, written, start) = (&locks, &written, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..OPS {
                        let shard = ((i + t) % shards as u64) as usize;
                        // Two writer-heavy threads, two reader-heavy ones.
                        if (i + t) % if t < 2 { 2 } else { 16 } == 0 {
                            let mut pair = locks[shard].write();
                            pair.a += 1;
                            std::hint::spin_loop();
                            pair.b += 1;
                            written.fetch_add(1, Ordering::Relaxed);
                        } else {
                            let pair = locks[shard].read();
                            assert_eq!(pair.a, pair.b, "op {i} of thread {t}: torn pair");
                        }
                    }
                });
            }
        });
        let total: u64 = locks.iter().map(|l| l.read().a).sum();
        assert_eq!(total, written.load(Ordering::Relaxed), "a write was lost");
        assert!(total > OPS / 2, "writers hardly ran: {total}");
    }

    #[test]
    fn readers_never_see_a_torn_pair_on_one_shard() {
        hammer(1);
    }

    #[test]
    fn readers_never_see_a_torn_pair_on_two_shards() {
        hammer(2);
    }

    /// Returns once a writer has raised `lock`'s flag and has had a hundred
    /// time slices more: a sweep that is going to get past has by then.
    // ORDERING: Relaxed — the flag is only polled.
    fn let_the_writer_sweep<T>(lock: &ShardLock<T>) {
        while !lock.writer.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        for _ in 0..100 {
            std::thread::yield_now();
        }
    }

    /// The lane this thread's next read claims first.
    fn my_lane<T>(locks: &ShardLocks<T>) -> &AtomicUsize {
        &locks[0].lanes.lanes[lane_hint()].0
    }

    // ORDERING: Relaxed — lane words read by the thread that wrote them.
    #[test]
    fn shard_zero_is_announced_as_one() {
        let locks = pairs(2);
        let lane = my_lane(&locks);
        let guard = locks[0].read();
        assert_eq!(
            lane.load(Ordering::Relaxed),
            1,
            "shard 0 must not read as free"
        );
        drop(guard);
        assert_eq!(lane.load(Ordering::Relaxed), 0);
        // And a writer of shard 0 does wait for it: `try` by hand.
        let guard = locks[0].read();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| locks[0].write().a = 9);
            let_the_writer_sweep(&locks[0]);
            assert!(
                !writer.is_finished(),
                "the writer went past a reader of shard 0"
            );
            assert_eq!(guard.a, 0);
            drop(guard);
            writer.join().expect("writer");
        });
        assert_eq!(locks[0].read().a, 9);
    }

    // ORDERING: Relaxed — lane words read by the thread that wrote them.
    #[test]
    fn a_nested_read_takes_the_next_lane_and_both_release() {
        let locks = pairs(2);
        let first = lane_hint();
        let lanes = &locks[0].lanes.lanes;
        let outer = locks[0].read();
        let inner = locks[1].read();
        assert_eq!(lanes[first].0.load(Ordering::Relaxed), 1);
        assert_eq!(lanes[(first + 1) % LANES].0.load(Ordering::Relaxed), 2);
        assert_eq!((outer.a, inner.a), (0, 0));
        drop(outer);
        assert_eq!(lanes[first].0.load(Ordering::Relaxed), 0);
        assert_eq!(lanes[(first + 1) % LANES].0.load(Ordering::Relaxed), 2);
        drop(inner);
        assert!(lanes.iter().all(|l| l.0.load(Ordering::Relaxed) == 0));
        locks[0].write().a = 1; // no lane left behind: this returns
        locks[1].write().a = 1;
    }

    /// More readers inside than a read probes lanes for: the fifth and later
    /// take the gate, and a writer is still kept out until all have left.
    // ORDERING: Relaxed — lane words and the flag are only polled.
    #[test]
    fn more_readers_than_probes_read_under_the_gate() {
        let locks = pairs(1);
        // Occupy this thread's whole probe window with reads of shard 0.
        let held: Vec<_> = (0..PROBES).map(|_| locks[0].read()).collect();
        assert!(held.iter().all(|g| matches!(g.held, Held::Lane(_))));
        let gated = locks[0].read();
        assert!(
            matches!(gated.held, Held::Gate { .. }),
            "a fifth lane was probed"
        );
        assert_eq!(gated.a, 0);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| locks[0].write().a = 5);
            // The writer cannot even raise its flag: the gate is held.
            for _ in 0..100 {
                std::thread::yield_now();
                assert!(!locks[0].writer.load(Ordering::Relaxed));
            }
            drop(gated);
            let_the_writer_sweep(&locks[0]);
            assert!(held.iter().all(|g| g.a == 0), "writer passed lane readers");
            drop(held);
            writer.join().expect("writer");
        });
        assert_eq!(locks[0].read().a, 5);
    }

    #[test]
    fn a_panic_in_either_section_leaves_the_shard_usable() {
        let locks = pairs(1);
        let unwound = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = locks[0].read();
                    panic!("die reading");
                })
                .join()
        });
        assert!(unwound.is_err());
        locks[0].write().a = 1; // the lane was cleared on unwind
        let unwound = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut guard = locks[0].write();
                    guard.a = 2;
                    panic!("die writing");
                })
                .join()
        });
        assert!(unwound.is_err());
        // Flag cleared on unwind (a lane read works) and the poisoned gate
        // recovered (a write works).
        let guard = locks[0].read();
        assert!(matches!(guard.held, Held::Lane(_)));
        assert_eq!(guard.a, 2);
        drop(guard);
        locks[0].write().b = 2;
    }

    /// The subtle edge of the high-water mark: a writer sweeps the lanes in
    /// use when it raised its flag, so a reader on a lane first used *after*
    /// that must be kept out by the flag alone.
    // ORDERING: SeqCst where the test plays a writer's part by hand (flag
    // store, mark load), as `write` does; Relaxed for polling.
    #[test]
    fn a_lane_first_used_after_the_flag_went_up_is_still_excluded() {
        let locks = pairs(1);
        let pool = &locks[0].lanes;
        assert_eq!(pool.high_water.0.load(Ordering::SeqCst), 0);
        // A writer that has raised its flag and loaded the mark (0: it will
        // sweep nothing), and is now inside.
        let mut inside = locks[0].write();
        inside.a = 1;
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let pair = locks[0].read();
                (pair.a, pair.b, matches!(pair.held, Held::Gate { .. }))
            });
            // The reader raises the mark for its never-used lane, claims it,
            // sees the flag, backs out and queues on the gate.
            while pool.high_water.0.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            inside.b = 1;
            drop(inside);
            assert_eq!(reader.join().expect("reader"), (1, 1, true));
        });
        assert!(pool.lanes.iter().all(|l| l.0.load(Ordering::Relaxed) == 0));
        // And the sweep covers exactly `..high_water`: a lane beyond it that
        // names the shard (no reader can be there) does not hold a writer up;
        // one inside it does.
        let mark = pool.high_water.0.load(Ordering::SeqCst);
        assert!((1..=LANES).contains(&mark));
        if mark < LANES {
            pool.lanes[mark].0.store(1, Ordering::SeqCst);
            locks[0].write().a = 2;
            pool.lanes[mark].0.store(0, Ordering::SeqCst);
        }
        pool.lanes[mark - 1].0.store(1, Ordering::SeqCst);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| locks[0].write().a = 3);
            let_the_writer_sweep(&locks[0]);
            assert!(!writer.is_finished(), "the sweep skipped a lane in use");
            pool.lanes[mark - 1].0.store(0, Ordering::SeqCst);
            writer.join().expect("writer");
        });
        assert_eq!(locks[0].read().a, 3);
    }
}
