//! Batched hit-path bookkeeping for the concurrent S3-FIFO.
//!
//! The paper-literal hit path of a CLOCK-family cache performs two
//! contended writes per hit besides the value's reference count: the
//! per-shard hit counter RMW and (until the two-bit counter saturates) the
//! entry frequency store. Under multicore contention each is a potential cache-line ping,
//! so the paper's "lock-free hit path" can still bottleneck on coherence
//! traffic. This module amortizes both through a pool of claimable,
//! thread-sticky slots:
//!
//! - **Stat credits**: each hit bumps a slot-local per-shard count (a line
//!   only this slot's holder touches) and the real shard counters are
//!   credited once per [`STATS_FLUSH_THRESHOLD`] hits — two orders of
//!   magnitude fewer contended RMWs than one per hit.
//! - **Frequency increments**: hits whose entry was observed *below*
//!   [`MAX_FREQ`](crate::s3fifo) accumulate per-key in the slot's pair
//!   table and are applied — one shard-lock lookup plus one store per
//!   distinct key — when a slot crosses [`FLUSH_THRESHOLD`] pending hits.
//!   Hits on already-saturated entries skip recording entirely: an
//!   immediate `if f < MAX_FREQ` store would be skipped at the same
//!   moment, so eviction quality is unchanged.
//!
//! Design constraints:
//!
//! - The crate forbids `unsafe`, so slots hold plain atomics rather than
//!   `UnsafeCell` payloads. Exclusivity still comes from the `claimed`
//!   flag: payload atomics are only touched between a successful
//!   claim-CAS and the release store, so they can all be `Relaxed`.
//! - The claim CAS uses `Acquire` on success and the release uses
//!   `Release`. This is a *quality* edge, not a safety edge — everything
//!   is atomic — but without it the next claimer may observe a stale
//!   payload snapshot and attribute pending counts to the wrong keys or
//!   shards. The loom-lite model (`crates/check/src/models/incbuf.rs`)
//!   plants exactly those two weakenings as mutants the gate must catch.
//! - Deferred bookkeeping changes *eviction quality and stat freshness
//!   only*: gets/inserts still see fully linearizable values, and because
//!   both halves flush with their accumulated counts, per-shard stats and
//!   frequency state are exact again at quiescence once
//!   [`IncBuffers::drain`] runs.
//!
//! If every probe finds the slot claimed (possible but rare: slots far
//! outnumber threads), `record` returns `false` and the caller falls back
//! to direct increments — the buffer is an optimization, never a queue
//! that can block or drop.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Number of slots in the pool. Power of two (masked indexing); far more
/// slots than plausible thread counts so claim collisions stay rare.
pub const SLOTS: usize = 32;

/// Distinct keys a slot's frequency half can hold before a flush is
/// forced by capacity.
pub const SLOT_PAIRS: usize = 8;

/// Pending frequency hits (summed across a slot's pairs) that trigger a
/// frequency flush. Small enough that frequency state lags by at most a
/// few dozen hits per slot — see the miss-ratio-delta bound in
/// `tests/miss_ratio.rs` — large enough to amortize the entry-line writes
/// it exists to batch.
pub const FLUSH_THRESHOLD: u32 = 32;

/// Pending stat credits that trigger a stats flush. Stats tolerate much
/// deeper deferral than frequency state (they steer nothing; they are
/// only read via snapshots, which drain first), so the threshold is
/// sized for amortization: at most one contended counter RMW per shard
/// per this many hits.
pub const STATS_FLUSH_THRESHOLD: u32 = 1024;

/// One claimable batch of pending bookkeeping. Padded to two cache lines
/// so concurrent holders of neighboring slots never false-share.
#[repr(align(128))]
struct IncSlot {
    /// Slot ownership flag; see the module docs for the handoff protocol.
    claimed: AtomicBool,
    /// Total pending frequency hits across all pairs (freq-flush trigger).
    total: AtomicU32,
    /// Keys with pending frequency increments; meaningful only where the
    /// matching count is non-zero.
    keys: [AtomicU64; SLOT_PAIRS],
    /// Pending frequency hits per key; zero marks a free pair.
    counts: [AtomicU32; SLOT_PAIRS],
    /// Total pending stat credits (stats-flush trigger).
    stat_total: AtomicU32,
    /// Pending hit-counter credits per shard index.
    stats: Box<[AtomicU32]>,
}

impl IncSlot {
    fn new(shards: usize) -> Self {
        IncSlot {
            claimed: AtomicBool::new(false),
            total: AtomicU32::new(0),
            keys: std::array::from_fn(|_| AtomicU64::new(0)),
            counts: std::array::from_fn(|_| AtomicU32::new(0)),
            stat_total: AtomicU32::new(0),
            stats: (0..shards).map(|_| AtomicU32::new(0)).collect(),
        }
    }
}

/// A fixed pool of [`SLOTS`] bookkeeping slots shared by all threads
/// using one cache instance.
pub(crate) struct IncBuffers {
    slots: Box<[IncSlot]>,
}

/// Monotone counter handing out starting slots so threads spread across
/// the pool instead of all probing from slot 0.
static NEXT_HINT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's preferred slot, initialized lazily from `NEXT_HINT`.
    static SLOT_HINT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Returns this thread's sticky starting slot index.
// ORDERING: Relaxed fetch_add — `NEXT_HINT` only spreads threads across
// slots; no data is published through it.
pub(crate) fn slot_hint() -> usize {
    SLOT_HINT.with(|h| {
        let mut v = h.get();
        if v == usize::MAX {
            v = NEXT_HINT.fetch_add(1, Ordering::Relaxed) & (SLOTS - 1);
            h.set(v);
        }
        v
    })
}

impl IncBuffers {
    /// A pool whose per-slot stat arrays cover `shards` shard indices.
    pub(crate) fn new(shards: usize) -> Self {
        IncBuffers {
            slots: (0..SLOTS).map(|_| IncSlot::new(shards)).collect(),
        }
    }

    /// Tries to claim the slot at `idx`.
    // ORDERING: Acquire on success pairs with the Release store in
    // `release` so the payload written by the previous holder is visible
    // before we read or extend it; Relaxed on failure — a failed claim
    // publishes nothing and reads nothing.
    fn try_claim(&self, idx: usize) -> bool {
        self.slots[idx]
            .claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Releases the slot at `idx` after the payload writes are done.
    // ORDERING: Release pairs with the Acquire claim-CAS in `try_claim`;
    // downgrading it lets the next claimer see a stale payload snapshot
    // and misattribute pending counts (the loom mutant for this edge).
    fn release(&self, idx: usize) {
        self.slots[idx].claimed.store(false, Ordering::Release);
    }

    /// Records one hit homed in `shard`, deferring the stat credit and —
    /// when `bump_freq` is set (the entry was observed unsaturated) — the
    /// frequency increment for `key`. Returns `false` (caller must apply
    /// directly) if no slot could be claimed within a short probe window.
    /// Either half flushes through its callback when it crosses its
    /// threshold; the frequency half also flushes when a new key finds no
    /// free pair.
    // ORDERING: all payload accesses are Relaxed — they happen strictly
    // between a successful Acquire claim and the Release release, which
    // hand exclusive ownership of the slot from holder to holder.
    pub(crate) fn record(
        &self,
        hint: usize,
        key: u64,
        shard: usize,
        bump_freq: bool,
        apply_freq: &mut dyn FnMut(u64, u32),
        apply_stat: &mut dyn FnMut(usize, u32),
    ) -> bool {
        let mut idx = hint & (SLOTS - 1);
        let mut claimed = false;
        // Probe a handful of slots; with SLOTS >> threads, the first
        // probe succeeds except under adversarial scheduling.
        for _ in 0..4 {
            if self.try_claim(idx) {
                claimed = true;
                break;
            }
            idx = (idx + 1) & (SLOTS - 1);
        }
        if !claimed {
            return false;
        }
        let slot = &self.slots[idx];

        // Stat half: slot-local line, one contended RMW per shard per
        // flush instead of one per hit.
        let s = slot.stats[shard].load(Ordering::Relaxed);
        slot.stats[shard].store(s + 1, Ordering::Relaxed);
        let stat_total = slot.stat_total.load(Ordering::Relaxed) + 1;
        if stat_total >= STATS_FLUSH_THRESHOLD {
            Self::flush_stats(slot, apply_stat);
        } else {
            slot.stat_total.store(stat_total, Ordering::Relaxed);
        }

        if bump_freq {
            // Dedup: a hot key accumulates in one pair.
            let mut free = SLOT_PAIRS;
            let mut merged = false;
            for i in 0..SLOT_PAIRS {
                let c = slot.counts[i].load(Ordering::Relaxed);
                if c == 0 {
                    if free == SLOT_PAIRS {
                        free = i;
                    }
                } else if slot.keys[i].load(Ordering::Relaxed) == key {
                    slot.counts[i].store(c + 1, Ordering::Relaxed);
                    merged = true;
                    break;
                }
            }
            if !merged {
                if free == SLOT_PAIRS {
                    // No room for a new key: flush everything, then seed
                    // the now-empty slot with this hit.
                    Self::flush_freq(slot, apply_freq);
                    free = 0;
                }
                slot.keys[free].store(key, Ordering::Relaxed);
                slot.counts[free].store(1, Ordering::Relaxed);
            }

            let total = slot.total.load(Ordering::Relaxed) + 1;
            if total >= FLUSH_THRESHOLD {
                Self::flush_freq(slot, apply_freq);
            } else {
                slot.total.store(total, Ordering::Relaxed);
            }
        }
        self.release(idx);
        true
    }

    /// Applies and clears every pending frequency pair of `slot`. Caller
    /// must hold the claim.
    // ORDERING: Relaxed payload accesses under the claim, as in `record`.
    fn flush_freq(slot: &IncSlot, apply_freq: &mut dyn FnMut(u64, u32)) {
        for i in 0..SLOT_PAIRS {
            let c = slot.counts[i].load(Ordering::Relaxed);
            if c > 0 {
                apply_freq(slot.keys[i].load(Ordering::Relaxed), c);
                slot.counts[i].store(0, Ordering::Relaxed);
            }
        }
        slot.total.store(0, Ordering::Relaxed);
    }

    /// Applies and clears every pending stat credit of `slot`. Caller
    /// must hold the claim.
    // ORDERING: Relaxed payload accesses under the claim, as in `record`.
    fn flush_stats(slot: &IncSlot, apply_stat: &mut dyn FnMut(usize, u32)) {
        for (shard, count) in slot.stats.iter().enumerate() {
            let c = count.load(Ordering::Relaxed);
            if c > 0 {
                apply_stat(shard, c);
                count.store(0, Ordering::Relaxed);
            }
        }
        slot.stat_total.store(0, Ordering::Relaxed);
    }

    /// Flushes every slot, both halves. Blocks (spinning) on slots
    /// currently claimed by other threads, so this is meant for quiescent
    /// points: stats snapshots, audits, and end-of-run drains.
    // ORDERING: Acquire/Release claim handoff as in `record`; the spin
    // re-CAS is bounded in practice because holders release within a few
    // dozen instructions and never block while holding a slot.
    pub(crate) fn drain(
        &self,
        apply_freq: &mut dyn FnMut(u64, u32),
        apply_stat: &mut dyn FnMut(usize, u32),
    ) {
        for idx in 0..SLOTS {
            while !self.try_claim(idx) {
                std::hint::spin_loop();
            }
            Self::flush_freq(&self.slots[idx], apply_freq);
            Self::flush_stats(&self.slots[idx], apply_stat);
            self.release(idx);
        }
    }

    /// Sum of pending (unapplied) frequency hits across all slots.
    /// Advisory: only exact at quiescence.
    // ORDERING: Relaxed — diagnostic read, exactness only claimed when
    // no thread holds a slot.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| u64::from(s.total.load(Ordering::Relaxed)))
            .sum()
    }

    /// Sum of pending (uncredited) stat hits across all slots. Advisory:
    /// only exact at quiescence.
    // ORDERING: Relaxed — diagnostic read, see `pending`.
    #[cfg(test)]
    pub(crate) fn pending_stats(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| u64::from(s.stat_total.load(Ordering::Relaxed)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Records a freq-bumping hit for `key` homed in shard 0, tallying
    /// both flush halves.
    fn record_hit(
        buf: &IncBuffers,
        hint: usize,
        key: u64,
        freq: &mut HashMap<u64, u64>,
        stats: &mut HashMap<usize, u64>,
    ) -> bool {
        let mut apply_freq = |k: u64, c: u32| {
            *freq.entry(k).or_insert(0) += u64::from(c);
        };
        let mut apply_stat = |s: usize, c: u32| {
            *stats.entry(s).or_insert(0) += u64::from(c);
        };
        buf.record(hint, key, 0, true, &mut apply_freq, &mut apply_stat)
    }

    #[test]
    fn freq_records_are_deferred_until_threshold() {
        let buf = IncBuffers::new(4);
        let mut freq = HashMap::new();
        let mut stats = HashMap::new();
        for _ in 0..u64::from(FLUSH_THRESHOLD) - 1 {
            assert!(record_hit(&buf, 0, 42, &mut freq, &mut stats));
        }
        assert!(freq.is_empty(), "freq flushed before threshold");
        assert_eq!(buf.pending(), u64::from(FLUSH_THRESHOLD) - 1);
        assert!(record_hit(&buf, 0, 42, &mut freq, &mut stats));
        assert_eq!(freq.get(&42), Some(&u64::from(FLUSH_THRESHOLD)));
        assert_eq!(buf.pending(), 0);
        // Stats defer much deeper: nothing credited yet.
        assert!(stats.is_empty());
        assert_eq!(buf.pending_stats(), u64::from(FLUSH_THRESHOLD));
    }

    #[test]
    fn saturated_hits_skip_the_pair_table() {
        let buf = IncBuffers::new(4);
        let mut credited = 0u64;
        for _ in 0..10 {
            let mut apply_freq = |_k: u64, _c: u32| panic!("no freq pending");
            let mut apply_stat = |_s: usize, c: u32| credited += u64::from(c);
            assert!(buf.record(0, 7, 1, false, &mut apply_freq, &mut apply_stat));
        }
        assert_eq!(buf.pending(), 0, "saturated hits must not occupy pairs");
        assert_eq!(buf.pending_stats(), 10);
        assert_eq!(credited, 0);
    }

    #[test]
    fn distinct_keys_force_flush_when_pairs_exhausted() {
        let buf = IncBuffers::new(4);
        let mut freq = HashMap::new();
        let mut stats = HashMap::new();
        for k in 0..SLOT_PAIRS as u64 {
            assert!(record_hit(&buf, 0, k, &mut freq, &mut stats));
        }
        assert!(freq.is_empty());
        // A ninth distinct key overflows the pair array: the eight
        // pending keys flush, the new one is seeded.
        assert!(record_hit(&buf, 0, 999, &mut freq, &mut stats));
        assert_eq!(freq.len(), SLOT_PAIRS);
        assert!(freq.values().all(|&v| v == 1));
        assert_eq!(buf.pending(), 1);
    }

    #[test]
    fn stats_flush_at_their_own_threshold() {
        let buf = IncBuffers::new(4);
        let mut credited: HashMap<usize, u64> = HashMap::new();
        for i in 0..u64::from(STATS_FLUSH_THRESHOLD) {
            let mut apply_freq = |_k: u64, _c: u32| {};
            let mut apply_stat = |s: usize, c: u32| {
                *credited.entry(s).or_insert(0) += u64::from(c);
            };
            // Alternate shards; saturated hits so only the stat half runs.
            assert!(buf.record(0, i, (i % 4) as usize, false, &mut apply_freq, &mut apply_stat));
        }
        let total: u64 = credited.values().sum();
        assert_eq!(total, u64::from(STATS_FLUSH_THRESHOLD));
        assert_eq!(credited.len(), 4, "every shard credited");
        assert_eq!(buf.pending_stats(), 0);
    }

    #[test]
    fn drain_applies_every_pending_increment() {
        let buf = IncBuffers::new(SLOTS);
        let mut freq = HashMap::new();
        let mut stats = HashMap::new();
        for hint in 0..SLOTS {
            for _ in 0..3 {
                let mut apply_freq = |k: u64, c: u32| {
                    *freq.entry(k).or_insert(0) += u64::from(c);
                };
                let mut apply_stat = |s: usize, c: u32| {
                    *stats.entry(s).or_insert(0) += u64::from(c);
                };
                assert!(buf.record(hint, hint as u64, hint, true, &mut apply_freq, &mut apply_stat));
            }
        }
        assert!(freq.is_empty());
        assert!(stats.is_empty());
        {
            let mut apply_freq = |k: u64, c: u32| {
                *freq.entry(k).or_insert(0) += u64::from(c);
            };
            let mut apply_stat = |s: usize, c: u32| {
                *stats.entry(s).or_insert(0) += u64::from(c);
            };
            buf.drain(&mut apply_freq, &mut apply_stat);
        }
        assert_eq!(freq.len(), SLOTS);
        assert!(freq.values().all(|&v| v == 3));
        assert_eq!(stats.len(), SLOTS);
        assert!(stats.values().all(|&v| v == 3));
        assert_eq!(buf.pending(), 0);
        assert_eq!(buf.pending_stats(), 0);
    }

    #[test]
    fn conservation_across_concurrent_recorders() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let buf = Arc::new(IncBuffers::new(8));
        let freq_applied = Arc::new(AtomicU64::new(0));
        let stat_applied = Arc::new(AtomicU64::new(0));
        let direct = Arc::new(AtomicU64::new(0));
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 10_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let buf = Arc::clone(&buf);
                let freq_applied = Arc::clone(&freq_applied);
                let stat_applied = Arc::clone(&stat_applied);
                let direct = Arc::clone(&direct);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // ORDERING: Relaxed — test-only tallies, read
                        // after join.
                        let mut apply_freq = |_k: u64, c: u32| {
                            freq_applied.fetch_add(u64::from(c), Ordering::Relaxed);
                        };
                        let mut apply_stat = |_s: usize, c: u32| {
                            stat_applied.fetch_add(u64::from(c), Ordering::Relaxed);
                        };
                        if !buf.record(
                            t as usize,
                            i % 7,
                            (i % 8) as usize,
                            true,
                            &mut apply_freq,
                            &mut apply_stat,
                        ) {
                            direct.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("recorder thread panicked: test invariant");
        }
        let mut apply_freq = |_k: u64, c: u32| {
            freq_applied.fetch_add(u64::from(c), Ordering::Relaxed);
        };
        let mut apply_stat = |_s: usize, c: u32| {
            stat_applied.fetch_add(u64::from(c), Ordering::Relaxed);
        };
        buf.drain(&mut apply_freq, &mut apply_stat);
        // Every recorded hit is applied exactly once per half, via buffer
        // or direct fallback.
        let recorded = THREADS * PER_THREAD - direct.load(Ordering::Relaxed);
        assert_eq!(freq_applied.load(Ordering::Relaxed), recorded);
        assert_eq!(stat_applied.load(Ordering::Relaxed), recorded);
        assert_eq!(buf.pending(), 0);
        assert_eq!(buf.pending_stats(), 0);
    }
}
