//! Concurrent S3-FIFO whose hit writes no lock word.
//!
//! The hit path takes its shard's read side of [`cache_ds::ShardLocks`] —
//! one compare-exchange and one store on a lane line only this thread
//! touches, plus a load of a flag only writers write — and defers all
//! remaining bookkeeping into a thread-sticky slot of `crate::incbuf`
//! instead of writing contended lines directly: the per-shard hit counter
//! is credited once per `crate::incbuf::STATS_FLUSH_THRESHOLD` hits, and
//! an unsaturated entry's freq line is written once per
//! `crate::incbuf::FLUSH_THRESHOLD` hits rather than on every hit
//! (saturated entries skip frequency work entirely). This amortizes the
//! coherence traffic §5.3 identifies as the residual cost of the otherwise
//! lock-free hit path. The paper-literal alternative — one relaxed freq
//! store plus one hit-counter RMW per hit — was measured against this one
//! on real threads and lost; EXPERIMENTS.md, "Fig. 8", has every run. What a
//! hit still writes that another thread writes is the value's reference
//! count, twice: `get` returns `Bytes`, and a hot key's count is one line.
//!
//! Misses push into the small FIFO ring and evict via lock-free pops, with
//! the same structure as Algorithm 1: evictions start only when the whole
//! cache is full, draining `S` when it is at or above its 10 % target and
//! `M` otherwise. The index slot owns everything about an object — value,
//! frequency bits, which queue it is in — and the rings carry its bare key.
//!
//! Invariant: every index slot has exactly one handle, in the ring its
//! `in_main` names (or in the hands of the one thread that popped it and
//! has not yet settled it). So nothing a writer does touches a ring: an
//! overwrite swaps the value where it stands; a delete empties the slot to
//! a *tombstone* that stops counting toward `S`/`M` at once and counts as
//! `dead` instead; a set of a tombstoned key revives it in place; and
//! whoever pops a handle decides what it was in one shard write section.
//! Only that pop removes a slot, which is why a key needs no identity
//! token: while a handle is in flight its slot can change state but cannot
//! go away and come back. §4.2's observation survives in this form: a
//! deleted object's ring *storage* is reclaimed when eviction reaches it;
//! its logical space is free the moment it is deleted.
//! [`ConcurrentCache::audit_quiescent`] verifies the invariant (plus
//! ghost-table consistency) by walking the rings and the index.
//!
//! A shard is an index map and its slice of the ghost table behind one lock,
//! so Algorithm 1's `while full: evict(); if x in G` is what `insert` does:
//! room first, then ghost lookup and slot insert in one write section, and an
//! eviction ghosts its victim in the section that removes it. Shard count is
//! `8 x` the machine's available parallelism (power of two, clamped to
//! `[16, 256]`). Shards do not keep readers off each other's lines — a reader
//! writes only its own lane, whatever the count — they set how much a writer
//! excludes: one shard's readers and writers, and a ghost slice of
//! `1 / shards` of the main queue's size.

use crate::incbuf::{self, IncBuffers};
use crate::{AuditReport, ConcurrentCache};
use bytes::Bytes;
use cache_ds::rng::mix64;
use cache_ds::{GhostTable, IdMap, MpmcRing, ShardLocks};
use cache_obs::Scope;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Maximum capped frequency (two bits).
const MAX_FREQ: u8 = 3;

/// Per-shard operation counters, bumped with relaxed atomics so the hit
/// path stays a read section plus (at most) two relaxed stores. Padded to two
/// cache lines: without the alignment, eight shards' counters share lines
/// and every stat bump false-shares with seven neighbors.
#[derive(Debug, Default)]
#[repr(align(128))]
struct ShardCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

/// A point-in-time copy of one shard's counters (or, via
/// [`ConcurrentS3Fifo::aggregate_stats`], of all shards summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Shard index (equal to the instance's shard count for the aggregate).
    pub shard: usize,
    /// Lookups that found a current entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Inserts routed to this shard.
    pub inserts: u64,
    /// Evictions of objects homed in this shard (small-queue demotions to
    /// the ghost and main-queue evictions both count).
    pub evictions: u64,
}

impl ShardStatsSnapshot {
    /// Hit ratio of the shard (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One object, live or deleted. `value: None` is a tombstone: the key's
/// handle is still queued, nothing else of it is left.
#[derive(Debug)]
struct Slot {
    value: Option<Bytes>,
    freq: AtomicU8,
    /// Which ring carries this slot's handle.
    in_main: bool,
}

/// One shard of the index with the ghost entries of the keys it is home to:
/// one lock covers both, so "evicted from `S`" and "remembered in `G`" change
/// together.
#[derive(Debug)]
struct Shard {
    map: IdMap<Slot>,
    ghost: GhostTable,
}

/// How many slots each queue holds live, and how many tombstones both hold.
/// Every insert, delete and eviction writes these, so they sit on lines of
/// their own: `get` reads `shards`, `shard_mask` and `incs` and must not
/// take a miss for each write next door.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Occupancy {
    s_count: AtomicUsize,
    m_count: AtomicUsize,
    dead: AtomicUsize,
}

/// Concurrent S3-FIFO cache.
pub struct ConcurrentS3Fifo {
    shards: ShardLocks<Shard>,
    shard_mask: usize,
    small: MpmcRing<u64>,
    main: MpmcRing<u64>,
    counters: Vec<ShardCounters>,
    incs: IncBuffers,
    occ: Occupancy,
    capacity: usize,
    s_capacity: usize,
}

impl ConcurrentS3Fifo {
    /// Shard count: `8 x` available parallelism, rounded to a power of two
    /// and clamped to `[16, 256]`. A writer excludes one shard's readers and
    /// writers for the length of a map operation, so with eight shards per
    /// thread an insert or eviction rarely waits for another and a hit
    /// rarely takes the gate behind one (a hot key pins one shard; the rest
    /// spread); each shard's ghost remembers `1 / shards` of `M`'s size.
    pub fn contention_shards() -> usize {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        (cores * 8).next_power_of_two().clamp(16, 256)
    }

    /// Creates a cache holding up to `capacity` entries, 10 % of which are
    /// the small queue's target share.
    ///
    /// # Panics
    ///
    /// Panics when `capacity < 10`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 10, "capacity must be at least 10 entries");
        let shards = Self::contention_shards();
        let s_capacity = (capacity / 10).max(1);
        let m_capacity = capacity - s_capacity;
        ConcurrentS3Fifo {
            shards: (0..shards)
                .map(|_| Shard {
                    map: IdMap::default(),
                    ghost: GhostTable::new((m_capacity / shards).max(8)),
                })
                .collect(),
            shard_mask: shards - 1,
            // Either queue can transiently hold the whole cache (S does on
            // pure-scan workloads, exactly as in the single-threaded
            // algorithm) and as many tombstones again (`make_room` keeps
            // `dead` at or under `capacity`), so both rings are sized for it.
            small: MpmcRing::new(capacity * 2 + 64),
            main: MpmcRing::new(capacity * 2 + 64),
            counters: (0..shards).map(|_| ShardCounters::default()).collect(),
            incs: IncBuffers::new(shards),
            occ: Occupancy::default(),
            capacity,
            s_capacity,
        }
    }

    /// Number of index shards this instance was built with.
    pub fn num_shards(&self) -> usize {
        self.shard_mask + 1
    }

    #[inline]
    fn shard_idx(&self, key: u64) -> usize {
        (mix64(key) as usize) & self.shard_mask
    }

    /// Applies `count` deferred frequency hits for `key`, bumping the
    /// slot's capped frequency. A key evicted or deleted since the hits
    /// were recorded silently loses its bump — deferral affects eviction
    /// quality only, never get/set results.
    // ORDERING: Relaxed freq load/store — the two-bit counter is a lossy
    // promotion heuristic (§3.3); the shard read guard orders the slot
    // lookup.
    fn apply_freq(&self, key: u64, count: u32) {
        let idx = self.shard_idx(key);
        let guard = self.shards[idx].read();
        if let Some(slot) = guard.map.get(&key).filter(|slot| slot.value.is_some()) {
            let f = slot.freq.load(Ordering::Relaxed);
            let bumped = (u32::from(f) + count).min(u32::from(MAX_FREQ)) as u8;
            if bumped != f {
                slot.freq.store(bumped, Ordering::Relaxed);
            }
        }
    }

    /// Credits `count` deferred hits to `shard`'s hit counter. Lock-free:
    /// the counter is reachable from the shard index alone.
    // ORDERING: Relaxed counter add — statistics are advisory during a
    // run and exact only at quiescence (after drain_pending).
    fn credit_hits(&self, shard: usize, count: u32) {
        self.counters[shard]
            .hits
            .fetch_add(u64::from(count), Ordering::Relaxed);
    }

    /// Flushes every pending batched increment (frequency bumps and stat
    /// credits). Called before stats snapshots and audits so counters and
    /// frequency state are exact at quiescence.
    pub fn drain_pending(&self) {
        let mut apply_freq = |k: u64, c: u32| self.apply_freq(k, c);
        let mut apply_stat = |s: usize, c: u32| self.credit_hits(s, c);
        self.incs.drain(&mut apply_freq, &mut apply_stat);
    }

    /// Point-in-time counters of one shard.
    // ORDERING: Relaxed counter loads — statistics are advisory during a
    // run and exact only at quiescence (documented on aggregate_stats).
    fn snapshot_shard(&self, shard: usize) -> ShardStatsSnapshot {
        let c = &self.counters[shard];
        ShardStatsSnapshot {
            shard,
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            inserts: c.inserts.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
        }
    }

    /// Per-shard operation counters, one snapshot per shard in index
    /// order. Drains pending batched increments first.
    pub fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        self.drain_pending();
        (0..self.num_shards())
            .map(|s| self.snapshot_shard(s))
            .collect()
    }

    /// All shards summed; `shard` is set to [`Self::num_shards`] to mark
    /// the aggregate. Concurrent updates may be mid-flight, so the
    /// aggregate is a consistent *lower bound* during a run and exact at
    /// quiescence (pending batched increments are drained first).
    pub fn aggregate_stats(&self) -> ShardStatsSnapshot {
        self.drain_pending();
        let mut total = ShardStatsSnapshot {
            shard: self.num_shards(),
            ..ShardStatsSnapshot::default()
        };
        for s in 0..self.num_shards() {
            let snap = self.snapshot_shard(s);
            total.hits += snap.hits;
            total.misses += snap.misses;
            total.inserts += snap.inserts;
            total.evictions += snap.evictions;
        }
        total
    }

    /// Publishes the aggregate and per-shard counters into a metrics scope
    /// as gauges (`hits`, `misses`, `inserts`, `evictions`, plus
    /// `shard-NN.*` for any shard that saw traffic).
    pub fn export_obs(&self, scope: &Scope) {
        let total = self.aggregate_stats();
        scope.gauge("hits").set(total.hits as i64);
        scope.gauge("misses").set(total.misses as i64);
        scope.gauge("inserts").set(total.inserts as i64);
        scope.gauge("evictions").set(total.evictions as i64);
        for snap in self.shard_stats() {
            if snap.hits + snap.misses + snap.inserts + snap.evictions == 0 {
                continue; // idle shard: keep the dump small
            }
            let shard_scope = scope.scope(format!("shard-{:02}", snap.shard));
            shard_scope.gauge("hits").set(snap.hits as i64);
            shard_scope.gauge("misses").set(snap.misses as i64);
            shard_scope.gauge("inserts").set(snap.inserts as i64);
            shard_scope.gauge("evictions").set(snap.evictions as i64);
        }
    }

    /// Diagnostic snapshot: (live slots, s_count, m_count, small ring len,
    /// main ring len, tombstones).
    // ORDERING: Relaxed — diagnostic reads, exact only at quiescence.
    pub fn debug_counts(&self) -> (usize, usize, usize, usize, usize, usize) {
        (
            self.len(),
            self.occ.s_count.load(Ordering::Relaxed),
            self.occ.m_count.load(Ordering::Relaxed),
            self.small.len(),
            self.main.len(),
            self.occ.dead.load(Ordering::Relaxed),
        )
    }

    /// The live count of the queue a slot with this `in_main` is in.
    fn count(&self, in_main: bool) -> &AtomicUsize {
        if in_main {
            &self.occ.m_count
        } else {
            &self.occ.s_count
        }
    }

    /// Hands `key`'s one handle to the ring its slot names. A ring is full
    /// only when more threads are mid-insert than the 64 spare handles
    /// cover; the slot then goes rather than stay where no pop can reach it.
    // ORDERING: Relaxed occupancy counters, changed under the shard write
    // guard together with the slot they count.
    fn push(&self, to_main: bool, key: u64) {
        let ring = if to_main { &self.main } else { &self.small };
        if ring.push(key).is_err() {
            if let Some(slot) = self.shards[self.shard_idx(key)].write().map.remove(&key) {
                let counted_in = if slot.value.is_some() {
                    self.count(slot.in_main)
                } else {
                    &self.occ.dead
                };
                counted_in.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Pops one handle and settles its slot in one shard write section: a
    /// tombstone is dropped (no ghost: a deleted key was not evicted); a
    /// live slot follows Algorithm 1 when the cache is `full` — from `S`,
    /// promoted if accessed more than once, else evicted into the ghost;
    /// from `M`, reinserted with its frequency decremented, else evicted —
    /// and otherwise, popped only on the way to the tombstones behind it,
    /// goes back to the head of its ring untouched. Returns false when the
    /// ring was empty.
    ///
    /// The ghost insert happens inside the section that removes the slot,
    /// through the same guard. Ghosting before the slot is known to be live
    /// and cold lets a racing delete or overwrite leave a key ghosted that
    /// was never evicted; ghosting after the guard is dropped lets a racing
    /// insert land in between, live and ghosted. The loom-lite shard model
    /// (crates/check/src/models/shard.rs, `Mutant::GhostBeforeSettle`) pins
    /// the first.
    // ORDERING: Relaxed occupancy and stat counters, changed under the
    // shard write guard together with the slot they count; freq is read
    // through the exclusive guard.
    fn pop_one(&self, from_small: bool, full: bool) -> bool {
        let ring = if from_small { &self.small } else { &self.main };
        let Some(key) = ring.pop() else {
            return false;
        };
        let idx = self.shard_idx(key);
        let mut guard = self.shards[idx].write();
        let Shard { map, ghost } = &mut *guard;
        let Entry::Occupied(mut occupied) = map.entry(key) else {
            return true; // not reachable while every handle has its slot
        };
        let slot = occupied.get_mut();
        let freq = *slot.freq.get_mut();
        if slot.value.is_none() {
            occupied.remove();
            self.occ.dead.fetch_sub(1, Ordering::Relaxed);
            return true;
        }
        match (full, from_small, freq) {
            // In the way of the tombstones this pop is after: not a victim.
            (false, ..) => {}
            (true, true, 2..) => {
                // Promote to M with cleared bits.
                *slot.freq.get_mut() = 0;
                slot.in_main = true;
                self.occ.s_count.fetch_sub(1, Ordering::Relaxed);
                self.occ.m_count.fetch_add(1, Ordering::Relaxed);
            }
            (true, false, 1..) => *slot.freq.get_mut() = freq - 1,
            _ => {
                occupied.remove();
                if from_small {
                    ghost.insert(key);
                }
                self.count(!from_small).fetch_sub(1, Ordering::Relaxed);
                self.counters[idx].evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        let to_main = slot.in_main;
        drop(guard);
        self.push(to_main, key);
        true
    }

    /// Frees space until the cache is under capacity (Algorithm 1's
    /// eviction rule), and reclaims tombstones while there are more of
    /// them than `capacity`: they are not counted as occupancy, so that is
    /// what keeps slots, live and dead, within what the rings hold. Bounded
    /// so a racing thread cannot spin forever.
    // ORDERING: Relaxed occupancy reads — values a few operations old only
    // mis-route one iteration between the small and main queues, never
    // corrupt state (capacity is enforced with slack).
    fn make_room(&self) {
        for _ in 0..self.small.capacity() + self.main.capacity() {
            let s = self.occ.s_count.load(Ordering::Relaxed);
            let m = self.occ.m_count.load(Ordering::Relaxed);
            let full = s + m >= self.capacity;
            let from_small = if full {
                s >= self.s_capacity || m == 0
            } else if self.occ.dead.load(Ordering::Relaxed) > self.capacity {
                // The ring with more tombstones in it.
                self.small.len().saturating_sub(s) >= self.main.len().saturating_sub(m)
            } else {
                return;
            };
            if !self.pop_one(from_small, full) {
                // Ring transiently empty (handles in flight on other
                // threads); give up — the next insert resumes.
                return;
            }
        }
    }
}

impl ConcurrentCache for ConcurrentS3Fifo {
    fn name(&self) -> String {
        "S3-FIFO".into()
    }

    // ORDERING: Relaxed freq load (lazy promotion is lossy by design,
    // §3.3 — the two-bit counter tolerates racing updates) and Relaxed
    // stat counters; the shard read guard orders the value read. The hit
    // is recorded into the slot pool *after* dropping the shard guard:
    // the freq-flush callback re-acquires shard read guards for the
    // flushed keys, and a read is not reentrant on one shard while a
    // writer waits for it.
    fn get(&self, key: u64) -> Option<Bytes> {
        let idx = self.shard_idx(key);
        let hit = {
            let guard = self.shards[idx].read();
            guard.map.get(&key).and_then(|slot| {
                let value = slot.value.as_ref()?;
                Some((value.clone(), slot.freq.load(Ordering::Relaxed)))
            })
        };
        let Some((value, f)) = hit else {
            self.counters[idx].misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        // A saturated entry needs no frequency work at all, so only
        // unsaturated hits enter the pair table.
        let bump_freq = f < MAX_FREQ;
        let mut apply_freq = |k: u64, c: u32| self.apply_freq(k, c);
        let mut apply_stat = |s: usize, c: u32| self.credit_hits(s, c);
        if !self.incs.record(
            incbuf::slot_hint(),
            key,
            idx,
            bump_freq,
            &mut apply_freq,
            &mut apply_stat,
        ) {
            // All probed slots claimed (rare): apply the bookkeeping now
            // so the hit is never dropped.
            self.credit_hits(idx, 1);
            if bump_freq {
                self.apply_freq(key, 1);
            }
        }
        Some(value)
    }

    // ORDERING: Relaxed occupancy and stat counters — advisory occupancy
    // (see make_room), changed under the shard write guard together with the
    // slot they count; the ring push hands the key to future evictors.
    // `make_room` runs before the guard is taken, and `push` — which takes
    // this shard's write side itself when the ring is full — after it is
    // dropped.
    fn insert(&self, key: u64, value: Bytes) {
        let idx = self.shard_idx(key);
        self.counters[idx].inserts.fetch_add(1, Ordering::Relaxed);
        self.make_room();
        let mut guard = self.shards[idx].write();
        let Shard { map, ghost } = &mut *guard;
        let to_main = match map.entry(key) {
            Entry::Occupied(occupied) => {
                let slot = occupied.into_mut();
                if slot.value.replace(value).is_none() {
                    // A tombstone comes back where it stands.
                    *slot.freq.get_mut() = 0;
                    self.occ.dead.fetch_sub(1, Ordering::Relaxed);
                    self.count(slot.in_main).fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            Entry::Vacant(vacant) => {
                let ghost_hit = ghost.remove(key);
                vacant.insert(Slot {
                    value: Some(value),
                    freq: AtomicU8::new(0),
                    in_main: ghost_hit,
                });
                self.count(ghost_hit).fetch_add(1, Ordering::Relaxed);
                ghost_hit
            }
        };
        drop(guard);
        self.push(to_main, key);
    }

    // ORDERING: Relaxed occupancy counters, changed under the shard write
    // guard together with the slot they count.
    fn remove(&self, key: u64) -> bool {
        let mut guard = self.shards[self.shard_idx(key)].write();
        let Some(slot) = guard.map.get_mut(&key).filter(|slot| slot.value.is_some()) else {
            return false;
        };
        slot.value = None;
        self.count(slot.in_main).fetch_sub(1, Ordering::Relaxed);
        self.occ.dead.fetch_add(1, Ordering::Relaxed);
        true
    }

    // ORDERING: Relaxed — live slots are exactly what the two counts count;
    // exact at quiescence.
    fn len(&self) -> usize {
        self.occ.s_count.load(Ordering::Relaxed) + self.occ.m_count.load(Ordering::Relaxed)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    // ORDERING: Relaxed ring-length reads via pop/push — the audit
    // contract requires quiescence, so no handle is in flight.
    fn audit_quiescent(&self) -> AuditReport {
        // Settle pending batched increments so frequency state and the
        // hit counters are final before the walk.
        self.drain_pending();
        let mut report = AuditReport::default();
        // Walk both rings by rotating each once — a FIFO ring whose every
        // handle is popped and pushed straight back is unchanged. Count
        // each key's handles, per ring.
        let mut handles: IdMap<[usize; 2]> = IdMap::default();
        for (in_main, ring) in [&self.small, &self.main].into_iter().enumerate() {
            for _ in 0..ring.len() {
                let Some(key) = ring.pop() else { break };
                handles.entry(key).or_default()[in_main] += 1;
                // Cannot overflow: the pop above made the room, and
                // nothing else is running.
                let _ = ring.push(key);
            }
        }
        for shard in self.shards.iter() {
            let guard = shard.read();
            for (key, slot) in guard.map.iter() {
                let found = handles.remove(key).unwrap_or_default();
                if found[0] + found[1] > 1 {
                    report.duplicates += 1;
                } else if found[usize::from(slot.in_main)] != 1 {
                    // No handle, or one in the other ring: no pop will
                    // ever account for this slot correctly.
                    report.stale_handles += 1;
                }
                if slot.value.is_some() {
                    report.resident += 1;
                    if guard.ghost.contains(*key) {
                        report.live_ghosted += 1;
                    }
                }
            }
        }
        // Handles whose slot is gone.
        report.stale_handles += handles.len();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_ds::SplitMix64;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn payload() -> Bytes {
        Bytes::from_static(b"value")
    }

    #[test]
    fn get_after_insert() {
        let c = ConcurrentS3Fifo::new(100);
        c.insert(1, payload());
        assert_eq!(c.get(1), Some(payload()));
        assert_eq!(c.get(2), None);
    }

    #[test]
    fn contention_shards_are_pow2_and_clamped() {
        let n = ConcurrentS3Fifo::contention_shards();
        assert!(n.is_power_of_two());
        assert!((16..=256).contains(&n));
        assert_eq!(ConcurrentS3Fifo::new(100).num_shards(), n);
    }

    #[test]
    fn scan_fills_and_bounds_the_cache() {
        let c = ConcurrentS3Fifo::new(100);
        for k in 0..10_000u64 {
            c.insert(k, payload());
        }
        assert!(c.len() <= 108, "len {} exceeds cap+slack", c.len());
        assert!(c.len() >= 90, "cache underfilled: {}", c.len());
    }

    #[test]
    fn hot_keys_survive_scan() {
        let c = ConcurrentS3Fifo::new(100);
        for k in 0..5u64 {
            c.insert(k, payload());
        }
        for _ in 0..3 {
            for k in 0..5u64 {
                c.get(k);
            }
        }
        // Freq bumps are deferred; settle them so the scan below sees the
        // promoted state.
        c.drain_pending();
        for k in 1000..2000u64 {
            c.insert(k, payload());
        }
        let survivors = (0..5u64).filter(|&k| c.get(k).is_some()).count();
        assert!(survivors >= 4, "hot keys lost: {survivors}/5");
    }

    #[test]
    fn overwrite_returns_new_value() {
        let c = ConcurrentS3Fifo::new(100);
        c.insert(1, Bytes::from_static(b"a"));
        c.insert(1, Bytes::from_static(b"b"));
        assert_eq!(c.get(1), Some(Bytes::from_static(b"b")));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn ghost_readmission_goes_to_main() {
        let c = ConcurrentS3Fifo::new(50);
        for k in 0..100u64 {
            c.insert(k, payload());
        }
        let evicted = (0..100u64).rev().find(|&k| c.get(k).is_none()).unwrap();
        let m_before = c.debug_counts().2;
        c.insert(evicted, payload());
        assert!(c.debug_counts().2 >= m_before, "ghost hit should feed M");
        assert!(c.get(evicted).is_some());
    }

    // ORDERING: Relaxed hit counter — joined before the final asserts.
    #[test]
    fn concurrent_mixed_workload_is_safe_and_bounded() {
        let c = Arc::new(ConcurrentS3Fifo::new(1000));
        let hits = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = c.clone();
            let hits = hits.clone();
            handles.push(std::thread::spawn(move || {
                let mut state = t + 1;
                for _ in 0..50_000 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let r = state >> 33;
                    // `r` even implies `r % 100` even, so derive the hot id
                    // from the shifted value to cover all 100 hot keys.
                    let key = if r % 2 == 0 {
                        (r >> 1) % 100
                    } else {
                        r % 50_000
                    };
                    match c.get(key) {
                        Some(_) => {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                        None => c.insert(key, Bytes::from_static(b"v")),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(hits.load(Ordering::Relaxed) > 0);
        let (len, s, m, s_ring, m_ring, dead) = c.debug_counts();
        assert!(
            len <= 1064,
            "len {len} exceeded capacity with slack (s={s} m={m} rings={s_ring}/{m_ring})"
        );
        // No deletes ran, so the rings hold the live slots' handles and
        // nothing else.
        assert_eq!(
            (s_ring, m_ring, dead),
            (s, m, 0),
            "handles and slots disagree"
        );
        let hot_hits = (0..100u64).filter(|&k| c.get(k).is_some()).count();
        assert!(hot_hits > 50, "hot set not retained: {hot_hits}/100");
        // Full-table audit: no duplicates, no unreachable entries, and
        // at most one legally ghosted live key per thread.
        let audit = c.audit_quiescent();
        assert!(audit.is_clean(8), "audit failed: {audit:?}");
    }

    #[test]
    fn concurrent_overwrites_stay_consistent() {
        let c = Arc::new(ConcurrentS3Fifo::new(100));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    c.insert(i % 50, Bytes::from(vec![t as u8]));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // An overwrite swaps the value where it stands: 50 keys in 100
        // entries never fill the cache, whatever the schedule.
        let present = (0..50u64).filter(|&k| c.get(k).is_some()).count();
        assert_eq!(present, 50, "keys lost under overwrite churn");
        assert_eq!(c.aggregate_stats().evictions, 0);
        // Every surviving value was written whole by one of the four threads.
        for k in 0..50u64 {
            let v = c.get(k).expect("present");
            assert!(v.len() == 1 && v[0] < 4, "torn value for key {k}: {v:?}");
        }
        assert_eq!(c.debug_counts(), (50, 50, 0, 50, 0, 0));
        let audit = c.audit_quiescent();
        assert!(audit.is_clean(0), "audit failed: {audit:?}");
    }

    /// A key set that fits is never evicted, however it is written: the
    /// `srv-set-large` mix over a quarter of the capacity.
    #[test]
    fn a_key_set_that_fits_is_never_evicted() {
        const KEYS: u64 = 1024;
        let c = ConcurrentS3Fifo::new(4096);
        let mut rng = SplitMix64::new(19);
        let mut stored = [false; KEYS as usize];
        for i in 0..2_000_000u32 {
            let key = rng.next_u64() % KEYS;
            match rng.next_u64() % 100 {
                0..50 => {
                    c.insert(key, payload());
                    stored[key as usize] = true;
                }
                50..95 => assert_eq!(
                    c.get(key).is_some(),
                    stored[key as usize],
                    "op {i} key {key}"
                ),
                _ => assert_eq!(
                    c.remove(key),
                    std::mem::take(&mut stored[key as usize]),
                    "op {i} key {key}"
                ),
            }
            assert!(
                c.small.len() + c.main.len() <= KEYS as usize,
                "op {i}: a second handle was queued"
            );
        }
        assert_eq!(c.aggregate_stats().evictions, 0);
        assert_eq!(c.len(), stored.iter().filter(|&&s| s).count());
        let audit = c.audit_quiescent();
        assert!(audit.is_clean(0), "{audit:?}");
    }

    /// Tombstones are not occupancy, so nothing but `make_room`'s second
    /// condition stands between endless insert-then-delete of new keys and
    /// a full ring that drops the next insert.
    #[test]
    fn tombstones_are_bounded_and_never_cost_an_insert() {
        let c = ConcurrentS3Fifo::new(100);
        let ring = c.small.capacity();
        assert_eq!(ring, c.main.capacity());
        // A resident set a fifth of the capacity, queued before any
        // tombstone and so in front of all of them.
        for k in 0..20u64 {
            c.insert(k, payload());
        }
        for k in (1000..).take(10 * ring) {
            c.insert(k, payload());
            assert!(c.remove(k));
            if k % 7 == 0 {
                let probe = k + 1_000_000;
                c.insert(probe, payload());
                assert!(c.get(probe).is_some(), "insert {probe} dropped");
                assert!(c.remove(probe));
            }
            let (len, _, _, s_ring, m_ring, dead) = c.debug_counts();
            assert!(
                s_ring <= ring && m_ring <= ring,
                "ring overflow: {s_ring}/{m_ring}"
            );
            assert!(len <= 100 && dead <= 101, "len {len} dead {dead}");
            assert_eq!(
                s_ring + m_ring,
                len + dead,
                "a slot without its handle, or the reverse"
            );
        }
        // The cache was never full: reclaiming tombstones evicted nothing.
        assert_eq!(c.aggregate_stats().evictions, 0);
        assert!(
            (0..20u64).all(|k| c.get(k).is_some()),
            "a live key paid for a dead one"
        );
        let audit = c.audit_quiescent();
        assert!(audit.is_clean(0), "{audit:?}");
    }

    // ORDERING: Relaxed freq read — single-threaded test.
    #[test]
    fn a_tombstone_is_absent_until_set_again() {
        let c = ConcurrentS3Fifo::new(100);
        c.insert(1, payload());
        c.insert(2, payload());
        // Two hits wait in the increment buffer when the key is deleted.
        assert!(c.get(1).is_some() && c.get(1).is_some());
        assert!(c.remove(1));
        assert!(!c.remove(1), "a tombstone is not removed twice");
        assert_eq!(c.get(1), None);
        assert_eq!(c.len(), 1, "len counts live slots only");
        c.drain_pending();
        let freq_of = |k: u64| {
            c.shards[c.shard_idx(k)].read().map[&k]
                .freq
                .load(Ordering::Relaxed)
        };
        assert_eq!(freq_of(1), 0, "hits of a deleted key bump nothing");
        assert_eq!(c.debug_counts(), (1, 1, 0, 2, 0, 1));
        // Set again: back in place, with the handle it always had.
        c.insert(1, Bytes::from_static(b"again"));
        assert_eq!(c.get(1), Some(Bytes::from_static(b"again")));
        assert_eq!(c.debug_counts(), (2, 2, 0, 2, 0, 0));
        assert!(c.audit_quiescent().is_clean(0));
    }

    /// `push` takes the shard's write side itself when its ring is full, so
    /// `insert` must have let go of that shard by then. Rings are sized so
    /// that only more than 64 threads mid-insert fill one; this one holds two.
    #[test]
    fn a_full_ring_costs_the_insert_and_nothing_else() {
        let c = Arc::new(ConcurrentS3Fifo {
            small: MpmcRing::new(2),
            ..ConcurrentS3Fifo::new(100)
        });
        let (done, finished) = std::sync::mpsc::channel();
        let worker = {
            let c = c.clone();
            std::thread::spawn(move || {
                for k in 0..3u64 {
                    c.insert(k, payload());
                }
                let _ = done.send(());
            })
        };
        finished
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("insert deadlocked: it held its shard guard across push");
        worker.join().unwrap();
        // The third key found no room for its handle: its slot is gone, and
        // uncounted, rather than left where no pop could reach it.
        assert!(c.get(0).is_some() && c.get(1).is_some());
        assert_eq!(c.get(2), None);
        assert_eq!(c.debug_counts(), (2, 2, 0, 2, 0, 0));
        let audit = c.audit_quiescent();
        assert!(audit.is_clean(0), "{audit:?}");
    }

    #[test]
    #[should_panic(expected = "at least 10")]
    fn tiny_capacity_panics() {
        ConcurrentS3Fifo::new(5);
    }

    #[test]
    fn shard_stats_aggregate_to_operation_counts() {
        let c = ConcurrentS3Fifo::new(100);
        let shards = c.num_shards();
        let mut expected_hits = 0u64;
        let mut expected_misses = 0u64;
        for k in 0..200u64 {
            c.insert(k, payload());
        }
        for k in 0..300u64 {
            match c.get(k) {
                Some(_) => expected_hits += 1,
                None => expected_misses += 1,
            }
        }
        let total = c.aggregate_stats();
        assert_eq!(total.shard, shards, "aggregate marker");
        assert_eq!(total.inserts, 200);
        assert_eq!(total.hits, expected_hits);
        assert_eq!(total.misses, expected_misses);
        assert!(total.evictions > 0, "200 inserts into 100 slots must evict");
        // Per-shard snapshots partition the totals.
        let per_shard = c.shard_stats();
        assert_eq!(per_shard.len(), shards);
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), total.hits);
        assert_eq!(
            per_shard.iter().map(|s| s.misses).sum::<u64>(),
            total.misses
        );
        assert_eq!(
            per_shard.iter().map(|s| s.inserts).sum::<u64>(),
            total.inserts
        );
        assert_eq!(
            per_shard.iter().map(|s| s.evictions).sum::<u64>(),
            total.evictions
        );
        // The mixing hash must actually spread keys around.
        let active = per_shard.iter().filter(|s| s.inserts > 0).count();
        assert!(active > shards / 2, "only {active} shards saw inserts");
    }

    #[test]
    fn shard_stats_survive_concurrent_load() {
        let c = Arc::new(ConcurrentS3Fifo::new(1000));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut state = t + 1;
                for _ in 0..20_000 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (state >> 33) % 5000;
                    if c.get(key).is_none() {
                        c.insert(key, Bytes::from_static(b"v"));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = c.aggregate_stats();
        // Every loop iteration was one get; inserts follow misses 1:1.
        // Batched hits are exact here because aggregate_stats drains
        // the pending increments first.
        assert_eq!(total.hits + total.misses, 4 * 20_000);
        assert_eq!(total.inserts, total.misses);
        assert!(total.hit_ratio() > 0.0 && total.hit_ratio() < 1.0);
    }

    #[test]
    fn batched_hits_settle_at_drain() {
        let c = ConcurrentS3Fifo::new(100);
        c.insert(7, payload());
        for _ in 0..10 {
            assert!(c.get(7).is_some());
        }
        // Counters lag until drained…
        let snap = c.snapshot_shard(c.shard_idx(7));
        assert!(snap.hits < 10, "hits applied eagerly: {}", snap.hits);
        // …and are exact afterwards (aggregate_stats drains internally).
        assert_eq!(c.aggregate_stats().hits, 10);
    }

    #[test]
    fn export_obs_publishes_gauges() {
        use cache_obs::{MetricsRegistry, SampleValue};
        let c = ConcurrentS3Fifo::new(100);
        for k in 0..50u64 {
            c.insert(k, payload());
            c.get(k);
        }
        let registry = MetricsRegistry::new();
        c.export_obs(&registry.scope("cc.s3fifo"));
        let samples = registry.snapshot();
        let gauge = |name: &str| {
            samples
                .iter()
                .find(|m| m.name == format!("cc.s3fifo.{name}"))
                .map(|m| match m.value {
                    SampleValue::Gauge(v) => v,
                    ref other => panic!("{name}: expected gauge, got {other:?}"),
                })
                .unwrap_or_else(|| panic!("metric {name} missing"))
        };
        assert_eq!(gauge("hits"), 50);
        assert_eq!(gauge("inserts"), 50);
        // Per-shard entries exist for active shards only.
        let shard_gauges = samples
            .iter()
            .filter(|m| m.name.contains(".shard-"))
            .count();
        assert!(shard_gauges > 0, "active shards must be exported");
    }

    #[test]
    fn audit_reports_clean_on_quiet_cache() {
        let c = ConcurrentS3Fifo::new(100);
        for k in 0..500u64 {
            c.insert(k, payload());
            c.get(k / 2);
        }
        let audit = c.audit_quiescent();
        assert_eq!(audit.resident, c.len());
        assert!(audit.is_clean(0), "{audit:?}");
        // The audit's ring walk must not perturb the cache.
        let before = c.debug_counts();
        let again = c.audit_quiescent();
        assert_eq!(before, c.debug_counts(), "audit mutated state");
        assert_eq!(audit, again, "audit not idempotent");
    }
}
