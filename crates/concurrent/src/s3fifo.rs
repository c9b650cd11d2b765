//! Lock-free-read concurrent S3-FIFO.
//!
//! The hit path performs one sharded read-lock acquisition (uncontended in
//! the common case because reads never mutate the shard) and defers all
//! remaining bookkeeping into a thread-sticky slot of [`crate::incbuf`]
//! instead of writing contended lines directly: the per-shard hit counter
//! is credited once per [`crate::incbuf::STATS_FLUSH_THRESHOLD`] hits, and
//! an unsaturated entry's freq line is written once per
//! [`crate::incbuf::FLUSH_THRESHOLD`] hits rather than on every hit
//! (saturated entries skip frequency work entirely). This amortizes the
//! coherence traffic §5.3 identifies as the residual cost of the otherwise
//! lock-free hit path. The paper-literal alternative — one relaxed freq
//! store plus one hit-counter RMW per hit — was measured against this one
//! on real threads and lost; EXPERIMENTS.md, "Fig. 8", has every run.
//!
//! Misses push into the small FIFO ring and evict via lock-free pops, with
//! the same structure as Algorithm 1: evictions start only when the whole
//! cache is full, draining `S` when it is at or above its 10 % target and
//! `M` otherwise. The queues store `Arc<Entry>` handles; an entry popped
//! from a ring checks that it is still *current* in the index (an overwrite
//! may have replaced it) before acting.
//!
//! Consistency invariant: every current index entry is reachable from
//! exactly one ring. If a ring push fails under extreme contention the
//! entry is removed from the index rather than leaked.
//! [`ConcurrentCache::audit_quiescent`] verifies this (plus ghost-table
//! consistency) by walking the rings and the index at quiescence.
//!
//! Shard count is `8 x` the machine's available parallelism (power of
//! two, clamped to `[16, 256]`) so that with `shards >> threads` two
//! threads rarely contend on one shard lock word.

use crate::incbuf::{self, IncBuffers};
use crate::{AuditReport, ConcurrentCache};
use bytes::Bytes;
use cache_ds::rng::mix64;
use cache_ds::IdMap;
use cache_ds::{GhostTable, MpmcRing};
use cache_obs::Scope;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Maximum capped frequency (two bits).
const MAX_FREQ: u8 = 3;

/// Per-shard operation counters, bumped with relaxed atomics so the hit
/// path stays a read-lock plus (at most) two relaxed stores. Padded to two
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

#[derive(Debug)]
struct Entry {
    key: u64,
    value: Bytes,
    freq: AtomicU8,
}

/// Concurrent S3-FIFO cache.
pub struct ConcurrentS3Fifo {
    shards: Vec<RwLock<IdMap<Arc<Entry>>>>,
    shard_mask: usize,
    small: MpmcRing<Arc<Entry>>,
    main: MpmcRing<Arc<Entry>>,
    ghosts: Vec<Mutex<GhostTable>>,
    counters: Vec<ShardCounters>,
    incs: IncBuffers,
    s_count: AtomicUsize,
    m_count: AtomicUsize,
    capacity: usize,
    s_capacity: usize,
}

impl ConcurrentS3Fifo {
    /// Contention-aware shard count: `8 x` available parallelism,
    /// rounded to a power of two and clamped to `[16, 256]`. With eight
    /// shards per thread, the probability that two concurrent operations
    /// touch the same shard lock word stays low even on skewed key
    /// distributions (the hot key pins one shard; the rest spread).
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
            shards: (0..shards).map(|_| RwLock::new(IdMap::default())).collect(),
            shard_mask: shards - 1,
            // Either queue can transiently hold the whole cache (S does on
            // pure-scan workloads, exactly as in the single-threaded
            // algorithm), so both rings are sized for it.
            small: MpmcRing::new(capacity * 2 + 64),
            main: MpmcRing::new(capacity * 2 + 64),
            ghosts: (0..shards)
                .map(|_| Mutex::new(GhostTable::new((m_capacity / shards).max(8))))
                .collect(),
            counters: (0..shards).map(|_| ShardCounters::default()).collect(),
            incs: IncBuffers::new(shards),
            s_count: AtomicUsize::new(0),
            m_count: AtomicUsize::new(0),
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
    /// entry's capped frequency. A key evicted (or overwritten) since the
    /// hits were recorded silently loses its bump — deferral affects
    /// eviction quality only, never get/set results.
    // ORDERING: Relaxed freq load/store — the two-bit counter is a lossy
    // promotion heuristic (§3.3); the shard read lock orders the entry
    // lookup.
    fn apply_freq(&self, key: u64, count: u32) {
        let idx = self.shard_idx(key);
        let guard = self.shards[idx].read();
        if let Some(entry) = guard.get(&key) {
            let f = entry.freq.load(Ordering::Relaxed);
            let bumped = (u32::from(f) + count).min(u32::from(MAX_FREQ)) as u8;
            if bumped != f {
                entry.freq.store(bumped, Ordering::Relaxed);
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

    /// Diagnostic snapshot: (index len, s_count, m_count, small ring len,
    /// main ring len).
    // ORDERING: Relaxed — diagnostic reads, exact only at quiescence.
    pub fn debug_counts(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.len(),
            self.s_count.load(Ordering::Relaxed),
            self.m_count.load(Ordering::Relaxed),
            self.small.len(),
            self.main.len(),
        )
    }

    // ORDERING: Relaxed — occupancy is a heuristic trigger for eviction;
    // over/undershoot by a few entries is tolerated by design (capacity is
    // enforced with slack, see make_room).
    #[inline]
    fn total(&self) -> usize {
        self.s_count.load(Ordering::Relaxed) + self.m_count.load(Ordering::Relaxed)
    }

    fn is_current(&self, entry: &Arc<Entry>) -> bool {
        let shard = &self.shards[self.shard_idx(entry.key)];
        shard
            .read()
            .get(&entry.key)
            .map(|cur| Arc::ptr_eq(cur, entry))
            .unwrap_or(false)
    }

    fn remove_if_current(&self, entry: &Arc<Entry>) -> bool {
        let shard = &self.shards[self.shard_idx(entry.key)];
        let mut guard = shard.write();
        if let Some(cur) = guard.get(&entry.key) {
            if Arc::ptr_eq(cur, entry) {
                guard.remove(&entry.key);
                return true;
            }
        }
        false
    }

    fn ghost_insert(&self, key: u64) {
        self.ghosts[self.shard_idx(key)].lock().insert(key);
    }

    fn ghost_take(&self, key: u64) -> bool {
        self.ghosts[self.shard_idx(key)].lock().remove(key)
    }

    /// Pushes an entry into the main ring, accounting for it; on ring
    /// overflow the entry is dropped from the index (no leak).
    // ORDERING: Relaxed m_count add/undo — the count is advisory (see
    // total); the ring itself synchronizes entry handoff.
    fn push_main(&self, entry: Arc<Entry>) {
        self.m_count.fetch_add(1, Ordering::Relaxed);
        if let Err(back) = self.main.push(entry) {
            self.m_count.fetch_sub(1, Ordering::Relaxed);
            self.remove_if_current(&back);
        }
    }

    /// Evicts (or promotes) one object from the small queue. Returns true
    /// when it made progress (popped anything).
    // ORDERING: Relaxed counters and freq bits — freq is a promotion
    // heuristic (a lost update costs at most one wrong promotion); entry
    // visibility is carried by the ring protocol and the shard lock.
    fn evict_small(&self) -> bool {
        let mut progress = false;
        // Bounded walk: promotions and stale handles keep the loop going;
        // one ghost eviction ends it.
        for _ in 0..self.capacity * 2 + 64 {
            let Some(entry) = self.small.pop() else {
                return progress;
            };
            progress = true;
            self.s_count.fetch_sub(1, Ordering::Relaxed);
            if !self.is_current(&entry) {
                // Stale handle (overwritten or deleted); space already freed.
                continue;
            }
            if entry.freq.load(Ordering::Relaxed) > 1 {
                // Accessed more than once: promote to M with cleared bits.
                entry.freq.store(0, Ordering::Relaxed);
                self.push_main(entry);
                continue;
            }
            // Ghost-insert only after the removal confirms this handle is
            // still current: ghosting first lets a racing overwrite leave a
            // *live* key in the ghost table, so its next insert would be
            // mis-classified as a ghost hit and jump straight to M. The
            // loom-lite shard model (crates/lint/src/models/shard.rs,
            // `GhostOrder::BeforeRemove`) reproduces that race and pins
            // this ordering.
            if self.remove_if_current(&entry) {
                self.ghost_insert(entry.key);
                // A racing insert can land between the removal above and
                // the ghost insert: its own ghost_take ran too early to see
                // this entry, so without the undo below the key would stay
                // live *and* ghosted until its next insert — forever, for a
                // key whose churn just stopped. Re-checking residency keeps
                // the serial invariant (live ∩ ghost = ∅) up to inserts
                // that are still in flight at the moment of the check.
                if self.shards[self.shard_idx(entry.key)]
                    .read()
                    .contains_key(&entry.key)
                {
                    self.ghost_take(entry.key);
                }
                self.counters[self.shard_idx(entry.key)]
                    .evictions
                    .fetch_add(1, Ordering::Relaxed);
            }
            return true;
        }
        progress
    }

    /// Evicts one object from the main queue (two-bit reinsertion). Returns
    /// true when it made progress.
    // ORDERING: Relaxed, same rationale as evict_small.
    fn evict_main(&self) -> bool {
        let mut progress = false;
        for _ in 0..self.capacity * 2 + 64 {
            let Some(entry) = self.main.pop() else {
                return progress;
            };
            progress = true;
            self.m_count.fetch_sub(1, Ordering::Relaxed);
            if !self.is_current(&entry) {
                continue;
            }
            let f = entry.freq.load(Ordering::Relaxed);
            if f > 0 {
                // Reinsert with decremented frequency.
                entry.freq.store(f - 1, Ordering::Relaxed);
                self.m_count.fetch_add(1, Ordering::Relaxed);
                if let Err(back) = self.main.push(entry) {
                    self.m_count.fetch_sub(1, Ordering::Relaxed);
                    self.remove_if_current(&back);
                    return true;
                }
                continue;
            }
            if self.remove_if_current(&entry) {
                self.counters[self.shard_idx(entry.key)]
                    .evictions
                    .fetch_add(1, Ordering::Relaxed);
            }
            return true;
        }
        progress
    }

    /// Frees space until the cache is under capacity (Algorithm 1's
    /// eviction rule). Bounded so a racing thread cannot spin forever.
    // ORDERING: Relaxed occupancy reads — stale values only mis-route one
    // iteration between the small and main queues, never corrupt state.
    fn make_room(&self) {
        for _ in 0..self.capacity + 64 {
            if self.total() < self.capacity {
                return;
            }
            let from_small = self.s_count.load(Ordering::Relaxed) >= self.s_capacity
                || self.m_count.load(Ordering::Relaxed) == 0;
            let progress = if from_small {
                self.evict_small()
            } else {
                self.evict_main()
            };
            if !progress {
                // Ring transiently empty (entries in flight on other
                // threads); give up — the next insert resumes eviction.
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
    // stat counters; the shard read lock orders the value read. The hit
    // is recorded into the slot pool *after* dropping the shard guard:
    // the freq-flush callback re-acquires shard read locks for the
    // flushed keys, and parking_lot read locks are not recursion-safe
    // when a writer is queued.
    // LOCK-ORDER: disjoint; one shard read lock at a time — one
    // block-scoped guard, and the flush only re-acquires after it dropped.
    fn get(&self, key: u64) -> Option<Bytes> {
        let idx = self.shard_idx(key);
        let hit = {
            let guard = self.shards[idx].read();
            guard
                .get(&key)
                .map(|entry| (entry.value.clone(), entry.freq.load(Ordering::Relaxed)))
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

    // ORDERING: Relaxed s_count add/undo and stat counters — advisory
    // occupancy (see total); the shard write lock publishes the entry and
    // the ring push hands the Arc to future evictors.
    fn insert(&self, key: u64, value: Bytes) {
        let entry = Arc::new(Entry {
            key,
            value,
            freq: AtomicU8::new(0),
        });
        // Ghost membership is decided before eviction runs (the eviction
        // inserts into the ghost itself).
        self.counters[self.shard_idx(key)]
            .inserts
            .fetch_add(1, Ordering::Relaxed);
        let ghost_hit = self.ghost_take(key);
        self.make_room();
        {
            let shard = &self.shards[self.shard_idx(key)];
            let mut guard = shard.write();
            // An overwrite leaves the old Arc in its ring as a stale handle.
            guard.insert(key, entry.clone());
        }
        if ghost_hit {
            self.push_main(entry);
        } else {
            self.s_count.fetch_add(1, Ordering::Relaxed);
            if let Err(back) = self.small.push(entry) {
                self.s_count.fetch_sub(1, Ordering::Relaxed);
                self.remove_if_current(&back);
            }
        }
    }

    fn remove(&self, key: u64) -> bool {
        // The ring slot becomes a stale handle; its logical space is
        // reclaimed when an eviction pops it (sooner in the small queue —
        // exactly the §4.2 deletion argument).
        self.shards[self.shard_idx(key)]
            .write()
            .remove(&key)
            .is_some()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    // LOCK-ORDER: shards -> ghosts; the ghost-liveness probe reads each
    // ghost mutex under the shard read guard. Ghost mutexes are leaves —
    // no path acquires a shard lock while holding one — and the ring walk
    // holds no lock at all.
    // ORDERING: Relaxed ring-length reads via pop/push — the audit
    // contract requires quiescence, so no entry is in flight.
    fn audit_quiescent(&self) -> AuditReport {
        // Settle pending batched increments so frequency state and the
        // hit counters are final before the walk.
        self.drain_pending();
        let mut report = AuditReport::default();
        // Walk both rings destructively and restore in pop order — a FIFO
        // ring drained and refilled in order is unchanged. Count how many
        // *current* ring handles reference each key.
        let mut current_refs: IdMap<usize> = IdMap::default();
        for ring in [&self.small, &self.main] {
            let mut drained = Vec::new();
            while let Some(entry) = ring.pop() {
                drained.push(entry);
            }
            for entry in drained {
                if self.is_current(&entry) {
                    *current_refs.entry(entry.key).or_insert(0) += 1;
                }
                // Refill cannot overflow: we popped from this same ring
                // and nothing else is running.
                debug_assert!(ring.capacity() > ring.len());
                let _ = ring.push(entry);
            }
        }
        report.duplicates = current_refs.values().filter(|&&n| n > 1).count();
        for (s, shard) in self.shards.iter().enumerate() {
            let guard = shard.read();
            report.resident += guard.len();
            for key in guard.keys() {
                if !current_refs.contains_key(key) {
                    // Current index entry unreachable from any ring: its
                    // space can never be reclaimed.
                    report.stale_handles += 1;
                }
                if self.ghosts[s].lock().contains(*key) {
                    report.live_ghosted += 1;
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
        let (len, s, m, s_ring, m_ring) = c.debug_counts();
        assert!(
            len <= 1064,
            "len {len} exceeded capacity with slack (s={s} m={m} rings={s_ring}/{m_ring})"
        );
        // Every current entry must be reachable: quiescent ring contents
        // cover the index (rings may also hold stale handles).
        assert!(
            s_ring + m_ring >= len,
            "index ({len}) exceeds ring contents ({s_ring}+{m_ring}): leaked entries"
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
        // Every overwrite leaves a stale ring handle that inflates the queue
        // accounting until eviction pops it, so churn evicts live freq-0 keys
        // even though only 50 distinct keys exist: the retention count is
        // scheduler-dependent (typically >= 45, observed as low as 44 on a
        // loaded single-vCPU box). Assert a bound with headroom — the test
        // guards against *catastrophic* key loss, not the exact count.
        let present = (0..50u64).filter(|&k| c.get(k).is_some()).count();
        assert!(
            present >= 35,
            "keys lost under overwrite churn: {present}/50"
        );
        // Deterministic invariants: every surviving value was written by one
        // of the four threads, and the index never exceeds the transient
        // overwrite overshoot (capacity + one in-flight entry per thread).
        for k in 0..50u64 {
            if let Some(v) = c.get(k) {
                assert!(v.len() == 1 && v[0] < 4, "torn value for key {k}: {v:?}");
            }
        }
        assert!(c.len() <= 104);
        // Duplicates and stale handles must not survive quiescence, but a
        // key whose *last* insert raced an eviction's ghost window stays
        // live∩ghosted until its next insert — which never comes once the
        // churn stops (see the residency re-check in `evict_small`). The
        // count is bounded by the overlap of in-flight inserts with
        // eviction scans at shutdown, not by one per thread: a loaded
        // single-vCPU box has been observed to stack 8 with 4 threads.
        // Budget 4 per thread; the exactness lives in `duplicates == 0`.
        let audit = c.audit_quiescent();
        assert_eq!(audit.duplicates, 0, "duplicate residency: {audit:?}");
        assert!(audit.is_clean(16), "audit failed: {audit:?}");
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
