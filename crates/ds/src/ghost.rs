//! Ghost queues keyed by object id: the paper's bucketed fingerprint table
//! ([`GhostTable`], §4.2) and an exact byte-bounded FIFO ([`GhostFifo`]).
//!
//! S3-FIFO's ghost queue G stores object *identities* (no data) of objects
//! recently evicted from the small queue. §4.2 describes the production
//! implementation: a bucket-based hash table whose entries hold a 4-byte
//! fingerprint and an eviction timestamp measured in the number of objects
//! inserted into G. An entry is logically part of G only while fewer than
//! `capacity` insertions have happened since it was added; expired entries
//! are *not* eagerly removed — they are overwritten lazily when their slot is
//! needed (hash collision), exactly as the paper specifies.
//!
//! The simulation policies in `s3fifo` use an exact ghost for bit-exact
//! metrics; this table is the compact production variant, used by the
//! concurrent prototype.
//!
//! [`GhostFifo`] is that exact ghost keyed by id: S3-FIFO-D's monitors,
//! which count hits by id so that both of its doors read them alike.
//! The dense policies' slot-indexed `SlotGhost` has the same semantics,
//! tombstones included, and is differentially tested against it.

use crate::rng::{mix64, IdSet};
use std::collections::VecDeque;

/// Entries per bucket. Eight 12-byte entries keep a bucket within two cache
/// lines.
const ASSOC: usize = 8;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// 4-byte fingerprint of the object id; 0 is reserved for "empty"
    /// (fingerprints hash to 1..=u32::MAX).
    fingerprint: u32,
    /// Number of ghost insertions at the time this entry was written
    /// (1-based; 0 means the slot was never used).
    seq: u64,
}

/// Fixed-size fingerprint ghost table with FIFO-window expiry.
///
/// # Examples
///
/// ```
/// use cache_ds::GhostTable;
///
/// let mut ghost = GhostTable::new(2);
/// ghost.insert(1);
/// ghost.insert(2);
/// ghost.insert(3); // id 1 is now outside the 2-insertion window
/// assert!(!ghost.contains(1));
/// assert!(ghost.contains(3));
/// ```
#[derive(Debug, Clone)]
pub struct GhostTable {
    buckets: Vec<[Entry; ASSOC]>,
    bucket_mask: u64,
    /// Window size: an entry is alive while `insertions - seq < capacity`.
    capacity: u64,
    /// Total insertions so far (monotonic).
    insertions: u64,
}

impl GhostTable {
    /// Creates a table that remembers the last `capacity` ghost insertions.
    ///
    /// The bucket array is sized with ~25 % headroom so that live entries
    /// are rarely displaced by collisions before they expire.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let slots = (cap + cap / 4).max(ASSOC);
        let nbuckets = (slots / ASSOC + 1).next_power_of_two();
        GhostTable {
            buckets: vec![[Entry::default(); ASSOC]; nbuckets],
            bucket_mask: (nbuckets - 1) as u64,
            capacity: cap as u64,
            insertions: 0,
        }
    }

    #[inline]
    fn locate(&self, id: u64) -> (usize, u32) {
        let h = mix64(id);
        let bucket = (h & self.bucket_mask) as usize;
        // Upper 32 bits as fingerprint, avoiding the reserved 0 value.
        let fp = ((h >> 32) as u32).max(1);
        (bucket, fp)
    }

    #[inline]
    fn alive(&self, e: &Entry) -> bool {
        // Wrapping distance: `insertions` is monotonic modulo 2^64 (0 is
        // skipped as the never-used sentinel), so the subtraction stays
        // meaningful across a counter wrap instead of underflowing.
        e.seq != 0 && self.insertions.wrapping_sub(e.seq) < self.capacity
    }

    /// Records that `id` was evicted (inserted into the ghost queue).
    ///
    /// If `id` is already present its timestamp is refreshed, which matches a
    /// FIFO ghost where the entry is re-enqueued.
    pub fn insert(&mut self, id: u64) {
        let (bucket, fp) = self.locate(id);
        // Monotonic modulo 2^64; 0 stays reserved for "never used", so the
        // counter skips it when it wraps. (Within one wrap the distance in
        // `alive` is exact; across a wrap it is off by the skipped 0 — one
        // count per 2^64 insertions, which no workload will notice.)
        self.insertions = self.insertions.wrapping_add(1);
        if self.insertions == 0 {
            self.insertions = 1;
        }
        let now = self.insertions;
        let bucket = &mut self.buckets[bucket];
        // Prefer an existing entry for the same fingerprint, then any dead
        // slot, otherwise displace the oldest entry (lazy expiry).
        let mut victim = 0usize;
        let mut victim_seq = u64::MAX;
        for (i, e) in bucket.iter_mut().enumerate() {
            if e.fingerprint == fp {
                e.seq = now;
                return;
            }
            if e.seq < victim_seq {
                victim_seq = e.seq;
                victim = i;
            }
        }
        bucket[victim] = Entry {
            fingerprint: fp,
            seq: now,
        };
    }

    /// Returns true when `id` is still within the ghost window.
    pub fn contains(&self, id: u64) -> bool {
        let (bucket, fp) = self.locate(id);
        self.buckets[bucket]
            .iter()
            .any(|e| e.fingerprint == fp && self.alive(e))
    }

    /// Removes `id` (used when an object hits in the ghost queue and is
    /// resurrected into the main queue). Returns true when it was present.
    pub fn remove(&mut self, id: u64) -> bool {
        let (bucket, fp) = self.locate(id);
        let (insertions, capacity) = (self.insertions, self.capacity);
        // Same liveness rule as `alive` (inlined: that helper borrows
        // `self`, which is mutably borrowed here).
        let alive = |e: &Entry| e.seq != 0 && insertions.wrapping_sub(e.seq) < capacity;
        for e in &mut self.buckets[bucket] {
            if e.fingerprint == fp && alive(e) {
                *e = Entry::default();
                return true;
            }
        }
        false
    }

    /// Total ghost insertions so far.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Window size in entries.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Counts live entries by scanning (test/diagnostic use only; O(slots)).
    pub fn live_entries(&self) -> usize {
        self.buckets
            .iter()
            .flat_map(|b| b.iter())
            .filter(|e| self.alive(e))
            .count()
    }
}

/// Exact, byte-bounded FIFO ghost of object ids.
///
/// Every entry is charged its object's size, so with unit-size objects a
/// ghost of capacity `n` remembers the last `n` insertions. `remove` only
/// clears the membership mark: the FIFO entry stays behind as a tombstone,
/// charged until it reaches the front.
#[derive(Debug, Default)]
pub struct GhostFifo {
    fifo: VecDeque<(u64, u32)>,
    set: IdSet,
    used: u64,
    capacity: u64,
}

impl GhostFifo {
    /// A ghost holding up to `capacity` bytes of entries.
    pub fn new(capacity: u64) -> Self {
        GhostFifo {
            capacity,
            ..GhostFifo::default()
        }
    }

    /// True when `id` is a member.
    pub fn contains(&self, id: u64) -> bool {
        self.set.contains(&id)
    }

    /// Inserts `id`, then drops oldest entries beyond capacity. An id that is
    /// already a member keeps its FIFO position (a FIFO has no promotion).
    pub fn insert(&mut self, id: u64, size: u32) {
        if self.capacity == 0 {
            return;
        }
        if self.set.insert(id) {
            self.fifo.push_back((id, size));
            self.used += u64::from(size);
        }
        self.trim_to(self.capacity);
    }

    /// Removes `id` if present (a ghost hit), leaving a tombstone.
    pub fn remove(&mut self, id: u64) -> bool {
        self.set.remove(&id)
    }

    /// Drops oldest entries until at most `cap` bytes are charged.
    pub fn trim_to(&mut self, cap: u64) {
        while self.used > cap {
            let Some((old, size)) = self.fifo.pop_front() else {
                break;
            };
            // `used` charges tombstones too, so this is unconditional.
            self.used -= u64::from(size);
            self.set.remove(&old);
        }
    }

    /// Bytes charged, tombstones included.
    pub fn used(&self) -> u64 {
        self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_charges_tombstones_until_they_age_out() {
        let mut g = GhostFifo::new(3);
        for id in 0..3 {
            g.insert(id, 1);
        }
        let members = |g: &GhostFifo| (0..4).filter(|&id| g.contains(id)).count();
        assert!(g.remove(1) && !g.contains(1));
        assert_eq!((members(&g), g.used()), (2, 3), "the tombstone is still charged");
        g.insert(3, 1); // over capacity: the oldest live entry goes, not the tombstone
        assert!(!g.contains(0) && g.contains(2) && g.contains(3));
        g.trim_to(1);
        assert_eq!((members(&g), g.used()), (1, 1));
        assert!(g.contains(3));
    }

    #[test]
    fn insert_then_contains() {
        let mut g = GhostTable::new(100);
        g.insert(42);
        assert!(g.contains(42));
        assert!(!g.contains(43));
    }

    #[test]
    fn entries_expire_after_window() {
        let mut g = GhostTable::new(10);
        g.insert(1);
        for i in 100..110 {
            g.insert(i);
        }
        // 10 insertions have happened since id 1; it is out of the window.
        assert!(!g.contains(1));
    }

    #[test]
    fn entry_alive_just_inside_window() {
        let mut g = GhostTable::new(10);
        g.insert(1);
        for i in 100..109 {
            g.insert(i);
        }
        // 9 insertions since id 1: still alive (window is 10).
        assert!(g.contains(1));
    }

    #[test]
    fn reinsert_refreshes_timestamp() {
        let mut g = GhostTable::new(10);
        g.insert(1);
        for i in 100..105 {
            g.insert(i);
        }
        g.insert(1); // refresh
        for i in 200..205 {
            g.insert(i);
        }
        assert!(g.contains(1));
    }

    #[test]
    fn remove_deletes_entry() {
        let mut g = GhostTable::new(100);
        g.insert(7);
        assert!(g.remove(7));
        assert!(!g.contains(7));
        assert!(!g.remove(7));
    }

    #[test]
    fn live_entries_bounded_by_window() {
        let mut g = GhostTable::new(64);
        for i in 0..10_000u64 {
            g.insert(i);
        }
        // At most `capacity` entries can be alive; collisions may displace
        // some early.
        assert!(g.live_entries() <= 64);
        assert!(g.live_entries() > 32, "too many live entries displaced");
    }

    #[test]
    fn most_recent_window_is_retained() {
        let mut g = GhostTable::new(1000);
        for i in 0..5000u64 {
            g.insert(i);
        }
        // The freshest 1000 ids should mostly still be found (a few may be
        // lost to bucket displacement).
        let found = (4000u64..5000).filter(|&i| g.contains(i)).count();
        assert!(found > 900, "only {found} of the freshest 1000 retained");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// An id whose last insertion lies further than `capacity`
        /// insertions in the past must read as expired (fingerprint
        /// collisions could in principle violate this, but with ≤ 512
        /// distinct 64-bit ids the probability is ~2^-40 per case).
        #[test]
        fn expiry_is_never_late(
            ids in proptest::collection::vec(0u64..512, 1..400),
            cap in 1usize..64,
        ) {
            let mut g = GhostTable::new(cap);
            let mut last_insert: std::collections::HashMap<u64, u64> =
                std::collections::HashMap::new();
            for &id in &ids {
                g.insert(id);
                last_insert.insert(id, g.insertions());
            }
            let now = g.insertions();
            for (&id, &seq) in &last_insert {
                if now - seq >= cap as u64 {
                    prop_assert!(!g.contains(id), "id {id} outlived the window");
                }
            }
        }

        /// The most recent insertion is always alive.
        #[test]
        fn freshest_entry_alive(ids in proptest::collection::vec(0u64..1000, 1..300)) {
            let mut g = GhostTable::new(32);
            for &id in &ids {
                g.insert(id);
                prop_assert!(g.contains(id), "freshly inserted {id} missing");
            }
        }
    }

    #[test]
    fn tiny_capacity_works() {
        let mut g = GhostTable::new(1);
        g.insert(1);
        assert!(g.contains(1));
        g.insert(2);
        assert!(!g.contains(1));
        assert!(g.contains(2));
    }

    /// The exact window boundary for several capacities: an entry survives
    /// `capacity - 1` subsequent insertions and dies on the `capacity`-th.
    #[test]
    fn boundary_at_exact_capacity() {
        for cap in [1usize, 2, 3, 8, 17] {
            let mut g = GhostTable::new(cap);
            g.insert(1);
            for i in 0..cap as u64 - 1 {
                g.insert(1000 + i);
                assert!(
                    g.contains(1),
                    "cap {cap}: id 1 expired after only {} subsequent inserts",
                    i + 1
                );
            }
            g.insert(2000);
            assert!(!g.contains(1), "cap {cap}: id 1 outlived the window");
        }
    }

    #[test]
    fn reinsert_after_remove_is_fresh() {
        let mut g = GhostTable::new(10);
        g.insert(5);
        assert!(g.remove(5));
        assert!(!g.contains(5));
        // Re-inserting after a remove must behave like a brand-new entry.
        g.insert(5);
        assert!(g.contains(5));
        for i in 100..109 {
            g.insert(i);
        }
        assert!(g.contains(5), "re-inserted entry expired early");
        g.insert(109);
        assert!(!g.contains(5));
        assert!(!g.remove(5), "expired entry reported removable");
    }

    /// Counter wraparound: the insertion counter is monotonic modulo 2^64
    /// with 0 reserved. Crossing the wrap must not panic (the old code's
    /// `insertions - seq` underflowed in debug builds) and must keep the
    /// window behaving.
    #[test]
    fn insertion_counter_wraparound() {
        let mut g = GhostTable::new(8);
        g.insertions = u64::MAX - 3;
        for id in 0..12u64 {
            g.insert(id);
            assert!(g.contains(id), "freshly inserted {id} missing near wrap");
        }
        // The counter skipped 0 and kept going.
        assert!(g.insertions() < 16, "counter did not wrap: {}", g.insertions());
        assert_ne!(g.insertions(), 0);
        // Entries inserted 8+ insertions ago (pre-wrap) are expired; the
        // freshest 8 are within the window.
        assert!(!g.contains(0));
        assert!(!g.contains(1));
        for id in 5..12u64 {
            assert!(g.contains(id), "id {id} should be inside the window");
        }
        // contains/remove on pre-wrap survivors and expired ids never panic.
        assert!(!g.remove(0));
        assert!(g.remove(11));
    }
}
