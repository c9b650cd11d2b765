//! LRU-K (O'Neil, O'Neil & Weikum, SIGMOD '93), K = 2.
//!
//! LRU-K evicts the page whose K-th most recent reference is oldest
//! (maximum *backward K-distance*). Pages with fewer than K references have
//! infinite distance and are evicted first, ordered by their last access.
//! For K = 2 this means: cold pages (one access) form an LRU-ordered pool
//! that empties before any page with two or more accesses is considered, and
//! warm pages are ranked by their penultimate access time.

use crate::util::Meta;
use cache_ds::{DList, Handle, IdMap};
use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};
use std::collections::BTreeSet;

enum Rank {
    /// Fewer than K accesses: position in the cold LRU list.
    Cold(Handle),
    /// K or more accesses: ordered by penultimate access time.
    Warm(u64),
}

struct Entry {
    rank: Rank,
    /// Time of the most recent access (becomes the penultimate on the next
    /// access).
    last: u64,
    meta: Meta,
}

/// The LRU-2 eviction algorithm.
pub struct LruK {
    capacity: u64,
    used: u64,
    table: IdMap<Entry>,
    /// Cold pages; head = most recent single access, tail = evict first.
    cold: DList<ObjId>,
    /// Warm pages keyed by (penultimate access, id); the minimum is the
    /// maximum backward-2-distance, i.e. the eviction candidate.
    warm: BTreeSet<(u64, ObjId)>,
    stats: PolicyStats,
}

impl LruK {
    /// Creates an LRU-2 cache of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn new(capacity: u64) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        Ok(LruK {
            capacity,
            used: 0,
            table: IdMap::default(),
            cold: DList::new(),
            warm: BTreeSet::new(),
            stats: PolicyStats::default(),
        })
    }

    fn evict_one(&mut self, evicted: &mut Vec<Eviction>) {
        // Cold pages (infinite backward-2-distance) go first.
        if let Some(id) = self.cold.pop_back() {
            let entry = self.table.remove(&id).expect("cold id in table");
            self.used -= u64::from(entry.meta.size);
            self.stats.evictions += 1;
            evicted.push(entry.meta.eviction(id, true));
            return;
        }
        // Then the warm page with the oldest penultimate access.
        if let Some(&(penult, id)) = self.warm.iter().next() {
            self.warm.remove(&(penult, id));
            let entry = self.table.remove(&id).expect("warm id in table");
            self.used -= u64::from(entry.meta.size);
            self.stats.evictions += 1;
            evicted.push(entry.meta.eviction(id, false));
        }
    }

    fn insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        while self.used + u64::from(req.size) > self.capacity && !self.table.is_empty() {
            self.evict_one(evicted);
        }
        let handle = self.cold.push_front(req.id);
        self.table.insert(
            req.id,
            Entry {
                rank: Rank::Cold(handle),
                last: req.time,
                meta: Meta::new(req.size, req.time),
            },
        );
        self.used += u64::from(req.size);
    }

    fn on_hit(&mut self, id: ObjId, now: u64) {
        // Invariant: on_hit fires only after a successful lookup.
        let entry = self.table.get_mut(&id).expect("hit id in table");
        entry.meta.touch(now);
        let penult = entry.last;
        entry.last = now;
        match entry.rank {
            Rank::Cold(h) => {
                // Second access: the page becomes warm with penultimate =
                // its first access.
                self.cold.remove(h);
                entry.rank = Rank::Warm(penult);
                self.warm.insert((penult, id));
            }
            Rank::Warm(old_penult) => {
                self.warm.remove(&(old_penult, id));
                entry.rank = Rank::Warm(penult);
                self.warm.insert((penult, id));
            }
        }
    }

    fn delete(&mut self, id: ObjId) {
        if let Some(e) = self.table.remove(&id) {
            match e.rank {
                Rank::Cold(h) => {
                    self.cold.remove(h);
                }
                Rank::Warm(p) => {
                    self.warm.remove(&(p, id));
                }
            }
            self.used -= u64::from(e.meta.size);
        }
    }
}

impl Policy for LruK {
    fn name(&self) -> String {
        "LRU-2".into()
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn contains(&self, id: ObjId) -> bool {
        self.table.contains_key(&id)
    }

    fn request(&mut self, req: &Request, evicted: &mut Vec<Eviction>) -> Outcome {
        match req.op {
            Op::Get => {
                if self.table.contains_key(&req.id) {
                    self.on_hit(req.id, req.time);
                    self.stats.record_get(req.size, false);
                    Outcome::Hit
                } else if u64::from(req.size) > self.capacity {
                    self.stats.record_get(req.size, true);
                    Outcome::Uncacheable
                } else {
                    self.stats.record_get(req.size, true);
                    self.insert(req, evicted);
                    Outcome::Miss
                }
            }
            Op::Set => {
                self.delete(req.id);
                if u64::from(req.size) <= self.capacity {
                    self.insert(req, evicted);
                }
                Outcome::NotRead
            }
            Op::Delete => {
                self.delete(req.id);
                Outcome::NotRead
            }
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{check_policy_basics, miss_ratio_of, test_trace};

    #[test]
    fn cold_pages_evicted_before_warm() {
        let mut p = LruK::new(3).unwrap();
        let mut evs = Vec::new();
        p.request(&Request::get(1, 0), &mut evs);
        p.request(&Request::get(1, 1), &mut evs); // 1 is warm
        p.request(&Request::get(2, 2), &mut evs);
        p.request(&Request::get(3, 3), &mut evs);
        evs.clear();
        p.request(&Request::get(4, 4), &mut evs);
        // 2 is the oldest cold page.
        assert_eq!(evs[0].id, 2);
        assert!(p.contains(1), "warm page must outlive cold pages");
    }

    #[test]
    fn warm_eviction_by_penultimate_access() {
        let mut p = LruK::new(2).unwrap();
        let mut evs = Vec::new();
        // Page 1: accesses at t=0 and t=10 → penult 0.
        // Page 2: accesses at t=1 and t=2 → penult 1.
        p.request(&Request::get(1, 0), &mut evs);
        p.request(&Request::get(2, 1), &mut evs);
        p.request(&Request::get(2, 2), &mut evs);
        p.request(&Request::get(1, 10), &mut evs);
        evs.clear();
        p.request(&Request::get(3, 11), &mut evs);
        // Despite page 1 being more *recent*, its penultimate access (0) is
        // older than page 2's (1): LRU-2 evicts page 1.
        assert_eq!(evs[0].id, 1);
        assert!(p.contains(2));
    }

    #[test]
    fn scan_resistant() {
        let mut p = LruK::new(20).unwrap();
        let mut evs = Vec::new();
        let mut t = 0u64;
        for id in 0..10u64 {
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
        }
        for id in 1000..1200u64 {
            evs.clear();
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
        }
        let survivors = (0..10u64).filter(|&id| p.contains(id)).count();
        assert!(survivors >= 8, "warm set flushed by scan: {survivors}/10");
    }

    #[test]
    fn beats_fifo_on_skew() {
        let trace = test_trace(30_000, 2000, 51);
        let mut k = LruK::new(64).unwrap();
        let mut f = crate::Fifo::new(64).unwrap();
        assert!(miss_ratio_of(&mut k, &trace) < miss_ratio_of(&mut f, &trace));
    }

    #[test]
    fn basics() {
        let mut p = LruK::new(100).unwrap();
        check_policy_basics(&mut p, 100);
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(LruK::new(0).is_err());
    }
}
