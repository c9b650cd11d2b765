//! Belady's MIN / OPT — the offline-optimal eviction algorithm.
//!
//! Belady evicts the cached object whose next request is furthest in the
//! future (objects never requested again are evicted first). It needs the
//! whole trace up front, so [`Belady::new`] takes the request sequence and
//! precomputes, for every position, when the same object is requested next.
//! Fig. 4 uses Belady to show that even the optimal policy evicts mostly
//! one-hit wonders.

use cache_ds::IdMap;
use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};
use std::collections::BTreeSet;

/// "Never requested again."
const INFINITY: u64 = u64::MAX;

struct Entry {
    next_use: u64,
    size: u32,
    insert_time: u64,
    /// Accesses after insertion.
    hits: u32,
}

/// The offline-optimal eviction policy.
pub struct Belady {
    capacity: u64,
    used: u64,
    /// For request position `i`, the position of the next request to the
    /// same object (or [`INFINITY`]).
    next_occurrence: Vec<u64>,
    /// Current position in the trace.
    pos: usize,
    table: IdMap<Entry>,
    /// Cached objects ordered by next use; the maximum is the victim.
    order: BTreeSet<(u64, ObjId)>,
    stats: PolicyStats,
}

impl Belady {
    /// Creates an offline-optimal policy for the given trace.
    ///
    /// The policy must then be driven with exactly that trace, in order.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn new(capacity: u64, trace: &[Request]) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        let mut next_occurrence = vec![INFINITY; trace.len()];
        let mut last_seen: IdMap<u64> = IdMap::default();
        for (i, r) in trace.iter().enumerate().rev() {
            if let Some(&later) = last_seen.get(&r.id) {
                next_occurrence[i] = later;
            }
            last_seen.insert(r.id, i as u64);
        }
        Ok(Belady {
            capacity,
            used: 0,
            next_occurrence,
            pos: 0,
            table: IdMap::default(),
            order: BTreeSet::new(),
            stats: PolicyStats::default(),
        })
    }

    fn evict_one(&mut self, evicted: &mut Vec<Eviction>) {
        if let Some(&(next, id)) = self.order.iter().next_back() {
            self.order.remove(&(next, id));
            // Invariant: the order set and the table index the same ids.
            let entry = self.table.remove(&id).expect("ordered id in table");
            self.used -= u64::from(entry.size);
            self.stats.evictions += 1;
            evicted.push(Eviction {
                id,
                size: entry.size,
                insert_time: entry.insert_time,
                freq: entry.hits,
                from_probationary: false,
            });
        }
    }

    fn delete(&mut self, id: ObjId) {
        if let Some(e) = self.table.remove(&id) {
            self.order.remove(&(e.next_use, id));
            self.used -= u64::from(e.size);
        }
    }

    /// Admits `req`'s object, whose next request is at `next`, evicting
    /// what must go to make room.
    fn insert(&mut self, req: &Request, next: u64, evicted: &mut Vec<Eviction>) {
        while self.used + u64::from(req.size) > self.capacity && !self.table.is_empty() {
            self.evict_one(evicted);
        }
        let entry = Entry {
            next_use: next,
            size: req.size,
            insert_time: req.time,
            hits: 0,
        };
        self.table.insert(req.id, entry);
        self.order.insert((next, req.id));
        self.used += u64::from(req.size);
    }
}

impl Policy for Belady {
    fn name(&self) -> String {
        "Belady".into()
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
        // Positions beyond the precomputed trace (e.g. ad-hoc probes in
        // tests) are treated as never-requested-again.
        let next = self
            .next_occurrence
            .get(self.pos)
            .copied()
            .unwrap_or(INFINITY);
        self.pos += 1;
        match req.op {
            Op::Get => {
                if self.table.contains_key(&req.id) {
                    // Invariant: contains_key just succeeded.
                    let e = self.table.get_mut(&req.id).expect("entry exists");
                    e.hits += 1;
                    let old = e.next_use;
                    e.next_use = next;
                    self.order.remove(&(old, req.id));
                    self.order.insert((next, req.id));
                    self.stats.record_get(req.size, false);
                    Outcome::Hit
                } else if u64::from(req.size) > self.capacity {
                    self.stats.record_get(req.size, true);
                    Outcome::Uncacheable
                } else {
                    self.stats.record_get(req.size, true);
                    self.insert(req, next, evicted);
                    Outcome::Miss
                }
            }
            Op::Set => {
                self.delete(req.id);
                if u64::from(req.size) <= self.capacity {
                    self.insert(req, next, evicted);
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
    use crate::util::{miss_ratio_of, test_trace};
    use cache_types::policy::run_trace;

    #[test]
    fn textbook_example() {
        // The textbook OPT example (Silberschatz et al.): 3 frames, the
        // 20-reference string below incurs exactly 9 page faults.
        let ids = [
            7u64, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1,
        ];
        let reqs: Vec<Request> = ids
            .iter()
            .enumerate()
            .map(|(t, &id)| Request::get(id, t as u64))
            .collect();
        let mut p = Belady::new(3, &reqs).unwrap();
        let s = run_trace(&mut p, &reqs);
        assert_eq!(s.misses, 9, "OPT page-fault count on the textbook string");
    }

    #[test]
    fn optimal_beats_every_online_policy() {
        let trace = test_trace(20_000, 800, 131);
        let cap = 64u64;
        let mut opt = Belady::new(cap, &trace).unwrap();
        let mr_opt = miss_ratio_of(&mut opt, &trace);
        let mut lru = crate::Lru::new(cap).unwrap();
        let mr_lru = miss_ratio_of(&mut lru, &trace);
        let mut fifo = crate::Fifo::new(cap).unwrap();
        let mr_fifo = miss_ratio_of(&mut fifo, &trace);
        let mut arc = crate::Arc::new(cap).unwrap();
        let mr_arc = miss_ratio_of(&mut arc, &trace);
        assert!(mr_opt <= mr_lru + 1e-12, "OPT {mr_opt} vs LRU {mr_lru}");
        assert!(mr_opt <= mr_fifo + 1e-12, "OPT {mr_opt} vs FIFO {mr_fifo}");
        assert!(mr_opt <= mr_arc + 1e-12, "OPT {mr_opt} vs ARC {mr_arc}");
    }

    #[test]
    fn evicts_never_used_again_first() {
        let ids = [1u64, 2, 3, 1, 2, 4, 1, 2];
        let reqs: Vec<Request> = ids
            .iter()
            .enumerate()
            .map(|(t, &id)| Request::get(id, t as u64))
            .collect();
        let mut p = Belady::new(2, &reqs).unwrap();
        let mut evs = Vec::new();
        for r in &reqs[..3] {
            evs.clear();
            p.request(r, &mut evs);
        }
        // At the insert of 3, the cache held {1, 2}; 3 itself is never used
        // again while 1 and 2 are, so 3's insert should have evicted the one
        // with the furthest next use... and 3 becomes the next victim.
        evs.clear();
        p.request(&reqs[3], &mut evs); // request 1
        p.request(&reqs[4], &mut evs); // request 2
                                       // 3 must be gone by now if any eviction happened; at minimum OPT
                                       // keeps 1 and 2 for their upcoming requests.
        assert!(p.stats().misses <= 4);
    }

    #[test]
    fn capacity_bounded() {
        let trace = test_trace(10_000, 500, 137);
        let mut p = Belady::new(32, &trace).unwrap();
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.used() <= 32);
        }
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(Belady::new(0, &[]).is_err());
    }
}
