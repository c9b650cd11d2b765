//! ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST '03).
//!
//! Four LRU lists: `T1` (recency) and `T2` (frequency) hold data; `B1` and
//! `B2` are their ghost extensions. A hit in `B1` grows the recency target
//! `p`, a hit in `B2` shrinks it; `REPLACE` evicts from `T1` when it exceeds
//! `p`, else from `T2`. §6.1 analyzes how ARC's adaptation can pick an `S`
//! (here `T1`) that is too small or too large.
//!
//! The classic algorithm is stated in object counts; this implementation
//! generalizes to byte-weighted capacities (object counts are the special
//! case where every size is 1).

use crate::util::Meta;
use cache_ds::{DList, GhostFifo, Handle, IdMap};
use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    T1,
    T2,
}

struct Entry {
    handle: Handle,
    loc: Loc,
    meta: Meta,
}

/// The ARC eviction algorithm.
pub struct Arc {
    capacity: u64,
    /// Target size (bytes) of T1, adapted online.
    p: u64,
    t1: DList<ObjId>,
    t2: DList<ObjId>,
    b1: GhostFifo,
    b2: GhostFifo,
    t1_used: u64,
    t2_used: u64,
    table: IdMap<Entry>,
    stats: PolicyStats,
}

impl Arc {
    /// Creates an ARC cache of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn new(capacity: u64) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        Ok(Arc {
            capacity,
            p: 0,
            t1: DList::new(),
            t2: DList::new(),
            // Each ghost holds up to c bytes of entries; combined directory
            // is bounded by 2c as in the paper.
            b1: GhostFifo::new(capacity),
            b2: GhostFifo::new(capacity),
            t1_used: 0,
            t2_used: 0,
            table: IdMap::default(),
            stats: PolicyStats::default(),
        })
    }

    /// Current recency target `p` (exposed for the Fig. 10 analysis of how
    /// ARC sizes its probationary region).
    pub fn p(&self) -> u64 {
        self.p
    }

    /// Bytes currently in the recency list T1.
    pub fn t1_used(&self) -> u64 {
        self.t1_used
    }

    fn used_total(&self) -> u64 {
        self.t1_used + self.t2_used
    }

    /// The REPLACE subroutine: evict from T1 if it exceeds the target `p`
    /// (or equals it while the request hits in B2), else from T2.
    fn replace(&mut self, in_b2: bool, evicted: &mut Vec<Eviction>) {
        let from_t1 = self.t1_used > 0
            && (self.t1_used > self.p || (in_b2 && self.t1_used == self.p) || self.t2.is_empty());
        if from_t1 {
            if let Some(id) = self.t1.pop_back() {
                // Invariant: ids on t1/t2 are always tabled.
                let entry = self.table.remove(&id).expect("t1 id in table");
                self.t1_used -= u64::from(entry.meta.size);
                self.b1.insert(id, entry.meta.size);
                self.stats.evictions += 1;
                evicted.push(entry.meta.eviction(id, true));
            }
        } else if let Some(id) = self.t2.pop_back() {
            // Invariant: ids on t1/t2 are always tabled.
            let entry = self.table.remove(&id).expect("t2 id in table");
            self.t2_used -= u64::from(entry.meta.size);
            self.b2.insert(id, entry.meta.size);
            self.stats.evictions += 1;
            evicted.push(entry.meta.eviction(id, false));
        }
    }

    fn on_hit(&mut self, id: ObjId, now: u64) {
        let (loc, size, handle) = {
            // Invariant: on_hit fires only after a successful lookup.
            let e = self.table.get_mut(&id).expect("hit entry exists");
            e.meta.touch(now);
            (e.loc, e.meta.size, e.handle)
        };
        match loc {
            Loc::T1 => {
                // Promote to the frequency list.
                self.t1.remove(handle);
                self.t1_used -= u64::from(size);
                let h = self.t2.push_front(id);
                self.t2_used += u64::from(size);
                // Invariant: still tabled — only the queue handle changed.
                let e = self.table.get_mut(&id).expect("entry exists");
                e.loc = Loc::T2;
                e.handle = h;
            }
            Loc::T2 => {
                self.t2.move_to_front(handle);
            }
        }
    }

    fn miss_insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        let size = u64::from(req.size);
        let c = self.capacity;
        let in_b1 = self.b1.contains(req.id);
        let in_b2 = self.b2.contains(req.id);

        if in_b1 {
            // Recency ghost hit: grow p.
            let delta = (self.b2.used() / self.b1.used().max(1)).max(1) * size;
            self.p = (self.p + delta).min(c);
            self.b1.remove(req.id);
        } else if in_b2 {
            // Frequency ghost hit: shrink p.
            let delta = (self.b1.used() / self.b2.used().max(1)).max(1) * size;
            self.p = self.p.saturating_sub(delta);
            self.b2.remove(req.id);
        } else {
            // Case IV of the paper: bound the directory.
            if self.t1_used + self.b1.used() >= c {
                if self.t1_used < c {
                    self.b1.trim_to(c.saturating_sub(self.t1_used + size));
                }
            } else if self.used_total() + self.b1.used() + self.b2.used() >= 2 * c {
                self.b2
                    .trim_to((2 * c).saturating_sub(self.used_total() + self.b1.used() + size));
            }
        }

        while self.used_total() + size > c && !self.table.is_empty() {
            self.replace(in_b2, evicted);
        }

        // Ghost hits resurrect into T2; brand-new objects go to T1.
        let (handle, loc) = if in_b1 || in_b2 {
            self.t2_used += size;
            (self.t2.push_front(req.id), Loc::T2)
        } else {
            self.t1_used += size;
            (self.t1.push_front(req.id), Loc::T1)
        };
        self.table.insert(
            req.id,
            Entry {
                handle,
                loc,
                meta: Meta::new(req.size, req.time),
            },
        );
    }

    fn delete(&mut self, id: ObjId) {
        if let Some(e) = self.table.remove(&id) {
            match e.loc {
                Loc::T1 => {
                    self.t1.remove(e.handle);
                    self.t1_used -= u64::from(e.meta.size);
                }
                Loc::T2 => {
                    self.t2.remove(e.handle);
                    self.t2_used -= u64::from(e.meta.size);
                }
            }
        }
    }
}

impl Policy for Arc {
    fn name(&self) -> String {
        "ARC".into()
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used_total()
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
                    self.miss_insert(req, evicted);
                    Outcome::Miss
                }
            }
            Op::Set => {
                self.delete(req.id);
                if u64::from(req.size) <= self.capacity {
                    self.miss_insert(req, evicted);
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
    fn hit_in_t1_promotes_to_t2() {
        let mut p = Arc::new(10).unwrap();
        let mut evs = Vec::new();
        p.request(&Request::get(1, 0), &mut evs);
        assert_eq!(p.table[&1].loc, Loc::T1);
        p.request(&Request::get(1, 1), &mut evs);
        assert_eq!(p.table[&1].loc, Loc::T2);
    }

    #[test]
    fn b1_hit_grows_p() {
        let mut p = Arc::new(10).unwrap();
        let mut evs = Vec::new();
        // Fill T1 and push some ids into B1.
        for id in 0..20u64 {
            p.request(&Request::get(id, id), &mut evs);
        }
        let p_before = p.p();
        let ghosted = (0..20u64).rev().find(|&id| !p.contains(id)).unwrap();
        evs.clear();
        p.request(&Request::get(ghosted, 100), &mut evs);
        assert!(p.p() > p_before, "B1 hit must grow p");
        assert_eq!(p.table[&ghosted].loc, Loc::T2);
    }

    #[test]
    fn b2_hit_shrinks_p() {
        let mut p = Arc::new(8).unwrap();
        let mut evs = Vec::new();
        let mut t = 0u64;
        // Build T2 contents then displace them into B2.
        for id in 0..8u64 {
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
        }
        // Force T2 evictions by inserting new objects (p stays small).
        for id in 100..120u64 {
            evs.clear();
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
        }
        // Grow p artificially via a B1 hit, then hit B2 and check shrink.
        let b1_id = (100..120u64).rev().find(|&id| !p.contains(id)).unwrap();
        evs.clear();
        p.request(&Request::get(b1_id, t), &mut evs);
        t += 1;
        let p_mid = p.p();
        let b2_id = (0..8u64).find(|&id| !p.contains(id) && p.b2.contains(id));
        if let Some(b2_id) = b2_id {
            evs.clear();
            p.request(&Request::get(b2_id, t), &mut evs);
            assert!(p.p() <= p_mid, "B2 hit must not grow p");
        }
    }

    #[test]
    fn scan_does_not_flush_t2() {
        let mut p = Arc::new(20).unwrap();
        let mut evs = Vec::new();
        let mut t = 0u64;
        // Hot set in T2.
        for id in 0..8u64 {
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
        }
        // Scan.
        for id in 1000..1200u64 {
            evs.clear();
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
        }
        let survivors = (0..8u64).filter(|&id| p.contains(id)).count();
        assert!(survivors >= 6, "scan flushed T2: {survivors}/8 left");
    }

    #[test]
    fn better_than_lru_on_mixed_workload() {
        // Zipf core plus scans: ARC should beat plain LRU.
        let mut trace = test_trace(20_000, 1500, 17);
        let base = trace.len() as u64;
        for i in 0..5000u64 {
            trace.push(Request::get(1_000_000 + i, base + i));
        }
        let mut arc = Arc::new(64).unwrap();
        let mut lru = crate::Lru::new(64).unwrap();
        let mr_arc = miss_ratio_of(&mut arc, &trace);
        let mr_lru = miss_ratio_of(&mut lru, &trace);
        assert!(
            mr_arc <= mr_lru + 0.005,
            "ARC {mr_arc:.4} vs LRU {mr_lru:.4}"
        );
    }

    #[test]
    fn p_stays_bounded() {
        let mut p = Arc::new(50).unwrap();
        let trace = test_trace(20_000, 500, 23);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.p() <= 50);
            assert!(p.used() <= 50);
        }
    }

    #[test]
    fn basics() {
        let mut p = Arc::new(100).unwrap();
        check_policy_basics(&mut p, 100);
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(Arc::new(0).is_err());
    }
}
