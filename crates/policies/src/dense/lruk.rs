//! LRU-K (O'Neil, O'Neil & Weikum, SIGMOD '93), K = 2, over dense slots.
//!
//! LRU-K evicts the page whose K-th most recent reference is oldest
//! (maximum *backward K-distance*). Pages with fewer than K references have
//! infinite distance and are evicted first, ordered by their last access.
//! For K = 2 this means: cold pages (one access) form an LRU-ordered pool
//! that empties before any page with two or more accesses is considered, and
//! warm pages are ranked by their penultimate access time.
//!
//! Slot-state conventions: `tag` is `COLD` (on the cold queue) or `WARM` (in
//! the ordered warm set); 0 = absent. A page's last two access times and its
//! id live in arrays beside the slab, which catch up with the slab's domain
//! on insertion, so they follow both doors' growth.

use cache_types::{CacheError, Eviction, ObjId, PolicyStats, Request};
use s3fifo::dense::{DenseSlab, Keyed, PackedQueue, SlabPolicy};
use std::collections::BTreeSet;

const ABSENT: u8 = 0;
const COLD: u8 = 1;
const WARM: u8 = 2;

/// The LRU-2 eviction algorithm over dense slots.
#[derive(Debug)]
pub struct DenseLruK {
    capacity: u64,
    used: u64,
    slab: DenseSlab,
    /// Cold pages; head = most recent single access, tail = evict first.
    cold: PackedQueue,
    /// Warm pages keyed by (penultimate access, id, slot); the minimum is the
    /// maximum backward-2-distance, i.e. the eviction candidate. Ties go to
    /// the smaller id, whichever door numbered the slots.
    warm: BTreeSet<(u64, ObjId, u32)>,
    /// Per slot: (last access, penultimate access).
    times: Vec<(u64, u64)>,
    /// Per slot: the id it was admitted under, for the tie-break.
    ids: Vec<ObjId>,
    stats: PolicyStats,
}

impl DenseLruK {
    /// Creates an LRU-2 cache of `capacity` bytes over the dense domain
    /// `0..domain`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn with_domain(capacity: u64, domain: usize) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        Ok(DenseLruK {
            capacity,
            used: 0,
            slab: DenseSlab::with_domain(domain),
            cold: PackedQueue::new(),
            warm: BTreeSet::new(),
            times: vec![(0, 0); domain],
            ids: vec![0; domain],
            stats: PolicyStats::default(),
        })
    }

    /// `slot`'s key in the warm set.
    fn warm_key(&self, slot: u32) -> (u64, ObjId, u32) {
        (self.times[slot as usize].1, self.ids[slot as usize], slot)
    }

    fn evict_one(&mut self, evicted: &mut Vec<Eviction<u32>>) {
        // Cold pages (infinite backward-2-distance) go first, then the warm
        // page with the oldest penultimate access.
        let (slot, cold) = if let Some(s) = self.cold.pop_back(&mut self.slab.slots) {
            (s, true)
        } else if let Some((_, _, s)) = self.warm.pop_first() {
            (s, false)
        } else {
            return;
        };
        self.slab.slots[slot as usize].tag = ABSENT;
        self.used -= u64::from(self.slab.size(slot));
        evicted.push(self.slab.eviction(slot, cold));
    }
}

impl SlabPolicy for DenseLruK {
    const GHOSTLESS: bool = true;

    fn with_capacity(capacity: u64) -> Result<Self, CacheError> {
        Self::with_domain(capacity, 0)
    }

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
        self.cold.len() as usize + self.warm.len()
    }

    fn validate(&self) -> Result<(), String> {
        if self.used > self.capacity {
            return Err(format!("LRU-2: used {} > capacity {}", self.used, self.capacity));
        }
        let mut bytes = 0u64;
        let mut cold = 0u32;
        for slot in self.cold.iter(&self.slab.slots) {
            let tag = self.slab.slots[slot as usize].tag;
            if tag != COLD {
                return Err(format!("LRU-2: cold queue holds slot {slot}, tagged {tag}"));
            }
            bytes += u64::from(self.slab.size(slot));
            cold += 1;
        }
        if cold != self.cold.len() {
            return Err(format!(
                "LRU-2: cold links walk {cold} slots but len says {}",
                self.cold.len()
            ));
        }
        for &(penult, id, slot) in &self.warm {
            if self.slab.slots[slot as usize].tag != WARM
                || self.warm_key(slot) != (penult, id, slot)
            {
                return Err(format!("LRU-2: warm entry ({penult}, {id}) of slot {slot} is stale"));
            }
            bytes += u64::from(self.slab.size(slot));
        }
        let tagged = self.slab.slots.iter().filter(|s| s.tag != ABSENT).count();
        if tagged != self.len() {
            return Err(format!(
                "LRU-2: {tagged} slots carry a residency tag but {} are ranked",
                self.len()
            ));
        }
        if bytes != self.used {
            return Err(format!("LRU-2: ranked bytes {bytes} != accounted {}", self.used));
        }
        Ok(())
    }

    fn state(&self) -> (&DenseSlab, &PolicyStats) {
        (&self.slab, &self.stats)
    }

    fn state_mut(&mut self) -> (&mut DenseSlab, &mut PolicyStats) {
        (&mut self.slab, &mut self.stats)
    }

    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        while self.used + u64::from(req.size) > self.capacity && self.len() > 0 {
            self.evict_one(evicted);
        }
        if self.times.len() < self.slab.domain() {
            // `Keyed` grows the slab a slot at a time, and a stream grows it
            // by chunks: the access times follow.
            self.times.resize(self.slab.domain(), (0, 0));
            self.ids.resize(self.slab.domain(), 0);
        }
        self.times[slot as usize].0 = req.time;
        self.ids[slot as usize] = req.id;
        self.cold.push_front(&mut self.slab.slots, slot);
        let s = &mut self.slab.slots[slot as usize];
        s.tag = COLD;
        s.on_insert(req);
        self.used += u64::from(req.size);
    }

    fn hit(&mut self, slot: u32, req: &Request) {
        self.slab.slots[slot as usize].touch();
        if self.slab.slots[slot as usize].tag == COLD {
            // Second access: the page becomes warm with penultimate = its
            // first access.
            self.cold.remove(&mut self.slab.slots, slot);
            self.slab.slots[slot as usize].tag = WARM;
        } else {
            let key = self.warm_key(slot);
            self.warm.remove(&key);
        }
        let t = &mut self.times[slot as usize];
        *t = (req.time, t.0);
        let key = self.warm_key(slot);
        self.warm.insert(key);
    }

    fn remove(&mut self, slot: u32) {
        match self.slab.slots[slot as usize].tag {
            COLD => self.cold.remove(&mut self.slab.slots, slot),
            WARM => {
                let key = self.warm_key(slot);
                self.warm.remove(&key);
            }
            _ => return,
        }
        self.slab.slots[slot as usize].tag = ABSENT;
        self.used -= u64::from(self.slab.size(slot));
    }

    #[inline]
    fn warm(&self, _slot: u32) {
        if let Some(tail) = self.cold.tail() {
            self.slab.warm_slot(tail);
        }
    }
}

/// LRU-2 keyed by object id.
pub type LruK = Keyed<DenseLruK>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{check_policy_basics, miss_ratio_of, test_trace};
    use cache_types::Policy;

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
