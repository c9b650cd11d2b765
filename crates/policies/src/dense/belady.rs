//! Belady's MIN / OPT — the offline-optimal eviction algorithm — over dense
//! slots. It evicts the resident object whose next request is furthest in
//! the future, those never requested again first, so it is built from the
//! whole trace's slots: [`DenseBelady::new`] computes, for every position,
//! when the same slot is requested next. Fig. 4 uses it to show that even the
//! optimal policy evicts mostly one-hit wonders. Each resident slot's next
//! use and id sit in arrays beside the slab, which catch up with the slab's
//! domain on insertion, so they follow both doors' growth.

use cache_types::{CacheError, Eviction, ObjId, Outcome, PolicyStats, Request};
use s3fifo::dense::{serve, DensePolicy, DenseSlab, SlabPolicy};
use std::collections::BTreeSet;

const ABSENT: u8 = 0;
const RESIDENT: u8 = 1;

/// "Never requested again."
const NEVER: u64 = u64::MAX;

/// The offline-optimal eviction policy over dense slots.
#[derive(Debug)]
pub struct DenseBelady {
    capacity: u64,
    used: u64,
    slab: DenseSlab,
    /// For request position `i`, the position of the next request to the
    /// same object (or [`NEVER`]).
    next_occurrence: Vec<u64>,
    /// Current position in the trace.
    pos: usize,
    /// The position of the next request to the current request's object.
    next: u64,
    /// Resident slots by (next use, id, slot); the last is the victim.
    /// Only objects never requested again tie, and the largest id goes
    /// first, whichever door numbered the slots.
    order: BTreeSet<(u64, ObjId, u32)>,
    /// Per slot: the next use it is ranked under.
    next_use: Vec<u64>,
    /// Per slot: the id it was admitted under, for the tie-break.
    ids: Vec<ObjId>,
    stats: PolicyStats,
}

impl DenseBelady {
    /// Creates an offline-optimal policy of `capacity` bytes for the trace
    /// whose requests name `slots` (any interning that gives each object
    /// one slot), over the dense domain `0..domain`. It must then be driven
    /// with exactly that trace, in order; requests past its end count as
    /// never requested again.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn new(capacity: u64, slots: &[u32], domain: usize) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        let mut next_occurrence = vec![NEVER; slots.len()];
        let named = slots.iter().max().map_or(0, |&s| s as usize + 1);
        let mut last_seen = vec![NEVER; named];
        for (i, &slot) in slots.iter().enumerate().rev() {
            let last = &mut last_seen[slot as usize];
            next_occurrence[i] = *last;
            *last = i as u64;
        }
        Ok(DenseBelady {
            capacity,
            used: 0,
            slab: DenseSlab::with_domain(domain),
            next_occurrence,
            pos: 0,
            next: NEVER,
            order: BTreeSet::new(),
            next_use: vec![NEVER; domain],
            ids: vec![0; domain],
            stats: PolicyStats::default(),
        })
    }

    /// `slot`'s key in the order.
    fn key(&self, slot: u32) -> (u64, ObjId, u32) {
        (self.next_use[slot as usize], self.ids[slot as usize], slot)
    }

    /// Ranks `slot` under its next use `next`, unranking it first.
    fn rank(&mut self, slot: u32, next: u64) {
        let old = self.key(slot);
        self.order.remove(&old);
        self.next_use[slot as usize] = next;
        let new = self.key(slot);
        self.order.insert(new);
    }

    fn evict_one(&mut self, evicted: &mut Vec<Eviction<u32>>) {
        if let Some((_, _, slot)) = self.order.pop_last() {
            self.slab.slots[slot as usize].tag = ABSENT;
            self.used -= u64::from(self.slab.size(slot));
            evicted.push(self.slab.eviction(slot, false));
        }
    }
}

impl SlabPolicy for DenseBelady {
    const GHOSTLESS: bool = true;

    fn with_capacity(capacity: u64) -> Result<Self, CacheError> {
        // Without a trace every request is "never requested again": the
        // keyed default evicts the largest resident id first (DESIGN.md §5b).
        Self::new(capacity, &[], 0)
    }

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
        self.order.len()
    }

    fn validate(&self) -> Result<(), String> {
        let current = |&(next, id, slot): &(u64, ObjId, u32)| {
            self.resident(slot) && self.key(slot) == (next, id, slot)
        };
        let bytes: u64 = self.order.iter().map(|&(.., s)| u64::from(self.slab.size(s))).sum();
        let tagged = self.slab.slots.iter().filter(|s| s.tag != ABSENT).count();
        if !self.order.iter().all(current) || tagged != self.order.len() || bytes != self.used {
            return Err(format!(
                "Belady: {} ranked ({bytes} bytes) but {tagged} tagged ({} bytes), or a stale rank",
                self.order.len(),
                self.used
            ));
        }
        if self.used > self.capacity {
            return Err(format!("Belady: used {} > capacity {}", self.used, self.capacity));
        }
        Ok(())
    }

    fn state(&self) -> (&DenseSlab, &PolicyStats) {
        (&self.slab, &self.stats)
    }

    fn state_mut(&mut self) -> (&mut DenseSlab, &mut PolicyStats) {
        (&mut self.slab, &mut self.stats)
    }

    fn hit(&mut self, slot: u32, _req: &Request) {
        self.slab.slots[slot as usize].touch();
        self.rank(slot, self.next);
    }

    fn remove(&mut self, slot: u32) {
        if self.resident(slot) {
            let key = self.key(slot);
            self.order.remove(&key);
            self.slab.slots[slot as usize].tag = ABSENT;
            self.used -= u64::from(self.slab.size(slot));
        }
    }

    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        while self.used + u64::from(req.size) > self.capacity && !self.order.is_empty() {
            self.evict_one(evicted);
        }
        if self.next_use.len() < self.slab.domain() {
            self.next_use.resize(self.slab.domain(), NEVER);
            self.ids.resize(self.slab.domain(), 0);
        }
        self.ids[slot as usize] = req.id;
        let s = &mut self.slab.slots[slot as usize];
        s.tag = RESIDENT;
        s.on_insert(req);
        self.used += u64::from(req.size);
        self.rank(slot, self.next);
    }

    fn step(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) -> Outcome {
        self.next = self.next_occurrence.get(self.pos).copied().unwrap_or(NEVER);
        self.pos += 1;
        serve(self, slot, req, evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::test_trace;
    use cache_types::policy::run_trace;
    use cache_types::Policy;
    use s3fifo::Keyed;

    fn keyed(capacity: u64, trace: &[Request]) -> Keyed<DenseBelady> {
        let (_, slots) = cache_ds::DenseIds::intern(trace.iter().map(|r| r.id));
        Keyed::over(DenseBelady::new(capacity, &slots, 0).unwrap())
    }

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
        let mut p = keyed(3, &reqs);
        assert_eq!(run_trace(&mut p, &reqs).misses, 9, "OPT page-fault count");
        let (ids, slots) = cache_ds::DenseIds::intern(reqs.iter().map(|r| r.id));
        let mut dense = DenseBelady::new(3, &slots, ids.len()).unwrap();
        dense.replay(&slots, &reqs, false, &mut |_, _| {});
        assert_eq!(
            DensePolicy::stats(&dense).misses,
            9,
            "the same on the pre-interned door"
        );
    }

    #[test]
    fn optimal_beats_every_online_policy() {
        let trace = test_trace(20_000, 800, 131);
        let cap = 64u64;
        let opt = run_trace(&mut keyed(cap, &trace), &trace).miss_ratio();
        for name in ["LRU", "FIFO", "ARC"] {
            let mut p = crate::registry::build(name, cap, None).unwrap();
            let mr = run_trace(p.as_mut(), &trace).miss_ratio();
            assert!(opt <= mr + 1e-12, "OPT {opt} vs {name} {mr}");
        }
    }

    #[test]
    fn never_requested_again_goes_first_largest_id_first() {
        // At capacity 2: 1 and 2 are each requested again, 3 and 4 never.
        let ids = [1u64, 2, 3, 1, 4, 2];
        let reqs: Vec<Request> = ids
            .iter()
            .enumerate()
            .map(|(t, &id)| Request::get(id, t as u64))
            .collect();
        let mut p = keyed(2, &reqs);
        let mut evicted = Vec::new();
        let mut all = Vec::new();
        for r in &reqs {
            evicted.clear();
            p.request(r, &mut evicted);
            all.extend(evicted.iter().map(|e| e.id));
        }
        // 3's insert evicts 2 (next use 5, after 1's at 3). By 4's insert 1
        // has had its last request too, so 3 goes as the larger of two ids
        // never requested again, and 2's insert evicts 4 over 1 likewise.
        assert_eq!(all, [2, 3, 4]);
        assert_eq!(p.stats().misses, 5);
    }

    #[test]
    fn capacity_bounded() {
        let trace = test_trace(10_000, 500, 137);
        let mut p = keyed(32, &trace);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.used() <= 32);
            p.validate().unwrap();
        }
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(DenseBelady::new(0, &[], 0).is_err());
    }
}
