//! ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST '03), over dense
//! slots.
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
//!
//! Slot-state conventions: `tag` is `T1` or `T2` (0 = absent). `B1` and `B2`
//! are [`SlotGhost`]s.

use cache_types::{CacheError, Eviction, PolicyStats, Request};
use s3fifo::dense::{rule, validate_queues, DenseSlab, Keyed, Queue, SlabPolicy, SlotGhost};

const T1: u8 = 1;
const T2: u8 = 2;

/// The ARC eviction algorithm over dense slots.
#[derive(Debug)]
pub struct DenseArc {
    capacity: u64,
    /// Target size (bytes) of T1, adapted online.
    p: u64,
    slab: DenseSlab,
    t1: Queue<rule::Lru>,
    t2: Queue<rule::Lru>,
    b1: SlotGhost,
    b2: SlotGhost,
    stats: PolicyStats,
}

impl DenseArc {
    /// Creates an ARC cache of `capacity` bytes over the dense domain
    /// `0..domain`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn with_domain(capacity: u64, domain: usize) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        Ok(DenseArc {
            capacity,
            p: 0,
            slab: DenseSlab::with_domain(domain),
            t1: Queue::new(T1),
            t2: Queue::new(T2),
            // Each ghost holds up to c bytes of entries; combined directory
            // is bounded by 2c as in the paper.
            b1: SlotGhost::new(domain, capacity),
            b2: SlotGhost::new(domain, capacity),
            stats: PolicyStats::default(),
        })
    }

    /// Current recency target `p` (exposed for the Fig. 10 analysis of how
    /// ARC sizes its probationary region).
    pub fn p(&self) -> u64 {
        self.p
    }

    fn used_total(&self) -> u64 {
        self.t1.bytes() + self.t2.bytes()
    }

    /// The REPLACE subroutine: evict from T1 into B1 if T1 exceeds the target
    /// `p` (or equals it while the request hits in B2), else from T2 into B2.
    fn replace(&mut self, in_b2: bool, evicted: &mut Vec<Eviction<u32>>) {
        let t1 = self.t1.bytes();
        let from_t1 = t1 > 0 && (t1 > self.p || (in_b2 && t1 == self.p) || self.t2.is_empty());
        let (queue, ghost) = if from_t1 {
            (&mut self.t1, &mut self.b1)
        } else {
            (&mut self.t2, &mut self.b2)
        };
        if let Some(s) = queue.evict(&mut self.slab) {
            ghost.insert(s, self.slab.size(s));
            evicted.push(self.slab.eviction(s, from_t1));
        }
    }
}

impl SlabPolicy for DenseArc {
    fn with_capacity(capacity: u64) -> Result<Self, CacheError> {
        Self::with_domain(capacity, 0)
    }

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
        (self.t1.len() + self.t2.len()) as usize
    }

    fn validate(&self) -> Result<(), String> {
        validate_queues("ARC", self.capacity, &self.slab, &[&self.t1, &self.t2])?;
        if self.p > self.capacity {
            return Err(format!("ARC: p {} > capacity {}", self.p, self.capacity));
        }
        self.b1.validate().map_err(|e| format!("ARC B1: {e}"))?;
        self.b2.validate().map_err(|e| format!("ARC B2: {e}"))
    }

    fn state(&self) -> (&DenseSlab, &PolicyStats) {
        (&self.slab, &self.stats)
    }

    fn state_mut(&mut self) -> (&mut DenseSlab, &mut PolicyStats) {
        (&mut self.slab, &mut self.stats)
    }

    fn hit(&mut self, slot: u32, _req: &Request) {
        self.slab.slots[slot as usize].touch();
        if self.slab.slots[slot as usize].tag == T2 {
            self.t2.hit(&mut self.slab, slot);
            return;
        }
        // Promote to the frequency list.
        self.t1.remove(&mut self.slab, slot);
        self.t2.push(&mut self.slab, slot);
    }

    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        let size = u64::from(req.size);
        let c = self.capacity;
        let in_b1 = self.b1.contains(slot);
        let in_b2 = self.b2.contains(slot);
        if in_b1 {
            // Recency ghost hit: grow p.
            let delta = (self.b2.used() / self.b1.used().max(1)).max(1) * size;
            self.p = (self.p + delta).min(c);
            self.b1.remove(slot);
        } else if in_b2 {
            // Frequency ghost hit: shrink p.
            let delta = (self.b1.used() / self.b2.used().max(1)).max(1) * size;
            self.p = self.p.saturating_sub(delta);
            self.b2.remove(slot);
        } else if self.t1.bytes() + self.b1.used() >= c {
            // Case IV of the paper: bound the directory.
            if self.t1.bytes() < c {
                let keep = c.saturating_sub(self.t1.bytes() + size);
                self.b1.trim_to(keep);
            }
        } else if self.used_total() + self.b1.used() + self.b2.used() >= 2 * c {
            let keep = (2 * c).saturating_sub(self.used_total() + self.b1.used() + size);
            self.b2.trim_to(keep);
        }

        while self.used_total() + size > c && !(self.t1.is_empty() && self.t2.is_empty()) {
            self.replace(in_b2, evicted);
        }

        // Ghost hits resurrect into T2; brand-new objects go to T1.
        self.slab.slots[slot as usize].on_insert(req);
        if in_b1 || in_b2 {
            self.t2.push(&mut self.slab, slot);
        } else {
            self.t1.push(&mut self.slab, slot);
        }
    }

    fn remove(&mut self, slot: u32) {
        match self.slab.slots[slot as usize].tag {
            T1 => self.t1.remove(&mut self.slab, slot),
            T2 => self.t2.remove(&mut self.slab, slot),
            _ => {}
        }
    }

    #[inline]
    fn warm(&self, slot: u32) {
        self.t1.warm(&self.slab);
        self.t2.warm(&self.slab);
        self.b1.warm(slot);
        self.b2.warm(slot);
    }
}

/// ARC keyed by object id.
pub type Arc = Keyed<DenseArc>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{check_policy_basics, miss_ratio_of, test_trace};
    use cache_types::Policy;

    /// The list `id` sits in, if it is resident.
    fn tag_of(p: &Arc, id: u64) -> Option<u8> {
        p.slot_of(id)
            .map(|s| p.slab.slots[s as usize].tag)
            .filter(|&t| t != 0)
    }

    #[test]
    fn hit_in_t1_promotes_to_t2() {
        let mut p = Arc::new(10).unwrap();
        let mut evs = Vec::new();
        p.request(&Request::get(1, 0), &mut evs);
        assert_eq!(tag_of(&p, 1), Some(T1));
        p.request(&Request::get(1, 1), &mut evs);
        assert_eq!(tag_of(&p, 1), Some(T2));
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
        assert_eq!(tag_of(&p, ghosted), Some(T2));
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
        let in_b2 = |p: &Arc, id| p.slot_of(id).is_some_and(|s| p.b2.contains(s));
        if let Some(b2_id) = (0..8u64).find(|&id| !p.contains(id) && in_b2(&p, id)) {
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
