//! The multi-queue policies: 2Q and SLRU.
//!
//! Each is written once, over dense slots ([`DenseTwoQ`], [`DenseSlru`]);
//! the keyed names ([`TwoQ`], [`Slru`]) are the same policy behind
//! [`Keyed`].
//!
//! Slot-state conventions (see [`s3fifo::dense::Slot`]): 2Q keeps its queue
//! tag (`A1IN`/`AM`; 0 = absent) in `tag`; SLRU stores `segment + 1` in
//! `tag` so that 0 keeps meaning "absent".

use cache_types::{CacheError, Eviction, PolicyStats, Request};
use s3fifo::dense::{
    rule, validate_queues, DenseSlab, Keyed, Members, Queue, SlabPolicy, SlotGhost,
};

/// Where a 2Q slot currently lives.
const A1IN: u8 = 1;
const AM: u8 = 2;

/// 2Q (Johnson & Shasha, VLDB '94) over dense slots.
///
/// §5.2: "2Q has the most similar design to S3-FIFO. It uses 25 % cache
/// space for a FIFO queue \[A1in\], the rest for an LRU queue \[Am\], and
/// also has a ghost queue \[A1out\]. Besides the difference in queue size and type,
/// objects evicted from the small queue are not inserted into the LRU queue"
/// — only a later request for an A1out (ghost) id promotes into Am.
#[derive(Debug)]
pub struct DenseTwoQ {
    capacity: u64,
    a1in_capacity: u64,
    slab: DenseSlab,
    a1in: Queue<rule::Fifo>,
    am: Queue<rule::Lru>,
    a1out: SlotGhost,
    stats: PolicyStats,
}

impl DenseTwoQ {
    /// Creates a 2Q cache with the classic parameters (Kin = 25 % of the
    /// cache, Kout = 50 % of its bytes) over the dense domain `0..domain`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn with_domain(capacity: u64, domain: usize) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        let a1in_capacity = ((capacity as f64 * 0.25).round() as u64).max(1);
        Ok(DenseTwoQ {
            capacity,
            a1in_capacity,
            a1out: SlotGhost::new(domain, (capacity as f64 * 0.5).round() as u64),
            slab: DenseSlab::with_domain(domain),
            a1in: Queue::new(A1IN),
            am: Queue::new(AM),
            stats: PolicyStats::default(),
        })
    }

    fn used_total(&self) -> u64 {
        self.a1in.bytes() + self.am.bytes()
    }

    /// The RECLAIM step of the 2Q paper: when A1in holds at least its share
    /// (or Am is empty) its tail is dropped and remembered in A1out;
    /// otherwise the LRU tail of Am is evicted.
    fn evict_one(&mut self, evicted: &mut Vec<Eviction<u32>>) {
        if self.a1in.bytes() >= self.a1in_capacity || self.am.is_empty() {
            if let Some(s) = self.a1in.evict(&mut self.slab) {
                self.a1out.insert(s, self.slab.size(s));
                evicted.push(self.slab.eviction(s, true));
                return;
            }
        }
        if let Some(s) = self.am.evict(&mut self.slab) {
            evicted.push(self.slab.eviction(s, false));
        }
    }
}

impl SlabPolicy for DenseTwoQ {
    fn with_capacity(capacity: u64) -> Result<Self, CacheError> {
        Self::with_domain(capacity, 0)
    }

    fn name(&self) -> String {
        "2Q".into()
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used_total()
    }

    fn len(&self) -> usize {
        (self.a1in.len() + self.am.len()) as usize
    }

    fn validate(&self) -> Result<(), String> {
        validate_queues("2Q", self.capacity, &self.slab, &[&self.a1in, &self.am])?;
        let mut resident = self.a1in.iter(&self.slab).chain(self.am.iter(&self.slab));
        if let Some(slot) = resident.find(|&s| self.a1out.contains(s)) {
            return Err(format!("2Q: slot {slot} is both resident and in A1out"));
        }
        self.a1out.validate().map_err(|e| format!("2Q A1out: {e}"))
    }

    fn state(&self) -> (&DenseSlab, &PolicyStats) {
        (&self.slab, &self.stats)
    }

    fn state_mut(&mut self) -> (&mut DenseSlab, &mut PolicyStats) {
        (&mut self.slab, &mut self.stats)
    }

    fn hit(&mut self, slot: u32, _req: &Request) {
        self.slab.slots[slot as usize].touch();
        // A1in hits do nothing (FIFO); Am hits promote.
        if self.slab.slots[slot as usize].tag == AM {
            self.am.hit(&mut self.slab, slot);
        }
    }

    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        // Decide A1out membership before evicting: eviction inserts into
        // A1out and could displace the entry being looked up.
        let in_a1out = self.a1out.remove(slot);
        while self.used_total() + u64::from(req.size) > self.capacity
            && (!self.a1in.is_empty() || !self.am.is_empty())
        {
            self.evict_one(evicted);
        }
        self.slab.slots[slot as usize].on_insert(req);
        if in_a1out {
            // A1out hit: the second chance promotes straight into Am.
            self.am.push(&mut self.slab, slot);
        } else {
            self.a1in.push(&mut self.slab, slot);
        }
    }

    fn remove(&mut self, slot: u32) {
        match self.slab.slots[slot as usize].tag {
            A1IN => self.a1in.remove(&mut self.slab, slot),
            AM => self.am.remove(&mut self.slab, slot),
            _ => {}
        }
    }

    #[inline]
    fn warm(&self, slot: u32) {
        self.a1in.warm(&self.slab);
        self.am.warm(&self.slab);
        self.a1out.warm(slot);
    }
}

const SEGMENTS: usize = 4;

/// Segmented LRU with four equal segments (§5.2), over dense slots. `tag`
/// holds `segment + 1`; 0 means absent.
#[derive(Debug)]
pub struct DenseSlru {
    capacity: u64,
    seg_capacity: u64,
    slab: DenseSlab,
    /// `segs[0]` is the probationary segment; `segs[3]` the most protected.
    segs: [Queue<rule::Lru>; SEGMENTS],
    stats: PolicyStats,
}

impl DenseSlru {
    /// Creates a 4-segment SLRU of `capacity` bytes over the dense domain
    /// `0..domain`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn with_domain(capacity: u64, domain: usize) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        Ok(DenseSlru {
            capacity,
            seg_capacity: (capacity / SEGMENTS as u64).max(1),
            slab: DenseSlab::with_domain(domain),
            segs: std::array::from_fn(|seg| Queue::new(seg as u8 + 1)),
            stats: PolicyStats::default(),
        })
    }

    fn seg_of(&self, slot: u32) -> Option<usize> {
        let tag = self.slab.slots[slot as usize].tag;
        if tag == 0 {
            None
        } else {
            Some(tag as usize - 1)
        }
    }

    fn used_total(&self) -> u64 {
        self.segs.iter().map(Queue::bytes).sum()
    }

    fn len_total(&self) -> usize {
        self.segs.iter().map(|q| q.len() as usize).sum()
    }

    /// Demotes tails of segment `seg` into segment `seg - 1` until the
    /// segment fits its share; cascades down to segment 0.
    fn rebalance_from(&mut self, seg: usize) {
        for s in (1..=seg).rev() {
            while self.segs[s].bytes() > self.seg_capacity {
                let Some(slot) = self.segs[s].evict(&mut self.slab) else {
                    break;
                };
                self.segs[s - 1].push(&mut self.slab, slot);
            }
        }
    }

    /// Evicts one object from the lowest non-empty segment.
    fn evict_one(&mut self, evicted: &mut Vec<Eviction<u32>>) {
        for s in 0..SEGMENTS {
            if let Some(slot) = self.segs[s].evict(&mut self.slab) {
                evicted.push(self.slab.eviction(slot, s == 0));
                return;
            }
        }
    }
}

impl SlabPolicy for DenseSlru {
    const GHOSTLESS: bool = true;

    fn with_capacity(capacity: u64) -> Result<Self, CacheError> {
        Self::with_domain(capacity, 0)
    }

    fn name(&self) -> String {
        "SLRU".into()
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used_total()
    }

    fn len(&self) -> usize {
        self.len_total()
    }

    fn validate(&self) -> Result<(), String> {
        let queues = self.segs.each_ref().map(|q| q as &dyn Members);
        validate_queues("SLRU", self.capacity, &self.slab, &queues)?;
        match (1..SEGMENTS).find(|&seg| self.segs[seg].bytes() > self.seg_capacity) {
            Some(seg) => Err(format!(
                "SLRU: segment {seg} holds {} > share {}",
                self.segs[seg].bytes(),
                self.seg_capacity
            )),
            None => Ok(()),
        }
    }

    fn state(&self) -> (&DenseSlab, &PolicyStats) {
        (&self.slab, &self.stats)
    }

    fn state_mut(&mut self) -> (&mut DenseSlab, &mut PolicyStats) {
        (&mut self.slab, &mut self.stats)
    }

    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        while self.used_total() + u64::from(req.size) > self.capacity && self.len_total() > 0 {
            self.evict_one(evicted);
        }
        self.slab.slots[slot as usize].on_insert(req);
        self.segs[0].push(&mut self.slab, slot);
    }

    fn hit(&mut self, slot: u32, _req: &Request) {
        self.slab.slots[slot as usize].touch();
        // Invariant: a hit slot is owned by exactly one segment.
        let seg = self.seg_of(slot).expect("hit on resident slot");
        let target = (seg + 1).min(SEGMENTS - 1);
        if target == seg {
            self.segs[seg].hit(&mut self.slab, slot);
            return;
        }
        self.segs[seg].remove(&mut self.slab, slot);
        self.segs[target].push(&mut self.slab, slot);
        self.rebalance_from(target);
    }

    fn remove(&mut self, slot: u32) {
        if let Some(seg) = self.seg_of(slot) {
            self.segs[seg].remove(&mut self.slab, slot);
        }
    }

    #[inline]
    fn warm(&self, _slot: u32) {
        for q in &self.segs {
            q.warm(&self.slab);
        }
    }
}

/// 2Q keyed by object id, with the paper's parameters (Kin = 25 % of the
/// cache, Kout = 50 % of the cache's bytes).
pub type TwoQ = Keyed<DenseTwoQ>;

/// Segmented LRU (four segments) keyed by object id.
pub type Slru = Keyed<DenseSlru>;

#[cfg(test)]
mod tests {
    mod twoq {
        use super::super::*;
        use crate::util::{check_policy_basics, miss_ratio_of, test_trace};
        use crate::Fifo;
        use cache_types::Policy;

        /// The queue tag of `id`'s slot, if 2Q still remembers the id.
        fn tag_of(p: &TwoQ, id: u64) -> Option<u8> {
            p.slot_of(id).map(|s| p.slab.slots[s as usize].tag)
        }

        #[test]
        fn one_hit_wonders_fall_out_of_a1in() {
            let mut p = TwoQ::new(20).unwrap();
            let mut evs = Vec::new();
            for id in 0..40u64 {
                p.request(&Request::get(id, id), &mut evs);
            }
            // A scan never populates Am.
            assert_eq!(p.am.len(), 0);
            assert!(p.a1out.marked() > 0);
        }

        #[test]
        fn ghost_hit_promotes_to_am() {
            let mut p = TwoQ::new(20).unwrap();
            let mut evs = Vec::new();
            for id in 0..40u64 {
                p.request(&Request::get(id, id), &mut evs);
            }
            let ghosted = (0..40u64).rev().find(|&id| !p.contains(id)).unwrap();
            evs.clear();
            let out = p.request(&Request::get(ghosted, 100), &mut evs);
            assert!(out.is_miss());
            assert_eq!(tag_of(&p, ghosted), Some(AM));
        }

        #[test]
        fn a1in_hits_do_not_promote() {
            let mut p = TwoQ::new(100).unwrap();
            let mut evs = Vec::new();
            p.request(&Request::get(1, 0), &mut evs);
            p.request(&Request::get(1, 1), &mut evs);
            p.request(&Request::get(1, 2), &mut evs);
            // 2Q leaves repeat hits in A1in alone — promotion happens only via
            // the ghost.
            assert_eq!(tag_of(&p, 1), Some(A1IN));
        }

        #[test]
        fn scan_resistant() {
            let mut p = TwoQ::new(40).unwrap();
            let mut evs = Vec::new();
            let mut t = 0u64;
            // A genuinely hot set (ids 0..10) interleaved with a cold stream:
            // hot ids cycle through A1in into the ghost once, then their next
            // request promotes them into Am where LRU retains them.
            for _round in 0..4 {
                for j in 0..60u64 {
                    evs.clear();
                    p.request(&Request::get(1000 + t % 999_983, t), &mut evs);
                    t += 1;
                    if j % 4 == 0 {
                        evs.clear();
                        p.request(&Request::get((j / 4) % 10, t), &mut evs);
                        t += 1;
                    }
                }
            }
            let in_am = (0..10u64).filter(|&id| tag_of(&p, id) == Some(AM)).count();
            assert!(in_am >= 5, "hot set should be in Am, got {in_am}");
            // Long scan: evictions must come from A1in, leaving Am untouched.
            let before: Vec<u64> = (0..10u64)
                .filter(|&id| tag_of(&p, id) == Some(AM))
                .collect();
            for id in 5000..5200u64 {
                evs.clear();
                p.request(&Request::get(id, t), &mut evs);
                t += 1;
            }
            for id in &before {
                assert!(p.contains(*id), "scan evicted Am resident {id}");
            }
        }

        #[test]
        fn better_than_fifo_on_skew() {
            let trace = test_trace(30_000, 2000, 21);
            let mut q = TwoQ::new(64).unwrap();
            let mut f = Fifo::new(64).unwrap();
            assert!(miss_ratio_of(&mut q, &trace) < miss_ratio_of(&mut f, &trace));
        }

        #[test]
        fn basics() {
            let mut p = TwoQ::new(100).unwrap();
            check_policy_basics(&mut p, 100);
        }

        #[test]
        fn rejects_zero_capacity() {
            assert!(TwoQ::new(0).is_err());
        }
    }

    mod slru {
        use super::super::*;
        use crate::util::{check_policy_basics, miss_ratio_of, test_trace};
        use crate::Fifo;
        use cache_types::Policy;

        /// The segment `id` currently sits in.
        fn seg_of(p: &Slru, id: u64) -> usize {
            let slot = p.slot_of(id).expect("id is resident");
            p.slab.slots[slot as usize].tag as usize - 1
        }

        #[test]
        fn new_objects_evicted_before_promoted_ones() {
            let mut p = Slru::new(8).unwrap();
            let mut evs = Vec::new();
            // Promote 1 and 2 out of the probationary segment.
            for id in [1u64, 2] {
                p.request(&Request::get(id, 0), &mut evs);
                p.request(&Request::get(id, 1), &mut evs);
            }
            // Fill with one-hit objects, overflowing the cache.
            for id in 10..30u64 {
                evs.clear();
                p.request(&Request::get(id, id), &mut evs);
            }
            assert!(p.contains(1) && p.contains(2), "promoted objects survive");
        }

        #[test]
        fn probationary_evictions_flagged() {
            let mut p = Slru::new(4).unwrap();
            let mut evs = Vec::new();
            for id in 0..20u64 {
                p.request(&Request::get(id, id), &mut evs);
            }
            assert!(!evs.is_empty());
            assert!(evs.iter().all(|e| e.from_probationary));
        }

        #[test]
        fn hits_climb_segments() {
            let mut p = Slru::new(40).unwrap();
            let mut evs = Vec::new();
            p.request(&Request::get(1, 0), &mut evs);
            assert_eq!(seg_of(&p, 1), 0);
            p.request(&Request::get(1, 1), &mut evs);
            assert_eq!(seg_of(&p, 1), 1);
            p.request(&Request::get(1, 2), &mut evs);
            assert_eq!(seg_of(&p, 1), 2);
            p.request(&Request::get(1, 3), &mut evs);
            assert_eq!(seg_of(&p, 1), 3);
            p.request(&Request::get(1, 4), &mut evs);
            assert_eq!(seg_of(&p, 1), 3, "top segment is terminal");
        }

        #[test]
        fn segment_overflow_demotes() {
            let mut p = Slru::new(8).unwrap(); // seg capacity = 2
            let mut evs = Vec::new();
            // Promote three objects into segment 1 (capacity 2).
            for id in [1u64, 2, 3] {
                p.request(&Request::get(id, id * 2), &mut evs);
                p.request(&Request::get(id, id * 2 + 1), &mut evs);
            }
            // One of them must have been demoted back to segment 0.
            let seg0_count = [1u64, 2, 3]
                .iter()
                .filter(|&&id| seg_of(&p, id) == 0)
                .count();
            assert_eq!(seg0_count, 1);
            assert!(p.segs[1].bytes() <= p.seg_capacity);
        }

        #[test]
        fn better_than_fifo_on_skew() {
            let trace = test_trace(30_000, 2000, 3);
            let mut slru = Slru::new(64).unwrap();
            let mut fifo = Fifo::new(64).unwrap();
            assert!(miss_ratio_of(&mut slru, &trace) < miss_ratio_of(&mut fifo, &trace));
        }

        #[test]
        fn basics() {
            let mut p = Slru::new(100).unwrap();
            check_policy_basics(&mut p, 100);
        }

        #[test]
        fn rejects_zero_capacity() {
            assert!(Slru::new(0).is_err());
        }
    }
}
