//! FIFO-Merge — Segcache's eviction algorithm (Yang et al., NSDI '21), over
//! dense slots.
//!
//! Segcache stores objects in append-only *segments* kept in FIFO order.
//! Eviction merges the N oldest segments into one, retaining the most
//! valuable ~1/N of their objects (ranked by access frequency) and dropping
//! the rest. §5.2 notes FIFO-Merge "was designed for log-structured storage
//! and key-value cache workloads without scan resistance", performing close
//! to LRU on web workloads but poorly on block workloads.
//!
//! Slot-state conventions: `tag` is `RESIDENT` (0 = absent) and `freq` the
//! access count, capped at 255 and halved by every merge; no queue threads
//! the links. Segments list slots, and an entry stays behind when its
//! object is deleted (the log is append-only). The segment holding a
//! slot's live entry is recorded in an array beside the slab, which catches
//! up with its domain on insertion.

use cache_types::{CacheError, Eviction, PolicyStats, Request};
use s3fifo::dense::{DenseSlab, Keyed, SlabPolicy};
use std::cmp::Reverse;
use std::collections::VecDeque;

const ABSENT: u8 = 0;
const RESIDENT: u8 = 1;

/// Number of segments merged per eviction pass.
const MERGE_N: usize = 4;
/// Fraction (1/RETAIN_DIV) of merged bytes retained.
const RETAIN_DIV: u64 = 4;
/// The segment of a slot the merge in progress has already taken: segment
/// ids start at 1, so a later entry of the same slot matches no segment.
const CLAIMED: u64 = 0;

#[derive(Debug)]
struct Segment {
    id: u64,
    slots: Vec<u32>,
    live_bytes: u64,
}

/// The FIFO-Merge (Segcache) eviction algorithm over dense slots.
#[derive(Debug)]
pub struct DenseFifoMerge {
    capacity: u64,
    used: u64,
    len: usize,
    seg_capacity: u64,
    next_seg_id: u64,
    /// Oldest segment at the front.
    segments: VecDeque<Segment>,
    slab: DenseSlab,
    /// Per slot: the id of the segment holding its live entry.
    seg_of: Vec<u64>,
    stats: PolicyStats,
}

impl DenseFifoMerge {
    /// Creates a FIFO-Merge cache of `capacity` bytes with segments of
    /// 1/10th of the capacity, over the dense domain `0..domain`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn with_domain(capacity: u64, domain: usize) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        Ok(DenseFifoMerge {
            capacity,
            used: 0,
            len: 0,
            seg_capacity: (capacity / 10).max(1),
            next_seg_id: 0,
            segments: VecDeque::new(),
            slab: DenseSlab::with_domain(domain),
            seg_of: vec![CLAIMED; domain],
            stats: PolicyStats::default(),
        })
    }

    /// Merges the `MERGE_N` oldest segments, retaining the most frequently
    /// accessed quarter of their live bytes and evicting the rest.
    fn merge_evict(&mut self, evicted: &mut Vec<Eviction<u32>>) {
        let take = MERGE_N.min(self.segments.len());
        let mut candidates: Vec<u32> = Vec::new();
        let mut merged_bytes = 0u64;
        for seg in self.segments.drain(..take) {
            for slot in seg.slots {
                // A segment may list a slot more than once: Delete leaves the
                // entry in place (append-only log), and re-inserting the same
                // object into the same active segment appends it again. Only
                // the live object counts, once.
                let s = slot as usize;
                if self.slab.slots[s].tag == RESIDENT && self.seg_of[s] == seg.id {
                    self.seg_of[s] = CLAIMED;
                    candidates.push(slot);
                    merged_bytes += u64::from(self.slab.size(slot));
                }
            }
        }
        if take == 0 {
            return;
        }
        // Rank by frequency (descending), breaking ties toward *newer*
        // objects so an all-cold merge does not pin the oldest ids forever.
        let slots = &self.slab.slots;
        candidates
            .sort_by_key(|&s| Reverse((slots[s as usize].freq, slots[s as usize].insert_time)));
        let retain_budget = if take == MERGE_N {
            merged_bytes / RETAIN_DIV
        } else {
            // Partial merge (cache nearly empty): keep nothing extra.
            0
        };
        self.next_seg_id += 1;
        let mut merged = Segment {
            id: self.next_seg_id,
            slots: Vec::new(),
            live_bytes: 0,
        };
        for slot in candidates {
            let size = u64::from(self.slab.size(slot));
            if merged.live_bytes + size <= retain_budget {
                self.seg_of[slot as usize] = merged.id;
                // Merging halves the frequency (decay), as in Segcache.
                self.slab.slots[slot as usize].freq /= 2;
                merged.live_bytes += size;
                merged.slots.push(slot);
            } else {
                self.slab.slots[slot as usize].tag = ABSENT;
                self.used -= size;
                self.len -= 1;
                evicted.push(self.slab.eviction(slot, false));
            }
        }
        if !merged.slots.is_empty() {
            // The merged segment takes the oldest position.
            self.segments.push_front(merged);
        }
    }
}

impl SlabPolicy for DenseFifoMerge {
    fn with_capacity(capacity: u64) -> Result<Self, CacheError> {
        Self::with_domain(capacity, 0)
    }

    fn name(&self) -> String {
        "FIFO-Merge".into()
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Byte and object accounting, and every resident slot listed by the
    /// segment its live entry names.
    fn validate(&self) -> Result<(), String> {
        let mut listed = vec![false; self.slab.domain()];
        for seg in &self.segments {
            for &slot in &seg.slots {
                listed[slot as usize] |= self.seg_of[slot as usize] == seg.id;
            }
        }
        let resident = self
            .slab
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tag != ABSENT);
        let (mut bytes, mut count) = (0u64, 0usize);
        for (slot, s) in resident {
            if !listed[slot] {
                return Err(format!("FIFO-Merge: resident slot {slot} is in no segment"));
            }
            (bytes, count) = (bytes + u64::from(s.size), count + 1);
        }
        if (bytes, count) != (self.used, self.len) || self.used > self.capacity {
            return Err(format!(
                "FIFO-Merge: {count} resident slots of {bytes} bytes, accounted {} of {} in {}",
                self.len, self.used, self.capacity
            ));
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
        let s = &mut self.slab.slots[slot as usize];
        s.freq = s.freq.saturating_add(1);
        s.touch();
    }

    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        while self.used + u64::from(req.size) > self.capacity && self.len > 0 {
            self.merge_evict(evicted);
        }
        if self.seg_of.len() < self.slab.domain() {
            // `Keyed` grows the slab a slot at a time, and a stream grows it
            // by chunks: the segment ids follow.
            self.seg_of.resize(self.slab.domain(), CLAIMED);
        }
        let full = |s: &Segment| s.live_bytes >= self.seg_capacity;
        if self.segments.back().is_none_or(full) {
            self.next_seg_id += 1;
            self.segments.push_back(Segment {
                id: self.next_seg_id,
                slots: Vec::new(),
                live_bytes: 0,
            });
        }
        if let Some(active) = self.segments.back_mut() {
            active.slots.push(slot);
            active.live_bytes += u64::from(req.size);
            self.seg_of[slot as usize] = active.id;
        }
        let s = &mut self.slab.slots[slot as usize];
        s.tag = RESIDENT;
        s.freq = 0;
        s.on_insert(req);
        self.used += u64::from(req.size);
        self.len += 1;
    }

    fn remove(&mut self, slot: u32) {
        if self.slab.slots[slot as usize].tag == ABSENT {
            return;
        }
        self.slab.slots[slot as usize].tag = ABSENT;
        let size = u64::from(self.slab.size(slot));
        self.used -= size;
        self.len -= 1;
        let seg_id = self.seg_of[slot as usize];
        if let Some(seg) = self.segments.iter_mut().find(|s| s.id == seg_id) {
            seg.live_bytes = seg.live_bytes.saturating_sub(size);
        }
    }
}

/// FIFO-Merge keyed by object id.
pub type FifoMerge = Keyed<DenseFifoMerge>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{check_policy_basics, miss_ratio_of, test_trace};
    use cache_types::Policy;

    #[test]
    fn capacity_bounded() {
        let mut p = FifoMerge::new(64).unwrap();
        let trace = test_trace(20_000, 1000, 113);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.used() <= 64, "used {} > 64", p.used());
        }
        p.validate().unwrap();
    }

    #[test]
    fn merge_retains_frequent_objects() {
        let mut p = FifoMerge::new(40).unwrap();
        let mut evs = Vec::new();
        let mut t = 0u64;
        // Insert hot ids and hit them repeatedly.
        for id in 0..4u64 {
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
        }
        for _ in 0..5 {
            for id in 0..4u64 {
                p.request(&Request::get(id, t), &mut evs);
                t += 1;
            }
        }
        // Flood to force merges, refreshing the hot set periodically (a
        // cold object's frequency decays at every merge, so objects with no
        // further hits are eventually dropped — that is by design).
        for id in 100..300u64 {
            evs.clear();
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
            if id % 10 == 0 {
                for h in 0..4u64 {
                    p.request(&Request::get(h, t), &mut evs);
                    t += 1;
                }
            }
        }
        let survivors = (0..4u64).filter(|&id| p.contains(id)).count();
        assert!(survivors >= 3, "hot objects lost in merge: {survivors}/4");
    }

    #[test]
    fn scan_evicts_everything_eventually() {
        let mut p = FifoMerge::new(40).unwrap();
        let mut evs = Vec::new();
        for id in 0..400u64 {
            evs.clear();
            p.request(&Request::get(id, id), &mut evs);
        }
        // Early scan ids must be gone.
        assert!(!p.contains(0));
        assert!(p.len() <= 40);
    }

    #[test]
    fn better_than_fifo_on_skew() {
        let trace = test_trace(30_000, 2000, 127);
        let mut fm = FifoMerge::new(64).unwrap();
        let mut f = crate::Fifo::new(64).unwrap();
        let mr_m = miss_ratio_of(&mut fm, &trace);
        let mr_f = miss_ratio_of(&mut f, &trace);
        assert!(mr_m < mr_f + 0.01, "FIFO-Merge {mr_m:.4} vs FIFO {mr_f:.4}");
    }

    #[test]
    fn basics() {
        let mut p = FifoMerge::new(100).unwrap();
        check_policy_basics(&mut p, 100);
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(FifoMerge::new(0).is_err());
    }
}
