//! FIFO-Merge — Segcache's eviction algorithm (Yang et al., NSDI '21).
//!
//! Segcache stores objects in append-only *segments* kept in FIFO order.
//! Eviction merges the N oldest segments into one, retaining the most
//! valuable ~1/N of their objects (ranked by access frequency) and dropping
//! the rest. §5.2 notes FIFO-Merge "was designed for log-structured storage
//! and key-value cache workloads without scan resistance", performing close
//! to LRU on web workloads but poorly on block workloads.

use crate::util::Meta;
use cache_ds::IdMap;
use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};
use std::collections::VecDeque;

/// Number of segments merged per eviction pass.
const MERGE_N: usize = 4;
/// Fraction (1/RETAIN_DIV) of merged bytes retained.
const RETAIN_DIV: u64 = 4;

struct Entry {
    seg: u64,
    freq: u32,
    meta: Meta,
}

struct Segment {
    id: u64,
    ids: Vec<ObjId>,
    live_bytes: u64,
}

/// The FIFO-Merge (Segcache) eviction algorithm.
pub struct FifoMerge {
    capacity: u64,
    used: u64,
    seg_capacity: u64,
    next_seg_id: u64,
    /// Oldest segment at the front.
    segments: VecDeque<Segment>,
    table: IdMap<Entry>,
    stats: PolicyStats,
}

impl FifoMerge {
    /// Creates a FIFO-Merge cache of `capacity` bytes with segments of
    /// 1/10th of the capacity.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn new(capacity: u64) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        Ok(FifoMerge {
            capacity,
            used: 0,
            seg_capacity: (capacity / 10).max(1),
            next_seg_id: 0,
            segments: VecDeque::new(),
            table: IdMap::default(),
            stats: PolicyStats::default(),
        })
    }

    fn active_segment(&mut self) -> &mut Segment {
        let need_new = self
            .segments
            .back()
            .map(|s| s.live_bytes >= self.seg_capacity)
            .unwrap_or(true);
        if need_new {
            self.next_seg_id += 1;
            self.segments.push_back(Segment {
                id: self.next_seg_id,
                ids: Vec::new(),
                live_bytes: 0,
            });
        }
        // Invariant: the branch above pushed a segment if none existed.
        self.segments.back_mut().expect("just ensured")
    }

    /// Merges the `MERGE_N` oldest segments, retaining the most frequently
    /// accessed quarter of their live bytes and evicting the rest.
    fn merge_evict(&mut self, evicted: &mut Vec<Eviction>) {
        let take = MERGE_N.min(self.segments.len());
        if take == 0 {
            return;
        }
        let mut candidates: Vec<(ObjId, u32)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut merged_bytes = 0u64;
        for _ in 0..take {
            // Invariant: take is bounded by the segment count, so pop_front succeeds.
            let seg = self.segments.pop_front().expect("segment available");
            for id in seg.ids {
                // A segment's id list may hold duplicates: Delete leaves the
                // slot in place (append-only log), and re-inserting the same
                // object into the same active segment appends it again. Count
                // each live object once or the retain loop double-processes
                // it (double-counted bytes, then a panic on the second pass).
                if let Some(e) = self.table.get(&id) {
                    if e.seg == seg.id && seen.insert(id) {
                        candidates.push((id, e.freq));
                        merged_bytes += u64::from(e.meta.size);
                    }
                }
            }
        }
        // Rank by frequency (descending), breaking ties toward *newer*
        // objects so an all-cold merge does not pin the oldest ids forever.
        candidates.sort_by(|a, b| {
            b.1.cmp(&a.1).then_with(|| {
                let ia = self.table[&a.0].meta.insert_time;
                let ib = self.table[&b.0].meta.insert_time;
                ib.cmp(&ia)
            })
        });
        let retain_budget = if take == MERGE_N {
            merged_bytes / RETAIN_DIV
        } else {
            // Partial merge (cache nearly empty): keep nothing extra.
            0
        };
        self.next_seg_id += 1;
        let mut merged = Segment {
            id: self.next_seg_id,
            ids: Vec::new(),
            live_bytes: 0,
        };
        for (id, _freq) in candidates {
            // Invariant: candidates are live ids still present in the table.
            let e = self.table.get_mut(&id).expect("candidate in table");
            if merged.live_bytes + u64::from(e.meta.size) <= retain_budget {
                e.seg = merged.id;
                // Merging halves the frequency (decay), as in Segcache.
                e.freq /= 2;
                merged.live_bytes += u64::from(e.meta.size);
                merged.ids.push(id);
            } else {
                // Invariant: the same id resolved via get_mut just above.
                let entry = self.table.remove(&id).expect("entry exists");
                self.used -= u64::from(entry.meta.size);
                self.stats.evictions += 1;
                evicted.push(entry.meta.eviction(id, false));
            }
        }
        if !merged.ids.is_empty() {
            // The merged segment takes the oldest position.
            self.segments.push_front(merged);
        }
    }

    fn insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        while self.used + u64::from(req.size) > self.capacity && !self.table.is_empty() {
            self.merge_evict(evicted);
        }
        let size = req.size;
        let seg = self.active_segment();
        seg.ids.push(req.id);
        seg.live_bytes += u64::from(size);
        let seg_id = seg.id;
        self.table.insert(
            req.id,
            Entry {
                seg: seg_id,
                freq: 0,
                meta: Meta::new(size, req.time),
            },
        );
        self.used += u64::from(size);
    }

    fn delete(&mut self, id: ObjId) {
        if let Some(e) = self.table.remove(&id) {
            self.used -= u64::from(e.meta.size);
            if let Some(seg) = self.segments.iter_mut().find(|s| s.id == e.seg) {
                seg.live_bytes = seg.live_bytes.saturating_sub(u64::from(e.meta.size));
            }
        }
    }
}

impl Policy for FifoMerge {
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
        self.table.len()
    }

    fn contains(&self, id: ObjId) -> bool {
        self.table.contains_key(&id)
    }

    fn request(&mut self, req: &Request, evicted: &mut Vec<Eviction>) -> Outcome {
        match req.op {
            Op::Get => {
                if let Some(e) = self.table.get_mut(&req.id) {
                    e.freq = e.freq.saturating_add(1).min(255);
                    e.meta.touch(req.time);
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
    fn capacity_bounded() {
        let mut p = FifoMerge::new(64).unwrap();
        let trace = test_trace(20_000, 1000, 113);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.used() <= 64, "used {} > 64", p.used());
        }
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
