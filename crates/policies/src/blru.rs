//! B-LRU — Bloom-filter-admission LRU (§5.2 "Common algorithms").
//!
//! A Bloom filter in front of an LRU cache rejects objects on their first
//! request: only ids that have been seen before are admitted. This is the
//! common CDN trick for one-hit wonders, and the paper's point is its cost:
//! "the second requests to all objects [are] cache misses, which leads to
//! mediocre efficiency."
//!
//! Two rotating Bloom filters bound memory: when the active filter fills,
//! it becomes the previous filter and a fresh one takes over; membership is
//! the union of both.

use crate::Lru;
use cache_ds::BloomFilter;
use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};

/// LRU with Bloom-filter admission.
pub struct BloomLru {
    inner: Lru,
    active: BloomFilter,
    previous: BloomFilter,
    /// Insertions after which the filters rotate.
    rotate_at: u64,
    stats: PolicyStats,
}

impl BloomLru {
    /// Creates a B-LRU cache of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn new(capacity: u64) -> Result<Self, CacheError> {
        let inner = Lru::new(capacity)?;
        // Size each filter for ~8 "generations" of the cache's objects.
        let expected = (capacity as usize).clamp(1024, 1 << 24);
        Ok(BloomLru {
            inner,
            active: BloomFilter::new(expected, 0.01),
            previous: BloomFilter::new(expected, 0.01),
            rotate_at: expected as u64,
            stats: PolicyStats::default(),
        })
    }

    fn seen(&self, id: ObjId) -> bool {
        self.active.contains(id) || self.previous.contains(id)
    }

    fn record(&mut self, id: ObjId) {
        self.active.insert(id);
        if self.active.inserted() >= self.rotate_at {
            std::mem::swap(&mut self.active, &mut self.previous);
            self.active.clear();
        }
    }
}

impl Policy for BloomLru {
    fn name(&self) -> String {
        "B-LRU".into()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn contains(&self, id: ObjId) -> bool {
        self.inner.contains(id)
    }

    fn request(&mut self, req: &Request, evicted: &mut Vec<Eviction>) -> Outcome {
        match req.op {
            Op::Get => {
                if self.inner.contains(req.id) {
                    // Delegate the hit to keep LRU ordering and inner stats.
                    let out = self.inner.request(req, evicted);
                    debug_assert!(out.is_hit());
                    self.stats.record_get(req.size, false);
                    Outcome::Hit
                } else {
                    self.stats.record_get(req.size, true);
                    if self.seen(req.id) {
                        // Second-or-later request: admit.
                        let out = self.inner.request(req, evicted);
                        self.stats.evictions = self.inner.stats().evictions;
                        if out == Outcome::Uncacheable {
                            Outcome::Uncacheable
                        } else {
                            Outcome::Miss
                        }
                    } else {
                        // First sighting: reject, remember.
                        self.record(req.id);
                        Outcome::Miss
                    }
                }
            }
            Op::Set | Op::Delete => self.inner.request(req, evicted),
        }
    }

    fn stats(&self) -> PolicyStats {
        let mut s = self.stats;
        s.evictions = self.inner.stats().evictions;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{check_policy_basics, miss_ratio_of, test_trace};

    #[test]
    fn first_request_rejected_second_admitted() {
        let mut p = BloomLru::new(10).unwrap();
        let mut evs = Vec::new();
        assert!(p.request(&Request::get(1, 0), &mut evs).is_miss());
        assert!(!p.contains(1), "first request must not be admitted");
        assert!(p.request(&Request::get(1, 1), &mut evs).is_miss());
        assert!(p.contains(1), "second request admits");
        assert!(p.request(&Request::get(1, 2), &mut evs).is_hit());
    }

    #[test]
    fn one_hit_wonders_never_enter() {
        let mut p = BloomLru::new(10).unwrap();
        let mut evs = Vec::new();
        for id in 0..1000u64 {
            p.request(&Request::get(id, id), &mut evs);
        }
        // A pure scan admits almost nothing; the handful of Bloom false
        // positives (≈1 %) are the only possible admissions.
        assert!(p.len() <= 5, "admitted {} of 1000 scan objects", p.len());
        assert_eq!(p.stats().misses, 1000);
    }

    #[test]
    fn filter_rotation_bounds_memory() {
        let mut p = BloomLru::new(16).unwrap();
        let mut evs = Vec::new();
        // Far more distinct ids than a single filter generation.
        for id in 0..10_000u64 {
            p.request(&Request::get(id, id), &mut evs);
        }
        // Ids seen long ago have been rotated out: a second request for a
        // very old id is once again rejected (probabilistically; id 0 was
        // 10k insertions ago with rotate_at 1024).
        let before = p.len();
        p.request(&Request::get(0, 20_000), &mut evs);
        assert_eq!(p.len(), before, "rotated-out id must be rejected again");
    }

    #[test]
    fn worse_than_lru_when_reuse_is_quick() {
        // The paper: "an object's second request often arrives soon after
        // the first request (temporal locality)" and B-LRU turns every such
        // second request into a miss. Back-to-back pairs make it stark: LRU
        // hits half the requests, B-LRU none.
        let mut reqs = Vec::new();
        for i in 0..5000u64 {
            reqs.push(Request::get(i, 2 * i));
            reqs.push(Request::get(i, 2 * i + 1));
        }
        let mut b = BloomLru::new(64).unwrap();
        let mut l = crate::Lru::new(64).unwrap();
        let mr_b = miss_ratio_of(&mut b, &reqs);
        let mr_l = miss_ratio_of(&mut l, &reqs);
        assert!((mr_l - 0.5).abs() < 0.01, "LRU should hit ~half: {mr_l}");
        assert!(mr_b > 0.9, "B-LRU should miss nearly all: {mr_b}");
    }

    #[test]
    fn capacity_bounded_and_stats_sane() {
        // `check_policy_basics` expects a hit on the second request to a
        // fresh id, which B-LRU deliberately misses; check the remaining
        // invariants by hand.
        let _ = check_policy_basics; // pattern documented above
        let mut p = BloomLru::new(100).unwrap();
        let trace = test_trace(20_000, 1000, 109);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.used() <= 100);
        }
        let s = p.stats();
        assert_eq!(s.gets, 20_000);
        assert!(s.misses <= s.gets);
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(BloomLru::new(0).is_err());
    }
}
