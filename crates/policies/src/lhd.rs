//! LHD — Least Hit Density (Beckmann, Chen & Cidon, NSDI '18).
//!
//! LHD estimates each object's *hit density* — expected hits per unit of
//! cache space-time — from the empirical distribution of hits and evictions
//! over object ages, and evicts the sampled object with the lowest density.
//!
//! This implementation follows the published design in its practical form:
//!
//! - ages (time since last access, in requests) are coarsened into log2
//!   buckets;
//! - per-bucket hit and end-of-life counters are decayed periodically
//!   (EWMA), giving a sliding-window estimate;
//! - the density of age `b` is `(hits beyond b) / (object-time beyond b)`,
//!   divided by the object's size (hit density per byte);
//! - eviction samples 16 random resident objects and evicts the minimum-
//!   density one, as in the paper's sampled variant.

use crate::util::Meta;
use cache_ds::{IdMap, SplitMix64};
use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};

const AGE_BUCKETS: usize = 40;
const SAMPLES: usize = 16;

struct Entry {
    /// Index into `keys` for O(1) sampling.
    slot: usize,
    meta: Meta,
}

/// The LHD eviction algorithm (sampled, age-bucketed).
pub struct Lhd {
    capacity: u64,
    used: u64,
    table: IdMap<Entry>,
    /// Dense key vector for uniform sampling; `table[id].slot` indexes it.
    keys: Vec<ObjId>,
    /// Hits observed at each age bucket.
    hits: [f64; AGE_BUCKETS],
    /// Lifetimes ended (evictions) at each age bucket.
    ends: [f64; AGE_BUCKETS],
    /// Precomputed density per age bucket.
    density: [f64; AGE_BUCKETS],
    /// Requests since the last reconfiguration.
    since_reconfigure: u64,
    reconfigure_every: u64,
    now: u64,
    rng: SplitMix64,
    stats: PolicyStats,
}

impl Lhd {
    /// Creates an LHD cache of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn new(capacity: u64) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        let mut lhd = Lhd {
            capacity,
            used: 0,
            table: IdMap::default(),
            keys: Vec::new(),
            hits: [0.0; AGE_BUCKETS],
            ends: [0.0; AGE_BUCKETS],
            density: [0.0; AGE_BUCKETS],
            since_reconfigure: 0,
            reconfigure_every: capacity.clamp(1 << 10, 1 << 18),
            now: 0,
            rng: SplitMix64::new(0x14D),
            stats: PolicyStats::default(),
        };
        lhd.reconfigure();
        Ok(lhd)
    }

    #[inline]
    fn bucket_of(age: u64) -> usize {
        ((64 - age.leading_zeros()) as usize).min(AGE_BUCKETS - 1)
    }

    /// Recomputes the density table from the age histograms and decays the
    /// histograms (the paper's periodic reconfiguration).
    fn reconfigure(&mut self) {
        // Suffix sums: expected hits and expected object-time beyond each
        // age bucket (object-time approximated by the bucket's midpoint age
        // times the events ending there).
        let mut hits_beyond = 0.0f64;
        let mut time_beyond = 0.0f64;
        for b in (0..AGE_BUCKETS).rev() {
            let events = self.hits[b] + self.ends[b];
            let age_rep = (1u64 << b.min(62)) as f64;
            hits_beyond += self.hits[b];
            time_beyond += events * age_rep;
            self.density[b] = if time_beyond > 0.0 {
                hits_beyond / time_beyond
            } else {
                // No lifetime has ever reached this age: an object this old
                // has outlived everything observed, so its expected hit
                // density is zero (evict first).
                0.0
            };
        }
        for b in 0..AGE_BUCKETS {
            self.hits[b] *= 0.9;
            self.ends[b] *= 0.9;
        }
        self.since_reconfigure = 0;
    }

    fn density_of(&self, e: &Entry) -> f64 {
        let age = self.now.saturating_sub(e.meta.last_access);
        let b = Self::bucket_of(age);
        self.density[b] / f64::from(e.meta.size.max(1))
    }

    fn remove_slot(&mut self, id: ObjId) -> Entry {
        // Invariant: callers only remove resident ids.
        let entry = self.table.remove(&id).expect("id in table");
        let slot = entry.slot;
        let last = self.keys.len() - 1;
        self.keys.swap(slot, last);
        self.keys.pop();
        if slot < self.keys.len() {
            let moved = self.keys[slot];
            // Invariant: every id in keys is tabled.
            self.table.get_mut(&moved).expect("moved id in table").slot = slot;
        }
        self.used -= u64::from(entry.meta.size);
        entry
    }

    fn evict_one(&mut self, evicted: &mut Vec<Eviction>) {
        if self.keys.is_empty() {
            return;
        }
        // Sample up to SAMPLES distinct-ish candidates; duplicates are
        // harmless (they only reduce effective sample size).
        let mut victim: Option<(f64, ObjId)> = None;
        for _ in 0..SAMPLES.min(self.keys.len() * 2) {
            let idx = self.rng.next_below(self.keys.len() as u64) as usize;
            let id = self.keys[idx];
            let d = self.density_of(&self.table[&id]);
            if victim.map(|(vd, _)| d < vd).unwrap_or(true) {
                victim = Some((d, id));
            }
        }
        // Invariant: eviction only runs with a non-empty key set.
        let (_, id) = victim.expect("non-empty keys yields a victim");
        let entry = self.remove_slot(id);
        let age = self.now.saturating_sub(entry.meta.last_access);
        self.ends[Self::bucket_of(age)] += 1.0;
        self.stats.evictions += 1;
        evicted.push(entry.meta.eviction(id, false));
    }

    fn insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        while self.used + u64::from(req.size) > self.capacity && !self.table.is_empty() {
            self.evict_one(evicted);
        }
        let slot = self.keys.len();
        self.keys.push(req.id);
        self.table.insert(
            req.id,
            Entry {
                slot,
                meta: Meta::new(req.size, req.time),
            },
        );
        self.used += u64::from(req.size);
    }

    fn delete(&mut self, id: ObjId) {
        if self.table.contains_key(&id) {
            self.remove_slot(id);
        }
    }
}

impl Policy for Lhd {
    fn name(&self) -> String {
        "LHD".into()
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
        self.now += 1;
        self.since_reconfigure += 1;
        if self.since_reconfigure >= self.reconfigure_every {
            self.reconfigure();
        }
        match req.op {
            Op::Get => {
                if self.table.contains_key(&req.id) {
                    let age = {
                        // Invariant: contains_key just succeeded.
                        let e = self.table.get_mut(&req.id).expect("entry exists");
                        let age = self.now.saturating_sub(e.meta.last_access);
                        e.meta.touch(req.time);
                        age
                    };
                    self.hits[Self::bucket_of(age)] += 1.0;
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
        let mut p = Lhd::new(64).unwrap();
        let trace = test_trace(20_000, 1000, 97);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.used() <= 64);
        }
    }

    #[test]
    fn hot_objects_survive() {
        let mut p = Lhd::new(50).unwrap();
        let mut evs = Vec::new();
        let mut t = 0u64;
        // Hot set accessed continuously while cold objects stream through.
        let mut state = 1u64;
        for _ in 0..30_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = state >> 33;
            let id = if r % 2 == 0 {
                (r >> 1) % 10
            } else {
                1000 + (r % 100_000)
            };
            evs.clear();
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
        }
        let survivors = (0..10u64).filter(|&id| p.contains(id)).count();
        assert!(survivors >= 8, "hot set not retained: {survivors}/10");
    }

    #[test]
    fn beats_fifo_on_skew() {
        let trace = test_trace(30_000, 2000, 101);
        let mut lhd = Lhd::new(64).unwrap();
        let mut f = crate::Fifo::new(64).unwrap();
        let mr_l = miss_ratio_of(&mut lhd, &trace);
        let mr_f = miss_ratio_of(&mut f, &trace);
        assert!(mr_l < mr_f, "LHD {mr_l:.4} vs FIFO {mr_f:.4}");
    }

    #[test]
    fn key_vector_consistent_after_churn() {
        let mut p = Lhd::new(32).unwrap();
        let trace = test_trace(5000, 200, 103);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            assert_eq!(p.keys.len(), p.table.len());
        }
        for (i, &id) in p.keys.iter().enumerate() {
            assert_eq!(p.table[&id].slot, i, "slot mapping corrupted");
        }
    }

    #[test]
    fn basics() {
        let mut p = Lhd::new(100).unwrap();
        check_policy_basics(&mut p, 100);
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(Lhd::new(0).is_err());
    }
}
