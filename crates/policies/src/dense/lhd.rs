//! LHD — Least Hit Density (Beckmann, Chen & Cidon, NSDI '18), over dense
//! slots.
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
//!
//! Slot-state conventions: `tag` is `RESIDENT` (0 = absent); no queue
//! threads the links. The sampling vector holds the resident slots, and each
//! slot's last access and place in that vector live in arrays beside the
//! slab, which catch up with its domain on insertion. Samples are drawn by
//! position, so both doors pick the same objects.

use cache_ds::SplitMix64;
use cache_types::{CacheError, Eviction, Outcome, PolicyStats, Request};
use s3fifo::dense::{serve, DenseSlab, Keyed, SlabPolicy};

const ABSENT: u8 = 0;
const RESIDENT: u8 = 1;

const AGE_BUCKETS: usize = 40;
const SAMPLES: usize = 16;

/// The LHD eviction algorithm (sampled, age-bucketed) over dense slots.
#[derive(Debug)]
pub struct DenseLhd {
    capacity: u64,
    used: u64,
    slab: DenseSlab,
    /// Resident slots, for uniform sampling.
    keys: Vec<u32>,
    /// Per slot: the time of its last access (insertion or hit).
    last_access: Vec<u64>,
    /// Per slot: its index in `keys`, while resident.
    pos: Vec<u32>,
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

impl DenseLhd {
    /// Creates an LHD cache of `capacity` bytes over the dense domain
    /// `0..domain`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn with_domain(capacity: u64, domain: usize) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        let mut lhd = DenseLhd {
            capacity,
            used: 0,
            slab: DenseSlab::with_domain(domain),
            keys: Vec::new(),
            last_access: vec![0; domain],
            pos: vec![0; domain],
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

    /// Requests since `slot` was last accessed.
    fn age_of(&self, slot: u32) -> u64 {
        self.now.saturating_sub(self.last_access[slot as usize])
    }

    fn density_of(&self, slot: u32) -> f64 {
        let b = Self::bucket_of(self.age_of(slot));
        self.density[b] / f64::from(self.slab.size(slot).max(1))
    }

    /// Takes resident `slot` out of the sampling vector.
    fn remove_slot(&mut self, slot: u32) {
        let pos = self.pos[slot as usize];
        self.keys.swap_remove(pos as usize);
        if let Some(&moved) = self.keys.get(pos as usize) {
            self.pos[moved as usize] = pos;
        }
        self.slab.slots[slot as usize].tag = ABSENT;
        self.used -= u64::from(self.slab.size(slot));
    }

    fn evict_one(&mut self, evicted: &mut Vec<Eviction<u32>>) {
        // Sample up to SAMPLES distinct-ish candidates; duplicates are
        // harmless (they only reduce effective sample size).
        let mut victim: Option<(f64, u32)> = None;
        for _ in 0..SAMPLES.min(self.keys.len() * 2) {
            let idx = self.rng.next_below(self.keys.len() as u64) as usize;
            let slot = self.keys[idx];
            let d = self.density_of(slot);
            if victim.is_none_or(|(vd, _)| d < vd) {
                victim = Some((d, slot));
            }
        }
        let Some((_, slot)) = victim else {
            return;
        };
        self.remove_slot(slot);
        self.ends[Self::bucket_of(self.age_of(slot))] += 1.0;
        evicted.push(self.slab.eviction(slot, false));
    }
}

impl SlabPolicy for DenseLhd {
    const GHOSTLESS: bool = true;

    fn with_capacity(capacity: u64) -> Result<Self, CacheError> {
        Self::with_domain(capacity, 0)
    }

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
        self.keys.len()
    }

    /// The sampling vector is the resident set, each slot where it says it
    /// is, and accounts for the bytes in use.
    fn validate(&self) -> Result<(), String> {
        let misplaced = self.keys.iter().enumerate().find(|&(i, &slot)| {
            self.slab.slots[slot as usize].tag != RESIDENT || self.pos[slot as usize] as usize != i
        });
        if let Some((i, slot)) = misplaced {
            return Err(format!(
                "LHD: sampled slot {slot} at {i} is not resident there"
            ));
        }
        let tagged = self.slab.slots.iter().filter(|s| s.tag != ABSENT).count();
        let bytes: u64 = self
            .keys
            .iter()
            .map(|&slot| u64::from(self.slab.size(slot)))
            .sum();
        if (tagged, bytes) != (self.keys.len(), self.used) || self.used > self.capacity {
            return Err(format!(
                "LHD: {} sampled slots of {bytes} bytes, but {tagged} resident and {} used of {}",
                self.keys.len(),
                self.used,
                self.capacity
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

    fn hit(&mut self, slot: u32, req: &Request) {
        let age = self.age_of(slot);
        self.last_access[slot as usize] = req.time;
        self.slab.slots[slot as usize].touch();
        self.hits[Self::bucket_of(age)] += 1.0;
    }

    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        while self.used + u64::from(req.size) > self.capacity && !self.keys.is_empty() {
            self.evict_one(evicted);
        }
        if self.pos.len() < self.slab.domain() {
            // `Keyed` grows the slab a slot at a time, and a stream grows it
            // by chunks: the side arrays follow.
            self.last_access.resize(self.slab.domain(), 0);
            self.pos.resize(self.slab.domain(), 0);
        }
        self.last_access[slot as usize] = req.time;
        self.pos[slot as usize] = self.keys.len() as u32;
        self.keys.push(slot);
        let s = &mut self.slab.slots[slot as usize];
        s.tag = RESIDENT;
        s.on_insert(req);
        self.used += u64::from(req.size);
    }

    fn remove(&mut self, slot: u32) {
        if self.slab.slots[slot as usize].tag != ABSENT {
            self.remove_slot(slot);
        }
    }

    fn step(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) -> Outcome {
        self.now += 1;
        self.since_reconfigure += 1;
        if self.since_reconfigure >= self.reconfigure_every {
            self.reconfigure();
        }
        serve(self, slot, req, evicted)
    }
}

/// LHD keyed by object id.
pub type Lhd = Keyed<DenseLhd>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{check_policy_basics, miss_ratio_of, test_trace};
    use cache_types::Policy;

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
        // Hot set accessed continuously while cold objects stream through.
        let mut state = 1u64;
        for t in 0..30_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = state >> 33;
            let id = if r.is_multiple_of(2) {
                (r >> 1) % 10
            } else {
                1000 + (r % 100_000)
            };
            evs.clear();
            p.request(&Request::get(id, t), &mut evs);
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
    fn sampling_vector_consistent_after_churn() {
        let mut p = Lhd::new(32).unwrap();
        let trace = test_trace(5000, 200, 103);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            assert_eq!(p.keys.len(), p.len());
        }
        p.validate().unwrap();
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
