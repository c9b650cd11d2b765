//! LeCaR — Learning Cache Replacement (Vietri et al., HotStorage '18), over
//! dense slots.
//!
//! LeCaR maintains one cache whose eviction decisions are delegated to one
//! of two experts — LRU and LFU — chosen at random according to learned
//! weights. Each expert has a ghost history of its evictions; a miss that
//! hits an expert's history means that expert's past decision was a mistake,
//! and the *other* expert's weight is multiplicatively increased (regret
//! minimization with discounted rewards).
//!
//! Slot-state conventions: `tag` is `RESIDENT` (0 = absent), the links
//! thread the LRU list, and `hits` is the LFU count less one; the LFU
//! expert is an [`LfuOrder`] stamped at insertion. The histories are
//! [`SlotGhost`]s. The time each slot last entered a history lives in an
//! array beside the slab, which catches up with its domain on insertion.

use super::LfuOrder;
use cache_ds::SplitMix64;
use cache_types::{CacheError, Eviction, Outcome, PolicyStats, Request};
use s3fifo::dense::{rule, serve, validate_queues, DenseSlab, Keyed, Queue, SlabPolicy, SlotGhost};

const RESIDENT: u8 = 1;

/// The history time of a slot whose history hit has been counted: it ages
/// as 0, as a history entry with no recorded time does.
const UNDATED: u64 = u64::MAX;

/// The LeCaR eviction algorithm over dense slots, with the published
/// defaults (learning rate 0.45, discount `0.005^(1/N)`).
#[derive(Debug)]
pub struct DenseLeCar {
    capacity: u64,
    slab: DenseSlab,
    /// LRU order; head = MRU.
    lru: Queue<rule::Lru>,
    /// LFU order, FIFO among equal counts; the first is the LFU victim.
    lfu: LfuOrder,
    /// Per slot: the request count when it last entered a history.
    ghost_time: Vec<u64>,
    /// Expert weights.
    w_lru: f64,
    w_lfu: f64,
    learning_rate: f64,
    discount: f64,
    /// Eviction histories.
    h_lru: SlotGhost,
    h_lfu: SlotGhost,
    now: u64,
    rng: SplitMix64,
    stats: PolicyStats,
}

impl DenseLeCar {
    /// Creates a LeCaR cache of `capacity` bytes over the dense domain
    /// `0..domain`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn with_domain(capacity: u64, domain: usize) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        Ok(DenseLeCar {
            capacity,
            slab: DenseSlab::with_domain(domain),
            lru: Queue::new(RESIDENT),
            lfu: LfuOrder::default(),
            ghost_time: vec![UNDATED; domain],
            w_lru: 0.5,
            w_lfu: 0.5,
            learning_rate: 0.45,
            discount: 0.005f64.powf(1.0 / capacity as f64),
            h_lru: SlotGhost::new(domain, capacity),
            h_lfu: SlotGhost::new(domain, capacity),
            now: 0,
            rng: SplitMix64::new(0x1eca2),
            stats: PolicyStats::default(),
        })
    }

    /// Current (w_lru, w_lfu) weights.
    pub fn weights(&self) -> (f64, f64) {
        (self.w_lru, self.w_lfu)
    }

    /// Applies the discounted multiplicative-weights update after a ghost
    /// hit at distance `age` requests in the past, punishing `mistaken_lru`.
    fn reward(&mut self, age: u64, mistaken_lru: bool) {
        let r = self.discount.powf(age as f64);
        if mistaken_lru {
            self.w_lfu *= (self.learning_rate * r).exp();
        } else {
            self.w_lru *= (self.learning_rate * r).exp();
        }
        let total = self.w_lru + self.w_lfu;
        self.w_lru /= total;
        self.w_lfu /= total;
    }

    fn evict_one(&mut self, evicted: &mut Vec<Eviction<u32>>) {
        let (Some(lv), Some(fv)) = (self.lru.tail(), self.lfu.first()) else {
            return;
        };
        let use_lru = lv == fv || self.rng.next_f64() < self.w_lru;
        let victim = if use_lru { lv } else { fv };
        self.lfu.remove(&self.slab, victim);
        self.lru.remove(&mut self.slab, victim);
        let size = self.slab.size(victim);
        evicted.push(self.slab.eviction(victim, false));
        if lv == fv {
            return;
        }
        let history = if use_lru {
            &mut self.h_lru
        } else {
            &mut self.h_lfu
        };
        history.insert(victim, size);
        self.ghost_time[victim as usize] = self.now;
    }

    /// A miss found in an expert's history rewards the other expert, more
    /// the more recent the mistake.
    fn learn_from_ghosts(&mut self, slot: u32) {
        let mistaken_lru = if self.h_lru.remove(slot) {
            true
        } else if self.h_lfu.remove(slot) {
            false
        } else {
            return;
        };
        let dated = std::mem::replace(&mut self.ghost_time[slot as usize], UNDATED);
        self.reward(self.now.saturating_sub(dated), mistaken_lru);
    }
}

impl SlabPolicy for DenseLeCar {
    fn with_capacity(capacity: u64) -> Result<Self, CacheError> {
        Self::with_domain(capacity, 0)
    }

    fn name(&self) -> String {
        "LeCaR".into()
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.lru.bytes()
    }

    fn len(&self) -> usize {
        self.lru.len() as usize
    }

    fn validate(&self) -> Result<(), String> {
        validate_queues("LeCaR", self.capacity, &self.slab, &[&self.lru])?;
        if !self.lfu.is_current(&self.slab, self.len()) {
            return Err("LeCaR: the LFU order is not the resident objects' counts".into());
        }
        self.h_lru.validate().map_err(|e| format!("LeCaR LRU history: {e}"))?;
        self.h_lfu.validate().map_err(|e| format!("LeCaR LFU history: {e}"))
    }

    fn state(&self) -> (&DenseSlab, &PolicyStats) {
        (&self.slab, &self.stats)
    }

    fn state_mut(&mut self) -> (&mut DenseSlab, &mut PolicyStats) {
        (&mut self.slab, &mut self.stats)
    }

    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        while self.lru.bytes() + u64::from(req.size) > self.capacity && !self.lru.is_empty() {
            self.evict_one(evicted);
        }
        if self.ghost_time.len() < self.slab.domain() {
            // `Keyed` grows the slab a slot at a time, and a stream grows it
            // by chunks: the history times follow.
            self.ghost_time.resize(self.slab.domain(), UNDATED);
        }
        self.slab.slots[slot as usize].on_insert(req);
        self.lru.push(&mut self.slab, slot);
        self.lfu.insert(&self.slab, slot);
    }

    fn hit(&mut self, slot: u32, _req: &Request) {
        self.lfu.hit(&mut self.slab, slot, false);
        self.lru.hit(&mut self.slab, slot);
    }

    fn miss(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        self.learn_from_ghosts(slot);
        self.admit(slot, req, evicted);
    }

    fn remove(&mut self, slot: u32) {
        if self.slab.slots[slot as usize].tag == RESIDENT {
            self.lfu.remove(&self.slab, slot);
            self.lru.remove(&mut self.slab, slot);
        }
    }

    #[inline]
    fn warm(&self, slot: u32) {
        self.lru.warm(&self.slab);
        self.h_lru.warm(slot);
        self.h_lfu.warm(slot);
    }

    fn step(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) -> Outcome {
        self.now += 1;
        serve(self, slot, req, evicted)
    }
}

/// LeCaR keyed by object id.
pub type LeCar = Keyed<DenseLeCar>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{check_policy_basics, miss_ratio_of, test_trace};
    use cache_types::Policy;

    #[test]
    fn weights_stay_normalized() {
        let mut p = LeCar::new(32).unwrap();
        let trace = test_trace(10_000, 500, 61);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            let (a, b) = p.weights();
            assert!((a + b - 1.0).abs() < 1e-9);
            assert!(a > 0.0 && b > 0.0);
        }
    }

    #[test]
    fn lfu_pressure_shifts_weights() {
        // Workload where the experts disagree: a high-frequency hot set
        // (which LFU protects and LRU lets age out during scans) plus a
        // stream of cold objects. Every time the LRU expert's choice evicts
        // a hot object, its next request hits the LRU history and rewards
        // the LFU expert.
        let mut p = LeCar::new(20).unwrap();
        let mut evs = Vec::new();
        let mut t = 0u64;
        for round in 0..100u64 {
            // Three passes over the hot set so surviving hot ids accumulate
            // frequency and the LFU expert's victim (a cold object) diverges
            // from the LRU expert's victim (the stalest hot id).
            for _rep in 0..3 {
                for id in 0..10u64 {
                    evs.clear();
                    p.request(&Request::get(id, t), &mut evs);
                    t += 1;
                }
            }
            // Cold stream short enough that mistakenly-evicted hot ids are
            // still inside the (cache-sized) LRU history window when the
            // next round re-requests them.
            for j in 0..15u64 {
                evs.clear();
                p.request(&Request::get(100_000 + round * 15 + j, t), &mut evs);
                t += 1;
            }
        }
        let (w_lru, w_lfu) = p.weights();
        assert!(
            w_lfu > w_lru,
            "LFU expert should dominate: w_lru {w_lru:.3}, w_lfu {w_lfu:.3}"
        );
        p.validate().unwrap();
    }

    #[test]
    fn capacity_bounded() {
        let mut p = LeCar::new(64).unwrap();
        let trace = test_trace(20_000, 1000, 67);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.used() <= 64);
        }
    }

    #[test]
    fn competitive_with_lru() {
        let trace = test_trace(30_000, 2000, 71);
        let mut lc = LeCar::new(64).unwrap();
        let mut lru = crate::Lru::new(64).unwrap();
        let mr_lc = miss_ratio_of(&mut lc, &trace);
        let mr_lru = miss_ratio_of(&mut lru, &trace);
        assert!(
            mr_lc <= mr_lru + 0.03,
            "LeCaR {mr_lc:.4} should be near LRU {mr_lru:.4}"
        );
    }

    #[test]
    fn basics() {
        let mut p = LeCar::new(100).unwrap();
        check_policy_basics(&mut p, 100);
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(LeCar::new(0).is_err());
    }
}
