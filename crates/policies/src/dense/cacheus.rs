//! CACHEUS (Rodriguez et al., FAST '21), over dense slots.
//!
//! CACHEUS is LeCaR's successor: two *scan- and churn-resistant* experts —
//! SR-LRU and CR-LFU — mixed with a regret-minimizing weight update whose
//! learning rate adapts online.
//!
//! This implementation follows the published design at the level the
//! paper's comparison needs:
//!
//! - **SR-LRU** keeps a demoted (probationary) region `SR` and a protected
//!   region `R`. New and once-used blocks live in `SR`; a hit in `SR`
//!   promotes to `R`; `R` overflow demotes back to `SR`. SR-LRU's victim is
//!   the `SR` tail, which makes the expert scan-resistant.
//! - **CR-LFU** is LFU with churn resistance: on frequency ties the *most*
//!   recently used block is the victim's tie-break survivor (implemented by
//!   preferring to evict the least recently used among minimum-frequency
//!   blocks).
//! - The adaptive learning rate follows CACHEUS's scheme: the rate is
//!   bumped when the hit rate over a window degrades and decayed otherwise.
//!
//! Slot-state conventions: `tag` is the region (`SR` or `R`; 0 = absent),
//! the links thread that region's list, and `hits` is the LFU count less
//! one; CR-LFU is an [`LfuOrder`] stamped at insertion and at every hit.
//! The experts' histories are [`SlotGhost`]s.

use super::LfuOrder;
use cache_ds::SplitMix64;
use cache_types::{CacheError, Eviction, Outcome, PolicyStats, Request};
use s3fifo::dense::{rule, serve, validate_queues, DenseSlab, Keyed, Queue, SlabPolicy, SlotGhost};

/// Probationary (scan-resistant) region of SR-LRU.
const SR: u8 = 1;
/// Protected region.
const R: u8 = 2;

/// The CACHEUS eviction algorithm over dense slots.
#[derive(Debug)]
pub struct DenseCacheus {
    capacity: u64,
    /// Target size of the protected region (half the cache, adapted by
    /// demotions).
    r_capacity: u64,
    slab: DenseSlab,
    sr: Queue<rule::Lru>,
    r: Queue<rule::Lru>,
    /// CR-LFU order, least recently used among equal counts first.
    lfu: LfuOrder,
    w_srlru: f64,
    w_crlfu: f64,
    learning_rate: f64,
    h_srlru: SlotGhost,
    h_crlfu: SlotGhost,
    /// Hit tracking for learning-rate adaptation.
    window_hits: u64,
    window_reqs: u64,
    prev_hit_rate: f64,
    rng: SplitMix64,
    stats: PolicyStats,
}

impl DenseCacheus {
    /// Creates a CACHEUS cache of `capacity` bytes over the dense domain
    /// `0..domain`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn with_domain(capacity: u64, domain: usize) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        Ok(DenseCacheus {
            capacity,
            r_capacity: (capacity / 2).max(1),
            slab: DenseSlab::with_domain(domain),
            sr: Queue::new(SR),
            r: Queue::new(R),
            lfu: LfuOrder::default(),
            w_srlru: 0.5,
            w_crlfu: 0.5,
            learning_rate: 0.45,
            h_srlru: SlotGhost::new(domain, capacity / 2),
            h_crlfu: SlotGhost::new(domain, capacity / 2),
            window_hits: 0,
            window_reqs: 0,
            prev_hit_rate: 0.0,
            rng: SplitMix64::new(0xCAC0),
            stats: PolicyStats::default(),
        })
    }

    /// Current (w_srlru, w_crlfu) weights.
    pub fn weights(&self) -> (f64, f64) {
        (self.w_srlru, self.w_crlfu)
    }

    fn reward(&mut self, mistaken_srlru: bool) {
        if mistaken_srlru {
            self.w_crlfu *= self.learning_rate.exp();
        } else {
            self.w_srlru *= self.learning_rate.exp();
        }
        let total = self.w_srlru + self.w_crlfu;
        self.w_srlru /= total;
        self.w_crlfu /= total;
    }

    /// CACHEUS adapts its learning rate based on hit-rate movement over
    /// windows of `capacity` requests.
    fn adapt_learning_rate(&mut self) {
        if self.window_reqs < self.capacity.clamp(64, 1 << 16) {
            return;
        }
        let hit_rate = self.window_hits as f64 / self.window_reqs as f64;
        if hit_rate < self.prev_hit_rate {
            // Performance degraded: explore with a larger rate.
            self.learning_rate = (self.learning_rate * 1.1).min(1.0);
        } else {
            self.learning_rate = (self.learning_rate * 0.9).max(0.001);
        }
        self.prev_hit_rate = hit_rate;
        self.window_hits = 0;
        self.window_reqs = 0;
    }

    /// Takes resident `slot` out of its region and the CR-LFU order and
    /// returns the region it was in.
    fn remove_entry(&mut self, slot: u32) -> u8 {
        let region = self.slab.slots[slot as usize].tag;
        if region == SR {
            self.sr.remove(&mut self.slab, slot);
        } else {
            self.r.remove(&mut self.slab, slot);
        }
        self.lfu.remove(&self.slab, slot);
        region
    }

    fn evict_one(&mut self, evicted: &mut Vec<Eviction<u32>>) {
        let srlru_victim = self.sr.tail().or_else(|| self.r.tail());
        let (Some(sv), Some(fv)) = (srlru_victim, self.lfu.first()) else {
            return;
        };
        let use_srlru = sv == fv || self.rng.next_f64() < self.w_srlru;
        let victim = if use_srlru { sv } else { fv };
        let size = self.slab.size(victim);
        let region = self.remove_entry(victim);
        evicted.push(self.slab.eviction(victim, region == SR));
        if sv == fv {
            return;
        }
        let history = if use_srlru {
            &mut self.h_srlru
        } else {
            &mut self.h_crlfu
        };
        history.insert(victim, size);
    }

    /// R-region overflow demotes its LRU tail into SR (scan resistance).
    fn rebalance(&mut self) {
        while self.r.bytes() > self.r_capacity {
            let Some(slot) = self.r.evict(&mut self.slab) else {
                break;
            };
            self.sr.push(&mut self.slab, slot);
        }
    }

    fn learn_from_ghosts(&mut self, slot: u32) {
        if self.h_srlru.remove(slot) {
            self.reward(true);
        } else if self.h_crlfu.remove(slot) {
            self.reward(false);
        }
    }
}

impl SlabPolicy for DenseCacheus {
    fn with_capacity(capacity: u64) -> Result<Self, CacheError> {
        Self::with_domain(capacity, 0)
    }

    fn name(&self) -> String {
        "CACHEUS".into()
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.sr.bytes() + self.r.bytes()
    }

    fn len(&self) -> usize {
        (self.sr.len() + self.r.len()) as usize
    }

    fn validate(&self) -> Result<(), String> {
        validate_queues("CACHEUS", self.capacity, &self.slab, &[&self.sr, &self.r])?;
        if !self.lfu.is_current(&self.slab, self.len()) {
            return Err("CACHEUS: the CR-LFU order is not the resident objects' counts".into());
        }
        self.h_srlru.validate().map_err(|e| format!("CACHEUS SR-LRU history: {e}"))?;
        self.h_crlfu.validate().map_err(|e| format!("CACHEUS CR-LFU history: {e}"))
    }

    fn state(&self) -> (&DenseSlab, &PolicyStats) {
        (&self.slab, &self.stats)
    }

    fn state_mut(&mut self) -> (&mut DenseSlab, &mut PolicyStats) {
        (&mut self.slab, &mut self.stats)
    }

    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        while self.used() + u64::from(req.size) > self.capacity && self.len() > 0 {
            self.evict_one(evicted);
        }
        self.slab.slots[slot as usize].on_insert(req);
        self.sr.push(&mut self.slab, slot);
        self.lfu.insert(&self.slab, slot);
    }

    fn hit(&mut self, slot: u32, _req: &Request) {
        // CR-LFU bookkeeping: bump frequency, refresh recency.
        self.lfu.hit(&mut self.slab, slot, true);
        // SR-LRU bookkeeping: SR hit promotes to R; R hit refreshes.
        if self.slab.slots[slot as usize].tag == R {
            self.r.hit(&mut self.slab, slot);
            return;
        }
        self.sr.remove(&mut self.slab, slot);
        self.r.push(&mut self.slab, slot);
        self.rebalance();
    }

    fn miss(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        self.learn_from_ghosts(slot);
        self.admit(slot, req, evicted);
    }

    fn remove(&mut self, slot: u32) {
        if self.slab.slots[slot as usize].tag != 0 {
            self.remove_entry(slot);
        }
    }

    #[inline]
    fn warm(&self, slot: u32) {
        self.sr.warm(&self.slab);
        self.r.warm(&self.slab);
        self.h_srlru.warm(slot);
        self.h_crlfu.warm(slot);
    }

    fn step(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) -> Outcome {
        let outcome = serve(self, slot, req, evicted);
        if req.is_read() {
            self.window_reqs += 1;
            self.window_hits += u64::from(outcome.is_hit());
            self.adapt_learning_rate();
        }
        outcome
    }
}

/// CACHEUS keyed by object id.
pub type Cacheus = Keyed<DenseCacheus>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{check_policy_basics, miss_ratio_of, test_trace};
    use cache_types::Policy;

    #[test]
    fn weights_normalized_under_load() {
        let mut p = Cacheus::new(32).unwrap();
        let trace = test_trace(10_000, 500, 73);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            let (a, b) = p.weights();
            assert!((a + b - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sr_hit_promotes_to_r() {
        let mut p = Cacheus::new(10).unwrap();
        let mut evs = Vec::new();
        let region = |p: &Cacheus| p.slab.slots[p.slot_of(1).unwrap() as usize].tag;
        p.request(&Request::get(1, 0), &mut evs);
        assert_eq!(region(&p), SR);
        p.request(&Request::get(1, 1), &mut evs);
        assert_eq!(region(&p), R);
    }

    #[test]
    fn capacity_bounded() {
        let mut p = Cacheus::new(64).unwrap();
        let trace = test_trace(20_000, 1000, 79);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.used() <= 64);
        }
        p.validate().unwrap();
    }

    #[test]
    fn learning_rate_stays_in_range() {
        let mut p = Cacheus::new(64).unwrap();
        let trace = test_trace(50_000, 2000, 83);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
        }
        assert!(p.learning_rate >= 0.001 && p.learning_rate <= 1.0);
    }

    #[test]
    fn scan_resistant_working_set() {
        let mut p = Cacheus::new(20).unwrap();
        let mut evs = Vec::new();
        let mut t = 0u64;
        for id in 0..8u64 {
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
        }
        for id in 1000..1100u64 {
            evs.clear();
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
        }
        let survivors = (0..8u64).filter(|&id| p.contains(id)).count();
        assert!(survivors >= 5, "R region flushed: {survivors}/8");
    }

    #[test]
    fn competitive_with_lru() {
        let trace = test_trace(30_000, 2000, 89);
        let mut c = Cacheus::new(64).unwrap();
        let mut l = crate::Lru::new(64).unwrap();
        let mr_c = miss_ratio_of(&mut c, &trace);
        let mr_l = miss_ratio_of(&mut l, &trace);
        assert!(mr_c <= mr_l + 0.03, "CACHEUS {mr_c:.4} vs LRU {mr_l:.4}");
    }

    #[test]
    fn basics() {
        let mut p = Cacheus::new(100).unwrap();
        check_policy_basics(&mut p, 100);
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(Cacheus::new(0).is_err());
    }
}
