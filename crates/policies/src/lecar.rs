//! LeCaR — Learning Cache Replacement (Vietri et al., HotStorage '18).
//!
//! LeCaR maintains one cache whose eviction decisions are delegated to one
//! of two experts — LRU and LFU — chosen at random according to learned
//! weights. Each expert has a ghost history of its evictions; a miss that
//! hits an expert's history means that expert's past decision was a mistake,
//! and the *other* expert's weight is multiplicatively increased (regret
//! minimization with discounted rewards).

use crate::util::Meta;
use cache_ds::{DList, GhostFifo, Handle, IdMap, SplitMix64};
use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};
use std::collections::BTreeSet;

struct Entry {
    /// Handle in the LRU list.
    handle: Handle,
    /// Access count (LFU key component).
    freq: u64,
    meta: Meta,
}

/// The LeCaR eviction algorithm with the published defaults
/// (learning rate 0.45, discount `0.005^(1/N)`).
pub struct LeCar {
    capacity: u64,
    used: u64,
    table: IdMap<Entry>,
    /// LRU order; head = MRU.
    lru: DList<ObjId>,
    /// LFU order: (freq, insertion sequence, id); minimum = LFU victim.
    lfu: BTreeSet<(u64, u64, ObjId)>,
    /// Sequence numbers for LFU tie-breaking (FIFO among equal freq).
    seq: u64,
    seq_of: IdMap<u64>,
    /// Expert weights.
    w_lru: f64,
    w_lfu: f64,
    learning_rate: f64,
    discount: f64,
    /// Eviction histories.
    h_lru: GhostFifo,
    h_lfu: GhostFifo,
    /// Eviction time of ghosts, for discounted regret.
    ghost_time: IdMap<u64>,
    now: u64,
    rng: SplitMix64,
    stats: PolicyStats,
}

impl LeCar {
    /// Creates a LeCaR cache of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn new(capacity: u64) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        Ok(LeCar {
            capacity,
            used: 0,
            table: IdMap::default(),
            lru: DList::new(),
            lfu: BTreeSet::new(),
            seq: 0,
            seq_of: IdMap::default(),
            w_lru: 0.5,
            w_lfu: 0.5,
            learning_rate: 0.45,
            discount: 0.005f64.powf(1.0 / capacity as f64),
            h_lru: GhostFifo::new(capacity),
            h_lfu: GhostFifo::new(capacity),
            ghost_time: IdMap::default(),
            now: 0,
            rng: SplitMix64::new(0x1eca2),
            stats: PolicyStats::default(),
        })
    }

    /// Current (w_lru, w_lfu) weights.
    pub fn weights(&self) -> (f64, f64) {
        (self.w_lru, self.w_lfu)
    }

    fn lfu_key(&self, id: ObjId) -> (u64, u64, ObjId) {
        let e = &self.table[&id];
        (e.freq, self.seq_of[&id], id)
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

    fn evict_one(&mut self, evicted: &mut Vec<Eviction>) {
        let lru_victim = self.lru.back().copied();
        let lfu_victim = self.lfu.iter().next().map(|&(_, _, id)| id);
        let (Some(lv), Some(fv)) = (lru_victim, lfu_victim) else {
            return;
        };
        let use_lru = lv == fv || self.rng.next_f64() < self.w_lru;
        let victim = if use_lru { lv } else { fv };
        let key = self.lfu_key(victim);
        // Invariant: the victim came from a non-empty queue of tabled ids.
        let entry = self.table.remove(&victim).expect("victim in table");
        self.lru.remove(entry.handle);
        self.lfu.remove(&key);
        self.seq_of.remove(&victim);
        self.used -= u64::from(entry.meta.size);
        self.stats.evictions += 1;
        evicted.push(entry.meta.eviction(victim, false));
        if lv != fv {
            if use_lru {
                self.h_lru.insert(victim, entry.meta.size);
            } else {
                self.h_lfu.insert(victim, entry.meta.size);
            }
            self.ghost_time.insert(victim, self.now);
        }
    }

    fn insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        while self.used + u64::from(req.size) > self.capacity && !self.table.is_empty() {
            self.evict_one(evicted);
        }
        let handle = self.lru.push_front(req.id);
        self.seq += 1;
        self.seq_of.insert(req.id, self.seq);
        self.table.insert(
            req.id,
            Entry {
                handle,
                freq: 1,
                meta: Meta::new(req.size, req.time),
            },
        );
        self.lfu.insert((1, self.seq, req.id));
        self.used += u64::from(req.size);
    }

    fn on_hit(&mut self, id: ObjId, now: u64) {
        let old_key = self.lfu_key(id);
        // Invariant: on_hit fires only after a successful lookup.
        let e = self.table.get_mut(&id).expect("hit id in table");
        e.meta.touch(now);
        e.freq += 1;
        let new_key = (e.freq, old_key.1, id);
        let h = e.handle;
        self.lru.move_to_front(h);
        self.lfu.remove(&old_key);
        self.lfu.insert(new_key);
    }

    fn learn_from_ghosts(&mut self, id: ObjId) {
        let age = self
            .ghost_time
            .get(&id)
            .map(|&t| self.now.saturating_sub(t))
            .unwrap_or(0);
        if self.h_lru.remove(id) {
            self.reward(age, true);
            self.ghost_time.remove(&id);
        } else if self.h_lfu.remove(id) {
            self.reward(age, false);
            self.ghost_time.remove(&id);
        }
        // Bound the side table.
        if self.ghost_time.len() > 4 * (self.h_lru.len() + self.h_lfu.len() + 16) {
            let live: Vec<ObjId> = self
                .ghost_time
                .keys()
                .copied()
                .filter(|&g| self.h_lru.contains(g) || self.h_lfu.contains(g))
                .collect();
            let mut fresh: IdMap<u64> = IdMap::default();
            for g in live {
                fresh.insert(g, self.ghost_time[&g]);
            }
            self.ghost_time = fresh;
        }
    }

    fn delete(&mut self, id: ObjId) {
        if self.table.contains_key(&id) {
            let key = self.lfu_key(id);
            // Invariant: contains_key just succeeded.
            let e = self.table.remove(&id).expect("entry exists");
            self.lru.remove(e.handle);
            self.lfu.remove(&key);
            self.seq_of.remove(&id);
            self.used -= u64::from(e.meta.size);
        }
    }
}

impl Policy for LeCar {
    fn name(&self) -> String {
        "LeCaR".into()
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
        match req.op {
            Op::Get => {
                if self.table.contains_key(&req.id) {
                    self.on_hit(req.id, req.time);
                    self.stats.record_get(req.size, false);
                    Outcome::Hit
                } else if u64::from(req.size) > self.capacity {
                    self.stats.record_get(req.size, true);
                    Outcome::Uncacheable
                } else {
                    self.stats.record_get(req.size, true);
                    self.learn_from_ghosts(req.id);
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
