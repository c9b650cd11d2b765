//! CACHEUS (Rodriguez et al., FAST '21).
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

use crate::util::Meta;
use cache_ds::{DList, GhostFifo, Handle, IdMap, SplitMix64};
use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    /// Probationary (scan-resistant) region of SR-LRU.
    Sr,
    /// Protected region.
    R,
}

struct Entry {
    handle: Handle,
    region: Region,
    freq: u64,
    lfu_seq: u64,
    meta: Meta,
}

/// The CACHEUS eviction algorithm.
pub struct Cacheus {
    capacity: u64,
    /// Target size of the protected region (half the cache, adapted by
    /// demotions).
    r_capacity: u64,
    used: u64,
    sr_used: u64,
    r_used: u64,
    table: IdMap<Entry>,
    sr: DList<ObjId>,
    r: DList<ObjId>,
    /// CR-LFU order: (freq, lru_seq, id); min = victim.
    lfu: BTreeSet<(u64, u64, ObjId)>,
    seq: u64,
    w_srlru: f64,
    w_crlfu: f64,
    learning_rate: f64,
    h_srlru: GhostFifo,
    h_crlfu: GhostFifo,
    /// Hit tracking for learning-rate adaptation.
    window_hits: u64,
    window_reqs: u64,
    prev_hit_rate: f64,
    rng: SplitMix64,
    stats: PolicyStats,
}

impl Cacheus {
    /// Creates a CACHEUS cache of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn new(capacity: u64) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        Ok(Cacheus {
            capacity,
            r_capacity: (capacity / 2).max(1),
            used: 0,
            sr_used: 0,
            r_used: 0,
            table: IdMap::default(),
            sr: DList::new(),
            r: DList::new(),
            lfu: BTreeSet::new(),
            seq: 0,
            w_srlru: 0.5,
            w_crlfu: 0.5,
            learning_rate: 0.45,
            h_srlru: GhostFifo::new(capacity / 2),
            h_crlfu: GhostFifo::new(capacity / 2),
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

    fn srlru_victim(&self) -> Option<ObjId> {
        self.sr.back().copied().or_else(|| self.r.back().copied())
    }

    fn crlfu_victim(&self) -> Option<ObjId> {
        self.lfu.iter().next().map(|&(_, _, id)| id)
    }

    fn remove_entry(&mut self, id: ObjId) -> Entry {
        // Invariant: callers only remove resident ids.
        let entry = self.table.remove(&id).expect("entry in table");
        match entry.region {
            Region::Sr => {
                self.sr.remove(entry.handle);
                self.sr_used -= u64::from(entry.meta.size);
            }
            Region::R => {
                self.r.remove(entry.handle);
                self.r_used -= u64::from(entry.meta.size);
            }
        }
        self.lfu.remove(&(entry.freq, entry.lfu_seq, id));
        self.used -= u64::from(entry.meta.size);
        entry
    }

    fn evict_one(&mut self, evicted: &mut Vec<Eviction>) {
        let (Some(sv), Some(fv)) = (self.srlru_victim(), self.crlfu_victim()) else {
            return;
        };
        let use_srlru = sv == fv || self.rng.next_f64() < self.w_srlru;
        let victim = if use_srlru { sv } else { fv };
        let entry = self.remove_entry(victim);
        self.stats.evictions += 1;
        evicted.push(entry.meta.eviction(victim, entry.region == Region::Sr));
        if sv != fv {
            if use_srlru {
                self.h_srlru.insert(victim, entry.meta.size);
            } else {
                self.h_crlfu.insert(victim, entry.meta.size);
            }
        }
    }

    /// R-region overflow demotes its LRU tail into SR (scan resistance).
    fn rebalance(&mut self) {
        while self.r_used > self.r_capacity {
            let Some(id) = self.r.pop_back() else { break };
            let e = self.table.get_mut(&id).expect("r id in table");
            self.r_used -= u64::from(e.meta.size);
            e.region = Region::Sr;
            e.handle = self.sr.push_front(id);
            self.sr_used += u64::from(e.meta.size);
        }
    }

    fn insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        while self.used + u64::from(req.size) > self.capacity && !self.table.is_empty() {
            self.evict_one(evicted);
        }
        self.seq += 1;
        let handle = self.sr.push_front(req.id);
        self.table.insert(
            req.id,
            Entry {
                handle,
                region: Region::Sr,
                freq: 1,
                lfu_seq: self.seq,
                meta: Meta::new(req.size, req.time),
            },
        );
        self.lfu.insert((1, self.seq, req.id));
        self.sr_used += u64::from(req.size);
        self.used += u64::from(req.size);
    }

    fn on_hit(&mut self, id: ObjId, now: u64) {
        let (region, freq, lfu_seq, handle, size) = {
            // Invariant: on_hit fires only after a successful lookup.
            let e = self.table.get_mut(&id).expect("hit id in table");
            e.meta.touch(now);
            (e.region, e.freq, e.lfu_seq, e.handle, e.meta.size)
        };
        // CR-LFU bookkeeping: bump frequency, refresh recency sequence.
        self.lfu.remove(&(freq, lfu_seq, id));
        self.seq += 1;
        let new_seq = self.seq;
        {
            // Invariant: still tabled — the entry was read a moment ago.
            let e = self.table.get_mut(&id).expect("entry exists");
            e.freq = freq + 1;
            e.lfu_seq = new_seq;
        }
        self.lfu.insert((freq + 1, new_seq, id));
        // SR-LRU bookkeeping: SR hit promotes to R; R hit refreshes.
        match region {
            Region::Sr => {
                self.sr.remove(handle);
                self.sr_used -= u64::from(size);
                let h = self.r.push_front(id);
                self.r_used += u64::from(size);
                // Invariant: still tabled — only the region handle changed.
                let e = self.table.get_mut(&id).expect("entry exists");
                e.region = Region::R;
                e.handle = h;
                self.rebalance();
            }
            Region::R => {
                self.r.move_to_front(handle);
            }
        }
    }

    fn learn_from_ghosts(&mut self, id: ObjId) {
        if self.h_srlru.remove(id) {
            self.reward(true);
        } else if self.h_crlfu.remove(id) {
            self.reward(false);
        }
    }

    fn delete(&mut self, id: ObjId) {
        if self.table.contains_key(&id) {
            self.remove_entry(id);
        }
    }
}

impl Policy for Cacheus {
    fn name(&self) -> String {
        "CACHEUS".into()
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
                self.window_reqs += 1;
                let out = if self.table.contains_key(&req.id) {
                    self.window_hits += 1;
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
                };
                self.adapt_learning_rate();
                out
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
        p.request(&Request::get(1, 0), &mut evs);
        assert_eq!(p.table[&1].region, Region::Sr);
        p.request(&Request::get(1, 1), &mut evs);
        assert_eq!(p.table[&1].region, Region::R);
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
