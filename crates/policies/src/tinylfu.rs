//! W-TinyLFU (Einziger, Friedman & Manes, ACM ToS '17).
//!
//! §5.2 calls TinyLFU "the closest competitor" to S3-FIFO. A small LRU
//! *window* (1 % of the cache by default; `TinyLFU-0.1` uses 10 %) absorbs
//! new objects; the main region is a 2-segment SLRU (80 % protected). A
//! count-min sketch with a doorkeeper estimates frequencies over a sliding
//! window. When the window overflows, its LRU candidate is admitted to the
//! main region only if its estimated frequency beats the main region's
//! eviction candidate — the comparison §5.2 blames for TinyLFU's failure
//! mode: "if the tail object in the SLRU happens to have a very high
//! frequency, it may lead to the eviction of an excessive number of new and
//! potentially useful objects."

use crate::util::Meta;
use cache_ds::{DList, Doorkeeper, Handle, IdMap};
use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Window,
    Probation,
    Protected,
}

struct Entry {
    handle: Handle,
    loc: Loc,
    meta: Meta,
}

/// The W-TinyLFU eviction algorithm.
pub struct TinyLfu {
    capacity: u64,
    window_capacity: u64,
    protected_capacity: u64,
    window: DList<ObjId>,
    probation: DList<ObjId>,
    protected: DList<ObjId>,
    window_used: u64,
    probation_used: u64,
    protected_used: u64,
    table: IdMap<Entry>,
    sketch: Doorkeeper,
    window_ratio: f64,
    stats: PolicyStats,
}

impl TinyLfu {
    /// Creates a W-TinyLFU cache with the classic 1 % window.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn new(capacity: u64) -> Result<Self, CacheError> {
        Self::with_window(capacity, 0.01)
    }

    /// Creates a W-TinyLFU cache with a window of `window_ratio` of the
    /// capacity (the paper evaluates 0.01 and 0.1).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] for a zero capacity or a ratio outside (0,1).
    pub fn with_window(capacity: u64, window_ratio: f64) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        if !(window_ratio > 0.0 && window_ratio < 1.0) {
            return Err(CacheError::InvalidParameter(format!(
                "window_ratio must be in (0,1), got {window_ratio}"
            )));
        }
        let window_capacity = ((capacity as f64 * window_ratio).round() as u64).max(1);
        let main = capacity.saturating_sub(window_capacity).max(1);
        Ok(TinyLfu {
            capacity,
            window_capacity,
            protected_capacity: (main * 8 / 10).max(1),
            window: DList::new(),
            probation: DList::new(),
            protected: DList::new(),
            window_used: 0,
            probation_used: 0,
            protected_used: 0,
            table: IdMap::default(),
            sketch: Doorkeeper::new((capacity as usize).clamp(16, 1 << 22)),
            window_ratio,
            stats: PolicyStats::default(),
        })
    }

    fn used_total(&self) -> u64 {
        self.window_used + self.probation_used + self.protected_used
    }

    fn list(&mut self, loc: Loc) -> &mut DList<ObjId> {
        match loc {
            Loc::Window => &mut self.window,
            Loc::Probation => &mut self.probation,
            Loc::Protected => &mut self.protected,
        }
    }

    fn used_of(&mut self, loc: Loc) -> &mut u64 {
        match loc {
            Loc::Window => &mut self.window_used,
            Loc::Probation => &mut self.probation_used,
            Loc::Protected => &mut self.protected_used,
        }
    }

    fn remove_from(&mut self, id: ObjId) -> (Loc, Meta) {
        // Invariant: callers only remove resident ids.
        let entry = self.table.remove(&id).expect("id in table");
        self.list(entry.loc).remove(entry.handle);
        *self.used_of(entry.loc) -= u64::from(entry.meta.size);
        (entry.loc, entry.meta)
    }

    fn insert_into(&mut self, id: ObjId, loc: Loc, meta: Meta) {
        let handle = self.list(loc).push_front(id);
        *self.used_of(loc) += u64::from(meta.size);
        self.table.insert(id, Entry { handle, loc, meta });
    }

    /// Demotes protected-segment overflow into probation.
    fn rebalance_protected(&mut self) {
        while self.protected_used > self.protected_capacity {
            let Some(id) = self.protected.pop_back() else {
                break;
            };
            // Invariant: protected ids are always tabled.
            let e = self.table.get_mut(&id).expect("protected id in table");
            self.protected_used -= u64::from(e.meta.size);
            e.loc = Loc::Probation;
            e.handle = self.probation.push_front(id);
            self.probation_used += u64::from(e.meta.size);
        }
    }

    /// The TinyLFU admission duel: when the window overflows, its tail
    /// candidate fights the main region's eviction candidate on estimated
    /// frequency; the loser is evicted.
    fn maintain(&mut self, evicted: &mut Vec<Eviction>) {
        while self.window_used > self.window_capacity {
            let Some(&candidate) = self.window.back() else {
                break;
            };
            let (_, meta) = self.remove_from(candidate);
            // While the cache is not yet full, admit without a duel.
            if self.used_total() + u64::from(meta.size) <= self.capacity {
                self.insert_into(candidate, Loc::Probation, meta);
                continue;
            }
            // Main region victim comes from probation (or protected when
            // probation is empty).
            let victim = self
                .probation
                .back()
                .or_else(|| self.protected.back())
                .copied();
            match victim {
                None => {
                    // Main region empty: admit unconditionally.
                    self.insert_into(candidate, Loc::Probation, meta);
                }
                Some(v) => {
                    if self.sketch.estimate(candidate) > self.sketch.estimate(v) {
                        // Main-region victims are not window (probationary)
                        // demotions for the Fig. 10 metric.
                        let (_vloc, vmeta) = self.remove_from(v);
                        self.stats.evictions += 1;
                        evicted.push(vmeta.eviction(v, false));
                        self.insert_into(candidate, Loc::Probation, meta);
                    } else {
                        // The window candidate loses the duel: this is the
                        // quick demotion the paper measures.
                        self.stats.evictions += 1;
                        evicted.push(meta.eviction(candidate, true));
                    }
                }
            }
        }
        // The admission above may have overfilled the main region.
        while self.used_total() > self.capacity {
            let victim = self
                .probation
                .back()
                .or_else(|| self.protected.back())
                .copied();
            let Some(v) = victim else { break };
            let (_vloc, vmeta) = self.remove_from(v);
            self.stats.evictions += 1;
            evicted.push(vmeta.eviction(v, false));
        }
    }

    fn on_hit(&mut self, id: ObjId, now: u64) {
        let (loc, handle) = {
            // Invariant: on_hit fires only after a successful lookup.
            let e = self.table.get_mut(&id).expect("hit id in table");
            e.meta.touch(now);
            (e.loc, e.handle)
        };
        match loc {
            Loc::Window => {
                self.window.move_to_front(handle);
            }
            Loc::Probation => {
                // Promote to protected.
                let (_, meta) = self.remove_from(id);
                self.insert_into(id, Loc::Protected, meta);
                self.rebalance_protected();
            }
            Loc::Protected => {
                self.protected.move_to_front(handle);
            }
        }
    }

    fn miss_insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        self.insert_into(req.id, Loc::Window, Meta::new(req.size, req.time));
        self.maintain(evicted);
    }

    fn delete(&mut self, id: ObjId) {
        if self.table.contains_key(&id) {
            self.remove_from(id);
        }
    }
}

impl Policy for TinyLfu {
    fn name(&self) -> String {
        if (self.window_ratio - 0.01).abs() < 1e-9 {
            "TinyLFU".into()
        } else {
            format!("TinyLFU-{:.1}", self.window_ratio)
        }
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used_total()
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
                self.sketch.record(req.id);
                if self.table.contains_key(&req.id) {
                    self.on_hit(req.id, req.time);
                    self.stats.record_get(req.size, false);
                    Outcome::Hit
                } else if u64::from(req.size) > self.capacity {
                    self.stats.record_get(req.size, true);
                    Outcome::Uncacheable
                } else {
                    self.stats.record_get(req.size, true);
                    self.miss_insert(req, evicted);
                    Outcome::Miss
                }
            }
            Op::Set => {
                self.delete(req.id);
                if u64::from(req.size) <= self.capacity {
                    self.miss_insert(req, evicted);
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
    fn frequent_objects_admitted_over_onehits() {
        let mut p = TinyLfu::with_window(100, 0.1).unwrap();
        let mut evs = Vec::new();
        let mut t = 0u64;
        // Make ids 0..5 frequent in the sketch and resident.
        for _ in 0..5 {
            for id in 0..5u64 {
                evs.clear();
                p.request(&Request::get(id, t), &mut evs);
                t += 1;
            }
        }
        // Flood with one-hit wonders.
        for id in 1000..1400u64 {
            evs.clear();
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
        }
        let survivors = (0..5u64).filter(|&id| p.contains(id)).count();
        assert_eq!(survivors, 5, "frequent objects must survive the flood");
    }

    #[test]
    fn window_absorbs_new_objects() {
        let mut p = TinyLfu::with_window(100, 0.1).unwrap();
        let mut evs = Vec::new();
        p.request(&Request::get(1, 0), &mut evs);
        assert_eq!(p.table[&1].loc, Loc::Window);
    }

    #[test]
    fn probation_hit_promotes_to_protected() {
        let mut p = TinyLfu::with_window(100, 0.1).unwrap();
        let mut evs = Vec::new();
        let mut t = 0u64;
        // Get id 1 into probation: make it frequent, then push it out of the
        // window (window capacity 10).
        for _ in 0..3 {
            p.request(&Request::get(1, t), &mut evs);
            t += 1;
        }
        for id in 100..120u64 {
            evs.clear();
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
        }
        if p.table.get(&1).map(|e| e.loc) == Some(Loc::Probation) {
            evs.clear();
            p.request(&Request::get(1, t), &mut evs);
            assert_eq!(p.table[&1].loc, Loc::Protected);
        }
    }

    #[test]
    fn capacity_bounded() {
        let mut p = TinyLfu::new(64).unwrap();
        let trace = test_trace(20_000, 1000, 41);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.used() <= 64);
        }
    }

    #[test]
    fn beats_fifo_on_skew() {
        let trace = test_trace(30_000, 2000, 43);
        let mut tl = TinyLfu::with_window(64, 0.1).unwrap();
        let mut f = crate::Fifo::new(64).unwrap();
        let mr_t = miss_ratio_of(&mut tl, &trace);
        let mr_f = miss_ratio_of(&mut f, &trace);
        assert!(mr_t < mr_f, "TinyLFU {mr_t:.4} vs FIFO {mr_f:.4}");
    }

    #[test]
    fn names_for_window_sizes() {
        assert_eq!(TinyLfu::new(100).unwrap().name(), "TinyLFU");
        assert_eq!(
            TinyLfu::with_window(100, 0.1).unwrap().name(),
            "TinyLFU-0.1"
        );
    }

    #[test]
    fn basics() {
        let mut p = TinyLfu::new(100).unwrap();
        check_policy_basics(&mut p, 100);
        let mut p = TinyLfu::with_window(100, 0.1).unwrap();
        check_policy_basics(&mut p, 100);
    }

    #[test]
    fn rejects_bad_params() {
        assert!(TinyLfu::new(0).is_err());
        assert!(TinyLfu::with_window(10, 0.0).is_err());
        assert!(TinyLfu::with_window(10, 1.0).is_err());
    }
}
