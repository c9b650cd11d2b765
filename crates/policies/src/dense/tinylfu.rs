//! W-TinyLFU (Einziger, Friedman & Manes, ACM ToS '17), over dense slots.
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
//!
//! Slot-state conventions: `tag` names the segment an object sits in
//! (`WINDOW`, `PROBATION`, `PROTECTED`; 0 = absent). The sketch counts object
//! ids, not slots, so both doors see the same estimates: each slot's id sits
//! in an array beside the slab, written on admission.

use cache_ds::Doorkeeper;
use cache_types::{CacheError, Eviction, ObjId, Outcome, PolicyStats, Request};
use s3fifo::dense::{rule, serve, validate_queues, DenseSlab, Keyed, Queue, SlabPolicy};

const WINDOW: u8 = 1;
const PROBATION: u8 = 2;
const PROTECTED: u8 = 3;

/// The index of segment `tag` in [`DenseTinyLfu`]'s arrays.
const fn seg(tag: u8) -> usize {
    tag as usize - 1
}

/// The W-TinyLFU eviction algorithm over dense slots.
#[derive(Debug)]
pub struct DenseTinyLfu {
    capacity: u64,
    window_capacity: u64,
    protected_capacity: u64,
    slab: DenseSlab,
    /// The window, probation and protected segments, by [`seg`].
    segs: [Queue<rule::Lru>; 3],
    sketch: Doorkeeper,
    /// Per slot: the id it was admitted under, which the sketch counts.
    ids: Vec<ObjId>,
    window_ratio: f64,
    stats: PolicyStats,
}

impl DenseTinyLfu {
    /// Creates a W-TinyLFU cache with a window of `window_ratio` of the
    /// capacity (the paper evaluates 0.01 and 0.1) over the dense domain
    /// `0..domain`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] for a zero capacity or a ratio outside (0,1).
    pub fn with_window(
        capacity: u64,
        window_ratio: f64,
        domain: usize,
    ) -> Result<Self, CacheError> {
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
        Ok(DenseTinyLfu {
            capacity,
            window_capacity,
            protected_capacity: (main * 8 / 10).max(1),
            slab: DenseSlab::with_domain(domain),
            segs: [WINDOW, PROBATION, PROTECTED].map(Queue::new),
            sketch: Doorkeeper::new((capacity as usize).clamp(16, 1 << 22)),
            ids: vec![0; domain],
            window_ratio,
            stats: PolicyStats::default(),
        })
    }

    fn used_total(&self) -> u64 {
        self.segs.iter().map(Queue::bytes).sum()
    }

    /// Detaches `slot` from its segment and clears its tag.
    fn unlink(&mut self, slot: u32) {
        let tag = self.slab.slots[slot as usize].tag;
        self.segs[seg(tag)].remove(&mut self.slab, slot);
    }

    /// Puts detached `slot` at the head of segment `tag`.
    fn link(&mut self, slot: u32, tag: u8) {
        self.segs[seg(tag)].push(&mut self.slab, slot);
    }

    /// Reports the eviction of detached `slot`; `from_window` marks the
    /// quick demotions Fig. 10 measures.
    fn evict(&mut self, slot: u32, from_window: bool, evicted: &mut Vec<Eviction<u32>>) {
        evicted.push(self.slab.eviction(slot, from_window));
    }

    /// The main region's eviction candidate: probation's tail, or
    /// protected's when probation is empty.
    fn main_victim(&self) -> Option<u32> {
        self.segs[seg(PROBATION)]
            .tail()
            .or_else(|| self.segs[seg(PROTECTED)].tail())
    }

    /// Demotes protected-segment overflow into probation.
    fn rebalance_protected(&mut self) {
        while self.segs[seg(PROTECTED)].bytes() > self.protected_capacity {
            let Some(slot) = self.segs[seg(PROTECTED)].evict(&mut self.slab) else {
                break;
            };
            self.link(slot, PROBATION);
        }
    }

    /// The TinyLFU admission duel: when the window overflows, its tail
    /// candidate fights the main region's eviction candidate on estimated
    /// frequency; the loser is evicted.
    fn maintain(&mut self, evicted: &mut Vec<Eviction<u32>>) {
        while self.segs[seg(WINDOW)].bytes() > self.window_capacity {
            let Some(candidate) = self.segs[seg(WINDOW)].evict(&mut self.slab) else {
                break;
            };
            // While the cache is not yet full, admit without a duel.
            if self.used_total() + u64::from(self.slab.size(candidate)) <= self.capacity {
                self.link(candidate, PROBATION);
                continue;
            }
            let Some(victim) = self.main_victim() else {
                // Main region empty: admit unconditionally.
                self.link(candidate, PROBATION);
                continue;
            };
            let estimate = |s: u32| self.sketch.estimate(self.ids[s as usize]);
            if estimate(candidate) > estimate(victim) {
                // Main-region victims are not window (probationary)
                // demotions for the Fig. 10 metric.
                self.unlink(victim);
                self.evict(victim, false, evicted);
                self.link(candidate, PROBATION);
            } else {
                // The window candidate loses the duel: this is the quick
                // demotion the paper measures.
                self.evict(candidate, true, evicted);
            }
        }
        // The admission above may have overfilled the main region.
        while self.used_total() > self.capacity {
            let Some(victim) = self.main_victim() else {
                break;
            };
            self.unlink(victim);
            self.evict(victim, false, evicted);
        }
    }
}

impl SlabPolicy for DenseTinyLfu {
    const GHOSTLESS: bool = true;

    fn with_capacity(capacity: u64) -> Result<Self, CacheError> {
        Self::with_window(capacity, 0.01, 0)
    }

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
        self.segs.iter().map(|q| q.len() as usize).sum()
    }

    fn validate(&self) -> Result<(), String> {
        let [window, probation, protected] = &self.segs;
        validate_queues(
            &SlabPolicy::name(self),
            self.capacity,
            &self.slab,
            &[window, probation, protected],
        )
    }

    fn state(&self) -> (&DenseSlab, &PolicyStats) {
        (&self.slab, &self.stats)
    }

    fn state_mut(&mut self) -> (&mut DenseSlab, &mut PolicyStats) {
        (&mut self.slab, &mut self.stats)
    }

    fn hit(&mut self, slot: u32, _req: &Request) {
        self.slab.slots[slot as usize].touch();
        match self.slab.slots[slot as usize].tag {
            PROBATION => {
                // Promote to protected.
                self.unlink(slot);
                self.link(slot, PROTECTED);
                self.rebalance_protected();
            }
            tag => self.segs[seg(tag)].hit(&mut self.slab, slot),
        }
    }

    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        if self.ids.len() < self.slab.domain() {
            self.ids.resize(self.slab.domain(), 0);
        }
        self.ids[slot as usize] = req.id;
        self.slab.slots[slot as usize].on_insert(req);
        self.link(slot, WINDOW);
        self.maintain(evicted);
    }

    fn remove(&mut self, slot: u32) {
        if self.slab.slots[slot as usize].tag != 0 {
            self.unlink(slot);
        }
    }

    #[inline]
    fn warm(&self, _slot: u32) {
        for q in &self.segs {
            q.warm(&self.slab);
        }
    }

    fn step(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) -> Outcome {
        // The sketch counts every read, one too large to cache included.
        if req.is_read() {
            self.sketch.record(req.id);
        }
        serve(self, slot, req, evicted)
    }
}

/// W-TinyLFU keyed by object id. [`Keyed::new`] builds the 1 % window;
/// other windows come from [`DenseTinyLfu::with_window`] under
/// [`Keyed::over`].
pub type TinyLfu = Keyed<DenseTinyLfu>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{check_policy_basics, miss_ratio_of, test_trace};
    use cache_types::Policy;

    /// A keyed W-TinyLFU with a window of `ratio`, as the registry builds it.
    fn tinylfu(capacity: u64, ratio: f64) -> Result<TinyLfu, CacheError> {
        DenseTinyLfu::with_window(capacity, ratio, 0).map(Keyed::over)
    }

    /// The segment `id` sits in, if it is resident.
    fn tag_of(p: &TinyLfu, id: u64) -> Option<u8> {
        p.slot_of(id)
            .map(|s| p.slab.slots[s as usize].tag)
            .filter(|&t| t != 0)
    }

    #[test]
    fn frequent_objects_admitted_over_onehits() {
        let mut p = tinylfu(100, 0.1).unwrap();
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
        let mut p = tinylfu(100, 0.1).unwrap();
        let mut evs = Vec::new();
        p.request(&Request::get(1, 0), &mut evs);
        assert_eq!(tag_of(&p, 1), Some(WINDOW));
    }

    #[test]
    fn probation_hit_promotes_to_protected() {
        let mut p = tinylfu(100, 0.1).unwrap();
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
        if tag_of(&p, 1) == Some(PROBATION) {
            evs.clear();
            p.request(&Request::get(1, t), &mut evs);
            assert_eq!(tag_of(&p, 1), Some(PROTECTED));
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
        let mut tl = tinylfu(64, 0.1).unwrap();
        let mut f = crate::Fifo::new(64).unwrap();
        let mr_t = miss_ratio_of(&mut tl, &trace);
        let mr_f = miss_ratio_of(&mut f, &trace);
        assert!(mr_t < mr_f, "TinyLFU {mr_t:.4} vs FIFO {mr_f:.4}");
    }

    #[test]
    fn names_for_window_sizes() {
        assert_eq!(TinyLfu::new(100).unwrap().name(), "TinyLFU");
        assert_eq!(tinylfu(100, 0.1).unwrap().name(), "TinyLFU-0.1");
    }

    #[test]
    fn basics() {
        let mut p = TinyLfu::new(100).unwrap();
        check_policy_basics(&mut p, 100);
        let mut p = tinylfu(100, 0.1).unwrap();
        check_policy_basics(&mut p, 100);
    }

    #[test]
    fn rejects_bad_params() {
        assert!(TinyLfu::new(0).is_err());
        assert!(tinylfu(10, 0.0).is_err());
        assert!(tinylfu(10, 1.0).is_err());
    }
}
