//! S3-FIFO-D: S3-FIFO with dynamically sized queues (§6.2.2).
//!
//! The paper's adaptive variant balances *marginal hits* on objects recently
//! evicted from `S` and from `M`. Two small monitor ghost queues (5 % of the
//! cached objects each) remember recent evictions from each data queue. Each
//! time the monitors accumulate more than 100 hits combined, and one side
//! has at least 2× the hits of the other, 0.1 % of the cache space moves to
//! the queue whose evicted objects receive more hits.
//!
//! §6.2.2 concludes that S3-FIFO with a static 10 % small queue beats the
//! adaptive variant on most traces — the adaptation only pays off on
//! adversarial workloads. `repro ablation_adaptive` reproduces that
//! comparison.

use crate::policy::S3Fifo;
use cache_ds::GhostFifo;
use cache_types::{CacheError, Eviction, ObjId, Outcome, Policy, PolicyStats, Request};

/// §6.2.2: each monitor ghost holds 5 % of the cache.
pub const MONITOR_RATIO: f64 = 0.05;
/// §6.2.2: combined monitor hits between two adaptation decisions.
pub const HITS_PER_DECISION: u64 = 100;
/// §6.2.2: a decision acts only when one monitor has at least 2× the
/// other's hits.
pub const IMBALANCE: f64 = 2.0;
/// §6.2.2: a decision moves 0.1 % of the cache between `S` and `M`.
pub const STEP_RATIO: f64 = 0.001;
/// Clamps on `S`'s share, so that neither queue can be adapted away.
pub const MIN_SMALL_RATIO: f64 = 0.005;
/// See [`MIN_SMALL_RATIO`].
pub const MAX_SMALL_RATIO: f64 = 0.5;

/// S3-FIFO with adaptive queue sizing.
#[derive(Debug)]
pub struct S3FifoD {
    inner: S3Fifo,
    capacity: u64,
    /// Monitor ghost for objects evicted from `S`.
    mon_small: GhostFifo,
    /// Monitor ghost for objects evicted from `M`.
    mon_main: GhostFifo,
    hits_small: u64,
    hits_main: u64,
    /// Current small-queue target in bytes (mirrors the inner policy).
    s_target: u64,
    /// Number of adaptation decisions taken (grow, shrink).
    adaptations: (u64, u64),
}

impl S3FifoD {
    /// Creates an adaptive S3-FIFO starting from the default 10 % split.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn new(capacity: u64) -> Result<Self, CacheError> {
        let inner = S3Fifo::new(capacity)?;
        let s_target = inner.small_capacity();
        let mon_cap = ((capacity as f64 * MONITOR_RATIO).round() as u64).max(1);
        Ok(S3FifoD {
            inner,
            capacity,
            mon_small: GhostFifo::new(mon_cap),
            mon_main: GhostFifo::new(mon_cap),
            hits_small: 0,
            hits_main: 0,
            s_target,
            adaptations: (0, 0),
        })
    }

    /// Current small-queue target in bytes.
    pub fn small_target(&self) -> u64 {
        self.s_target
    }

    /// Number of (grow, shrink) adaptation decisions taken so far.
    pub fn adaptations(&self) -> (u64, u64) {
        self.adaptations
    }

    fn step_bytes(&self) -> u64 {
        ((self.capacity as f64 * STEP_RATIO).round() as u64).max(1)
    }

    fn maybe_adapt(&mut self) {
        if self.hits_small + self.hits_main < HITS_PER_DECISION {
            return;
        }
        let (hs, hm) = (self.hits_small as f64, self.hits_main as f64);
        let min_s = ((self.capacity as f64 * MIN_SMALL_RATIO).round() as u64).max(1);
        let max_s = ((self.capacity as f64 * MAX_SMALL_RATIO).round() as u64).max(min_s);
        if hs >= hm * IMBALANCE {
            // Objects evicted from S keep getting requested: S is too small.
            self.s_target = (self.s_target + self.step_bytes()).min(max_s);
            self.inner.set_small_capacity(self.s_target);
            self.adaptations.0 += 1;
        } else if hm >= hs * IMBALANCE {
            // Objects evicted from M are re-requested: M is too small.
            self.s_target = self.s_target.saturating_sub(self.step_bytes()).max(min_s);
            self.inner.set_small_capacity(self.s_target);
            self.adaptations.1 += 1;
        }
        self.hits_small = 0;
        self.hits_main = 0;
    }
}

impl Policy for S3FifoD {
    fn name(&self) -> String {
        "S3-FIFO-D".to_string()
    }

    fn capacity(&self) -> u64 {
        self.capacity
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
        // Count marginal hits on the monitor ghosts before the inner policy
        // mutates anything.
        if req.is_read() && !self.inner.contains(req.id) {
            if self.mon_small.remove(req.id) {
                self.hits_small += 1;
            }
            if self.mon_main.remove(req.id) {
                self.hits_main += 1;
            }
        }
        let before = evicted.len();
        let outcome = self.inner.request(req, evicted);
        // Route fresh evictions into the matching monitor ghost.
        for ev in &evicted[before..] {
            if ev.from_probationary {
                self.mon_small.insert(ev.id, ev.size);
            } else {
                self.mon_main.insert(ev.id, ev.size);
            }
        }
        self.maybe_adapt();
        outcome
    }

    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(p: &mut S3FifoD, id: ObjId, t: u64) -> Outcome {
        let mut evs = Vec::new();
        p.request(&Request::get(id, t), &mut evs)
    }

    #[test]
    fn construction_defaults() {
        let p = S3FifoD::new(1000).unwrap();
        assert_eq!(p.small_target(), 100);
        assert_eq!(p.capacity(), 1000);
        assert_eq!(p.name(), "S3-FIFO-D");
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(S3FifoD::new(0).is_err());
    }

    #[test]
    fn behaves_like_cache() {
        let mut p = S3FifoD::new(100).unwrap();
        assert_eq!(get(&mut p, 1, 0), Outcome::Miss);
        assert_eq!(get(&mut p, 1, 1), Outcome::Hit);
        assert!(p.used() <= 100);
    }

    #[test]
    fn capacity_respected_under_load() {
        let mut p = S3FifoD::new(64).unwrap();
        let mut state = 99u64;
        for t in 0..20_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let id = (state >> 33) % 1000;
            get(&mut p, id, t);
            assert!(p.used() <= 64);
        }
    }

    #[test]
    fn grows_small_queue_when_s_evictions_get_hits() {
        // §5.2's adversarial pattern under §6.2.2's own constants: every
        // object's second (and last) request arrives just after it fell out
        // of S, so it hits the S monitor — 5 % of the cache — and nothing
        // ever hits the M monitor. Each 100 such hits move 0.1 % of the
        // cache, one object here, from M to S.
        let mut p = S3FifoD::new(1000).unwrap();
        let start = p.small_target();
        let (mut next_id, mut oldest) = (0u64, 0u64);
        for t in 0..8000u64 {
            if oldest < next_id && !p.contains(oldest) {
                get(&mut p, oldest, t);
                oldest += 1;
            } else {
                get(&mut p, next_id, t);
                next_id += 1;
            }
        }
        let (grown, shrunk) = p.adaptations();
        assert!(grown >= 10 && shrunk == 0, "adaptations {:?}", p.adaptations());
        assert_eq!(p.small_target(), start + grown);
    }

    #[test]
    fn stable_workload_keeps_split_near_default() {
        // A cache-friendly workload with few ghost hits should trigger few
        // adaptations.
        let mut p = S3FifoD::new(100).unwrap();
        for t in 0..10_000u64 {
            get(&mut p, t % 50, t); // everything fits
        }
        let (g, s) = p.adaptations();
        assert_eq!(g + s, 0, "no evictions -> no adaptation");
        assert_eq!(p.small_target(), 10);
    }
}
