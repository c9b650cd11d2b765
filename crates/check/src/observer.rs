//! A [`RequestObserver`] that checks structural invariants after every
//! request of a simulation.
//!
//! The observer maintains its own shadow residency map (id → stored size)
//! and cross-checks it against the policy after each request:
//!
//! - outcome consistency: `Hit` only on resident ids, `Miss`/`Uncacheable`
//!   only on absent ones, `Uncacheable` exactly when the object cannot fit;
//! - eviction consistency: every reported eviction names a previously
//!   resident id with the size it was stored at, and the id is gone
//!   afterwards;
//! - accounting: the policy's `used()` equals the byte-sum of the shadow
//!   map, `len()` its cardinality, and `used() ≤ capacity()` always;
//! - the policy's own [`DensePolicy::validate`] structural check.
//!
//! Residency is reconciled through [`DensePolicy::resident`] rather than
//! assumed from outcomes, so admission-filtered policies (B-LRU, TinyLFU) —
//! where a `Miss` does not imply the object was admitted — are handled
//! uniformly. The policy answers by slot; every id the observer asks about
//! was requested earlier (an evicted one was resident first), so it learns
//! each id's slot from the requests it sees.
//!
//! The first violation is recorded (with its request index) and checking
//! stops; a corrupted shadow map would otherwise cascade into noise.

use cache_sim::RequestObserver;
use cache_types::{Eviction, ObjId, Op, Outcome, Request};
use s3fifo::dense::DensePolicy;
use std::collections::HashMap;

/// Invariant-checking observer for [`cache_sim::Replay::observer`].
///
/// Expects to observe a policy from its very first request (the shadow map
/// starts empty).
#[derive(Debug, Default)]
pub struct InvariantObserver {
    resident: HashMap<ObjId, u64>,
    /// The slot of every id requested so far.
    slots: HashMap<ObjId, u32>,
    bytes: u64,
    violation: Option<(usize, String)>,
    checked: usize,
}

impl InvariantObserver {
    /// Creates an observer for a freshly built policy.
    pub fn new() -> Self {
        InvariantObserver::default()
    }

    /// The first invariant violation, as `(request index, description)`.
    pub fn violation(&self) -> Option<&(usize, String)> {
        self.violation.as_ref()
    }

    /// Number of requests fully checked (stops growing after a violation).
    pub fn checked(&self) -> usize {
        self.checked
    }

    fn fail(&mut self, index: usize, msg: String) {
        if self.violation.is_none() {
            self.violation = Some((index, msg));
        }
    }

    fn remove_shadow(&mut self, id: ObjId) -> Option<u64> {
        let size = self.resident.remove(&id);
        if let Some(s) = size {
            self.bytes -= s;
        }
        size
    }

    fn check_evictions(
        &mut self,
        index: usize,
        req: &Request,
        evicted: &[Eviction],
        policy: &dyn DensePolicy,
    ) -> bool {
        for e in evicted {
            if e.id == req.id {
                // The request's own object may be inserted and immediately
                // rejected (TinyLFU's admission duel): it was never resident
                // before the request, and its eviction carries the request's
                // size (or, for a Set overwriting a resident object, the new
                // size rather than the stored one).
                let prior = self.remove_shadow(e.id);
                if u64::from(e.size) != u64::from(req.size)
                    && prior != Some(u64::from(e.size))
                {
                    self.fail(
                        index,
                        format!(
                            "self-eviction of id {} reports size {} (request size {}, stored {:?})",
                            e.id, e.size, req.size, prior
                        ),
                    );
                    return false;
                }
                continue;
            }
            match self.remove_shadow(e.id) {
                None => {
                    self.fail(
                        index,
                        format!("evicted id {} was not resident before the request", e.id),
                    );
                    return false;
                }
                Some(size) if size != u64::from(e.size) => {
                    self.fail(
                        index,
                        format!(
                            "eviction of id {} reports size {} but it was stored at {}",
                            e.id, e.size, size
                        ),
                    );
                    return false;
                }
                Some(_) => {}
            }
            // An eviction may be the object the request itself reinserts
            // (Set of a resident id); only other ids must be gone.
            if e.id != req.id && self.slots.get(&e.id).is_some_and(|&s| policy.resident(s)) {
                self.fail(
                    index,
                    format!("id {} still resident after being reported evicted", e.id),
                );
                return false;
            }
        }
        true
    }
}

impl RequestObserver for InvariantObserver {
    fn after_request(
        &mut self,
        index: usize,
        slot: u32,
        req: &Request,
        outcome: Outcome,
        evicted: &[Eviction],
        policy: &dyn DensePolicy,
    ) {
        if self.violation.is_some() {
            return;
        }
        if let Some(known) = self.slots.insert(req.id, slot).filter(|&known| known != slot) {
            return self.fail(index, format!("id {} moved from slot {known}", req.id));
        }
        let was_resident = self.resident.contains_key(&req.id);

        // 1. Outcome is consistent with pre-request residency.
        match (req.op, outcome) {
            (Op::Get, Outcome::Hit) if !was_resident => {
                return self.fail(index, format!("Hit on non-resident id {}", req.id));
            }
            (Op::Get, Outcome::Miss) if was_resident => {
                return self.fail(index, format!("Miss on resident id {}", req.id));
            }
            (Op::Get, Outcome::Miss) if u64::from(req.size) > policy.capacity() => {
                return self.fail(
                    index,
                    format!(
                        "Miss for id {} of size {} over capacity {}, not Uncacheable",
                        req.id,
                        req.size,
                        policy.capacity()
                    ),
                );
            }
            (Op::Get, Outcome::Uncacheable) => {
                if was_resident {
                    return self.fail(index, format!("Uncacheable on resident id {}", req.id));
                }
                if u64::from(req.size) <= policy.capacity() {
                    return self.fail(
                        index,
                        format!(
                            "Uncacheable for id {} of size {} within capacity {}",
                            req.id,
                            req.size,
                            policy.capacity()
                        ),
                    );
                }
            }
            (Op::Get, Outcome::NotRead) => {
                return self.fail(index, "NotRead outcome for a Get".to_string());
            }
            (Op::Set | Op::Delete, o) if o != Outcome::NotRead => {
                return self.fail(index, format!("{:?} outcome for a {:?}", o, req.op));
            }
            _ => {}
        }

        // 2. Evictions name resident ids at their stored sizes.
        if !self.check_evictions(index, req, evicted, policy) {
            return;
        }

        // 3. Reconcile the requested id via resident(): hits keep the stored
        //    size (hits never resize), everything else stores the request's
        //    size; admission filters may legitimately not admit.
        if policy.resident(slot) {
            if req.op != Op::Get || outcome != Outcome::Hit {
                self.remove_shadow(req.id);
                self.resident.insert(req.id, u64::from(req.size));
                self.bytes += u64::from(req.size);
            }
        } else {
            self.remove_shadow(req.id);
            if outcome == Outcome::Hit {
                return self.fail(index, format!("Hit id {} absent after the request", req.id));
            }
        }

        // 4. Accounting matches the shadow map; capacity is respected.
        if policy.used() != self.bytes {
            return self.fail(
                index,
                format!(
                    "used() = {} but resident objects sum to {}",
                    policy.used(),
                    self.bytes
                ),
            );
        }
        if policy.len() != self.resident.len() {
            return self.fail(
                index,
                format!(
                    "len() = {} but {} objects are resident",
                    policy.len(),
                    self.resident.len()
                ),
            );
        }
        if policy.used() > policy.capacity() {
            return self.fail(
                index,
                format!(
                    "used() = {} exceeds capacity {}",
                    policy.used(),
                    policy.capacity()
                ),
            );
        }

        // 5. The policy's own structural invariants.
        if let Err(e) = policy.validate() {
            return self.fail(index, format!("validate() failed: {e}"));
        }
        self.checked += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_policies::registry;
    use cache_sim::Replay;
    use cache_trace::Trace;
    use cache_types::{CacheError, PolicyStats};

    fn skewed_trace(n: usize) -> Trace {
        let reqs = crate::fuzz::generate_trace(&crate::fuzz::FuzzConfig {
            seed: 0x0B5E_7EED,
            requests: n,
            universe: 200,
            max_size: 8,
            write_percent: 8,
            ..crate::fuzz::FuzzConfig::default()
        });
        Trace::new("observer-fuzz", reqs)
    }

    /// Every registry policy, sized and unit-size, under the observer.
    #[test]
    fn all_policies_pass_invariants() {
        let trace = skewed_trace(5_000);
        for name in registry::ALL_ALGORITHMS {
            for ignore_size in [false, true] {
                let mut obs = InvariantObserver::new();
                Replay::on_trace(&[name], &trace, 64)
                    .unwrap_or_else(|e| panic!("build {name}: {e}"))
                    .ignore_size(ignore_size)
                    .observer(&mut obs)
                    .expect("one policy")
                    .run(&trace);
                if let Some((i, msg)) = obs.violation() {
                    panic!("{name} (ignore_size={ignore_size}) violated at request {i}: {msg}");
                }
                assert_eq!(obs.checked(), trace.len());
            }
        }
    }

    /// How a [`LyingPolicy`] lies.
    #[derive(Clone, Copy, Debug)]
    enum Lie {
        /// `used()` counts a phantom byte.
        PhantomByte,
        /// A read too large to cache is answered `Miss`.
        MissForUncacheable,
    }

    /// A policy that lies, to be flagged at its first lie.
    struct LyingPolicy {
        inner: Box<dyn DensePolicy>,
        lie: Lie,
    }

    impl DensePolicy for LyingPolicy {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn capacity(&self) -> u64 {
            self.inner.capacity()
        }
        fn used(&self) -> u64 {
            self.inner.used() + u64::from(matches!(self.lie, Lie::PhantomByte))
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn resident(&self, slot: u32) -> bool {
            self.inner.resident(slot)
        }
        fn request_dense(
            &mut self,
            slot: u32,
            req: &Request,
            evicted: &mut Vec<Eviction<u32>>,
        ) -> Outcome {
            match (self.lie, self.inner.request_dense(slot, req, evicted)) {
                (Lie::MissForUncacheable, Outcome::Uncacheable) => Outcome::Miss,
                (_, outcome) => outcome,
            }
        }
        fn grow_domain(&mut self, domain: usize, reserve: usize) -> Result<(), CacheError> {
            self.inner.grow_domain(domain, reserve)
        }
        fn stats(&self) -> PolicyStats {
            self.inner.stats()
        }
    }

    #[test]
    fn accounting_lies_are_caught() {
        let trace = skewed_trace(50);
        // Sizes are 1..=8: at capacity 4 some reads cannot fit.
        let oversized = trace.iter().position(|r| r.is_read() && r.size > 4);
        for (lie, at, says) in [
            (Lie::PhantomByte, Some(0), "used()"),
            (Lie::MissForUncacheable, oversized, "not Uncacheable"),
        ] {
            let inner = registry::build_dense_domain("LRU", 4, None, 0).expect("LRU builds");
            let mut obs = InvariantObserver::new();
            Replay::dense(Box::new(LyingPolicy { inner, lie }))
                .observer(&mut obs)
                .expect("one policy")
                .run(&trace);
            let (i, msg) = obs.violation().expect("the lie must be flagged");
            assert_eq!(Some(*i), at, "{lie:?} flagged at its first lie");
            assert!(msg.contains(says), "{lie:?}: unexpected message: {msg}");
        }
    }
}
