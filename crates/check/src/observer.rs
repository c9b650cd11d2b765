//! [`Checked`]: a [`DensePolicy`] that forwards every request to the
//! policy it wraps and then checks that policy's structural invariants.
//!
//! It keeps its own shadow residency map (slot → stored size) and
//! cross-checks it against the wrapped policy after each request:
//!
//! - outcome consistency: `Hit` only on resident ids, `Miss`/`Uncacheable`
//!   only on absent ones, `Uncacheable` exactly when the object cannot fit;
//! - eviction consistency: every reported eviction names a previously
//!   resident slot with the size it was stored at, and the slot is empty
//!   afterwards;
//! - accounting: the policy's `used()` equals the byte-sum of the shadow
//!   map, `len()` its cardinality, and `used() ≤ capacity()` always;
//! - the policy's own [`DensePolicy::validate`] structural check.
//!
//! Residency is reconciled through [`DensePolicy::resident`] rather than
//! assumed from outcomes, so admission-filtered policies (B-LRU, TinyLFU) —
//! where a `Miss` does not imply the object was admitted — are handled
//! uniformly. Records name slots; the messages name ids, which the wrapper
//! learns from the requests it forwards (an evicted slot was requested
//! first).
//!
//! Drive it like any policy, through [`cache_sim::Replay::dense`]. The
//! first violation is written, with its request index, into the
//! [`CheckReport`] the caller lends it, and checking stops; a corrupted
//! shadow map would otherwise cascade into noise. The wrapper changes no
//! decision and no result.

use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, PolicyStats, Request};
use s3fifo::dense::DensePolicy;
use std::collections::HashMap;

/// What a [`Checked`] policy found.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// The first invariant violation, as `(request index, description)`.
    pub violation: Option<(usize, String)>,
    /// Requests fully checked (stops growing after a violation).
    pub checked: usize,
}

/// A fresh policy wrapped to be checked after every request.
pub struct Checked<'r> {
    inner: Box<dyn DensePolicy + 'r>,
    report: &'r mut CheckReport,
    /// Stored size of every resident object, by slot.
    resident: HashMap<u32, u64>,
    /// The id every slot forwarded so far carries.
    ids: HashMap<u32, ObjId>,
    bytes: u64,
    /// Requests forwarded so far: the index of the next.
    index: usize,
}

impl<'r> Checked<'r> {
    /// Wraps `inner`, which must be fresh (the shadow map starts empty),
    /// reporting into `report`.
    pub fn new(inner: Box<dyn DensePolicy + 'r>, report: &'r mut CheckReport) -> Self {
        Checked {
            inner,
            report,
            resident: HashMap::new(),
            ids: HashMap::new(),
            bytes: 0,
            index: 0,
        }
    }

    fn remove_shadow(&mut self, slot: u32) -> Option<u64> {
        let size = self.resident.remove(&slot);
        if let Some(s) = size {
            self.bytes -= s;
        }
        size
    }

    /// The id of `slot`, for messages.
    fn id(&self, slot: u32) -> String {
        self.ids
            .get(&slot)
            .map_or(format!("at unseen slot {slot}"), u64::to_string)
    }

    fn check_evictions(
        &mut self,
        slot: u32,
        req: &Request,
        evicted: &[Eviction<u32>],
    ) -> Result<(), String> {
        for e in evicted {
            if e.id == slot {
                // The request's own object may be inserted and immediately
                // rejected (TinyLFU's admission duel): it was never resident
                // before the request, and its eviction carries the request's
                // size (or, for a Set overwriting a resident object, the new
                // size rather than the stored one).
                let prior = self.remove_shadow(e.id);
                if e.size != req.size && prior != Some(u64::from(e.size)) {
                    return Err(format!(
                        "self-eviction of id {} reports size {} (request size {}, stored {:?})",
                        req.id, e.size, req.size, prior
                    ));
                }
                continue;
            }
            match self.remove_shadow(e.id) {
                None => {
                    return Err(format!(
                        "evicted id {} was not resident before the request",
                        self.id(e.id)
                    ));
                }
                Some(size) if size != u64::from(e.size) => {
                    return Err(format!(
                        "eviction of id {} reports size {} but it was stored at {}",
                        self.id(e.id),
                        e.size,
                        size
                    ));
                }
                Some(_) => {}
            }
            if self.inner.resident(e.id) {
                return Err(format!(
                    "id {} still resident after being reported evicted",
                    self.id(e.id)
                ));
            }
        }
        Ok(())
    }

    /// The five checks, after `inner` served `req` at `slot`.
    fn check(
        &mut self,
        slot: u32,
        req: &Request,
        outcome: Outcome,
        evicted: &[Eviction<u32>],
    ) -> Result<(), String> {
        if let Some(known) = self
            .ids
            .insert(slot, req.id)
            .filter(|&known| known != req.id)
        {
            return Err(format!("slot {slot} carried id {known}, now id {}", req.id));
        }
        let was_resident = self.resident.contains_key(&slot);
        let capacity = self.inner.capacity();

        // 1. Outcome is consistent with pre-request residency.
        match (req.op, outcome) {
            (Op::Get, Outcome::Hit) if !was_resident => {
                return Err(format!("Hit on non-resident id {}", req.id));
            }
            (Op::Get, Outcome::Miss) if was_resident => {
                return Err(format!("Miss on resident id {}", req.id));
            }
            (Op::Get, Outcome::Miss) if u64::from(req.size) > capacity => {
                return Err(format!(
                    "Miss for id {} of size {} over capacity {capacity}, not Uncacheable",
                    req.id, req.size
                ));
            }
            (Op::Get, Outcome::Uncacheable) => {
                if was_resident {
                    return Err(format!("Uncacheable on resident id {}", req.id));
                }
                if u64::from(req.size) <= capacity {
                    return Err(format!(
                        "Uncacheable for id {} of size {} within capacity {capacity}",
                        req.id, req.size
                    ));
                }
            }
            (Op::Get, Outcome::NotRead) => return Err("NotRead outcome for a Get".to_string()),
            (Op::Set | Op::Delete, o) if o != Outcome::NotRead => {
                return Err(format!("{:?} outcome for a {:?}", o, req.op));
            }
            _ => {}
        }

        // 2. Evictions name resident slots at their stored sizes.
        self.check_evictions(slot, req, evicted)?;

        // 3. Reconcile the requested slot via resident(): hits keep the
        //    stored size (hits never resize), everything else stores the
        //    request's size; admission filters may legitimately not admit.
        if self.inner.resident(slot) {
            if req.op != Op::Get || outcome != Outcome::Hit {
                self.remove_shadow(slot);
                self.resident.insert(slot, u64::from(req.size));
                self.bytes += u64::from(req.size);
            }
        } else {
            self.remove_shadow(slot);
            if outcome == Outcome::Hit {
                return Err(format!("Hit id {} absent after the request", req.id));
            }
        }

        // 4. Accounting matches the shadow map; capacity is respected.
        let (used, len) = (self.inner.used(), self.inner.len());
        if used != self.bytes {
            return Err(format!(
                "used() = {used} but resident objects sum to {}",
                self.bytes
            ));
        }
        if len != self.resident.len() {
            return Err(format!(
                "len() = {len} but {} objects are resident",
                self.resident.len()
            ));
        }
        if used > capacity {
            return Err(format!("used() = {used} exceeds capacity {capacity}"));
        }

        // 5. The policy's own structural invariants.
        self.inner
            .validate()
            .map_err(|e| format!("validate() failed: {e}"))
    }
}

impl DensePolicy for Checked<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
    fn used(&self) -> u64 {
        self.inner.used()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn request_dense(
        &mut self,
        slot: u32,
        req: &Request,
        evicted: &mut Vec<Eviction<u32>>,
    ) -> Outcome {
        let first = evicted.len();
        let outcome = self.inner.request_dense(slot, req, evicted);
        let index = self.index;
        self.index += 1;
        if self.report.violation.is_none() {
            match self.check(slot, req, outcome, &evicted[first..]) {
                Ok(()) => self.report.checked += 1,
                Err(msg) => self.report.violation = Some((index, msg)),
            }
        }
        outcome
    }
    fn resident(&self, slot: u32) -> bool {
        self.inner.resident(slot)
    }
    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }
    fn grow_domain(&mut self, domain: usize, reserve: usize) -> Result<(), CacheError> {
        self.inner.grow_domain(domain, reserve)
    }
    fn prefetch(&self, slot: u32) {
        self.inner.prefetch(slot);
    }
    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_policies::registry;
    use cache_sim::Replay;
    use cache_trace::Trace;

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

    /// Every registry policy, sized and unit-size, checked, and its checked
    /// run equals its bare run.
    #[test]
    fn all_policies_pass_invariants() {
        let trace = skewed_trace(5_000);
        for name in registry::ALL_ALGORITHMS {
            for ignore_size in [false, true] {
                let build = || {
                    registry::build_dense_domain(name, 64, Some(trace.slots()), trace.footprint())
                        .unwrap_or_else(|e| panic!("build {name}: {e}"))
                };
                let bare = Replay::dense(build()).ignore_size(ignore_size).run(&trace);
                let mut report = CheckReport::default();
                let checked = Replay::dense(Box::new(Checked::new(build(), &mut report)))
                    .ignore_size(ignore_size)
                    .run(&trace);
                if let Some((i, msg)) = &report.violation {
                    panic!("{name} (ignore_size={ignore_size}) violated at request {i}: {msg}");
                }
                assert_eq!(report.checked, trace.len());
                assert_eq!(
                    format!("{checked:?}"),
                    format!("{bare:?}"),
                    "{name} (ignore_size={ignore_size}): checking changed the run"
                );
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
            let mut report = CheckReport::default();
            let liar = Box::new(LyingPolicy { inner, lie });
            Replay::dense(Box::new(Checked::new(liar, &mut report))).run(&trace);
            let (i, msg) = report.violation.as_ref().expect("the lie must be flagged");
            assert_eq!(Some(*i), at, "{lie:?} flagged at its first lie");
            assert!(msg.contains(says), "{lie:?}: unexpected message: {msg}");
        }
    }
}
