//! A loom-lite model of the batched frequency-increment buffer
//! (`crates/concurrent/src/incbuf.rs`): slot claim/release handoff plus the
//! deferred payload the next claimer reads.
//!
//! Down-scaling choices (documented so the model stays honest — note the
//! real slot also carries a per-shard *stats* half, flushed lock-free
//! under the same claim/release discipline modeled here, so one slot with
//! one payload pair still covers the protocol):
//! - one slot with one key/count pair (the real buffer has 32 slots × 8
//!   pairs; the protocol per slot is identical and slots are independent);
//! - the claim flag is an [`MAtomic`] CAS with the real orderings
//!   (`Acquire` on success, `Relaxed` on failure) and a `Release` store on
//!   release — the handoff edge that makes the *plain* payload accesses
//!   safe;
//! - the payload (`keys[i]`/`counts[i]`, atomics accessed `Relaxed` under
//!   the claim in the real code) becomes two [`MCell`]s: relaxed atomics
//!   carry no happens-before of their own, so the claim/release pair is the
//!   only thing ordering one holder's writes before the next holder's
//!   reads, which is precisely what an `MCell`'s vector-clock race detector
//!   verifies;
//! - `FLUSH_THRESHOLD` shrinks to 2 so in-record flushes happen inside the
//!   bounded workload;
//! - the apply sink (shard frequency table behind a lock in the real code)
//!   is an [`MMutex`]'d per-key array;
//! - `drain`'s spin-claim loop is NOT modeled (no spin loops in models):
//!   the model drains only after every worker joined, where one CAS must
//!   succeed, and asserts exactly that.
//!
//! Two planted mutants mirror the plausible refactor mistakes
//! ([`IncVariant::RelaxedClaim`], [`IncVariant::RelaxedRelease`]): each
//! downgrades one leg of the handoff to `Relaxed`, leaving the payload
//! cells racing between consecutive slot holders. The failure mode in the
//! real code is increments misattributed to a stale key — quality rot, not
//! a crash — which is exactly the kind of bug only a model checker's race
//! detector surfaces.
//!
//! The invariant checked at quiescence is *conservation*: every recorded
//! increment lands exactly once — applied through a flush/drain or counted
//! by the direct CAS-failure fallback — never lost, never doubled.

use crate::loomlite::sync::{MAtomic, MCell, MMutex, Ord};
use crate::loomlite::{self, check};
use std::sync::Arc;

/// Which increment-buffer protocol the model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncVariant {
    /// The shipped protocol: `Acquire` claim, `Release` release.
    Correct,
    /// Buggy: the claim CAS succeeds with `Relaxed` — the new holder's
    /// payload reads are not ordered after the previous holder's writes.
    RelaxedClaim,
    /// Buggy: the release store is `Relaxed` — the holder's payload writes
    /// are not published to the next claimer.
    RelaxedRelease,
}

/// Model flush threshold (real code: 32).
const FLUSH_THRESHOLD: u64 = 2;

/// Distinct keys the model workload uses.
const KEYS: usize = 2;

/// One buffer slot plus the apply sink.
pub struct ModelIncBuf {
    claimed: MAtomic,
    /// Pair payload: the key the pending count belongs to.
    key: MCell<u64>,
    /// Pair payload: pending increments (0 = pair free).
    count: MCell<u64>,
    /// Flush/drain sink, per key (the shard frequency table).
    applied: MMutex<[u64; KEYS]>,
    /// CAS-failure fallback sink, per key (`apply_increment` direct path).
    direct: MMutex<[u64; KEYS]>,
    variant: IncVariant,
}

impl ModelIncBuf {
    /// An unclaimed slot with an empty pair.
    pub fn new(variant: IncVariant) -> Self {
        ModelIncBuf {
            claimed: MAtomic::new("claimed", 0),
            key: MCell::new("pair_key", 0),
            count: MCell::new("pair_count", 0),
            applied: MMutex::new("applied", [0; KEYS]),
            direct: MMutex::new("direct", [0; KEYS]),
            variant,
        }
    }

    // ORDERING: Acquire on success (observe the previous holder's payload
    // writes), Relaxed on failure (a failed claim touches no payload) — as
    // in the real `IncBuffers::try_claim`. The RelaxedClaim mutant weakens
    // the success leg.
    fn claim(&self) -> bool {
        let success = match self.variant {
            IncVariant::RelaxedClaim => Ord::Relaxed,
            _ => Ord::Acquire,
        };
        self.claimed.compare_exchange(0, 1, success, Ord::Relaxed).is_ok()
    }

    // ORDERING: Release — publish this holder's payload writes to the next
    // Acquire claimer, as in the real `IncBuffers::release`. The
    // RelaxedRelease mutant weakens it.
    fn release(&self) {
        match self.variant {
            IncVariant::RelaxedRelease => self.claimed.store(0, Ord::Relaxed),
            _ => self.claimed.store(0, Ord::Release),
        }
    }

    /// Applies and clears the pending pair. Caller holds the claim.
    // The pair cells are exclusive here via the claim flag. The `applied`
    // mutex is a leaf reached through `with(..)` — nothing is acquired
    // while it is held.
    fn flush_claimed(&self) {
        let c = self.count.read();
        if c > 0 {
            let k = self.key.read();
            self.applied.with(|a| a[k as usize] += c);
            self.count.write(0);
        }
    }

    /// Mirrors `IncBuffers::record` for one increment of `k`: claim the
    /// slot (falling back to a direct apply when contended), dedup against
    /// the pending pair, flush on key conflict or threshold, release.
    // The claim flag serializes holders; at most one of the leaf sink
    // mutexes is taken (`applied` via flush, or `direct` without the
    // claim) — never both, and nothing is acquired while one is held.
    pub fn record(&self, k: u64) {
        if !self.claim() {
            // Real code: apply_increment(key, 1) straight to the shard.
            self.direct.with(|d| d[k as usize] += 1);
            return;
        }
        let cur_count = self.count.read();
        if cur_count == 0 {
            self.key.write(k);
            self.count.write(1);
        } else if self.key.read() == k {
            self.count.write(cur_count + 1);
        } else {
            // Pair holds another key: flush it, then seed ours — the
            // path that reads a *previous holder's* payload.
            self.flush_claimed();
            self.key.write(k);
            self.count.write(1);
        }
        if self.count.read() >= FLUSH_THRESHOLD {
            self.flush_claimed();
        }
        self.release();
    }

    /// Mirrors `IncBuffers::drain`, minus the spin: the model only drains
    /// at quiescence (all workers joined), where the single CAS must win.
    pub fn drain(&self) {
        check(self.claim(), "drain failed to claim a quiescent slot");
        self.flush_claimed();
        self.release();
    }
}

/// Conservation check. Must run after all model threads joined and the
/// buffer drained: each key's applied + direct total equals the number of
/// increments recorded for it.
fn check_conserved(b: &ModelIncBuf, expected: [u64; KEYS]) {
    let applied = b.applied.with(|a| *a);
    let direct = b.direct.with(|d| *d);
    for k in 0..KEYS {
        let got = applied[k] + direct[k];
        check(
            got == expected[k],
            &format!(
                "key {k}: {got} increments landed ({} applied + {} direct), expected {}",
                applied[k], direct[k], expected[k]
            ),
        );
    }
}

/// Scenario A — cross-thread slot handoff:
/// worker 0 records two increments of key 0 (the second crosses
/// `FLUSH_THRESHOLD` and flushes in-record), worker 1 records one
/// increment of key 1 (flushing worker 0's pending pair on key conflict
/// when it wins the slot in between). Main drains after both join.
pub fn incbuf_handoff_scenario(variant: IncVariant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let b = Arc::new(ModelIncBuf::new(variant));
        let b1 = Arc::clone(&b);
        let b2 = Arc::clone(&b);
        let h1 = loomlite::spawn(move || {
            b1.record(0);
            b1.record(0);
        });
        let h2 = loomlite::spawn(move || {
            b2.record(1);
        });
        h1.join();
        h2.join();
        b.drain();
        check_conserved(&b, [2, 1]);
    }
}

/// Scenario B — symmetric contention:
/// two workers record one increment each of different keys, so every
/// interleaving is a claim race (one of them either falls back to the
/// direct path or flushes the other's pair). Main drains after both join.
pub fn incbuf_contention_scenario(variant: IncVariant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let b = Arc::new(ModelIncBuf::new(variant));
        let b1 = Arc::clone(&b);
        let b2 = Arc::clone(&b);
        let h1 = loomlite::spawn(move || {
            b1.record(0);
        });
        let h2 = loomlite::spawn(move || {
            b2.record(1);
        });
        h1.join();
        h2.join();
        b.drain();
        check_conserved(&b, [1, 1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loomlite::Config;

    fn cfg() -> Config {
        Config {
            preemption_bound: 2,
            max_schedules: 50_000,
            stop_on_failure: true,
        }
    }

    #[test]
    fn correct_handoff_is_clean() {
        let r = cfg().explore(incbuf_handoff_scenario(IncVariant::Correct));
        assert!(r.failures.is_empty(), "{:#?}", r.failures[0]);
        assert!(r.exhausted, "schedule cap hit at {}", r.schedules);
    }

    #[test]
    fn correct_contention_is_clean() {
        let r = cfg().explore(incbuf_contention_scenario(IncVariant::Correct));
        assert!(r.failures.is_empty(), "{:#?}", r.failures[0]);
        assert!(r.exhausted, "schedule cap hit at {}", r.schedules);
    }

    #[test]
    fn relaxed_claim_mutant_is_caught() {
        let r = cfg().explore(incbuf_handoff_scenario(IncVariant::RelaxedClaim));
        assert!(!r.failures.is_empty(), "planted relaxed-claim bug not caught");
    }

    #[test]
    fn relaxed_release_mutant_is_caught() {
        let r = cfg().explore(incbuf_handoff_scenario(IncVariant::RelaxedRelease));
        assert!(
            !r.failures.is_empty(),
            "planted relaxed-release bug not caught"
        );
    }
}
