//! A loom-lite model of the server's shutdown/drain handshake
//! (`crates/server/src/drain.rs`): the `DrainGate` flag/counter pair plus
//! the request effects the drainer must observe.
//!
//! Down-scaling choices (documented so the model stays honest):
//! - the in-flight counter and gate flag are [`MAtomic`]s with the real
//!   code's orderings (`SeqCst` on all four accesses — the pair is a
//!   store-buffer/Dekker pattern, see the real module docs);
//! - "the request's effects" collapse to one [`MCell`] counter *per
//!   worker* the worker bumps while it holds the gate — the stand-in for
//!   the writes a live request performs on shard state. Per-worker cells
//!   because concurrent requests do not race each other in the real server
//!   (shard state is internally synchronized); the unsynchronized pair the
//!   model interrogates is worker-vs-drainer. The vector-clock race
//!   detector on those cells is what turns "drain declared too early" into
//!   a caught failure even when the interleaving happens to produce the
//!   right final value;
//! - `await_drained`'s unbounded poll loop becomes a bounded poll
//!   (≤ `POLLS` loads). Schedules where the drainer never observes zero
//!   take the real code's timeout path: no teardown, nothing to assert.
//!
//! Two planted mutants mirror the plausible refactor mistakes:
//! [`DrainVariant::CheckThenJoin`] flips the worker's join/check order (the
//! classic hole: the drainer reads zero between the worker's gate check and
//! its increment, declares drained, and tears down under a live request);
//! [`DrainVariant::RelaxedComplete`] weakens the guard-drop decrement to
//! `Relaxed` (the drainer can observe zero without the request's effects
//! being published — the race detector flags its teardown read).

use crate::loomlite::sync::{MAtomic, MCell, Ord};
use crate::loomlite::{self, check};
use std::sync::Arc;

/// Which drain protocol the model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainVariant {
    /// The shipped protocol: join (increment) first, check the gate
    /// second, decrement with `SeqCst` on completion.
    Correct,
    /// Buggy: check the gate first, join second. A drainer can observe
    /// zero in-flight inside the check→join window.
    CheckThenJoin,
    /// Buggy: the completion decrement is `Relaxed`, so observing zero
    /// does not order the request's effects before the teardown.
    RelaxedComplete,
}

/// Bounded stand-in for `await_drained`'s poll loop.
const POLLS: usize = 3;

/// Workers the model supports (one effect cell each).
const WORKERS: usize = 2;

/// The gate pair plus the state live requests mutate.
pub struct ModelDrain {
    closed: MAtomic,
    in_flight: MAtomic,
    /// Per-worker request effects (non-atomic cells, race-checked).
    work: [MCell<u64>; WORKERS],
    variant: DrainVariant,
}

impl ModelDrain {
    /// An open gate with nothing in flight.
    pub fn new(variant: DrainVariant) -> Self {
        ModelDrain {
            closed: MAtomic::new("closed", 0),
            in_flight: MAtomic::new("in_flight", 0),
            work: [MCell::new("work0", 0), MCell::new("work1", 0)],
            variant,
        }
    }

    /// Mirrors `try_enter` + the request body + the guard drop: join,
    /// check the gate (back out if closed), do the request's work, leave.
    /// Returns true when the request was admitted and completed.
    // ORDERING: SeqCst on the join increment, the gate check, and both
    // decrements, as in the real `DrainGate` — counter-write/flag-read
    // here against flag-write/counter-read in the drainer is a
    // store-buffer pattern only a single total order makes safe. The
    // mutants weaken exactly one leg each.
    pub fn request(&self, slot: usize) -> bool {
        match self.variant {
            DrainVariant::CheckThenJoin => {
                // BUG: gate checked before joining — the drainer can see
                // zero in-flight in this window.
                if self.closed.load(Ord::SeqCst) != 0 {
                    return false;
                }
                self.in_flight.fetch_add(1, Ord::SeqCst);
            }
            DrainVariant::Correct | DrainVariant::RelaxedComplete => {
                self.in_flight.fetch_add(1, Ord::SeqCst);
                if self.closed.load(Ord::SeqCst) != 0 {
                    self.in_flight.fetch_sub(1, Ord::SeqCst);
                    return false;
                }
            }
        }
        // The request's effect on shard state.
        let v = self.work[slot].read();
        self.work[slot].write(v + 1);
        match self.variant {
            DrainVariant::RelaxedComplete => {
                // BUG: a relaxed decrement does not publish the work write.
                self.in_flight.fetch_sub(1, Ord::Relaxed);
            }
            _ => {
                self.in_flight.fetch_sub(1, Ord::SeqCst);
            }
        }
        true
    }

    /// Mirrors `close` + a bounded `await_drained` + teardown: close the
    /// gate, poll the counter, and on observing zero read the request
    /// effects (the teardown / final-snapshot access). Returns the
    /// snapshot when drain succeeded within the poll bound.
    // ORDERING: SeqCst flag store and counter loads, as in the real
    // `close`/`await_drained` — the drainer's side of the store-buffer
    // pattern; an observed zero must order every completed request's
    // effects before the teardown read.
    pub fn drain(&self) -> Option<u64> {
        self.closed.store(1, Ord::SeqCst);
        for _ in 0..POLLS {
            if self.in_flight.load(Ord::SeqCst) == 0 {
                return Some(self.work.iter().map(MCell::read).sum());
            }
        }
        None
    }
}

/// Quiescent-state checks. Must run after all model threads joined.
// ORDERING: Relaxed load suffices — joins already ordered every thread's
// writes before this single-threaded epilogue.
fn check_quiescent(d: &ModelDrain, snapshot: Option<u64>) {
    let residue = d.in_flight.load(Ord::Relaxed);
    check(
        residue == 0,
        &format!("in-flight residue after quiescence: {residue}"),
    );
    if let Some(seen) = snapshot {
        let final_work: u64 = d.work.iter().map(MCell::read).sum();
        check(
            seen == final_work,
            &format!(
                "drain declared with a request still running: teardown \
                 snapshot {seen}, final effects {final_work}"
            ),
        );
    }
}

/// Scenario A — shutdown racing one request:
/// a single worker issues one request while the main thread closes the
/// gate and drains. Under [`DrainVariant::CheckThenJoin`] some schedule
/// drains inside the worker's check→join window; under
/// [`DrainVariant::RelaxedComplete`] the teardown read races the work
/// write.
pub fn drain_race_scenario(variant: DrainVariant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let d = Arc::new(ModelDrain::new(variant));
        let d2 = Arc::clone(&d);
        let h = loomlite::spawn(move || {
            d2.request(0);
        });
        let snapshot = d.drain();
        h.join();
        check_quiescent(&d, snapshot);
    }
}

/// Scenario B — shutdown racing two workers:
/// one worker is mid-request while another arrives late (and must bounce
/// whenever the drainer already observed zero). Exercises the no-residue
/// invariant and the snapshot invariant across admit/bounce mixes.
pub fn drain_two_workers_scenario(variant: DrainVariant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let d = Arc::new(ModelDrain::new(variant));
        let d2 = Arc::clone(&d);
        let d3 = Arc::clone(&d);
        let h1 = loomlite::spawn(move || {
            d2.request(0);
        });
        let h2 = loomlite::spawn(move || {
            d3.request(1);
        });
        let snapshot = d.drain();
        h1.join();
        h2.join();
        check_quiescent(&d, snapshot);
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
    fn correct_drain_survives_one_worker() {
        let r = cfg().explore(drain_race_scenario(DrainVariant::Correct));
        assert!(r.failures.is_empty(), "{:#?}", r.failures[0]);
        assert!(r.exhausted, "schedule cap hit at {}", r.schedules);
    }

    #[test]
    fn correct_drain_survives_two_workers() {
        let r = cfg().explore(drain_two_workers_scenario(DrainVariant::Correct));
        assert!(r.failures.is_empty(), "{:#?}", r.failures[0]);
        assert!(r.exhausted, "schedule cap hit at {}", r.schedules);
    }

    #[test]
    fn check_then_join_mutant_is_caught() {
        let r = cfg().explore(drain_race_scenario(DrainVariant::CheckThenJoin));
        assert!(!r.failures.is_empty(), "planted join-order bug not caught");
    }

    #[test]
    fn relaxed_complete_mutant_is_caught() {
        let r = cfg().explore(drain_race_scenario(DrainVariant::RelaxedComplete));
        assert!(
            !r.failures.is_empty(),
            "planted relaxed-decrement bug not caught"
        );
    }
}
