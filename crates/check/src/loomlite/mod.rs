//! loom-lite: a minimal deterministic-scheduler model checker.
//!
//! Inspired by `loom` (shim-style API: model atomics, spawn, yield points)
//! and CHESS (iterative context bounding): the explorer enumerates every
//! thread interleaving of a small closed model whose *preemption count*
//! does not exceed a bound (default 2). Empirically almost all concurrency
//! bugs manifest with very few preemptions, so a bound-2 search is both
//! exhaustive in a meaningful sense and small enough to run in CI.
//!
//! What it checks:
//! - whatever invariants the model body asserts via [`check`];
//! - data races: non-atomic model cells ([`sync::MCell`]) are guarded by a
//!   vector-clock happens-before detector, so weakening an ordering (say,
//!   the Vyukov ring's `Acquire` sequence load to `Relaxed`) is caught even
//!   though a serialized interleaving search alone would never see it;
//! - deadlocks (no runnable thread: every live one is joining or in a
//!   [`spin_wait`] nobody can end) and model-thread panics.
//!
//! ```
//! use cache_check::loomlite::{self, sync::{MAtomic, Ord}};
//! use std::sync::Arc;
//!
//! let report = loomlite::Config::default().explore(|| {
//!     let a = Arc::new(MAtomic::new("a", 0));
//!     let b = a.clone();
//!     let h = loomlite::spawn(move || { b.store(1, Ord::Release); });
//!     let _ = a.load(Ord::Acquire);
//!     h.join();
//! });
//! assert!(report.failures.is_empty());
//! assert!(report.schedules >= 2); // both orders of store vs load
//! ```

pub mod sched;
pub mod sync;

use sched::{PathEntry, Scheduler};
use std::sync::Arc;

/// Spawns a model thread. Must be called from inside a model body.
pub fn spawn(f: impl FnOnce() + Send + 'static) -> JoinHandle {
    let (sched, tid) = sched::with_ctx(|s, t| (s.clone(), t));
    let child = sched.spawn_thread(tid, Box::new(f));
    JoinHandle { sched, child }
}

/// Handle to a spawned model thread.
pub struct JoinHandle {
    sched: Arc<Scheduler>,
    child: usize,
}

impl JoinHandle {
    /// Blocks (in model time) until the thread finishes; establishes a
    /// happens-before edge from everything the child did.
    pub fn join(self) {
        let tid = sched::with_ctx(|_, t| t);
        self.sched.join_thread(self.child, tid);
    }
}

/// One turn of a spin-wait loop, called after the loop's condition was found
/// false: `while !ready.load(..) { if !spin_wait() { break } }`. The thread
/// runs again only after another thread has written an atomic; threads that
/// all wait this way (or in a join) are reported as a deadlock. Returns false
/// when the run is aborting, and the loop must then end.
pub fn spin_wait() -> bool {
    let (sched, tid) = sched::with_ctx(|s, t| (s.clone(), t));
    sched.spin_wait(tid)
}

/// Records a model invariant violation (and aborts the schedule) when
/// `cond` is false. Use instead of `assert!` inside model bodies so the
/// failing schedule is reported with its trace.
pub fn check(cond: bool, msg: &str) {
    if !cond {
        let (sched, tid) = sched::with_ctx(|s, t| (s.clone(), t));
        sched.record_failure(tid, &format!("invariant violated: {msg}"));
    }
}

/// One failing schedule.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Branch-point choices that reproduce the failure.
    pub schedule: Vec<usize>,
    /// Failure messages recorded during that run.
    pub messages: Vec<String>,
}

/// Exploration result.
#[derive(Debug)]
pub struct Report {
    /// Distinct schedules executed.
    pub schedules: usize,
    /// Failures found (first-failure only when `stop_on_failure`).
    pub failures: Vec<Failure>,
    /// True when the whole bounded schedule space was covered.
    pub exhausted: bool,
}

/// Exploration parameters.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Maximum preemptive context switches per schedule (CHESS bound).
    pub preemption_bound: usize,
    /// Hard cap on schedules (safety valve; `exhausted` is false when hit).
    pub max_schedules: usize,
    /// Stop at the first failing schedule.
    pub stop_on_failure: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: 2,
            max_schedules: 100_000,
            stop_on_failure: true,
        }
    }
}

impl Config {
    /// Exhaustively explores bounded-preemption schedules of `body`.
    ///
    /// `body` runs once per schedule as model thread 0; it may spawn
    /// threads, use the model primitives, and call [`check`]. It must be
    /// deterministic apart from scheduling (no wall clock, no OS RNG).
    pub fn explore(&self, body: impl Fn() + Send + Sync + 'static) -> Report {
        let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
        let mut path: Vec<PathEntry> = Vec::new();
        let mut schedules = 0usize;
        let mut failures = Vec::new();
        let mut exhausted = false;
        loop {
            let replay: Vec<usize> = path.iter().map(|e| e.chosen).collect();
            let sched = Scheduler::new(self.preemption_bound, replay);
            sched.start(Arc::clone(&body));
            let outcome = sched.wait();
            schedules += 1;
            path.extend(outcome.fresh);
            if !outcome.failures.is_empty() {
                failures.push(Failure {
                    schedule: outcome.trace,
                    messages: outcome.failures,
                });
                if self.stop_on_failure {
                    break;
                }
            }
            if schedules >= self.max_schedules {
                break;
            }
            // Depth-first backtrack to the deepest branch with an untried
            // alternative.
            loop {
                match path.last_mut() {
                    None => {
                        exhausted = true;
                        break;
                    }
                    Some(e) => {
                        if let Some(alt) = e.alts.pop() {
                            e.chosen = alt;
                            break;
                        }
                        path.pop();
                    }
                }
            }
            if exhausted {
                break;
            }
        }
        Report {
            schedules,
            failures,
            exhausted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::{MAtomic, MCell, MMutex, Ord};
    use super::*;
    use std::sync::Arc;

    // ORDERING: Relaxed throughout — single thread, program order only.
    #[test]
    fn single_thread_has_one_schedule() {
        let r = Config::default().explore(|| {
            let a = MAtomic::new("a", 0);
            a.store(1, Ord::Relaxed);
            check(a.load(Ord::Relaxed) == 1, "store visible to same thread");
        });
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.schedules, 1);
        assert!(r.exhausted);
    }

    // ORDERING: deliberately Relaxed — the bug under test is the lost
    // update from a non-atomic read-modify-write split, not visibility.
    #[test]
    fn two_threads_interleave_and_lost_update_is_found() {
        // Classic non-atomic increment: load, add, store. Some schedule
        // loses an update; the final check must fail in that schedule.
        let r = Config {
            stop_on_failure: true,
            ..Config::default()
        }
        .explore(|| {
            let a = Arc::new(MAtomic::new("ctr", 0));
            let b = a.clone();
            let h = spawn(move || {
                let v = b.load(Ord::Relaxed);
                b.store(v + 1, Ord::Relaxed);
            });
            let v = a.load(Ord::Relaxed);
            a.store(v + 1, Ord::Relaxed);
            h.join();
            check(a.load(Ord::Relaxed) == 2, "increments must not be lost");
        });
        assert!(!r.failures.is_empty(), "explorer missed the lost update");
        assert!(r.failures[0].messages[0].contains("increments must not be lost"));
    }

    // ORDERING: Relaxed RMWs — atomicity, not ordering, is under test.
    #[test]
    fn atomic_rmw_never_loses_updates() {
        let r = Config::default().explore(|| {
            let a = Arc::new(MAtomic::new("ctr", 0));
            let b = a.clone();
            let h = spawn(move || {
                b.fetch_add(1, Ord::Relaxed);
            });
            a.fetch_add(1, Ord::Relaxed);
            h.join();
            check(a.load(Ord::Relaxed) == 2, "fetch_add is atomic");
        });
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert!(r.exhausted);
        assert!(r.schedules >= 3, "expected >=3 schedules, got {}", r.schedules);
    }

    // ORDERING: the canonical Release-store / Acquire-load publish pair.
    #[test]
    fn release_acquire_publish_is_race_free() {
        let r = Config::default().explore(|| {
            let data = Arc::new(MCell::new("payload", 0u64));
            let flag = Arc::new(MAtomic::new("flag", 0));
            let (d2, f2) = (data.clone(), flag.clone());
            let h = spawn(move || {
                d2.write(42);
                f2.store(1, Ord::Release);
            });
            if flag.load(Ord::Acquire) == 1 {
                check(data.read() == 42, "published value visible");
            }
            h.join();
        });
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert!(r.exhausted);
    }

    // ORDERING: intentionally wrong (Relaxed publish) — must be flagged.
    #[test]
    fn relaxed_publish_is_a_data_race() {
        // Same shape, but the flag store is Relaxed: reading the payload
        // after seeing flag==1 is a race the vector clocks must flag.
        let r = Config::default().explore(|| {
            let data = Arc::new(MCell::new("payload", 0u64));
            let flag = Arc::new(MAtomic::new("flag", 0));
            let (d2, f2) = (data.clone(), flag.clone());
            let h = spawn(move || {
                d2.write(42);
                f2.store(1, Ord::Relaxed); // BUG: should be Release
            });
            if flag.load(Ord::Acquire) == 1 {
                let _ = data.read();
            }
            h.join();
        });
        assert!(!r.failures.is_empty(), "race not detected");
        let msg = &r.failures[0].messages[0];
        assert!(msg.contains("data race"), "unexpected failure: {msg}");
        assert!(msg.contains("payload"), "race should name the cell: {msg}");
    }

    // ORDERING: intentionally wrong (Relaxed consume load) — must be flagged.
    #[test]
    fn relaxed_consume_side_is_a_data_race_too() {
        let r = Config::default().explore(|| {
            let data = Arc::new(MCell::new("payload", 0u64));
            let flag = Arc::new(MAtomic::new("flag", 0));
            let (d2, f2) = (data.clone(), flag.clone());
            let h = spawn(move || {
                d2.write(42);
                f2.store(1, Ord::Release);
            });
            if flag.load(Ord::Relaxed) == 1 {
                // BUG: Relaxed load
                let _ = data.read();
            }
            h.join();
        });
        assert!(!r.failures.is_empty(), "race not detected");
    }

    #[test]
    fn mutex_sections_are_ordered() {
        let r = Config::default().explore(|| {
            let m = Arc::new(MMutex::new("m", 0u64));
            let c = Arc::new(MCell::new("side", 0u64));
            let (m2, _c2) = (m.clone(), c.clone());
            let h = spawn(move || {
                m2.with(|v| {
                    *v += 1;
                });
            });
            m.with(|v| {
                *v += 1;
            });
            h.join();
            check(m.with(|v| *v) == 2, "mutex increments serialize");
            c.write(1); // post-join write, no race
        });
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    // ORDERING: AcqRel RMWs so both increments are globally visible at join.
    #[test]
    fn deadlock_free_join_of_three_threads() {
        let r = Config {
            preemption_bound: 1,
            ..Config::default()
        }
        .explore(|| {
            let a = Arc::new(MAtomic::new("x", 0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let a = a.clone();
                    spawn(move || {
                        a.fetch_add(1, Ord::AcqRel);
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
            check(a.load(Ord::Acquire) == 2, "both increments landed");
        });
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert!(r.exhausted);
    }

    // ORDERING: Relaxed — this test only counts schedules.
    #[test]
    fn preemption_bound_widens_coverage() {
        let count = |bound| {
            Config {
                preemption_bound: bound,
                ..Config::default()
            }
            .explore(|| {
                let a = Arc::new(MAtomic::new("x", 0));
                let b = a.clone();
                let h = spawn(move || {
                    for _ in 0..3 {
                        b.fetch_add(1, Ord::Relaxed);
                    }
                });
                for _ in 0..3 {
                    a.fetch_add(1, Ord::Relaxed);
                }
                h.join();
            })
            .schedules
        };
        let (c0, c1, c2) = (count(0), count(1), count(2));
        assert!(c0 < c1 && c1 < c2, "bounds: {c0} {c1} {c2}");
        assert_eq!(c0, 1, "bound 0 = run to completion, no preemptions");
    }
}
