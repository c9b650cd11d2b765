//! A loom-lite model of `cache_ds::ShardLocks` (`crates/ds/src/shardlock.rs`):
//! readers that announce themselves on a lane, writers that raise a flag and
//! sweep the lanes, and the gate mutex behind both.
//!
//! Down-scaling choices (documented so the model stays honest):
//! - one shard (tag 1; tag 2 stands for "some other shard" where a scenario
//!   needs a lane that is busy elsewhere), `LANES` = 2 lanes and a probe
//!   window a scenario chooses, against 32 and 4;
//! - lanes, the writer flag and the high-water mark are [`MAtomic`]s with the
//!   real orderings; the gate is a `spin_lock`, whose waiters park in
//!   [`loomlite::spin_wait`] as the writer's sweep does — a stuck waiter is
//!   reported as a deadlock, not looped on;
//! - the protected value is one [`MCell`] counter: a writer reads and writes
//!   it, a reader reads it, and the vector-clock race detector is the oracle
//!   — a reader and a writer inside together is a data race on the cell even
//!   when the interleaving happens to produce the right final value;
//! - thread-sticky lane hints are arguments.
//!
//! What this model cannot see: loom-lite explores interleavings of
//! sequentially consistent steps and models `SeqCst` as `AcqRel`, so the
//! store-buffer reordering that the reader's claim/flag-load and the writer's
//! flag-store/lane-load are `SeqCst` to forbid never occurs here, whatever
//! the orderings say. That half of the protocol is held by the `// ORDERING:`
//! argument in the real module and by its real-thread hammer tests. What the
//! model does hold: the *order of steps* on each side (mutants
//! [`LockVariant::FlagBeforeLane`], [`LockVariant::SweepBeforeFlag`]), the
//! `Release` edges out of each section ([`LockVariant::RelaxedLaneClear`],
//! [`LockVariant::RelaxedFlagClear`]), the back-out path
//! ([`LockVariant::BackoutKeepsLane`]) and the high-water mark.

use super::{spin_lock, spin_unlock};
use crate::loomlite::sync::{MAtomic, MCell, Ord};
use crate::loomlite::{self, check};
use std::sync::Arc;

/// Which lock protocol the model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockVariant {
    /// The shipped protocol.
    Correct,
    /// Buggy: the reader loads the writer flag *before* it publishes its
    /// lane; a writer that raises the flag and sweeps in between sees neither.
    FlagBeforeLane,
    /// Buggy: the writer sweeps the lanes *before* it raises its flag; a
    /// reader that arrives in between sees no flag and was not swept.
    SweepBeforeFlag,
    /// Buggy: the read guard clears its lane with `Relaxed`, so the sweep
    /// that sees the lane free does not have the reader's accesses before it.
    RelaxedLaneClear,
    /// Buggy: the write guard clears the flag with `Relaxed`, so a reader
    /// that sees it clear does not have the writer's mutation.
    RelaxedFlagClear,
    /// Buggy: a reader that finds the flag up goes to the gate without
    /// clearing its lane; the writer it queues behind sweeps that lane forever.
    BackoutKeepsLane,
}

/// Lanes in the model pool.
const LANES: usize = 2;

/// This shard's lane tag (`shard + 1` for shard 0).
const TAG: u64 = 1;

/// A lane tag of some other shard.
const OTHER: u64 = 2;

/// One shard of a `ShardLocks` with its lane pool.
pub struct ModelShardLock {
    lanes: [MAtomic; LANES],
    high_water: MAtomic,
    writer: MAtomic,
    gate: MAtomic,
    /// The protected value: writes made under a write guard.
    data: MCell<u64>,
    variant: LockVariant,
}

impl ModelShardLock {
    /// An idle lock over a zero counter.
    pub fn new(variant: LockVariant) -> Self {
        ModelShardLock {
            lanes: [MAtomic::new("lane0", 0), MAtomic::new("lane1", 0)],
            high_water: MAtomic::new("high_water", 0),
            writer: MAtomic::new("writer", 0),
            gate: MAtomic::new("gate", 0),
            data: MCell::new("data", 0),
            variant,
        }
    }

    /// Mirrors `ShardLock::read` plus the guard's drop, reading the value in
    /// between: probe `probes` lanes from `hint`, else (or when the flag is
    /// up) read under the gate. Returns what it read.
    // ORDERING: as the real `read` — SeqCst mark load and raise, SeqCst lane
    // claim (Relaxed on failure), SeqCst flag load, Release lane clear on
    // both the back-out and the drop. The mutants move the flag load, weaken
    // the drop's clear, or omit the back-out's.
    pub fn read(&self, hint: usize, probes: usize) -> u64 {
        for probe in 0..probes {
            let at = (hint + probe) % LANES;
            if self.high_water.load(Ord::SeqCst) <= at as u64 {
                self.high_water.fetch_max(at as u64 + 1, Ord::SeqCst);
            }
            let early_flag = (self.variant == LockVariant::FlagBeforeLane)
                .then(|| self.writer.load(Ord::SeqCst));
            let lane = &self.lanes[at];
            if lane
                .compare_exchange(0, TAG, Ord::SeqCst, Ord::Relaxed)
                .is_err()
            {
                continue;
            }
            let flag = early_flag.unwrap_or_else(|| self.writer.load(Ord::SeqCst));
            if flag == 0 {
                let seen = self.data.read();
                match self.variant {
                    LockVariant::RelaxedLaneClear => lane.store(0, Ord::Relaxed),
                    _ => lane.store(0, Ord::Release),
                }
                return seen;
            }
            if self.variant != LockVariant::BackoutKeepsLane {
                lane.store(0, Ord::Release);
            }
            break;
        }
        spin_lock(&self.gate);
        let seen = self.data.read();
        spin_unlock(&self.gate);
        seen
    }

    /// Mirrors `ShardLock::write` up to the returned guard: gate, flag, mark,
    /// sweep of the lanes in use.
    // ORDERING: as the real `write` — SeqCst flag store, SeqCst loads of the
    // mark and of each lane. The SweepBeforeFlag mutant raises the flag last.
    pub fn write_enter(&self) {
        spin_lock(&self.gate);
        if self.variant != LockVariant::SweepBeforeFlag {
            self.writer.store(1, Ord::SeqCst);
        }
        let in_use = self.high_water.load(Ord::SeqCst) as usize;
        for lane in &self.lanes[..in_use] {
            while lane.load(Ord::SeqCst) == TAG {
                if !loomlite::spin_wait() {
                    break;
                }
            }
        }
        if self.variant == LockVariant::SweepBeforeFlag {
            self.writer.store(1, Ord::SeqCst);
        }
    }

    /// The mutation a write guard allows: one more write recorded.
    pub fn bump(&self) {
        let v = self.data.read();
        self.data.write(v + 1);
    }

    /// Mirrors the write guard's drop: flag down, then the gate.
    // ORDERING: Release flag clear, as the real drop; the RelaxedFlagClear
    // mutant weakens it.
    pub fn write_exit(&self) {
        match self.variant {
            LockVariant::RelaxedFlagClear => self.writer.store(0, Ord::Relaxed),
            _ => self.writer.store(0, Ord::Release),
        }
        spin_unlock(&self.gate);
    }

    /// One whole write section.
    pub fn write(&self) {
        self.write_enter();
        self.bump();
        self.write_exit();
    }
}

/// Quiescent-state checks. Must run after all model threads joined.
// ORDERING: Relaxed loads — joins already ordered every thread's writes
// before this single-threaded epilogue.
fn check_quiescent(l: &ModelShardLock, writes: u64, busy_elsewhere: Option<usize>) {
    let data = l.data.read();
    check(
        data == writes,
        &format!("{writes} writes made, {data} recorded"),
    );
    for (i, lane) in l.lanes.iter().enumerate() {
        let expected = if busy_elsewhere == Some(i) { OTHER } else { 0 };
        let left = lane.load(Ord::Relaxed);
        check(
            left == expected,
            &format!("lane {i} left holding {left} at quiescence"),
        );
    }
    let (flag, gate) = (l.writer.load(Ord::Relaxed), l.gate.load(Ord::Relaxed));
    check(
        flag == 0 && gate == 0,
        &format!("flag {flag} gate {gate} at quiescence"),
    );
}

/// Scenario A — one reader against one writer.
pub fn reader_writer_scenario(variant: LockVariant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let l = Arc::new(ModelShardLock::new(variant));
        let l2 = Arc::clone(&l);
        let h = loomlite::spawn(move || l2.write());
        let seen = l.read(0, 1);
        h.join();
        check(seen <= 1, &format!("reader saw {seen} of 1 writes"));
        check_quiescent(&l, 1, None);
    }
}

/// Scenario B — two readers, a lane each, against one writer: the sweep has
/// two lanes to wait for, and the second reader's lane is first used while
/// the run is under way (the high-water mark moves).
pub fn two_readers_writer_scenario(variant: LockVariant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let l = Arc::new(ModelShardLock::new(variant));
        let (l2, l3) = (Arc::clone(&l), Arc::clone(&l));
        let w = loomlite::spawn(move || l2.write());
        let r = loomlite::spawn(move || {
            l3.read(1, 1);
        });
        l.read(0, 1);
        w.join();
        r.join();
        check_quiescent(&l, 1, None);
    }
}

/// Scenario C — two writers and a reader whose only lane is busy with
/// another shard, so it reads under the gate: the gate alone must keep the
/// three apart.
// ORDERING: SeqCst set-up stores, as a reader of the other shard would have
// made them; nothing runs beside them.
pub fn writers_gated_reader_scenario(variant: LockVariant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let l = Arc::new(ModelShardLock::new(variant));
        l.high_water.store(1, Ord::SeqCst);
        l.lanes[0].store(OTHER, Ord::SeqCst);
        let (l2, l3) = (Arc::clone(&l), Arc::clone(&l));
        let w = loomlite::spawn(move || l2.write());
        let r = loomlite::spawn(move || {
            l3.read(0, 1);
        });
        l.write();
        w.join();
        r.join();
        check_quiescent(&l, 2, Some(0));
    }
}

/// Scenario D — a reader that arrives while the flag is up: the writer is
/// past its sweep before the reader exists, so a reader that runs before the
/// section ends must back out, clear its lane and take the gate. A second
/// write section, after the reader is gone, then finds the lane free — or,
/// with the lane left behind, never gets in.
pub fn reader_meets_flag_scenario(variant: LockVariant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let l = Arc::new(ModelShardLock::new(variant));
        l.write_enter();
        let l2 = Arc::clone(&l);
        let r = loomlite::spawn(move || {
            let seen = l2.read(0, 2);
            check(
                seen == 1,
                "a reader got in beside the writer it arrived under",
            );
        });
        l.bump();
        l.write_exit();
        r.join();
        l.write();
        check_quiescent(&l, 2, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loomlite::{Config, Report};

    fn explore(scenario: impl Fn() + Send + Sync + 'static) -> Report {
        Config {
            preemption_bound: 2,
            max_schedules: 50_000,
            stop_on_failure: true,
        }
        .explore(scenario)
    }

    #[test]
    fn the_shipped_lock_survives_every_scenario() {
        for r in [
            explore(reader_writer_scenario(LockVariant::Correct)),
            explore(two_readers_writer_scenario(LockVariant::Correct)),
            explore(writers_gated_reader_scenario(LockVariant::Correct)),
            explore(reader_meets_flag_scenario(LockVariant::Correct)),
        ] {
            assert!(r.failures.is_empty(), "{:#?}", r.failures[0]);
            assert!(r.exhausted, "schedule cap hit at {}", r.schedules);
        }
    }

    fn caught(r: Report, by: &str) {
        assert!(!r.failures.is_empty(), "planted bug not caught");
        let msg = r.failures[0].messages.join("; ");
        assert!(msg.contains(by), "expected `{by}`, got: {msg}");
    }

    #[test]
    fn a_flag_read_before_the_lane_is_published_is_caught() {
        caught(
            explore(reader_writer_scenario(LockVariant::FlagBeforeLane)),
            "data race on cell `data`",
        );
    }

    #[test]
    fn a_sweep_before_the_flag_is_caught() {
        caught(
            explore(reader_writer_scenario(LockVariant::SweepBeforeFlag)),
            "data race on cell `data`",
        );
    }

    #[test]
    fn a_relaxed_lane_clear_is_caught() {
        caught(
            explore(two_readers_writer_scenario(LockVariant::RelaxedLaneClear)),
            "data race on cell `data`",
        );
    }

    #[test]
    fn a_relaxed_flag_clear_is_caught() {
        caught(
            explore(reader_writer_scenario(LockVariant::RelaxedFlagClear)),
            "data race on cell `data`",
        );
    }

    /// The writer never finishes: the explorer must say so, not hang.
    #[test]
    fn a_lane_left_behind_by_a_backed_out_reader_is_reported_stuck() {
        caught(
            explore(reader_meets_flag_scenario(LockVariant::BackoutKeepsLane)),
            "deadlock",
        );
    }
}
