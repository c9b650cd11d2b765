//! A loom-lite model of the concurrent S3-FIFO shard
//! (`crates/concurrent/src/s3fifo.rs`): insert (fresh, overwrite, revive),
//! `remove`, the hit path's frequency bump, and `pop_one`.
//!
//! The protocol under test: the index slot owns an object's state, the
//! rings carry its bare key, and **every slot has exactly one handle, in
//! the ring its `in_main` names**. Overwrite, delete and revive are each
//! one critical section on the slot and touch no ring; a pop takes a
//! handle off a ring and settles its slot in one critical section; only
//! that pop removes a slot.
//!
//! Down-scaling choices (documented so the model stays honest):
//! - handles are `key + 1` (the model ring reads `0` as "uninitialised");
//! - one shard: the shard's `ShardLocks` cell (index map and ghost slice
//!   behind one lock; the lock itself is modeled in `shardlock.rs`) and the
//!   occupancy counters become one [`MMutex`] over a tiny struct. Read/write
//!   distinction collapsed, and the counters — in the real code Relaxed
//!   atomics shared by all shards, but only ever changed inside the critical
//!   section that changes the slot they count — are plain fields changed in
//!   the same closure. The real code makes no ghost operation outside a
//!   shard's write section, so neither does the model: an insert takes the
//!   ghost entry in the section that creates the slot, a pop leaves one in
//!   the section that removes it;
//! - the small/main queues are [`ModelRing`]s with the real orderings;
//! - the two frequency bits become one (`hot`: promote from `S`);
//! - `make_room`'s loop is the scenario's business: it calls
//!   [`ModelShard::pop_one`] itself.
//!
//! [`Mutant`] plants the three mistakes a refactor of this file is most
//! likely to make; each must be caught.

use super::ring::{ModelRing, RingOrderings};
use crate::loomlite::sync::MMutex;
use crate::loomlite::{self, check};
use std::sync::Arc;

/// Which planted bug, if any, the model runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The protocol as shipped.
    None,
    /// An overwrite queues a second handle for its key: what the code did
    /// when every insert made a fresh `Arc<Entry>` and left the old one in
    /// its ring.
    OverwritePushes,
    /// A popped tombstone gives back its queue's live count, which the
    /// delete that made it a tombstone had already given back.
    TombstoneReleasesTwice,
    /// `pop_one` ghosts the key it popped before the critical section that
    /// finds out what the slot is, so a racing delete or hit leaves a key
    /// ghosted that was never evicted.
    GhostBeforeSettle,
}

/// Keys the model uses (`slots` is an array, not a map).
const KEYS: usize = 2;

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// `false`: a tombstone.
    live: bool,
    hot: bool,
    in_main: bool,
}

#[derive(Debug, Default)]
struct State {
    slots: [Option<Slot>; KEYS],
    /// Bitmask of ghosted keys.
    ghost: u8,
    /// Ghost inserts ever made, and evictions from `S` ever made.
    ghost_inserts: u64,
    small_evictions: u64,
    /// Signed, so that a planted double release reads as -1, not as a panic.
    s_count: i64,
    m_count: i64,
    dead: i64,
}

impl State {
    fn count(&mut self, in_main: bool) -> &mut i64 {
        if in_main {
            &mut self.m_count
        } else {
            &mut self.s_count
        }
    }

    fn ghost_insert(&mut self, key: usize) {
        self.ghost |= 1 << key;
        self.ghost_inserts += 1;
    }
}

/// What `pop_one`'s critical section did with the slot.
enum Settled {
    /// Removed (tombstone reclaimed, or evicted).
    Gone,
    /// Still there; its handle goes to this ring.
    Requeue { to_main: bool },
    /// The handle had no slot.
    Orphan,
}

/// Model of one `ConcurrentS3Fifo` shard plus the two queues.
pub struct ModelShard {
    state: MMutex<State>,
    small: ModelRing,
    main: ModelRing,
    mutant: Mutant,
}

impl ModelShard {
    /// Builds an empty shard model; queues use the real ring orderings.
    pub fn new(mutant: Mutant) -> Self {
        ModelShard {
            state: MMutex::new("shard", State::default()),
            small: ModelRing::new(4, RingOrderings::correct()),
            main: ModelRing::new(4, RingOrderings::correct()),
            mutant,
        }
    }

    fn push(&self, to_main: bool, key: usize) {
        let ring = if to_main { &self.main } else { &self.small };
        check(ring.push(key as u64 + 1).is_ok(), "model ring overflow");
    }

    /// Mirrors `ConcurrentS3Fifo::insert` without its `make_room`: one
    /// critical section that overwrites or revives the slot, or takes the
    /// key's ghost entry and creates it; only a created slot gets a handle.
    pub fn insert(&self, key: usize) {
        let (created, to_main) = self.state.with(|s| match &mut s.slots[key] {
            Some(slot) => {
                let in_main = slot.in_main;
                if !slot.live {
                    *slot = Slot {
                        live: true,
                        hot: false,
                        in_main,
                    };
                    s.dead -= 1;
                    *s.count(in_main) += 1;
                }
                (false, in_main)
            }
            vacant => {
                let ghost_hit = s.ghost & (1 << key) != 0;
                s.ghost &= !(1 << key);
                *vacant = Some(Slot {
                    live: true,
                    hot: false,
                    in_main: ghost_hit,
                });
                *s.count(ghost_hit) += 1;
                (true, ghost_hit)
            }
        });
        if created || self.mutant == Mutant::OverwritePushes {
            self.push(to_main, key);
        }
    }

    /// Mirrors `ConcurrentS3Fifo::remove`: the slot becomes a tombstone and
    /// stops counting at once; its handle stays where it is.
    pub fn remove(&self, key: usize) -> bool {
        self.state.with(|s| match &mut s.slots[key] {
            Some(slot) if slot.live => {
                slot.live = false;
                let in_main = slot.in_main;
                *s.count(in_main) -= 1;
                s.dead += 1;
                true
            }
            _ => false,
        })
    }

    /// Mirrors a read hit's frequency bump (`apply_freq`): live slots only.
    pub fn touch(&self, key: usize) {
        self.state.with(|s| {
            if let Some(slot) = s.slots[key].as_mut().filter(|slot| slot.live) {
                slot.hot = true;
            }
        });
    }

    /// Mirrors `ConcurrentS3Fifo::pop_one` with the cache full: pop a
    /// handle, settle its slot in one critical section, requeue the handle
    /// if the slot stayed.
    pub fn pop_one(&self, from_small: bool) -> bool {
        let ring = if from_small { &self.small } else { &self.main };
        let Some(handle) = ring.pop() else {
            return false;
        };
        let key = (handle - 1) as usize;
        let mutant = self.mutant;
        if mutant == Mutant::GhostBeforeSettle && from_small {
            self.state.with(|s| s.ghost_insert(key));
        }
        let settled = self.state.with(|s| {
            let Some(slot) = s.slots[key].as_mut() else {
                return Settled::Orphan;
            };
            if !slot.live {
                s.slots[key] = None;
                s.dead -= 1;
                if mutant == Mutant::TombstoneReleasesTwice {
                    *s.count(!from_small) -= 1;
                }
                return Settled::Gone;
            }
            if from_small && slot.hot {
                slot.hot = false;
                slot.in_main = true;
                s.s_count -= 1;
                s.m_count += 1;
                return Settled::Requeue { to_main: true };
            }
            if !from_small && slot.hot {
                slot.hot = false;
                return Settled::Requeue { to_main: true };
            }
            s.slots[key] = None;
            *s.count(!from_small) -= 1;
            if from_small {
                s.small_evictions += 1;
                if mutant != Mutant::GhostBeforeSettle {
                    s.ghost_insert(key);
                }
            }
            Settled::Gone
        });
        match settled {
            Settled::Gone => {}
            Settled::Requeue { to_main } => self.push(to_main, key),
            Settled::Orphan => check(false, &format!("handle for key {key} has no slot")),
        }
        true
    }
}

/// Quiescent-state checks shared by the scenarios. Must run after all
/// model threads joined.
fn check_quiescent(sh: &ModelShard) {
    // handles[ring][key], from draining both rings.
    let mut handles = [[0usize; KEYS]; 2];
    for (in_main, ring) in [&sh.small, &sh.main].into_iter().enumerate() {
        while let Some(handle) = ring.pop() {
            handles[in_main][(handle - 1) as usize] += 1;
        }
    }
    sh.state.with(|s| {
        // The whole invariant: one handle per slot, in the ring it names;
        // none without a slot.
        let (mut live, mut dead) = ([0i64; 2], 0i64);
        for (key, slot) in s.slots.iter().enumerate() {
            let found = [handles[0][key], handles[1][key]];
            let expected = match slot {
                Some(slot) if slot.in_main => [0, 1],
                Some(_) => [1, 0],
                None => [0, 0],
            };
            check(
                found == expected,
                &format!("one-handle invariant: key {key} is {slot:?} with handles [S, M] = {found:?}"),
            );
            match slot {
                Some(slot) if slot.live => live[usize::from(slot.in_main)] += 1,
                Some(_) => dead += 1,
                None => {}
            }
        }
        // Accounting: the counters count exactly what is there.
        check(
            [s.s_count, s.m_count] == live && s.dead == dead,
            &format!(
                "accounting drift: s_count={} m_count={} dead={} but live [S, M] = {live:?}, tombstones {dead}",
                s.s_count, s.m_count, s.dead
            ),
        );
        // A key enters the ghost iff a pop found it live and cold in `S`
        // and removed it.
        check(
            s.ghost_inserts == s.small_evictions,
            &format!(
                "ghost inserts ({}) != evictions from S ({}): a key that was not evicted is ghosted",
                s.ghost_inserts, s.small_evictions
            ),
        );
    });
}

/// Scenario A — eviction racing a set of the same key: `k0` is resident in
/// `S`; one thread pops it while the other sets it again (an overwrite in
/// place, or a fresh insert if the pop got there first).
pub fn evict_overwrite_scenario(mutant: Mutant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let sh = Arc::new(ModelShard::new(mutant));
        sh.insert(0);
        let s2 = Arc::clone(&sh);
        let h = loomlite::spawn(move || {
            s2.pop_one(true);
        });
        sh.insert(0);
        h.join();
        check_quiescent(&sh);
    }
}

/// Scenario B — eviction racing a delete and a re-set of the same key: the
/// pop finds `k0` live, tombstoned or revived, or misses it altogether.
pub fn evict_delete_revive_scenario(mutant: Mutant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let sh = Arc::new(ModelShard::new(mutant));
        sh.insert(0);
        let s2 = Arc::clone(&sh);
        let h = loomlite::spawn(move || {
            s2.pop_one(true);
        });
        sh.remove(0);
        sh.insert(0);
        h.join();
        check_quiescent(&sh);
    }
}

/// Scenario C — promotion racing a delete and an insert: `k0` is hot, so
/// the first pop moves it to `M` (its handle in flight between the rings)
/// while the other thread deletes it and inserts `k1`; the second pop takes
/// whatever is next in `S`.
pub fn promote_delete_scenario(mutant: Mutant) -> impl Fn() + Send + Sync + 'static {
    move || {
        let sh = Arc::new(ModelShard::new(mutant));
        sh.insert(0);
        sh.touch(0);
        let s2 = Arc::clone(&sh);
        let h = loomlite::spawn(move || {
            s2.pop_one(true);
            s2.pop_one(true);
        });
        sh.remove(0);
        sh.insert(1);
        h.join();
        check_quiescent(&sh);
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
    fn the_shipped_protocol_survives_every_scenario() {
        for r in [
            explore(evict_overwrite_scenario(Mutant::None)),
            explore(evict_delete_revive_scenario(Mutant::None)),
            explore(promote_delete_scenario(Mutant::None)),
        ] {
            assert!(r.failures.is_empty(), "{:#?}", r.failures[0]);
            assert!(r.exhausted, "schedule cap hit at {}", r.schedules);
        }
    }

    fn caught(r: Report, by: &str) {
        assert!(!r.failures.is_empty(), "planted bug not caught");
        let msg = r.failures[0].messages.join("; ");
        assert!(msg.contains(by), "expected the {by} invariant, got: {msg}");
    }

    #[test]
    fn a_second_handle_per_slot_is_caught() {
        caught(
            explore(evict_overwrite_scenario(Mutant::OverwritePushes)),
            "one-handle",
        );
    }

    #[test]
    fn a_tombstone_released_twice_is_caught() {
        caught(
            explore(evict_delete_revive_scenario(Mutant::TombstoneReleasesTwice)),
            "accounting",
        );
    }

    #[test]
    fn ghost_before_settle_is_caught() {
        caught(
            explore(evict_delete_revive_scenario(Mutant::GhostBeforeSettle)),
            "ghost",
        );
    }
}
