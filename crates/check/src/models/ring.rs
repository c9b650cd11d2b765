//! A loom-lite model of the Vyukov MPMC ring (`crates/ds/src/ring.rs`).
//!
//! The model mirrors the real `MpmcRing` operation for operation: the same
//! sequence-number protocol, the same per-operation memory orderings, and a
//! [`MCell`] standing in for the `UnsafeCell<MaybeUninit<T>>` payload
//! slot, so the happens-before race detector checks exactly the obligation
//! the real code's `SAFETY:` comments claim: payload accesses are ordered
//! by the seq protocol's Release/Acquire edges, never by luck.
//!
//! [`RingOrderings`] parameterizes the four orderings so mutation-smoke
//! tests can weaken one (the way a refactor might) and prove the explorer
//! catches it.

use crate::loomlite::sync::{MAtomic, MCell, Ord};
use crate::loomlite::{self, check};
use std::sync::Arc;

/// The four orderings of the ring protocol.
#[derive(Debug, Clone, Copy)]
pub struct RingOrderings {
    /// `slot.seq.load` in `push` (real code: Acquire).
    pub push_seq_load: Ord,
    /// `slot.seq.store` publishing data in `push` (real code: Release).
    pub push_seq_store: Ord,
    /// `slot.seq.load` in `pop` (real code: Acquire).
    pub pop_seq_load: Ord,
    /// `slot.seq.store` recycling the slot in `pop` (real code: Release).
    pub pop_seq_store: Ord,
}

impl RingOrderings {
    /// The orderings the real `MpmcRing` uses.
    pub fn correct() -> Self {
        RingOrderings {
            push_seq_load: Ord::Acquire,
            push_seq_store: Ord::Release,
            pop_seq_load: Ord::Acquire,
            pop_seq_store: Ord::Release,
        }
    }

    /// Mutant: the dequeuer's sequence load is demoted to Relaxed, so the
    /// payload read is no longer ordered after the enqueuer's write.
    pub fn broken_pop_seq_load() -> Self {
        RingOrderings {
            pop_seq_load: Ord::Relaxed,
            ..Self::correct()
        }
    }

    /// Mutant: the enqueuer publishes with a Relaxed store, so a dequeuer
    /// can see the new sequence number before the payload write.
    pub fn broken_push_publish() -> Self {
        RingOrderings {
            push_seq_store: Ord::Relaxed,
            ..Self::correct()
        }
    }
}

/// Model of `MpmcRing<u64>`; `0` in a slot models "uninitialized".
pub struct ModelRing {
    slots: Vec<Slot>,
    mask: u64,
    enqueue_pos: MAtomic,
    dequeue_pos: MAtomic,
    ord: RingOrderings,
}

struct Slot {
    seq: MAtomic,
    val: MCell<u64>,
}

/// Slot labels must be `&'static`; the model ring is at most 4 slots.
const SLOT_LABELS: [&str; 4] = ["slot0", "slot1", "slot2", "slot3"];

impl ModelRing {
    /// Creates a ring with `cap` slots (power of two, at most 4).
    pub fn new(cap: usize, ord: RingOrderings) -> Self {
        assert!(cap.is_power_of_two() && cap <= 4);
        ModelRing {
            slots: (0..cap)
                .map(|i| Slot {
                    seq: MAtomic::new("seq", i as u64),
                    val: MCell::new(SLOT_LABELS[i], 0),
                })
                .collect(),
            mask: cap as u64 - 1,
            enqueue_pos: MAtomic::new("enqueue_pos", 0),
            dequeue_pos: MAtomic::new("dequeue_pos", 0),
            ord,
        }
    }

    /// Mirrors `MpmcRing::push`. Bounded retries keep every schedule finite.
    // ORDERING: parameterized via `RingOrderings`; `correct()` mirrors the
    // real ring — Acquire seq load pairs with the dequeuer's Release store,
    // Release publish pairs with the dequeuer's Acquire load, pos CASes are
    // Relaxed (the seq protocol carries all payload ordering).
    pub fn push(&self, val: u64) -> Result<(), u64> {
        let mut pos = self.enqueue_pos.load(Ord::Relaxed);
        for _ in 0..16 {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(self.ord.push_seq_load);
            let diff = seq as i64 - pos as i64;
            if diff == 0 {
                match self
                    .enqueue_pos
                    .compare_exchange(pos, pos + 1, Ord::Relaxed, Ord::Relaxed)
                {
                    Ok(_) => {
                        slot.val.write(val);
                        slot.seq.store(pos + 1, self.ord.push_seq_store);
                        return Ok(());
                    }
                    Err(cur) => pos = cur,
                }
            } else if diff < 0 {
                return Err(val);
            } else {
                pos = self.enqueue_pos.load(Ord::Relaxed);
            }
        }
        Err(val)
    }

    /// Mirrors `MpmcRing::pop` (the `replace(0)` models `assume_init_read`
    /// moving the payload out).
    // ORDERING: parameterized via `RingOrderings`; see `push` — the Acquire
    // seq load is what orders the payload read after the enqueuer's write.
    pub fn pop(&self) -> Option<u64> {
        let mut pos = self.dequeue_pos.load(Ord::Relaxed);
        for _ in 0..16 {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(self.ord.pop_seq_load);
            let diff = seq as i64 - (pos + 1) as i64;
            if diff == 0 {
                match self
                    .dequeue_pos
                    .compare_exchange(pos, pos + 1, Ord::Relaxed, Ord::Relaxed)
                {
                    Ok(_) => {
                        let val = slot.val.replace(0);
                        slot.seq.store(pos + self.mask + 1, self.ord.pop_seq_store);
                        return Some(val);
                    }
                    Err(cur) => pos = cur,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ord::Relaxed);
            }
        }
        None
    }
}

/// Closed-model scenario: `producers` threads each push `per_producer`
/// distinct nonzero values into a ring of `cap` slots while one consumer
/// thread pops; the main thread then drains and checks.
///
/// Invariants (checked via [`check`], plus the implicit race detector):
/// - nothing is lost: every successfully pushed value is popped or drained;
/// - nothing is duplicated;
/// - per-producer FIFO: one producer's values come out in push order;
/// - popped values were actually pushed (no torn/uninitialized reads).
// The std mutexes here are result-collection bookkeeping only (invisible
// to the model).
pub fn ring_scenario(
    cap: usize,
    producers: usize,
    per_producer: usize,
    consumer_attempts: usize,
    ord: RingOrderings,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let ring = Arc::new(ModelRing::new(cap, ord));
        // Plain (non-model) shared bookkeeping: accessed only for result
        // collection, invisible to the scheduler and race detector.
        let pushed: Arc<std::sync::Mutex<Vec<u64>>> = Arc::default();
        let popped: Arc<std::sync::Mutex<Vec<u64>>> = Arc::default();

        let mut handles = Vec::new();
        for p in 0..producers {
            let ring = Arc::clone(&ring);
            let pushed = Arc::clone(&pushed);
            handles.push(loomlite::spawn(move || {
                for i in 0..per_producer {
                    let v = (p as u64 + 1) * 100 + i as u64;
                    if ring.push(v).is_ok() {
                        pushed
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(v);
                    }
                }
            }));
        }
        {
            let ring = Arc::clone(&ring);
            let popped = Arc::clone(&popped);
            handles.push(loomlite::spawn(move || {
                for _ in 0..consumer_attempts {
                    if let Some(v) = ring.pop() {
                        popped
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(v);
                    }
                }
            }));
        }
        for h in handles {
            h.join();
        }
        // Drain the remainder single-threaded.
        let mut drained = Vec::new();
        while let Some(v) = ring.pop() {
            drained.push(v);
        }
        let pushed = pushed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let popped = popped
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();

        let mut got: Vec<u64> = popped.iter().chain(drained.iter()).copied().collect();
        check(
            got.iter().all(|v| *v != 0),
            "popped an uninitialized (zero) payload",
        );
        got.sort_unstable();
        let mut want = pushed.clone();
        want.sort_unstable();
        check(
            got == want,
            &format!("push/pop multiset mismatch: pushed {want:?}, got {got:?}"),
        );
        // Per-producer FIFO order over the consumer's pops.
        for p in 0..producers {
            let base = (p as u64 + 1) * 100;
            let seq: Vec<u64> = popped
                .iter()
                .copied()
                .filter(|v| (base..base + 100).contains(v))
                .collect();
            check(
                seq.windows(2).all(|w| w[0] < w[1]),
                &format!("producer {p} values popped out of order: {seq:?}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loomlite::Config;

    #[test]
    fn correct_ring_2p1c_is_clean() {
        let r = Config {
            preemption_bound: 2,
            max_schedules: 20_000,
            stop_on_failure: true,
        }
        .explore(ring_scenario(2, 2, 2, 3, RingOrderings::correct()));
        assert!(r.failures.is_empty(), "{:#?}", r.failures[0]);
        assert!(r.exhausted, "schedule cap hit at {}", r.schedules);
        assert!(r.schedules > 100, "suspiciously few schedules: {}", r.schedules);
    }

    #[test]
    fn broken_pop_seq_load_is_caught() {
        let r = Config {
            preemption_bound: 2,
            max_schedules: 20_000,
            stop_on_failure: true,
        }
        .explore(ring_scenario(2, 1, 1, 2, RingOrderings::broken_pop_seq_load()));
        assert!(!r.failures.is_empty(), "mutant not caught");
        let msg = r.failures[0].messages.join("; ");
        assert!(msg.contains("data race"), "expected a race, got: {msg}");
    }

    #[test]
    fn broken_push_publish_is_caught() {
        let r = Config {
            preemption_bound: 2,
            max_schedules: 20_000,
            stop_on_failure: true,
        }
        .explore(ring_scenario(2, 1, 1, 2, RingOrderings::broken_push_publish()));
        assert!(!r.failures.is_empty(), "mutant not caught");
        let msg = r.failures[0].messages.join("; ");
        assert!(msg.contains("data race"), "expected a race, got: {msg}");
    }
}
