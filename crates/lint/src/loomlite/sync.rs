//! Model synchronization primitives: vector clocks, atomics, cells, and
//! atomic-section mutexes.
//!
//! Every shared-memory operation is one *yield point* — a place where the
//! deterministic scheduler may switch threads — and carries happens-before
//! bookkeeping:
//!
//! - [`MAtomic`] models a `u64`-valued atomic. `Acquire` loads join the
//!   atomic's sync clock into the thread clock, `Release` stores publish the
//!   thread clock, `Relaxed` stores *reset* the sync clock (a plain relaxed
//!   store breaks the release sequence, exactly like C++11), and relaxed
//!   RMWs keep it (RMWs continue the sequence). `SeqCst` is modeled as
//!   `AcqRel`; the SeqCst total order itself is not modeled, which only
//!   makes the detector more conservative about what synchronizes.
//! - [`MCell`] models plain non-atomic memory (an `UnsafeCell` payload in
//!   the real code). Reads and writes are checked against a vector-clock
//!   happens-before race detector: touching a cell that was last written by
//!   a thread whose write is not ordered before the access is reported as a
//!   data race — this is what catches *memory-ordering* bugs (e.g. a
//!   `Relaxed` sequence load) that pure interleaving search cannot see.
//! - [`MMutex`] models a lock as an atomic critical section: `with` is a
//!   single yield point that acquires, runs the closure, and releases. Real
//!   critical sections in the modeled code are short map operations, so
//!   collapsing them loses no interesting interleavings while keeping the
//!   schedule space small.

use super::sched::{with_ctx, Scheduler};
use std::sync::Arc;
use std::sync::Mutex;

/// Memory ordering for model atomics, mirroring `std::sync::atomic::Ordering`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ord {
    /// No synchronization.
    Relaxed,
    /// Load side of release/acquire.
    Acquire,
    /// Store side of release/acquire.
    Release,
    /// Both sides (RMW).
    AcqRel,
    /// Modeled as AcqRel (the SC total order is not modeled).
    SeqCst,
}

impl Ord {
    pub(crate) fn acquires(self) -> bool {
        matches!(self, Ord::Acquire | Ord::AcqRel | Ord::SeqCst)
    }
    pub(crate) fn releases(self) -> bool {
        matches!(self, Ord::Release | Ord::AcqRel | Ord::SeqCst)
    }
}

/// A vector clock over model-thread ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VClock(pub(crate) Vec<u32>);

impl VClock {
    /// Component for thread `tid` (0 when never observed).
    pub fn get(&self, tid: usize) -> u32 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    pub(crate) fn inc(&mut self, tid: usize) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }

    pub(crate) fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// True when the event `(tid, clock)` happened before an observer with
    /// clock `self` — i.e. the observer has seen the event.
    pub(crate) fn has_seen(&self, event_tid: usize, event: &VClock) -> bool {
        self.get(event_tid) >= event.get(event_tid)
    }
}

/// A model atomic holding a `u64` (use it for `usize`/`u8` state too).
pub struct MAtomic {
    sched: Arc<Scheduler>,
    id: usize,
}

impl MAtomic {
    /// Registers a new atomic with initial `value`. Must be called from
    /// inside a running model.
    pub fn new(label: &'static str, value: u64) -> Self {
        let sched = with_ctx(|s, _| s.clone());
        let id = sched.register_atomic(label, value);
        MAtomic { sched, id }
    }

    /// Atomic load.
    pub fn load(&self, ord: Ord) -> u64 {
        let tid = with_ctx(|_, t| t);
        self.sched.atomic_load(self.id, tid, ord)
    }

    /// Atomic store.
    pub fn store(&self, value: u64, ord: Ord) {
        let tid = with_ctx(|_, t| t);
        self.sched.atomic_store(self.id, tid, value, ord);
    }

    /// Atomic fetch-add (wrapping), returns the previous value.
    pub fn fetch_add(&self, delta: u64, ord: Ord) -> u64 {
        let tid = with_ctx(|_, t| t);
        self.sched
            .atomic_rmw(self.id, tid, ord, &mut |v| v.wrapping_add(delta))
    }

    /// Atomic fetch-sub (wrapping), returns the previous value.
    pub fn fetch_sub(&self, delta: u64, ord: Ord) -> u64 {
        let tid = with_ctx(|_, t| t);
        self.sched
            .atomic_rmw(self.id, tid, ord, &mut |v| v.wrapping_sub(delta))
    }

    /// Atomic fetch-max, returns the previous value.
    pub fn fetch_max(&self, value: u64, ord: Ord) -> u64 {
        let tid = with_ctx(|_, t| t);
        self.sched
            .atomic_rmw(self.id, tid, ord, &mut |v| v.max(value))
    }

    /// Compare-exchange; returns `Ok(current)` on success, `Err(actual)`
    /// otherwise. Spurious failures (`compare_exchange_weak`) are not
    /// modeled — they only add schedules equivalent to a retry.
    pub fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ord,
        failure: Ord,
    ) -> Result<u64, u64> {
        let tid = with_ctx(|_, t| t);
        self.sched
            .atomic_cas(self.id, tid, current, new, success, failure)
    }
}

/// A model non-atomic memory cell (the `UnsafeCell` payload in real code),
/// race-checked on every access.
pub struct MCell<T> {
    sched: Arc<Scheduler>,
    id: usize,
    val: Mutex<T>,
}

impl<T: Clone> MCell<T> {
    /// Registers a new cell. Must be called from inside a running model.
    pub fn new(label: &'static str, value: T) -> Self {
        let sched = with_ctx(|s, _| s.clone());
        let id = sched.register_cell(label);
        MCell {
            sched,
            id,
            val: Mutex::new(value),
        }
    }

    /// Race-checked read.
    pub fn read(&self) -> T {
        let tid = with_ctx(|_, t| t);
        self.sched.cell_access(self.id, tid, false);
        self.val
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Race-checked write.
    pub fn write(&self, value: T) {
        let tid = with_ctx(|_, t| t);
        self.sched.cell_access(self.id, tid, true);
        *self
            .val
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = value;
    }

    /// Race-checked read-modify-write in one yield point (models a move out
    /// of an `UnsafeCell`, e.g. `assume_init_read` + overwrite).
    pub fn replace(&self, value: T) -> T {
        let tid = with_ctx(|_, t| t);
        self.sched.cell_access(self.id, tid, true);
        std::mem::replace(
            &mut self
                .val
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            value,
        )
    }
}

/// A model mutex whose critical sections are atomic (single yield point).
pub struct MMutex<T> {
    sched: Arc<Scheduler>,
    id: usize,
    val: Mutex<T>,
}

impl<T> MMutex<T> {
    /// Registers a new mutex. Must be called from inside a running model.
    pub fn new(label: &'static str, value: T) -> Self {
        let sched = with_ctx(|s, _| s.clone());
        let id = sched.register_mutex(label);
        MMutex {
            sched,
            id,
            val: Mutex::new(value),
        }
    }

    /// Runs `f` under the lock as one atomic step: one yield point, then
    /// acquire (joins the lock's release clock), critical section, release
    /// (publishes this thread's clock). `f` must not touch other model
    /// state (it would not be interleaved, so races there would be missed).
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let tid = with_ctx(|_, t| t);
        self.sched.mutex_enter(self.id, tid);
        let r = f(&mut self
            .val
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner));
        self.sched.mutex_exit(self.id, tid);
        r
    }
}
