//! The shutdown/drain handshake: an accept-gate flag plus an in-flight
//! request counter.
//!
//! Protocol (mirrored, ordering for ordering, by the loom-lite model in
//! `crates/check/src/models/drain.rs`, whose planted mutants pin both the
//! step order and the memory orderings):
//!
//! - a worker *joins* ([`DrainGate::try_enter`]) by incrementing the
//!   in-flight counter **first** and checking the gate flag **second**; if
//!   the gate closed in between it backs out. Checking before joining is
//!   the classic bug: a drainer can observe zero in-flight in the window
//!   between the worker's check and its increment, declare the server
//!   drained, and tear state down under a live request.
//! - shutdown closes the gate, then waits for the counter to reach zero
//!   ([`DrainGate::await_drained`]). Once it observes zero, every request
//!   that got in has fully finished (its effects are visible), and every
//!   request that had not joined yet is guaranteed to bounce off the gate.
//!
//! The flag/counter pair is a store-buffer (Dekker) pattern: the worker
//! writes the counter then reads the flag, shutdown writes the flag then
//! reads the counter. With only acquire/release, both sides may read the
//! old value (worker sees the gate open *and* the drainer sees zero
//! in-flight), admitting a request after drain — hence SeqCst on all four
//! accesses.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Accept-gate flag + in-flight counter + drain barrier.
#[derive(Debug, Default)]
pub struct DrainGate {
    closed: AtomicBool,
    in_flight: AtomicUsize,
}

/// RAII guard for one in-flight request; dropping it leaves the gate.
#[derive(Debug)]
pub struct InFlight<'a> {
    gate: &'a DrainGate,
}

impl Drop for InFlight<'_> {
    // ORDERING: SeqCst decrement — the release side of the drain barrier
    // must also participate in the SeqCst total order with the gate flag
    // (see module docs: Dekker pattern); Release alone would allow the
    // drainer's counter load to pass its own flag store. SeqCst also
    // publishes the request's effects to the thread that observes zero.
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

impl DrainGate {
    /// An open gate with nothing in flight.
    pub fn new() -> Self {
        DrainGate::default()
    }

    /// Tries to start a request: returns a guard while the gate is open,
    /// `None` once shutdown began.
    // ORDERING: SeqCst on both the join increment and the gate check — the
    // counter-write/flag-read here and the flag-write/counter-read in
    // `close`/`await_drained` form a store-buffer pattern that only a
    // single total order (SeqCst) makes safe; see module docs.
    pub fn try_enter(&self) -> Option<InFlight<'_>> {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.closed.load(Ordering::SeqCst) {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(InFlight { gate: self })
    }

    /// Closes the gate: new [`DrainGate::try_enter`] calls fail from now on.
    // ORDERING: SeqCst store — must be totally ordered with the workers'
    // join increments (store-buffer pattern, see module docs).
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// True once [`DrainGate::close`] has been called.
    // ORDERING: SeqCst load, same total order as close/try_enter.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Requests currently in flight (exact only at quiescence).
    // ORDERING: SeqCst load — participates in the drain barrier's total
    // order so a zero observed here really means drained.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Waits (bounded by `timeout`) for the in-flight count to reach zero.
    /// Returns true when drained; false on timeout. Call after
    /// [`DrainGate::close`], or the wait races fresh admissions.
    pub fn await_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.in_flight() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return self.in_flight() == 0;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn enter_then_close_then_drain() {
        let g = DrainGate::new();
        let guard = g.try_enter().expect("gate starts open");
        assert_eq!(g.in_flight(), 1);
        g.close();
        assert!(g.try_enter().is_none(), "closed gate admits nobody");
        assert!(!g.await_drained(Duration::from_millis(5)), "still in flight");
        drop(guard);
        assert!(g.await_drained(Duration::from_millis(100)));
        assert_eq!(g.in_flight(), 0);
    }

    #[test]
    fn rejected_enter_leaves_no_residue() {
        let g = DrainGate::new();
        g.close();
        for _ in 0..100 {
            assert!(g.try_enter().is_none());
        }
        assert_eq!(g.in_flight(), 0, "bounced requests must not leak counts");
    }

    #[test]
    fn concurrent_drain_observes_every_request() {
        let g = Arc::new(DrainGate::new());
        let done = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = Arc::clone(&g);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                let mut admitted = 0usize;
                for _ in 0..5_000 {
                    match g.try_enter() {
                        Some(guard) => {
                            admitted += 1;
                            // ORDERING: Relaxed — joined before the assert.
                            done.fetch_add(1, Ordering::Relaxed);
                            drop(guard);
                        }
                        None => break,
                    }
                }
                admitted
            }));
        }
        std::thread::sleep(Duration::from_millis(2));
        g.close();
        assert!(g.await_drained(Duration::from_secs(5)), "drain must finish");
        let admitted: usize = handles.into_iter().map(|h| h.join().expect("worker")).sum();
        // Every admitted request completed before drain reported success.
        assert_eq!(done.load(Ordering::Relaxed), admitted);
        assert_eq!(g.in_flight(), 0);
    }
}
