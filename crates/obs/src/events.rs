//! Lock-free ring-buffered structured event tracing.
//!
//! Where the metrics registry answers "how many", the tracer answers "what
//! happened, in what order": per-decision eviction/admission/fault/degrade
//! records with logical timestamps, cheap enough to leave on during a
//! workload and drainable *while the workload runs* (the underlying
//! [`MpmcRing`] is the same Vyukov MPMC queue the concurrent S3-FIFO is
//! built from, so producers and the draining consumer never block each
//! other).
//!
//! Backpressure policy: when the ring is full the event is **dropped and
//! counted**, never blocked on — tracing must not perturb the workload it
//! observes. `dropped()` makes the loss visible instead of silent.

use crate::metrics::Counter;
use cache_ds::MpmcRing;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What kind of decision or transition an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An object left a cache to make room.
    Eviction,
    /// An object was admitted (DRAM insert, flash write, promotion).
    Admission,
    /// A device/IO fault was observed (post-retry).
    Fault,
    /// A tier was taken offline (error budget tripped).
    Degrade,
    /// A tier was re-admitted after probing healthy.
    Recover,
}

impl EventKind {
    /// Stable lowercase label, used by both exporters.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Eviction => "eviction",
            EventKind::Admission => "admission",
            EventKind::Fault => "fault",
            EventKind::Degrade => "degrade",
            EventKind::Recover => "recover",
        }
    }
}

/// One traced event. Compact and `Copy` so recording is a handful of moves
/// plus one ring push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Logical timestamp: the tracer's global sequence number, assigned at
    /// record time. Strictly increasing across all producers, so a drained
    /// batch can be totally ordered even when windows of it were dropped.
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
    /// Which scope it happened in (e.g. `"flash"`, `"sim.s3-fifo"`).
    /// `'static` by design: scopes are compile-time names, keeping the
    /// event `Copy` and the record path allocation-free.
    pub scope: &'static str,
    /// The object involved, when applicable (0 otherwise).
    pub id: u64,
    /// Kind-specific payload: eviction age, fault code, retry count, …
    pub value: u64,
}

/// The ring-buffered tracer. Clone freely; clones share the ring.
#[derive(Debug, Clone)]
pub struct EventTracer {
    ring: Arc<MpmcRing<Event>>,
    seq: Arc<AtomicU64>,
    dropped: Counter,
}

impl EventTracer {
    /// Creates a tracer whose ring holds up to `capacity` undrained events
    /// (rounded up to a power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        EventTracer {
            ring: Arc::new(MpmcRing::new(capacity)),
            seq: Arc::new(AtomicU64::new(0)),
            dropped: Counter::new(),
        }
    }

    /// Records an event; assigns the logical timestamp. Drops (and counts)
    /// the event when the ring is full.
    // ORDERING: Relaxed sequence tick — timestamps must be unique, not
    // globally ordered against other memory; the ring push publishes the
    // event payload itself (Release inside MpmcRing).
    #[inline]
    pub fn record(&self, kind: EventKind, scope: &'static str, id: u64, value: u64) {
        let ts = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = Event {
            ts,
            kind,
            scope,
            id,
            value,
        };
        if self.ring.push(ev).is_err() {
            self.dropped.inc();
        }
    }

    /// Drains everything currently buffered, oldest first. Safe to call
    /// while producers keep recording; each event is delivered exactly once.
    pub fn drain(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.ring.len());
        while let Some(ev) = self.ring.pop() {
            out.push(ev);
        }
        out
    }

    /// Events recorded so far (including dropped ones).
    // ORDERING: Relaxed — advisory telemetry read.
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events lost to a full ring since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Events currently buffered (approximate while producers run).
    pub fn pending(&self) -> usize {
        self.ring.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_timestamps() {
        let t = EventTracer::new(16);
        t.record(EventKind::Admission, "x", 1, 0);
        t.record(EventKind::Eviction, "x", 2, 7);
        let evs = t.drain();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::Admission);
        assert_eq!(evs[1].kind, EventKind::Eviction);
        assert!(evs[0].ts < evs[1].ts);
        assert_eq!(evs[1].value, 7);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let t = EventTracer::new(4);
        for i in 0..10 {
            t.record(EventKind::Fault, "x", i, 0);
        }
        assert_eq!(t.dropped(), 10 - t.pending() as u64);
        assert!(t.dropped() > 0, "ring of 4 must drop out of 10");
        assert_eq!(t.recorded(), 10);
        // Drained events are the oldest ones that fit.
        let evs = t.drain();
        assert_eq!(evs[0].id, 0);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    // ORDERING: Relaxed — the tally is a plain counter; the scope join
    // publishes it before the final assert reads it.
    fn drain_while_producing() {
        let t = EventTracer::new(1024);
        let total = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..2u64 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..5000 {
                        t.record(EventKind::Eviction, "p", p * 10_000 + i, 0);
                    }
                });
            }
            let t = t.clone();
            let total = &total;
            s.spawn(move || loop {
                let n = t.drain().len() as u64;
                total.fetch_add(n, Ordering::Relaxed);
                if t.recorded() >= 10_000 && t.pending() == 0 {
                    break;
                }
                std::hint::spin_loop();
            });
        });
        // `record` ticks `recorded()` before it pushes, so the drainer can
        // stop while a last push is still landing. Every producer has
        // joined now: whatever that push left is in the ring.
        let late = t.drain().len() as u64;
        assert_eq!(
            total.load(Ordering::Relaxed) + late + t.dropped(),
            10_000,
            "every event is either drained exactly once or counted dropped"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EventKind::Degrade.label(), "degrade");
        assert_eq!(EventKind::Recover.label(), "recover");
    }
}
