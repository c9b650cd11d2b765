//! Synthetic workload generation and trace analysis for the S3-FIFO
//! reproduction.
//!
//! The paper evaluates on 6594 production traces from 14 datasets (Table 1).
//! Those traces are proprietary or many terabytes large, so this crate
//! substitutes seeded synthetic generators whose knobs reproduce the workload
//! *shape* the paper's findings depend on:
//!
//! - [`zipf::ZipfSampler`] — skewed popularity under the independent
//!   reference model (the paper's §3.1 Zipf analysis);
//! - [`gen::WorkloadSpec`] — composable traces mixing a Zipf core, one-hit
//!   wonder streams, sequential scans, and stack-distance temporal locality;
//! - [`corpus`] — a 14-dataset corpus mirroring Table 1's per-dataset
//!   characteristics;
//! - [`analysis`] — one-hit-wonder ratios over full traces and over
//!   sub-sequences (Figs. 1–3), frequency histograms, footprints;
//! - [`io`] — CSV and compact binary trace formats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod corpus;
pub mod ctr;
pub mod gen;
pub mod io;
pub mod sampling;
pub mod stream_gen;
pub mod zipf;

use cache_ds::DenseIds;
use cache_types::{Op, Request};
use std::sync::{Arc, OnceLock};

/// The dense-ID view of a trace: every 64-bit object id interned to a
/// contiguous `u32` slot (first-appearance order), plus the per-request slot
/// sequence. Computed once per trace and shared read-only across all
/// simulation jobs replaying it — this is the input to the simulator's dense
/// fast path.
#[derive(Debug)]
pub struct DenseTrace {
    /// The interning table (slot → original id and back).
    pub ids: Arc<DenseIds>,
    /// Per-request dense slot, parallel to `Trace::requests`.
    pub slots: Vec<u32>,
}

/// Aggregate operation/size shape of a trace — what engine routing needs
/// to know about the whole stream. Computed once per trace and cached (see
/// [`Trace::shape`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamShape {
    /// Every request is a [`Op::Get`].
    pub pure_get: bool,
    /// Every request has size 1.
    pub unit_size: bool,
}

/// A named, in-memory request trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Human-readable trace name, e.g. `"msr/t03"`.
    pub name: String,
    /// The request sequence. `requests[i].time == i` by construction.
    pub requests: Vec<Request>,
    /// Lazily computed dense-ID view; see [`Trace::dense`]. Cloning a trace
    /// shares the already-computed view (it only depends on the id sequence,
    /// which clones identically).
    dense: OnceLock<Arc<DenseTrace>>,
    /// Lazily computed stream shape; see [`Trace::shape`].
    shape: OnceLock<StreamShape>,
    /// Lazily computed byte footprint; see [`Trace::footprint_bytes`].
    footprint_bytes: OnceLock<u64>,
}

impl Trace {
    /// Creates a trace, stamping logical times with the request index.
    pub fn new(name: impl Into<String>, mut requests: Vec<Request>) -> Self {
        for (i, r) in requests.iter_mut().enumerate() {
            r.time = i as u64;
        }
        Trace {
            name: name.into(),
            requests,
            dense: OnceLock::new(),
            shape: OnceLock::new(),
            footprint_bytes: OnceLock::new(),
        }
    }

    /// A trace whose dense-ID view its loader already interned: `slots`
    /// parallels `requests` and numbers ids in first-appearance order, as
    /// [`Trace::dense`] would.
    pub(crate) fn with_dense(
        name: impl Into<String>,
        requests: Vec<Request>,
        ids: DenseIds,
        slots: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(requests.len(), slots.len());
        let trace = Trace::new(name, requests);
        let dense = Arc::new(DenseTrace {
            ids: Arc::new(ids),
            slots,
        });
        // A fresh `OnceLock` is empty, so the set cannot fail.
        let _ = trace.dense.set(dense);
        trace
    }

    /// The dense-ID view of this trace, interned on first call and cached.
    ///
    /// Thread-safe: concurrent sweep workers hitting a cold trace race to
    /// intern but exactly one result is kept. Callers must not mutate
    /// `requests` after calling this — the view snapshots the id sequence.
    pub fn dense(&self) -> Arc<DenseTrace> {
        Arc::clone(self.dense.get_or_init(|| {
            let (ids, slots) = DenseIds::intern(self.requests.iter().map(|r| r.id));
            Arc::new(DenseTrace {
                ids: Arc::new(ids),
                slots,
            })
        }))
    }

    /// The aggregate operation/size shape, scanned on first call and cached.
    ///
    /// Engine routing (`simulate_mrc`) consults this on every curve; the
    /// scan over the request array happens once per trace, not once per
    /// call. Same caveat as [`Trace::dense`]: callers must not mutate
    /// `requests` after the first call.
    pub fn shape(&self) -> StreamShape {
        *self.shape.get_or_init(|| {
            let (mut pure_get, mut unit_size) = (true, true);
            for r in &self.requests {
                pure_get &= r.op == Op::Get;
                unit_size &= r.size == 1;
            }
            StreamShape { pure_get, unit_size }
        })
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Number of distinct objects (the paper's "trace footprint"): the size
    /// of the interning table, so it interns on first call like
    /// [`Trace::dense`], with the same caveat.
    pub fn footprint(&self) -> usize {
        self.dense().ids.len()
    }

    /// Footprint in bytes: the sum of distinct objects' sizes (used for byte
    /// miss ratio cache sizing, §5.2.3). Scanned on first call and cached,
    /// with the same caveat as [`Trace::dense`].
    pub fn footprint_bytes(&self) -> u64 {
        *self.footprint_bytes.get_or_init(|| {
            let mut seen = cache_ds::IdSet::default();
            let mut bytes = 0u64;
            for r in &self.requests {
                if seen.insert(r.id) {
                    bytes += u64::from(r.size);
                }
            }
            bytes
        })
    }

    /// Total requested bytes.
    pub fn total_bytes(&self) -> u64 {
        self.requests.iter().map(|r| u64::from(r.size)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_stamps_times() {
        let t = Trace::new("t", vec![Request::get(5, 99), Request::get(6, 99)]);
        assert_eq!(t.requests[0].time, 0);
        assert_eq!(t.requests[1].time, 1);
    }

    #[test]
    fn footprint_counts_unique() {
        let t = Trace::new(
            "t",
            vec![Request::get(1, 0), Request::get(2, 0), Request::get(1, 0)],
        );
        assert_eq!(t.footprint(), 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn dense_view_interns_once_and_matches_footprint() {
        let t = Trace::new(
            "t",
            vec![
                Request::get(10, 1),
                Request::get(20, 1),
                Request::get(10, 1),
            ],
        );
        let d1 = t.dense();
        let d2 = t.dense();
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!(d1.slots, vec![0, 1, 0]);
        assert_eq!(d1.ids.len(), t.footprint());
        assert_eq!(d1.ids.orig(1), 20);
        // A clone shares the computed view.
        let c = t.clone();
        assert!(Arc::ptr_eq(&c.dense(), &d1));
    }

    #[test]
    fn shape_reflects_ops_and_sizes() {
        let pure = Trace::new("p", vec![Request::get(1, 0), Request::get(2, 0)]);
        assert_eq!(
            pure.shape(),
            StreamShape {
                pure_get: true,
                unit_size: true
            }
        );
        let mut wr = Request::get(3, 0);
        wr.op = Op::Set;
        let mixed = Trace::new(
            "m",
            vec![Request::get(1, 0), wr, Request::get_sized(4, 7, 0)],
        );
        let s = mixed.shape();
        assert!(!s.pure_get);
        assert!(!s.unit_size);
        // A clone shares the computed shape.
        assert_eq!(mixed.clone().shape(), s);
    }

    #[test]
    fn footprint_bytes_counts_each_object_once() {
        let t = Trace::new(
            "t",
            vec![
                Request::get_sized(1, 100, 0),
                Request::get_sized(1, 100, 0),
                Request::get_sized(2, 50, 0),
            ],
        );
        assert_eq!(t.footprint_bytes(), 150);
        assert_eq!(t.total_bytes(), 250);
    }
}
