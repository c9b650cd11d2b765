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
use std::ops::Range;
use std::sync::Arc;

/// A trace's columns: every 64-bit object id interned to a contiguous `u32`
/// slot (first-appearance order), the per-request slot sequence, and a size
/// and an op column only when some request is not a unit-size `Get`. A
/// request's time is its index, so it has no column. This is the input to
/// the simulator's dense fast path, shared read-only by every job replaying
/// the trace.
#[derive(Debug)]
pub struct DenseTrace {
    /// The interning table (slot → original id and back).
    pub ids: Arc<DenseIds>,
    /// Per-request dense slot.
    pub slots: Vec<u32>,
    lanes: Lanes,
}

/// The columns a unit-size `Get` stream does without: each is `None` until
/// a request needs it, and is then back-filled with the default.
#[derive(Debug, Default)]
pub(crate) struct Lanes {
    /// Requests pushed so far.
    len: usize,
    /// Room to reserve when a column is made.
    hint: usize,
    /// Per-request size, when some size is not 1.
    sizes: Option<Vec<u32>>,
    /// Per-request op, when some op is not [`Op::Get`].
    ops: Option<Vec<Op>>,
}

impl Lanes {
    /// Empty lanes for about `hint` requests.
    pub(crate) fn with_hint(hint: usize) -> Self {
        Lanes {
            hint,
            ..Lanes::default()
        }
    }

    /// Appends one request's size and op.
    pub(crate) fn push(&mut self, size: u32, op: Op) {
        let (len, hint) = (self.len, self.hint);
        if size != 1 || self.sizes.is_some() {
            self.sizes
                .get_or_insert_with(|| column(len, hint, 1))
                .push(size);
        }
        if op != Op::Get || self.ops.is_some() {
            self.ops
                .get_or_insert_with(|| column(len, hint, Op::Get))
                .push(op);
        }
        self.len += 1;
    }
}

/// A column of `len` defaults, with room for `hint` entries.
fn column<T: Clone>(len: usize, hint: usize, default: T) -> Vec<T> {
    let mut v = Vec::with_capacity(hint.max(len + 1));
    v.resize(len, default);
    v
}

/// Aggregate operation/size shape of a trace — what engine routing needs
/// to know about the whole stream (see [`Trace::shape`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamShape {
    /// Every request is a [`Op::Get`].
    pub pure_get: bool,
    /// Every request has size 1.
    pub unit_size: bool,
}

/// A named, in-memory request trace, stored as columns ([`DenseTrace`]).
/// Requests are built from the columns as they are read
/// ([`Trace::iter`], [`Trace::fill`]); request `i`'s time is `i`.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Human-readable trace name, e.g. `"msr/t03"`.
    pub name: String,
    /// The columns, shared by clones.
    dense: Arc<DenseTrace>,
}

impl Trace {
    /// Creates a trace from hand-built requests, interning their ids and
    /// stamping logical times with the request index.
    pub fn new(name: impl Into<String>, requests: Vec<Request>) -> Self {
        let (ids, slots) = DenseIds::intern(requests.iter().map(|r| r.id));
        let mut lanes = Lanes::with_hint(requests.len());
        for r in &requests {
            lanes.push(r.size, r.op);
        }
        Trace::from_columns(name, ids, slots, lanes)
    }

    /// A trace whose loader already split it into columns: `slots` numbers
    /// ids in first-appearance order, as [`Trace::new`] would, and `lanes`
    /// holds one entry per slot.
    pub(crate) fn from_columns(
        name: impl Into<String>,
        ids: DenseIds,
        slots: Vec<u32>,
        lanes: Lanes,
    ) -> Self {
        debug_assert_eq!(lanes.len, slots.len());
        Trace {
            name: name.into(),
            dense: Arc::new(DenseTrace {
                ids: Arc::new(ids),
                slots,
                lanes,
            }),
        }
    }

    /// The columns: the interning table and the slot sequence.
    pub fn dense(&self) -> &DenseTrace {
        &self.dense
    }

    /// The per-request slot sequence.
    pub fn slots(&self) -> &[u32] {
        &self.dense.slots
    }

    /// The per-request sizes, or `None` when every size is 1.
    pub fn sizes(&self) -> Option<&[u32]> {
        self.dense.lanes.sizes.as_deref()
    }

    /// The per-request ops, or `None` when every op is a `Get`.
    pub fn ops(&self) -> Option<&[Op]> {
        self.dense.lanes.ops.as_deref()
    }

    /// Request `i`, built from the columns.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn request(&self, i: usize) -> Request {
        let d = &*self.dense;
        Request {
            id: d.ids.orig(d.slots[i]),
            size: d.lanes.sizes.as_ref().map_or(1, |s| s[i]),
            time: i as u64,
            op: d.lanes.ops.as_ref().map_or(Op::Get, |o| o[i]),
        }
    }

    /// The requests in order, built from the columns.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = Request> + ExactSizeIterator + Clone + '_ {
        (0..self.len()).map(|i| self.request(i))
    }

    /// The requests in order, built into a vector: for callers that need
    /// them as a slice.
    pub fn to_requests(&self) -> Vec<Request> {
        self.iter().collect()
    }

    /// Replaces `out`'s contents with requests `range`, built from the
    /// columns: a chunk of the trace in the buffer a replay reuses.
    ///
    /// # Panics
    ///
    /// Panics when `range` runs past `len()`.
    pub fn fill(&self, range: Range<usize>, out: &mut Vec<Request>) {
        let d = &*self.dense;
        let at = |i: usize, &slot: &u32| Request::get(d.ids.orig(slot), i as u64);
        out.clear();
        out.extend(range.clone().zip(&d.slots[range.clone()]).map(|(i, s)| at(i, s)));
        // Column by column: a unit-size `Get` stream pays for neither.
        if let Some(sizes) = &d.lanes.sizes {
            for (r, &size) in out.iter_mut().zip(&sizes[range.clone()]) {
                r.size = size;
            }
        }
        if let Some(ops) = &d.lanes.ops {
            for (r, &op) in out.iter_mut().zip(&ops[range]) {
                r.op = op;
            }
        }
    }

    /// The aggregate operation/size shape: which columns exist.
    pub fn shape(&self) -> StreamShape {
        StreamShape {
            pure_get: self.ops().is_none(),
            unit_size: self.sizes().is_none(),
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.dense.slots.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.dense.slots.is_empty()
    }

    /// Number of distinct objects (the paper's "trace footprint"): the size
    /// of the interning table.
    pub fn footprint(&self) -> usize {
        self.dense.ids.len()
    }

    /// Footprint in bytes: the sum of distinct objects' sizes at their first
    /// request (used for byte miss ratio cache sizing, §5.2.3).
    pub fn footprint_bytes(&self) -> u64 {
        let Some(sizes) = self.sizes() else {
            return self.footprint() as u64;
        };
        // Slots are numbered in first-appearance order, so a slot's first
        // request is the one naming the next slot number.
        let mut next = 0u32;
        let mut bytes = 0u64;
        for (&slot, &size) in self.slots().iter().zip(sizes) {
            if slot == next {
                next += 1;
                bytes += u64::from(size);
            }
        }
        bytes
    }

    /// Total requested bytes.
    pub fn total_bytes(&self) -> u64 {
        match self.sizes() {
            Some(sizes) => sizes.iter().map(|&s| u64::from(s)).sum(),
            None => self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_stamps_times() {
        let t = Trace::new("t", vec![Request::get(5, 99), Request::get(6, 99)]);
        assert_eq!(t.request(0).time, 0);
        assert_eq!(t.request(1).time, 1);
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
        let d = t.dense();
        assert_eq!(d.slots, vec![0, 1, 0]);
        assert_eq!(d.ids.len(), t.footprint());
        assert_eq!(d.ids.orig(1), 20);
        // A clone shares the columns.
        let c = t.clone();
        assert!(std::ptr::eq(c.dense(), d));
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
        assert!(pure.sizes().is_none() && pure.ops().is_none());
        let mut wr = Request::get(3, 0);
        wr.op = Op::Set;
        let mixed = Trace::new(
            "m",
            vec![Request::get(1, 0), wr, Request::get_sized(4, 7, 0)],
        );
        let s = mixed.shape();
        assert!(!s.pure_get);
        assert!(!s.unit_size);
        assert_eq!(mixed.sizes(), Some(&[1, 1, 7][..]));
        assert_eq!(mixed.ops(), Some(&[Op::Get, Op::Set, Op::Get][..]));
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

    /// The row scans the columns replace, kept here as the reference.
    fn scanned(reqs: &[Request]) -> (StreamShape, u64, u64) {
        let mut seen = std::collections::HashSet::new();
        let footprint_bytes = reqs
            .iter()
            .filter(|r| seen.insert(r.id))
            .map(|r| u64::from(r.size))
            .sum();
        let shape = StreamShape {
            pure_get: reqs.iter().all(|r| r.op == Op::Get),
            unit_size: reqs.iter().all(|r| r.size == 1),
        };
        (
            shape,
            footprint_bytes,
            reqs.iter().map(|r| u64::from(r.size)).sum(),
        )
    }

    /// Rows split into columns and built back are the rows, times
    /// restamped, and the shape and byte totals equal the row scans, on
    /// unit-size `Get` streams and on mixed ones whose first request needs
    /// no column.
    #[test]
    fn columns_round_trip_rows() {
        let mut rng = cache_ds::SplitMix64::new(0xC01);
        for mixed in [false, true] {
            let reqs: Vec<Request> = (0..5_000)
                .map(|t| {
                    let id = rng.next_below(300);
                    let kind = if mixed && t > 0 { rng.next_below(6) } else { 0 };
                    match kind {
                        0..=2 => Request::get(id, 7 * t),
                        3 => Request::get_sized(id, 1 + rng.next_below(4) as u32, t),
                        4 => Request {
                            op: Op::Set,
                            size: 1 + rng.next_below(4) as u32,
                            ..Request::get(id, t)
                        },
                        _ => Request::delete(id, t),
                    }
                })
                .collect();
            let t = Trace::new("r", reqs.clone());
            let restamped: Vec<Request> = reqs
                .iter()
                .enumerate()
                .map(|(i, r)| Request {
                    time: i as u64,
                    ..*r
                })
                .collect();
            assert_eq!(t.to_requests(), restamped, "mixed {mixed}");
            assert_eq!(t.iter().len(), t.len());
            let mut chunk = vec![Request::get(9, 9)];
            t.fill(100..110, &mut chunk);
            assert_eq!(chunk, restamped[100..110]);
            let (shape, footprint_bytes, total_bytes) = scanned(&reqs);
            assert_eq!(t.shape(), shape, "mixed {mixed}");
            assert_eq!(t.footprint_bytes(), footprint_bytes, "mixed {mixed}");
            assert_eq!(t.total_bytes(), total_bytes, "mixed {mixed}");
            assert_eq!((t.sizes().is_some(), t.ops().is_some()), (mixed, mixed));
        }
    }
}
