//! Out-of-core streamed replay of `.ctr` traces.
//!
//! [`Replay::feed_ctr`] drives a [`Replay`] straight from a [`CtrReader`]
//! in fixed-size record chunks, so a trace is **never** materialized in
//! memory: peak trace-buffer footprint is bounded by the chunk size
//! regardless of trace length (1B+ requests replay in under 1 MB of buffers
//! at the default chunk; see [`DEFAULT_CHUNK_RECORDS`]).
//! Results — final counters, eviction histograms, and the per-window
//! miss-ratio series — are bit-identical to the in-memory run on any trace
//! small enough for both (`cache-check`'s streamed differential enforces
//! this across the registry).
//!
//! `.ctr` record ids are already dense (the format's core invariant), so a
//! record's id *is* its slot and [`Replay::on_dense_ids`] needs no interning
//! table. `Belady` cannot stream (it needs the future) and surfaces the
//! registry's error.

use crate::engine::{Replay, SimResult};
use cache_obs::MissRatioSeries;
use cache_trace::ctr::CtrReader;
use cache_types::{CacheError, Request};
use std::io::{Read, Seek};
use std::path::Path;

/// Default records decoded per chunk. A record in flight is its raw bytes
/// (8–13, by the file's lanes), a decoded [`Request`] (24) and a dense slot
/// (4): 36–41 B, so 2¹⁴ records are 0.59–0.67 MB of buffers, which stay in
/// L2 between the read, the decode and the replay of a chunk. At 2²⁰
/// (37.7 MB on the ledger's 8-byte records) each of those fetched its
/// buffers from memory, and `sat_ops_per_s` was a tenth lower.
pub const DEFAULT_CHUNK_RECORDS: usize = 1 << 14;

/// Everything a streamed replay produces: the usual result pair plus the
/// buffer accounting that proves memory stayed bounded.
#[derive(Debug)]
pub struct StreamReplay {
    /// Simulation result, bit-identical to the in-memory replay.
    pub result: SimResult,
    /// Per-window miss-ratio series, bit-identical to the in-memory replay.
    pub series: MissRatioSeries,
    /// Records replayed (the file's full record count).
    pub records: u64,
    /// Chunk size used, in records.
    pub chunk_records: usize,
    /// Peak bytes held in trace buffers (raw record bytes + decoded
    /// requests + dense slot ids). This — not the trace length — bounds the
    /// streamed path's trace memory.
    pub peak_buffer_bytes: u64,
}

impl Replay<'_> {
    /// Feeds every record of `reader`, `chunk_records` at a time, and
    /// returns the peak bytes held in trace buffers.
    ///
    /// The reader is rewound to the first record first, so one that was
    /// partially consumed (e.g. for inspection) still replays the full
    /// trace.
    ///
    /// # Errors
    ///
    /// `.ctr` read errors ([`CacheError::TraceFormat`] / [`CacheError::Io`]).
    pub fn feed_ctr<R: Read + Seek>(
        &mut self,
        reader: &mut CtrReader<R>,
        chunk_records: usize,
    ) -> Result<u64, CacheError> {
        reader.seek_record(0)?;
        let mut reqs: Vec<Request> = Vec::new();
        let mut slots: Vec<u32> = Vec::new();
        while reader.read_chunk(&mut reqs, chunk_records.max(1))? > 0 {
            // Ids are checked against the header's id space (≤ 2^32) on
            // read, so the narrowing cast is lossless.
            slots.clear();
            if self.has_dense() {
                slots.extend(reqs.iter().map(|r| r.id as u32));
            }
            self.feed(&slots, &reqs);
        }
        Ok(reader.buffer_capacity() as u64
            + (reqs.capacity() * std::mem::size_of::<Request>()) as u64
            + (slots.capacity() * std::mem::size_of::<u32>()) as u64)
    }
}

/// Replays the `.ctr` file at `path` through the named policy with a
/// miss-ratio series of `window` reads per window, never holding more than
/// `chunk_records` requests in memory.
///
/// `capacity` is absolute — deriving it from a footprint would require a
/// trace scan, which out-of-core callers do once at generation or
/// conversion time (the `.ctr` header's id space *is* the object footprint
/// for dense traces). Reads are large sequential `read_exact`s into the
/// reader's chunk buffer, so the file handle is used unbuffered.
///
/// # Errors
///
/// Propagates [`CacheError`] from the registry (unknown name, bad
/// parameter, `Belady` without a materialized trace), open/validate errors
/// from [`CtrReader::open`] and `.ctr` read errors.
pub fn replay_ctr_path(
    name: &str,
    path: &Path,
    trace_name: &str,
    capacity: u64,
    ignore_size: bool,
    window: u64,
    chunk_records: usize,
) -> Result<StreamReplay, CacheError> {
    let mut reader = CtrReader::open(std::fs::File::open(path)?)?;
    let info = *reader.info();
    let mut replay = Replay::on_dense_ids(&[name], info.id_space, capacity)?
        .ignore_size(ignore_size)
        .window(window);
    let peak_buffer_bytes = replay.feed_ctr(&mut reader, chunk_records)?;
    let (result, series) = replay.finish(trace_name).remove(0);
    Ok(StreamReplay {
        result,
        // Invariant: `window` was set above, so every lane keeps a series.
        series: series.expect("windowed replay keeps a series"),
        records: info.records,
        chunk_records: chunk_records.max(1),
        peak_buffer_bytes,
    })
}
