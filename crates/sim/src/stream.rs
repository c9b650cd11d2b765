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
//! A record's id is not its slot: a generated trace may name a third of its
//! header's id space. Each chunk's ids are interned through a direct table
//! of `id_space` entries ([`DenseIds::bounded`], 4 B an id, no hashing) in
//! first-appearance order, the numbering the in-memory replay gets from
//! [`cache_trace::Trace::dense`], and the dense policies' slabs grow with
//! the ids named ([`Replay::on_dense_ids`]). `Belady` cannot stream (it
//! needs the future) and surfaces the registry's error.

use crate::engine::{Replay, SimResult};
use cache_ds::DenseIds;
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
    /// Distinct ids the records name: the slots a dense slab grew to.
    pub objects: u64,
    /// Chunk size used, in records.
    pub chunk_records: usize,
    /// Peak bytes held in trace buffers (raw record bytes + decoded
    /// requests + dense slot ids). This — not the trace length — bounds the
    /// streamed path's trace memory.
    pub peak_buffer_bytes: u64,
}

impl Replay<'_> {
    /// Feeds every record of `reader`, `chunk_records` at a time, and
    /// returns the peak bytes held in trace buffers. Ids are numbered in
    /// first-appearance order and dense policies grown to each chunk's new
    /// ones before it is replayed.
    ///
    /// The reader is rewound to the first record first, so one that was
    /// partially consumed (e.g. for inspection) still replays the full
    /// trace.
    ///
    /// # Errors
    ///
    /// `.ctr` read errors ([`CacheError::TraceFormat`] / [`CacheError::Io`]),
    /// and [`cache_types::DensePolicy::grow_domain`]'s when a dense policy
    /// of the caller's cannot grow.
    pub fn feed_ctr<R: Read + Seek>(
        &mut self,
        reader: &mut CtrReader<R>,
        chunk_records: usize,
    ) -> Result<u64, CacheError> {
        reader.seek_record(0)?;
        // The header bounds the id space by 2^32, so this never clamps.
        let id_space = usize::try_from(reader.info().id_space).unwrap_or(usize::MAX);
        let mut ids = DenseIds::bounded(id_space);
        let mut reqs: Vec<Request> = Vec::new();
        let mut slots: Vec<u32> = Vec::new();
        while reader.read_chunk(&mut reqs, chunk_records.max(1))? > 0 {
            // Ids are checked against the header's id space on read, so
            // every one has an entry in the table.
            slots.clear();
            ids.extend(&reqs, |r| r.id, &mut slots);
            self.grow(ids.len(), id_space)?;
            self.feed_covered(&slots, &reqs);
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
/// conversion time; the header's id space bounds the footprint from above,
/// and [`StreamReplay::objects`] reports it after the replay. Reads are
/// large sequential `read_exact`s into the reader's chunk buffer, so the
/// file handle is used unbuffered.
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
    let objects = replay.domain as u64;
    let (result, series) = replay.finish(trace_name).remove(0);
    Ok(StreamReplay {
        result,
        // Invariant: `window` was set above, so every lane keeps a series.
        series: series.expect("windowed replay keeps a series"),
        records: info.records,
        objects,
        chunk_records: chunk_records.max(1),
        peak_buffer_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_trace::ctr::read_trace;
    use cache_trace::stream_gen::StreamSpec;
    use cache_types::{DensePolicy, Eviction, Outcome, PolicyStats};
    use s3fifo::dense::SlabPolicy;
    use s3fifo::DenseS3Fifo;
    use std::io::Cursor;

    /// A `paper_mix` file: its id space spans the whole scan range and the
    /// Zipf core, of which a short trace names a fraction.
    fn paper_mix() -> Vec<u8> {
        let spec = StreamSpec::paper_mix(40_000, 4_000, 1);
        let (cursor, _) = spec
            .write(Cursor::new(Vec::new()))
            .expect("in-memory write");
        cursor.into_inner()
    }

    /// A real S3-FIFO, borrowed so that its slab outlives the replay, that
    /// keeps the slot of every request it is handed.
    struct Probe<'a> {
        policy: &'a mut DenseS3Fifo,
        slots: &'a mut Vec<u32>,
    }

    impl DensePolicy for Probe<'_> {
        fn name(&self) -> String {
            self.policy.name()
        }
        fn capacity(&self) -> u64 {
            self.policy.capacity()
        }
        fn used(&self) -> u64 {
            self.policy.used()
        }
        fn len(&self) -> usize {
            self.policy.len()
        }
        fn request_dense(
            &mut self,
            slot: u32,
            req: &Request,
            evicted: &mut Vec<Eviction>,
        ) -> Outcome {
            self.slots.push(slot);
            self.policy.request_dense(slot, req, evicted)
        }
        fn grow_domain(&mut self, domain: usize, reserve: usize) -> Result<(), CacheError> {
            self.policy.grow_domain(domain, reserve)
        }
        fn stats(&self) -> PolicyStats {
            self.policy.stats()
        }
    }

    /// Streams `bytes` through a probe `chunk` records at a time: the slot
    /// sequence, the replay's count of ids named and the slab's domain.
    fn probe(bytes: &[u8], chunk: usize) -> (Vec<u32>, usize, usize) {
        let mut policy = DenseS3Fifo::with_domain(400, 0).expect("capacity > 0");
        let mut slots = Vec::new();
        let mut replay = Replay::dense(Box::new(Probe {
            policy: &mut policy,
            slots: &mut slots,
        }));
        let mut reader = CtrReader::open(Cursor::new(bytes)).expect("open");
        replay.feed_ctr(&mut reader, chunk).expect("stream");
        let named = replay.domain;
        replay.finish("mix");
        (slots, named, policy.slab().domain())
    }

    #[test]
    fn streamed_slots_are_the_in_memory_numbering() {
        let bytes = paper_mix();
        let (trace, _) = read_trace("mix", Cursor::new(&bytes)).expect("read");
        for chunk in [1, 7, 1 << 14] {
            let (slots, _, _) = probe(&bytes, chunk);
            assert!(slots == trace.dense().slots, "chunk {chunk}");
        }
    }

    #[test]
    fn the_slab_grows_to_the_ids_named_not_the_id_space() {
        let bytes = paper_mix();
        let (trace, info) = read_trace("mix", Cursor::new(&bytes)).expect("read");
        let path = std::env::temp_dir().join(format!("stream_objects_{}.ctr", std::process::id()));
        std::fs::write(&path, &bytes).expect("write");
        let got = replay_ctr_path("S3-FIFO", &path, "mix", 400, true, u64::MAX, 1000);
        std::fs::remove_file(&path).expect("remove");
        let objects = got.expect("replay").objects;
        assert_eq!(objects, trace.dense().ids.len() as u64);
        assert!(
            objects * 10 < info.id_space,
            "{objects} ids named of {}: the fixture no longer leaves the space sparse",
            info.id_space
        );
        let (_, named, domain) = probe(&bytes, 1000);
        assert_eq!((named as u64, domain as u64), (objects, objects));
    }
}
