//! Out-of-core streamed replay of `.ctr` traces.
//!
//! [`Replay::feed_ctr`] drives a [`Replay`] straight from a [`CtrReader`]
//! in fixed-size record chunks, so a trace is **never** materialized in
//! memory: trace buffers are bounded by the chunk size regardless of trace
//! length (1 MB at the default chunk on 8-byte records, however many
//! billion of them; see [`DEFAULT_CHUNK_RECORDS`]).
//! Results — final counters, eviction histograms, and the per-window
//! miss-ratio series — are bit-identical to the in-memory run on any trace
//! small enough for both (`cache-check`'s streamed differential enforces
//! this across the registry).
//!
//! The replay is a two-stage pipeline. A reader thread reads, decodes and
//! interns chunk k+1 while the caller's thread replays chunk k; two buffer
//! sets circulate between them, so nothing is allocated per chunk, and the
//! policies never leave the caller's thread.
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
use std::mem::size_of;
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// Default records decoded per chunk. A record in flight is its raw bytes
/// (8–13, by the file's lanes), held once in the reader's buffer, and in
/// each of the two buffer sets a decoded [`Request`] (24) and a dense slot
/// (4): 64–69 B a record, so 2¹⁴ records are 1.0–1.1 MB of buffers. A
/// chunk is decoded on one core and replayed on the other, so no size
/// keeps it in one core's cache: 2¹² to 2¹⁶ all replayed within 4 % of
/// this one, none faster in 9 of 10 pairs (EXPERIMENTS.md, "The streamed
/// replay reads ahead").
pub const DEFAULT_CHUNK_RECORDS: usize = 1 << 14;

/// Buffer sets circulating between the reader thread and the replay: the
/// replay is the slower stage, so one set is always ready when it asks.
const BUFFER_SETS: usize = 2;

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
    /// Peak bytes held in trace buffers: the reader's raw record bytes for
    /// one chunk, plus the decoded requests and dense slot ids of both
    /// buffer sets (one filled while the other is replayed). This — not the
    /// trace length — bounds the streamed path's trace memory.
    pub peak_buffer_bytes: u64,
}

/// One buffer set, carrying a chunk from the reader thread to the replay.
struct Chunk {
    /// Which of the [`BUFFER_SETS`] this is, for the accounting.
    set: usize,
    reqs: Vec<Request>,
    /// Parallel to `reqs`: each request's dense slot.
    slots: Vec<u32>,
    /// Distinct ids named by the end of this chunk.
    named: usize,
}

impl Chunk {
    fn new(set: usize) -> Self {
        Chunk {
            set,
            reqs: Vec::new(),
            slots: Vec::new(),
            named: 0,
        }
    }

    fn bytes(&self) -> u64 {
        (self.reqs.capacity() * size_of::<Request>() + self.slots.capacity() * size_of::<u32>())
            as u64
    }
}

impl Replay<'_> {
    /// Feeds every record of `reader`, `chunk_records` at a time, and
    /// returns the peak bytes held in trace buffers. Ids are numbered in
    /// first-appearance order and dense policies grown to each chunk's new
    /// ones before it is replayed.
    ///
    /// A reader thread of its own reads, decodes and interns the next chunk
    /// while this thread replays the current one; the policies stay on
    /// this thread, which is why only the reader must be `Send`. A panic on
    /// either thread propagates out of this call.
    ///
    /// The reader is rewound to the first record first, so one that was
    /// partially consumed (e.g. for inspection) still replays the full
    /// trace.
    ///
    /// # Errors
    ///
    /// `.ctr` read errors ([`CacheError::TraceFormat`] / [`CacheError::Io`]),
    /// after every chunk before the bad one has been replayed, and
    /// [`s3fifo::dense::DensePolicy::grow_domain`]'s when a dense policy of
    /// the caller's cannot grow.
    pub fn feed_ctr<R: Read + Seek + Send>(
        &mut self,
        reader: &mut CtrReader<R>,
        chunk_records: usize,
    ) -> Result<u64, CacheError> {
        reader.seek_record(0)?;
        // The header bounds the id space by 2^32, so this never clamps.
        let id_space = usize::try_from(reader.info().id_space).unwrap_or(usize::MAX);
        let chunk_records = chunk_records.max(1);
        // Each channel holds at most every set, so no send ever blocks.
        let (full_tx, full_rx) = sync_channel(BUFFER_SETS);
        let (empty_tx, empty_rx) = sync_channel(BUFFER_SETS);
        let source = &mut *reader;
        let (replayed, read) = std::thread::scope(|scope| {
            let reading =
                scope.spawn(move || read_ahead(source, id_space, chunk_records, empty_rx, full_tx));
            // The replay owns this thread's channel ends and drops them when
            // it stops, early or not, so a reader waiting on either wakes
            // and exits before the join.
            let replayed = self.replay_chunks(full_rx, empty_tx, id_space);
            let read = reading
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            (replayed, read)
        });
        // A replay error names an earlier chunk than any read error can.
        let sets = replayed?;
        read?;
        Ok(reader.buffer_capacity() as u64 + sets)
    }

    /// This thread's half of [`feed_ctr`](Self::feed_ctr): replays the
    /// chunks `full` delivers, in stream order, each after growing the
    /// policy to its ids, and hands the emptied sets back on `empty`.
    /// Returns the bytes of the buffer sets.
    fn replay_chunks(
        &mut self,
        full: Receiver<Chunk>,
        empty: SyncSender<Chunk>,
        id_space: usize,
    ) -> Result<u64, CacheError> {
        let mut sets = [0; BUFFER_SETS];
        for chunk in full {
            self.grow(chunk.named, id_space)?;
            self.feed_covered(&chunk.slots, &chunk.reqs);
            sets[chunk.set] = chunk.bytes();
            // Refused only once the reader has stopped; what it filled
            // before that is still queued on `full`.
            let _ = empty.send(chunk);
        }
        Ok(sets.iter().sum())
    }
}

/// The reader thread's half of [`Replay::feed_ctr`]: fills a buffer set
/// with the next chunk's requests and their slots, interned through one
/// direct table over the id space, and hands it to the replay. Stops at
/// the end of the trace, at a read error, or when the replay has stopped.
fn read_ahead<R: Read + Seek>(
    reader: &mut CtrReader<R>,
    id_space: usize,
    chunk_records: usize,
    empty: Receiver<Chunk>,
    full: SyncSender<Chunk>,
) -> Result<(), CacheError> {
    let mut ids = DenseIds::bounded(id_space);
    let mut fresh = (0..BUFFER_SETS).map(Chunk::new);
    while let Some(mut chunk) = fresh.next().or_else(|| empty.recv().ok()) {
        if reader.read_chunk(&mut chunk.reqs, chunk_records)? == 0 {
            break;
        }
        // Ids are checked against the header's id space on read, so every
        // one has an entry in the table.
        chunk.slots.clear();
        ids.extend(&chunk.reqs, |r| r.id, &mut chunk.slots);
        chunk.named = ids.len();
        if full.send(chunk).is_err() {
            break;
        }
    }
    Ok(())
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
    let mut replay = Replay::on_dense_ids(name, info.id_space, capacity)?
        .ignore_size(ignore_size)
        .window(window);
    let peak_buffer_bytes = replay.feed_ctr(&mut reader, chunk_records)?;
    let objects = replay.domain as u64;
    let (result, series) = replay.finish(trace_name);
    Ok(StreamReplay {
        result,
        // Invariant: `window` was set above, so the replay keeps a series.
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
    use cache_trace::ctr::{read_trace, CTR_HEADER_BYTES};
    use cache_trace::stream_gen::StreamSpec;
    use cache_types::{Eviction, Outcome, PolicyStats};
    use s3fifo::dense::DensePolicy;
    use s3fifo::dense::SlabPolicy;
    use s3fifo::DenseS3Fifo;
    use std::io::Cursor;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    /// A `paper_mix` file: its id space spans the whole scan range and the
    /// Zipf core, of which a short trace names a fraction.
    fn paper_mix() -> Vec<u8> {
        let spec = StreamSpec::paper_mix(40_000, 4_000, 1);
        let (cursor, _) = spec
            .write(Cursor::new(Vec::new()))
            .expect("in-memory write");
        cursor.into_inner()
    }

    /// What a probe does besides replaying.
    #[derive(Clone, Copy)]
    enum Fault {
        None,
        /// Refuses to grow past this many slots.
        RefuseGrowthPast(usize),
        /// Panics instead of replaying the request with this stream index.
        PanicAt(usize),
    }

    /// A real S3-FIFO, borrowed so that its slab outlives the replay, that
    /// keeps the slot of every request it is handed, and fails as told.
    struct Probe<'a> {
        policy: &'a mut DenseS3Fifo,
        slots: &'a mut Vec<u32>,
        fault: Fault,
    }

    impl DensePolicy for Probe<'_> {
        fn name(&self) -> String {
            DensePolicy::name(self.policy)
        }
        fn capacity(&self) -> u64 {
            DensePolicy::capacity(self.policy)
        }
        fn used(&self) -> u64 {
            DensePolicy::used(self.policy)
        }
        fn len(&self) -> usize {
            DensePolicy::len(self.policy)
        }
        fn request_dense(
            &mut self,
            slot: u32,
            req: &Request,
            evicted: &mut Vec<Eviction<u32>>,
        ) -> Outcome {
            if let Fault::PanicAt(at) = self.fault {
                assert!(self.slots.len() != at, "planted panic at request {at}");
            }
            self.slots.push(slot);
            self.policy.request_dense(slot, req, evicted)
        }
        fn resident(&self, slot: u32) -> bool {
            self.policy.resident(slot)
        }
        fn grow_domain(&mut self, domain: usize, reserve: usize) -> Result<(), CacheError> {
            match self.fault {
                Fault::RefuseGrowthPast(limit) if domain > limit => Err(
                    CacheError::InvalidParameter(format!("planted refusal to grow to {domain}")),
                ),
                _ => self.policy.grow_domain(domain, reserve),
            }
        }
        fn stats(&self) -> PolicyStats {
            DensePolicy::stats(self.policy)
        }
    }

    /// Streams `bytes` through a probe `chunk` records at a time: what
    /// `feed_ctr` returned, the slot sequence replayed, the replay's count
    /// of ids named and the slab's domain.
    fn run_probe(
        bytes: &[u8],
        chunk: usize,
        fault: Fault,
    ) -> (Result<u64, CacheError>, Vec<u32>, usize, usize) {
        let mut policy = DenseS3Fifo::with_domain(400, 0).expect("capacity > 0");
        let mut slots = Vec::new();
        let mut replay = Replay::dense(Box::new(Probe {
            policy: &mut policy,
            slots: &mut slots,
            fault,
        }));
        let mut reader = CtrReader::open(Cursor::new(bytes)).expect("open");
        let fed = replay.feed_ctr(&mut reader, chunk);
        let named = replay.domain;
        replay.finish("mix");
        (fed, slots, named, policy.slab().domain())
    }

    /// [`run_probe`] without a fault: the slot sequence, the replay's count
    /// of ids named and the slab's domain.
    fn probe(bytes: &[u8], chunk: usize) -> (Vec<u32>, usize, usize) {
        let (fed, slots, named, domain) = run_probe(bytes, chunk, Fault::None);
        fed.expect("stream");
        (slots, named, domain)
    }

    /// Runs `body` on a thread of its own and fails unless it returns
    /// within 10 s, so a pipeline that deadlocks fails the test instead of
    /// hanging the suite. A panic in `body` comes back as the `Err`.
    fn within_10s<T: Send + 'static>(
        body: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let (done, finished) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let out = body();
            done.send(()).expect("the watchdog waits");
            out
        });
        // A panicking `body` drops `done` unsent: that is not a timeout.
        let waited = finished.recv_timeout(Duration::from_secs(10));
        assert!(
            !matches!(waited, Err(RecvTimeoutError::Timeout)),
            "deadlock: the replay was still running after 10 s"
        );
        worker.join()
    }

    /// The in-memory slot sequence of the `paper_mix` fixture.
    fn in_memory_slots(bytes: &[u8]) -> Vec<u32> {
        let (trace, _) = read_trace("mix", Cursor::new(bytes)).expect("read");
        trace.dense().slots.clone()
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

    /// An id at or past the header's id space, patched into the middle of
    /// the file, is a format error; every chunk before it was replayed.
    #[test]
    fn a_bad_id_mid_file_fails_after_the_chunks_before_it() {
        let mut bytes = paper_mix();
        let want = in_memory_slots(&bytes);
        let info = *CtrReader::open(Cursor::new(&bytes)).expect("open").info();
        let bad = 20_500;
        let at = (CTR_HEADER_BYTES + bad * u64::from(info.record_bytes)) as usize;
        let id = u32::try_from(info.id_space).expect("the fixture's id space fits an id");
        bytes[at..at + 4].copy_from_slice(&id.to_le_bytes());
        let (fed, slots, _, _) =
            within_10s(move || run_probe(&bytes, 1000, Fault::None)).expect("no panic");
        match fed {
            Err(CacheError::TraceFormat(msg)) => {
                assert!(msg.contains(&format!("record {bad}")), "{msg}");
            }
            other => panic!("want a format error, got {other:?}"),
        }
        assert!(slots == want[..20_000], "the chunks before the bad one");
    }

    /// A dense policy that refuses to grow stops the replay with its error,
    /// and the reader thread, which is left waiting for a buffer set the
    /// replay will never hand back, exits rather than hanging the join.
    #[test]
    fn a_refused_growth_is_the_error_and_the_reader_exits() {
        let bytes = paper_mix();
        let want = in_memory_slots(&bytes);
        let named = |n: usize| want[..n].iter().max().map_or(0, |&s| s as usize + 1);
        let limit = named(5_000);
        let refused = (1..=40)
            .map(|c| c * 1000)
            .find(|&n| named(n) > limit)
            .expect("later chunks name new ids");
        let (fed, slots, _, _) =
            within_10s(move || run_probe(&bytes, 1000, Fault::RefuseGrowthPast(limit)))
                .expect("no panic");
        match fed {
            Err(CacheError::InvalidParameter(msg)) => assert!(msg.contains("planted"), "{msg}"),
            other => panic!("want the policy's refusal, got {other:?}"),
        }
        assert!(
            slots == want[..refused - 1000],
            "the chunks before the refusal"
        );
    }

    /// A policy that panics mid-chunk panics out of `feed_ctr`, with its
    /// own payload.
    #[test]
    fn a_policy_panic_propagates_out_of_feed_ctr() {
        let bytes = paper_mix();
        let got = within_10s(move || run_probe(&bytes, 1000, Fault::PanicAt(20_500)));
        let payload = got.expect_err("the planted panic propagates");
        let msg = payload
            .downcast_ref::<String>()
            .map_or("<not a string>", String::as_str);
        assert!(msg.contains("planted panic at request 20500"), "{msg}");
    }
}
