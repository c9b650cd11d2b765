//! The `.ctr` compact binary trace format — the on-disk representation for
//! out-of-core replays (ROADMAP item 5, the 2DIO direction).
//!
//! The paper's evaluation spans hundreds of billions of requests; a trace at
//! that scale never fits in memory, so the format is built for streaming:
//!
//! - **Fixed-width little-endian records** — record `i` lives at byte
//!   `32 + i * record_bytes`, so the file is chunk-addressable (and
//!   mmap-friendly) without an index.
//! - **`u32` ids below the header's `id_space`** — a trace converted from a
//!   keyed one numbers them in first-appearance order; a generated one lays
//!   them out in disjoint ranges (`stream_gen`) and may name only a fraction
//!   of the space. Readers turn them into the simulator's dense slots through
//!   a direct table of `id_space` entries (`cache_ds::DenseIds::bounded`):
//!   the header bounds that table, so no id is hashed, and the slot slab
//!   grows only to the ids the trace names.
//! - **An optional op lane** — a 1-byte get/set/delete code, enabled by a
//!   header flag; pure-Get unit traces pay 8 bytes per request.
//! - **Optional id table** — a footer of `id_space` original 64-bit ids
//!   (slot → id) so a converted trace can be turned back into CSV with its
//!   original ids. The replay path never reads it.
//!
//! Layout (all little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "CTR1"
//! 4       4     version (= 1)
//! 8       4     flags (bit 0 op lane, bit 2 id table; bit 1 is refused)
//! 12      4     record_bytes (must equal 8 + ops)
//! 16      8     record count
//! 24      8     id_space (max id + 1; every record id < id_space)
//! 32      …     records: u32 id, u32 size, [u8 op]
//! …       …     id table: id_space × u64 original ids (iff flag bit 2)
//! ```
//!
//! The reader validates the whole structure at [`CtrReader::open`] (magic,
//! version, unknown flags, redundant `record_bytes`, exact file length) and
//! every record id against `id_space` while decoding, so truncation and
//! corruption surface as [`CacheError::TraceFormat`] — never a panic and
//! never an out-of-bounds slot downstream.

use crate::{Lanes, Trace};
use cache_ds::DenseIds;
use cache_types::{CacheError, Op, Request};
use std::io::{Read, Seek, SeekFrom, Write};

/// File magic: "CTR1".
pub const CTR_MAGIC: &[u8; 4] = b"CTR1";
/// Current format version.
pub const CTR_VERSION: u32 = 1;
/// Header size in bytes; record 0 starts here.
pub const CTR_HEADER_BYTES: u64 = 32;

const FLAG_OPS: u32 = 1 << 0;
const FLAG_ID_TABLE: u32 = 1 << 2;
const KNOWN_FLAGS: u32 = FLAG_OPS | FLAG_ID_TABLE;

fn op_code(op: Op) -> u8 {
    match op {
        Op::Get => 0,
        Op::Set => 1,
        Op::Delete => 2,
    }
}

fn code_op(code: u8) -> Result<Op, CacheError> {
    match code {
        0 => Ok(Op::Get),
        1 => Ok(Op::Set),
        2 => Ok(Op::Delete),
        other => Err(CacheError::TraceFormat(format!("bad op code {other}"))),
    }
}

/// Which optional record lanes a `.ctr` file carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrLanes {
    /// 1-byte op lane (get/set/delete). Without it every record is a Get.
    pub ops: bool,
}

impl CtrLanes {
    fn record_bytes(self) -> u32 {
        8 + u32::from(self.ops)
    }
}

/// Parsed header of a `.ctr` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrInfo {
    /// Number of records in the file.
    pub records: u64,
    /// Exclusive upper bound on record ids (`max id + 1`; 0 when empty).
    /// Readers size their direct id → slot table from this.
    pub id_space: u64,
    /// Record lanes present.
    pub lanes: CtrLanes,
    /// Whether an original-id table footer is present.
    pub has_id_table: bool,
    /// Bytes per record (derivable from `lanes`; stored redundantly in the
    /// header as a corruption check).
    pub record_bytes: u32,
}

fn encode_header(info: &CtrInfo) -> [u8; CTR_HEADER_BYTES as usize] {
    let mut h = [0u8; CTR_HEADER_BYTES as usize];
    h[0..4].copy_from_slice(CTR_MAGIC);
    h[4..8].copy_from_slice(&CTR_VERSION.to_le_bytes());
    let mut flags = 0u32;
    if info.lanes.ops {
        flags |= FLAG_OPS;
    }
    if info.has_id_table {
        flags |= FLAG_ID_TABLE;
    }
    h[8..12].copy_from_slice(&flags.to_le_bytes());
    h[12..16].copy_from_slice(&info.record_bytes.to_le_bytes());
    h[16..24].copy_from_slice(&info.records.to_le_bytes());
    h[24..32].copy_from_slice(&info.id_space.to_le_bytes());
    h
}

/// Streaming writer for the `.ctr` format.
///
/// Records are appended a chunk at a time ([`CtrWriter::push_records`]) or
/// one at a time ([`CtrWriter::push`], a chunk of one); the header (record
/// count, id space, flags) is patched in place by [`CtrWriter::finish`], so
/// multi-GB traces can be written front to back without buffering. Each
/// push is one write of the encoded chunk; wrap files in a `BufWriter` when
/// the chunks are small.
pub struct CtrWriter<W: Write + Seek> {
    w: W,
    lanes: CtrLanes,
    records: u64,
    /// `max id + 1` over everything pushed so far.
    id_space: u64,
    /// The chunk being encoded, reused from push to push.
    buf: Vec<u8>,
}

impl<W: Write + Seek> CtrWriter<W> {
    /// Starts a new `.ctr` stream at the writer's current position 0,
    /// reserving the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create(mut w: W, lanes: CtrLanes) -> Result<Self, CacheError> {
        w.seek(SeekFrom::Start(0))?;
        let info = CtrInfo {
            records: 0,
            id_space: 0,
            lanes,
            has_id_table: false,
            record_bytes: lanes.record_bytes(),
        };
        w.write_all(&encode_header(&info))?;
        Ok(CtrWriter {
            w,
            lanes,
            records: 0,
            id_space: 0,
            buf: Vec::new(),
        })
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Same as [`CtrWriter::push_records`].
    pub fn push(&mut self, id: u32, size: u32, op: Op) -> Result<(), CacheError> {
        self.push_records(&[(id, size, op)])
    }

    /// Appends `(id, size, op)` records in order: encodes them into one
    /// buffer, writes it with one call, and raises the id space once.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::TraceFormat`] when an `op` is not a Get and the
    /// op lane is disabled (the record could not be represented), in which
    /// case nothing of the chunk is written; propagates I/O errors.
    pub fn push_records(&mut self, records: &[(u32, u32, Op)]) -> Result<(), CacheError> {
        let ops = self.lanes.ops;
        self.buf.clear();
        let mut max_id = None;
        for (at, &(id, size, op)) in (self.records..).zip(records) {
            if op != Op::Get && !ops {
                return Err(CacheError::TraceFormat(format!(
                    "record {at}: op {op:?} needs the op lane (CtrLanes {{ ops: true }})"
                )));
            }
            self.buf.extend_from_slice(&id.to_le_bytes());
            self.buf.extend_from_slice(&size.to_le_bytes());
            if ops {
                self.buf.push(op_code(op));
            }
            max_id = max_id.max(Some(id));
        }
        self.w.write_all(&self.buf)?;
        self.records += records.len() as u64;
        if let Some(id) = max_id {
            self.id_space = self.id_space.max(u64::from(id) + 1);
        }
        Ok(())
    }

    /// Appends one request, using its id truncated to `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::TraceFormat`] when the id exceeds `u32` range
    /// (convert through [`write_trace`], which interns, instead) or the op
    /// cannot be represented; propagates I/O errors.
    pub fn push_request(&mut self, req: &Request) -> Result<(), CacheError> {
        let id = u32::try_from(req.id).map_err(|_| {
            CacheError::TraceFormat(format!(
                "record {}: id {} exceeds the dense u32 space; intern first (write_trace)",
                self.records, req.id
            ))
        })?;
        self.push(id, req.size, req.op)
    }

    fn patch_header(&mut self, has_id_table: bool) -> Result<(), CacheError> {
        let info = CtrInfo {
            records: self.records,
            id_space: self.id_space,
            lanes: self.lanes,
            has_id_table,
            record_bytes: self.lanes.record_bytes(),
        };
        self.w.seek(SeekFrom::Start(0))?;
        self.w.write_all(&encode_header(&info))?;
        self.w.flush()?;
        Ok(())
    }

    /// Patches the header and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(mut self) -> Result<(W, CtrInfo), CacheError> {
        self.patch_header(false)?;
        let info = CtrInfo {
            records: self.records,
            id_space: self.id_space,
            lanes: self.lanes,
            has_id_table: false,
            record_bytes: self.lanes.record_bytes(),
        };
        Ok((self.w, info))
    }

    /// Appends the original-id table footer (`originals[slot]` is the
    /// pre-interning 64-bit id of dense id `slot`), patches the header, and
    /// returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::TraceFormat`] when `originals.len()` does not
    /// equal the id space actually referenced by the records; propagates I/O
    /// errors.
    pub fn finish_with_id_table(mut self, originals: &[u64]) -> Result<(W, CtrInfo), CacheError> {
        if originals.len() as u64 != self.id_space {
            return Err(CacheError::TraceFormat(format!(
                "id table has {} entries but the records span id space {}",
                originals.len(),
                self.id_space
            )));
        }
        for &orig in originals {
            self.w.write_all(&orig.to_le_bytes())?;
        }
        self.patch_header(true)?;
        let info = CtrInfo {
            records: self.records,
            id_space: self.id_space,
            lanes: self.lanes,
            has_id_table: true,
            record_bytes: self.lanes.record_bytes(),
        };
        Ok((self.w, info))
    }
}

/// Checked streaming reader for the `.ctr` format.
///
/// [`CtrReader::open`] validates the header and the exact file length up
/// front; [`CtrReader::read_chunk`] then decodes fixed-size chunks into a
/// reusable buffer, stamping `Request::time` with the global record index so
/// chunked consumers see exactly what an in-memory [`Trace`] would hold.
#[derive(Debug)]
pub struct CtrReader<R: Read + Seek> {
    r: R,
    info: CtrInfo,
    /// Next record index to read.
    next: u64,
    /// Reusable raw byte buffer for chunk reads.
    buf: Vec<u8>,
}

impl<R: Read + Seek> CtrReader<R> {
    /// Opens and validates a `.ctr` stream.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::TraceFormat`] on bad magic/version/flags, a
    /// `record_bytes` field inconsistent with the flags, a record count
    /// whose body size overflows, or a stream whose length does not match
    /// the header exactly (truncation and trailing garbage are both
    /// rejected). Propagates I/O errors.
    pub fn open(mut r: R) -> Result<Self, CacheError> {
        r.seek(SeekFrom::Start(0))?;
        let mut h = [0u8; CTR_HEADER_BYTES as usize];
        r.read_exact(&mut h).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                CacheError::TraceFormat("truncated header".into())
            } else {
                e.into()
            }
        })?;
        if &h[0..4] != CTR_MAGIC {
            return Err(CacheError::TraceFormat("bad magic".into()));
        }
        let le_u32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let le_u64 = |b: &[u8]| {
            u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
        };
        let version = le_u32(&h[4..8]);
        if version != CTR_VERSION {
            return Err(CacheError::TraceFormat(format!("bad version {version}")));
        }
        let flags = le_u32(&h[8..12]);
        if flags & !KNOWN_FLAGS != 0 {
            return Err(CacheError::TraceFormat(format!(
                "unknown flag bits {:#x}",
                flags & !KNOWN_FLAGS
            )));
        }
        let lanes = CtrLanes {
            ops: flags & FLAG_OPS != 0,
        };
        let record_bytes = le_u32(&h[12..16]);
        if record_bytes != lanes.record_bytes() {
            return Err(CacheError::TraceFormat(format!(
                "record_bytes {record_bytes} inconsistent with flags (expected {})",
                lanes.record_bytes()
            )));
        }
        let records = le_u64(&h[16..24]);
        let id_space = le_u64(&h[24..32]);
        // Ids are stored as u32, so a valid id space never exceeds 2^32.
        if id_space > 1 << 32 {
            return Err(CacheError::TraceFormat(format!(
                "id space {id_space} exceeds the u32 id range"
            )));
        }
        if records > 0 && id_space == 0 {
            return Err(CacheError::TraceFormat(
                "non-empty trace with zero id space".into(),
            ));
        }
        // checked arithmetic: a corrupted count must not overflow into a
        // bogus small expected length.
        let body = records.checked_mul(u64::from(record_bytes)).ok_or_else(|| {
            CacheError::TraceFormat(format!("record count {records} overflows the body size"))
        })?;
        let table = if flags & FLAG_ID_TABLE != 0 {
            id_space.checked_mul(8).ok_or_else(|| {
                CacheError::TraceFormat(format!("id space {id_space} overflows the table size"))
            })?
        } else {
            0
        };
        let expected = CTR_HEADER_BYTES
            .checked_add(body)
            .and_then(|n| n.checked_add(table))
            .ok_or_else(|| CacheError::TraceFormat("file size overflows".into()))?;
        let actual = r.seek(SeekFrom::End(0))?;
        if actual < expected {
            return Err(CacheError::TraceFormat(format!(
                "truncated: {actual} bytes but the header promises {expected} \
                 ({records} records of {record_bytes} bytes{})",
                if table > 0 { " plus an id table" } else { "" }
            )));
        }
        if actual > expected {
            return Err(CacheError::TraceFormat(format!(
                "{} trailing bytes after the promised {expected}",
                actual - expected
            )));
        }
        r.seek(SeekFrom::Start(CTR_HEADER_BYTES))?;
        Ok(CtrReader {
            r,
            info: CtrInfo {
                records,
                id_space,
                lanes,
                has_id_table: flags & FLAG_ID_TABLE != 0,
                record_bytes,
            },
            next: 0,
            buf: Vec::new(),
        })
    }

    /// The validated header.
    pub fn info(&self) -> &CtrInfo {
        &self.info
    }

    /// Index of the next record [`CtrReader::read_chunk`] will return.
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Current capacity of the internal raw chunk buffer, in bytes — the
    /// reader's entire heap footprint beyond the header. Streaming callers
    /// report this in their bounded-memory accounting.
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Repositions the cursor to record `index` (chunk addressing).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::TraceFormat`] when `index` exceeds the record
    /// count; propagates I/O errors.
    pub fn seek_record(&mut self, index: u64) -> Result<(), CacheError> {
        if index > self.info.records {
            return Err(CacheError::TraceFormat(format!(
                "seek to record {index} past the {} records in the file",
                self.info.records
            )));
        }
        // In-range by the length check in `open`.
        self.r.seek(SeekFrom::Start(
            CTR_HEADER_BYTES + index * u64::from(self.info.record_bytes),
        ))?;
        self.next = index;
        Ok(())
    }

    /// Reads up to `max` records into `out` (cleared first), stamping each
    /// request's `time` with its global record index. Returns the number of
    /// records read; 0 means end of trace.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::TraceFormat`] on a bad op code or an id outside
    /// the header's id space (either means corruption — the file length was
    /// already validated); propagates I/O errors.
    pub fn read_chunk(&mut self, out: &mut Vec<Request>, max: usize) -> Result<usize, CacheError> {
        out.clear();
        let n = (self.info.records - self.next).min(max as u64) as usize;
        if n == 0 {
            return Ok(0);
        }
        let rb = self.info.record_bytes as usize;
        self.buf.resize(n * rb, 0);
        self.r.read_exact(&mut self.buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                // Only reachable if the file shrank after `open` validated
                // its length.
                CacheError::TraceFormat(format!(
                    "trace shrank underneath the reader at record {}",
                    self.next
                ))
            } else {
                e.into()
            }
        })?;
        out.reserve(n);
        for (i, rec) in self.buf.chunks_exact(rb).enumerate() {
            let id = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
            if u64::from(id) >= self.info.id_space {
                return Err(CacheError::TraceFormat(format!(
                    "record {}: id {id} outside the header id space {}",
                    self.next + i as u64,
                    self.info.id_space
                )));
            }
            let size = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]);
            let op = if self.info.lanes.ops {
                code_op(rec[8]).map_err(|e| {
                    CacheError::TraceFormat(format!("record {}: {e}", self.next + i as u64))
                })?
            } else {
                Op::Get
            };
            out.push(Request {
                id: u64::from(id),
                size,
                time: self.next + i as u64,
                op,
            });
        }
        self.next += n as u64;
        Ok(n)
    }

    /// Reads the original-id table footer, or `None` when the file has no
    /// table. The read cursor is restored afterwards.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn read_id_table(&mut self) -> Result<Option<Vec<u64>>, CacheError> {
        if !self.info.has_id_table {
            return Ok(None);
        }
        let pos = self.next;
        let body = self.info.records * u64::from(self.info.record_bytes);
        self.r.seek(SeekFrom::Start(CTR_HEADER_BYTES + body))?;
        let mut raw = vec![0u8; (self.info.id_space * 8) as usize];
        self.r.read_exact(&mut raw)?;
        let table = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect();
        self.seek_record(pos)?;
        Ok(Some(table))
    }
}

/// Writes an in-memory trace as `.ctr`, its ids in the dense `u32` space
/// (first-appearance order, [`Trace::dense`]), and appends the
/// original-id table so [`read_trace_original_ids`] can reverse the mapping.
/// The op lane is included only when the trace has non-Get requests.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_trace<W: Write + Seek>(trace: &Trace, w: W) -> Result<(W, CtrInfo), CacheError> {
    let dense = trace.dense();
    let lanes = CtrLanes {
        ops: !trace.shape().pure_get,
    };
    let mut writer = CtrWriter::create(w, lanes)?;
    for (slot, req) in dense.slots.iter().zip(trace.iter()) {
        writer.push(*slot, req.size, req.op)?;
    }
    let originals: Vec<u64> = (0..dense.ids.len() as u32).map(|s| dense.ids.orig(s)).collect();
    writer.finish_with_id_table(&originals)
}

/// Reads the rest of `reader` into columns, interning the record ids as it
/// goes through the direct table the header's id space allows
/// ([`cache_ds::DenseIds::bounded`]): the slots are the ones the streaming
/// replayer assigns, and no hash is paid per request.
fn read_columns<R: Read + Seek>(
    reader: &mut CtrReader<R>,
) -> Result<(DenseIds, Vec<u32>, Lanes), CacheError> {
    let info = *reader.info();
    let records = info.records.min(1 << 24) as usize;
    let mut slots = cache_ds::huge::with_capacity(records);
    let mut lanes = Lanes::with_hint(records);
    // `open` bounds the id space by 2^32, so this never clamps.
    let mut ids = DenseIds::bounded(usize::try_from(info.id_space).unwrap_or(usize::MAX));
    let mut chunk = Vec::new();
    while reader.read_chunk(&mut chunk, 1 << 16)? > 0 {
        ids.extend(&chunk, |r| r.id, &mut slots);
        for r in &chunk {
            lanes.push(r.size, r.op);
        }
    }
    Ok((ids, slots, lanes))
}

/// Materializes a `.ctr` stream as an in-memory [`Trace`] with its record
/// ids — request for request what the streaming replayer would consume, so
/// in-memory and streamed replays of the same file are bit-identical. The
/// trace is loaded as columns ([`crate::DenseTrace`]): a slot per record,
/// and a size or op column only when some record needs one.
///
/// # Errors
///
/// Same as [`CtrReader::open`] / [`CtrReader::read_chunk`].
pub fn read_trace<R: Read + Seek>(
    name: impl Into<String>,
    r: R,
) -> Result<(Trace, CtrInfo), CacheError> {
    let mut reader = CtrReader::open(r)?;
    let info = *reader.info();
    let (ids, slots, lanes) = read_columns(&mut reader)?;
    Ok((Trace::from_columns(name, ids, slots, lanes), info))
}

/// [`read_trace`] with the id-table mapping applied, restoring the original
/// 64-bit ids of a converted trace. Files without a table come back with
/// their dense ids (the mapping is the identity). The mapping renames the
/// interning table's entries ([`DenseIds::remap`]), not the records.
///
/// # Errors
///
/// Same as [`read_trace`], plus [`CacheError::TraceFormat`] when the table
/// names one original id twice.
pub fn read_trace_original_ids<R: Read + Seek>(
    name: impl Into<String>,
    r: R,
) -> Result<(Trace, CtrInfo), CacheError> {
    let mut reader = CtrReader::open(r)?;
    let info = *reader.info();
    let table = reader.read_id_table()?;
    let (mut ids, slots, lanes) = read_columns(&mut reader)?;
    if let Some(table) = &table {
        // In range: read_chunk validated id < id_space == table.len().
        ids.remap(table).map_err(|id| {
            CacheError::TraceFormat(format!("id table names original id {id} twice"))
        })?;
    }
    Ok((Trace::from_columns(name, ids, slots, lanes), info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkloadSpec;
    use std::io::Cursor;

    fn encode(trace: &Trace) -> Vec<u8> {
        let (w, _) = write_trace(trace, Cursor::new(Vec::new())).expect("in-memory write");
        w.into_inner()
    }

    #[test]
    fn roundtrip_pure_get_trace() {
        let t = WorkloadSpec::zipf("z", 5000, 300, 0.9, 2).generate();
        let bytes = encode(&t);
        let (back, info) = read_trace("z", Cursor::new(&bytes)).expect("read");
        assert_eq!(info.records, t.len() as u64);
        assert!(!info.lanes.ops, "pure-Get trace needs no op lane");
        assert_eq!(info.record_bytes, 8);
        assert!(
            back.sizes().is_none() && back.ops().is_none(),
            "no column to hold"
        );
        // Dense ids: same slot sequence as the source's dense view.
        let dense = t.dense();
        for (i, (req, src)) in back.iter().zip(t.iter()).enumerate() {
            assert_eq!(req.id, u64::from(dense.slots[i]));
            assert_eq!(req.size, src.size);
            assert_eq!(req.op, src.op);
            assert_eq!(req.time, i as u64);
        }
    }

    #[test]
    fn roundtrip_restores_original_ids() {
        let mut spec = WorkloadSpec::zipf("z", 2000, 150, 1.0, 5);
        spec.delete_fraction = 0.05;
        let t = spec.generate();
        let bytes = encode(&t);
        let (back, info) = read_trace_original_ids("z", Cursor::new(&bytes)).expect("read");
        assert!(info.lanes.ops, "deletes require the op lane");
        assert!(info.has_id_table);
        assert!(
            back.sizes().is_some() && back.ops().is_some(),
            "deletes have size 0"
        );
        assert_eq!(t.to_requests(), back.to_requests());
        let ids = &back.dense().ids;
        for slot in 0..ids.len() as u32 {
            assert_eq!(ids.slot_of(ids.orig(slot)), Some(slot));
        }
    }

    #[test]
    fn chunked_reads_equal_whole_read() {
        let t = WorkloadSpec::zipf("z", 3000, 200, 1.0, 7).generate();
        let bytes = encode(&t);
        let (whole, _) = read_trace("z", Cursor::new(&bytes)).expect("read");
        for chunk_size in [1usize, 7, 64, 1000, 5000] {
            let mut reader = CtrReader::open(Cursor::new(&bytes)).expect("open");
            let mut got = Vec::new();
            let mut buf = Vec::new();
            loop {
                let n = reader.read_chunk(&mut buf, chunk_size).expect("chunk");
                if n == 0 {
                    break;
                }
                assert!(n <= chunk_size);
                got.extend_from_slice(&buf);
            }
            assert_eq!(got, whole.to_requests(), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn seek_record_supports_chunk_addressing() {
        let t = WorkloadSpec::zipf("z", 500, 50, 1.0, 3).generate();
        let bytes = encode(&t);
        let (whole, _) = read_trace("z", Cursor::new(&bytes)).expect("read");
        let mut reader = CtrReader::open(Cursor::new(&bytes)).expect("open");
        let mut buf = Vec::new();
        reader.seek_record(123).expect("seek");
        reader.read_chunk(&mut buf, 10).expect("chunk");
        assert_eq!(buf, whole.to_requests()[123..133]);
        assert_eq!(buf[0].time, 123, "times are global record indices");
        // Seeking to the end is allowed and reads nothing.
        reader.seek_record(500).expect("seek to end");
        assert_eq!(reader.read_chunk(&mut buf, 10).expect("chunk"), 0);
        // Past the end is an error.
        assert!(reader.seek_record(501).is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new("empty", vec![]);
        let bytes = encode(&t);
        let (back, info) = read_trace("empty", Cursor::new(&bytes)).expect("read");
        assert!(back.is_empty());
        assert_eq!(info.records, 0);
        assert_eq!(info.id_space, 0);
    }

    #[test]
    fn ttl_lane_flag_is_refused() {
        // A file with flag bit 1 set, laid out as the retired TTL lane was
        // (a u32 after the op byte), so that nothing but the flag is wrong.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CTR_MAGIC);
        bytes.extend_from_slice(&CTR_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0b011u32.to_le_bytes());
        bytes.extend_from_slice(&13u32.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0, 10, 0, 0, 0, 0, 44, 1, 0, 0]);
        let err = CtrReader::open(Cursor::new(&bytes)).expect_err("bit 1 is unknown");
        assert!(matches!(err, CacheError::TraceFormat(_)), "{err}");
        assert!(err.to_string().contains("unknown flag bits 0x2"), "{err}");
    }

    #[test]
    fn writer_rejects_unrepresentable_records() {
        let mut w = CtrWriter::create(Cursor::new(Vec::new()), CtrLanes::default())
            .expect("create");
        assert!(w.push(1, 1, Op::Set).is_err(), "Set needs the op lane");
        let mut w = CtrWriter::create(Cursor::new(Vec::new()), CtrLanes::default())
            .expect("create");
        let big = Request {
            id: u64::from(u32::MAX) + 1,
            size: 1,
            time: 0,
            op: Op::Get,
        };
        assert!(w.push_request(&big).is_err(), "id over u32 must be interned");
    }

    /// A chunk writes the bytes its records pushed one at a time would, and
    /// a chunk with a record it cannot represent writes none of them.
    #[test]
    fn a_chunk_is_its_records_pushed_one_at_a_time() {
        let records = [(3, 1, Op::Get), (9, 70, Op::Set), (0, 2, Op::Delete)];
        let lanes = CtrLanes { ops: true };
        let mut one = CtrWriter::create(Cursor::new(Vec::new()), lanes).expect("create");
        for &(id, size, op) in &records {
            one.push(id, size, op).expect("push");
        }
        let mut chunk = CtrWriter::create(Cursor::new(Vec::new()), lanes).expect("create");
        chunk.push_records(&records[..1]).expect("push");
        chunk.push_records(&records[1..]).expect("push");
        let (one, one_info) = one.finish().expect("finish");
        let (chunk, chunk_info) = chunk.finish().expect("finish");
        assert_eq!((one.into_inner(), one_info), (chunk.into_inner(), chunk_info));
        assert_eq!(chunk_info.id_space, 10);

        let mut gets = CtrWriter::create(Cursor::new(Vec::new()), CtrLanes::default())
            .expect("create");
        let err = gets.push_records(&records).expect_err("Set needs the op lane");
        assert!(err.to_string().contains("record 1"), "{err}");
        let (cur, info) = gets.finish().expect("finish");
        assert_eq!((info.records, cur.into_inner().len() as u64), (0, CTR_HEADER_BYTES));
    }

    #[test]
    fn id_table_length_is_checked() {
        let mut w = CtrWriter::create(Cursor::new(Vec::new()), CtrLanes::default())
            .expect("create");
        w.push(5, 1, Op::Get).expect("push");
        // id space is 6 (max id 5), but only 2 originals supplied.
        assert!(w.finish_with_id_table(&[10, 20]).is_err());
    }

    #[test]
    fn id_table_naming_an_id_twice_is_refused() {
        let mut w = CtrWriter::create(Cursor::new(Vec::new()), CtrLanes::default())
            .expect("create");
        w.push(0, 1, Op::Get).expect("push");
        w.push(1, 1, Op::Get).expect("push");
        let (cur, _) = w.finish_with_id_table(&[10, 10]).expect("finish");
        let err = read_trace_original_ids("d", Cursor::new(cur.into_inner()))
            .expect_err("two slots for one id");
        assert!(err.to_string().contains("twice"), "{err}");
    }

    #[test]
    fn open_rejects_header_corruption() {
        let t = WorkloadSpec::zipf("z", 20, 10, 1.0, 1).generate();
        let good = encode(&t);

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            CtrReader::open(Cursor::new(&bad)),
            Err(CacheError::TraceFormat(_))
        ));

        let mut bad = good.clone();
        bad[4] = 9; // version
        assert!(CtrReader::open(Cursor::new(&bad)).is_err());

        let mut bad = good.clone();
        bad[8] |= 0x80; // unknown flag
        assert!(CtrReader::open(Cursor::new(&bad)).is_err());

        let mut bad = good.clone();
        bad[12] = 99; // record_bytes inconsistent with flags
        assert!(CtrReader::open(Cursor::new(&bad)).is_err());

        // Claimed record count overflowing the body size.
        let mut bad = good.clone();
        bad[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = CtrReader::open(Cursor::new(&bad)).expect_err("must reject");
        assert!(err.to_string().contains("overflow"), "{err}");

        // Truncated and padded files are both rejected.
        assert!(CtrReader::open(Cursor::new(&good[..good.len() - 3])).is_err());
        let mut padded = good.clone();
        padded.push(0);
        let err = CtrReader::open(Cursor::new(&padded)).expect_err("must reject");
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn reader_rejects_out_of_space_ids() {
        // Hand-craft a file whose record id exceeds the header id space.
        let mut w = CtrWriter::create(Cursor::new(Vec::new()), CtrLanes::default())
            .expect("create");
        w.push(7, 1, Op::Get).expect("push");
        let (cur, _) = w.finish().expect("finish");
        let mut bytes = cur.into_inner();
        bytes[24..32].copy_from_slice(&3u64.to_le_bytes()); // id space 3 < id 7
        let mut reader = CtrReader::open(Cursor::new(&bytes)).expect("header is fine");
        let mut buf = Vec::new();
        let err = reader.read_chunk(&mut buf, 10).expect_err("id out of space");
        assert!(err.to_string().contains("id space"), "{err}");
    }

    #[test]
    fn reader_rejects_bad_op_codes() {
        let mut w = CtrWriter::create(
            Cursor::new(Vec::new()),
            CtrLanes { ops: true },
        )
        .expect("create");
        w.push(0, 1, Op::Get).expect("push");
        let (cur, _) = w.finish().expect("finish");
        let mut bytes = cur.into_inner();
        let op_at = CTR_HEADER_BYTES as usize + 8;
        bytes[op_at] = 42;
        let mut reader = CtrReader::open(Cursor::new(&bytes)).expect("header is fine");
        let mut buf = Vec::new();
        assert!(reader.read_chunk(&mut buf, 10).is_err());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::gen::WorkloadSpec;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn sample_bytes(seed: u64) -> Vec<u8> {
        let mut spec = WorkloadSpec::zipf("p", 60, 20, 1.0, seed);
        spec.delete_fraction = 0.1;
        let t = spec.generate();
        let (w, _) = write_trace(&t, Cursor::new(Vec::new())).expect("in-memory write");
        w.into_inner()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Truncating the file anywhere must error or EOF cleanly, never
        // panic — open() validates length, so every cut is caught there.
        #[test]
        fn truncation_never_panics(seed in 0u64..u64::MAX, cut_pick in 0usize..100_000) {
            let bytes = sample_bytes(seed);
            let cut = cut_pick % (bytes.len() + 1);
            if let Ok(mut r) = CtrReader::open(Cursor::new(&bytes[..cut])) {
                let mut buf = Vec::new();
                while r.read_chunk(&mut buf, 16).map(|n| n > 0).unwrap_or(false) {}
            }
        }

        // Flipping any byte must never panic: either the reader errors or
        // returns some decodable (possibly different) trace.
        #[test]
        fn single_byte_corruption_never_panics(
            seed in 0u64..u64::MAX,
            pos_pick in 0usize..100_000,
            flip in 1u8..=255,
        ) {
            let mut bytes = sample_bytes(seed);
            let pos = pos_pick % bytes.len();
            bytes[pos] ^= flip;
            if let Ok(mut r) = CtrReader::open(Cursor::new(&bytes)) {
                let mut buf = Vec::new();
                loop {
                    match r.read_chunk(&mut buf, 16) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
                let _ = r.read_id_table();
            }
        }

        // Any generated workload survives the dense round trip with its
        // original ids restored.
        #[test]
        fn roundtrip_restores_requests(
            objects in 1u64..150,
            requests in 1usize..300,
            seed in 0u64..u64::MAX,
        ) {
            let t = WorkloadSpec::zipf("p", requests, objects, 0.9, seed).generate();
            let (w, _) = write_trace(&t, Cursor::new(Vec::new()))
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let bytes = w.into_inner();
            let (back, _) = read_trace_original_ids("p", Cursor::new(&bytes))
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(t.to_requests(), back.to_requests());
        }
    }
}
