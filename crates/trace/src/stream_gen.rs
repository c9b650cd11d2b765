//! Out-of-core workload generation: a 2DIO-style seeded generator that
//! writes multi-GB `.ctr` traces straight to disk without ever holding the
//! trace in memory.
//!
//! [`crate::gen::WorkloadSpec`] materializes a `Vec<Request>`, which caps it
//! at a few hundred million requests; the paper's evaluation runs to
//! hundreds of billions. [`StreamSpec`] emits the same workload *shape*
//! knobs (Zipf skew, one-hit wonders, scan bursts, deletes) a chunk of 4096
//! records at a time into a [`crate::ctr::CtrWriter`], so memory stays at the
//! Zipf sampler (at most 12 bytes per core object) regardless of trace
//! length, and adds phase changes — the popularity ranking rotates through
//! the id space at fixed intervals, the workload shift that per-window
//! miss-ratio series exist to expose.
//!
//! A Zipf draw's cost is the latency of its two dependent misses into the
//! sampler's tables, not arithmetic, so each chunk takes two passes: a
//! control pass makes every RNG draw in record order and decides each
//! record's kind, then [`ZipfSampler::ranks_of`] inverts the chunk's Zipf
//! draws with their misses overlapped, and the records are emitted in
//! order and written as one chunk ([`CtrWriter::push_records`]). The bytes
//! are those of one record at a time (`tests::chunk_edges_are_pinned`).
//!
//! Ids are laid out in disjoint `u32` ranges so the `.ctr` id space (which
//! sizes a reader's direct id → slot table, 4 B an id) stays proportional
//! to the configured footprint, not the request count. A trace need not
//! name every id of its space; the replayer's slot slab grows only to the
//! ids it does name:
//!
//! ```text
//! [0, objects)                         Zipf core (popularity rotates per phase)
//! [objects, +scan_space)               scan bursts, sequential with wraparound
//! [objects+scan_space, +fresh_ring)    one-hit wonders, ring-allocated
//! ```
//!
//! The fresh ring reuses ids after `fresh_ring` allocations; a reused id is
//! only observable if the cache (or its ghost) still remembers it, which at
//! realistic ring sizes is billions of requests of separation. Both replay
//! paths see the identical stream either way, so equivalence testing is
//! unaffected.

use crate::ctr::{CtrInfo, CtrLanes, CtrWriter};
use crate::zipf::ZipfSampler;
use cache_ds::rng::mix64;
use cache_ds::SplitMix64;
use cache_types::{CacheError, Op};
use std::io::{Seek, Write};

/// Records [`StreamSpec::write`] generates per pass.
const CHUNK: usize = 4096;

/// What a record is, as the control pass decides it.
#[derive(Debug, Clone, Copy)]
enum Draw {
    /// A get of a scan or one-hit-wonder id.
    Get(u32),
    /// A delete of `recent[pick]`, read when the record is emitted.
    Delete(u8),
    /// A get of the core object the chunk's next Zipf rank names.
    Zipf,
}

/// Knobs for a streamed, disk-resident workload.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Total records to emit.
    pub requests: u64,
    /// Distinct objects in the Zipf core.
    pub objects: u64,
    /// Zipf skew of the core (0 = uniform; production KV ≈ 1.0).
    pub alpha: f64,
    /// Fraction of requests that go to fresh one-hit-wonder ids.
    pub one_hit_fraction: f64,
    /// Distinct ids the one-hit stream cycles through (bounds the id space).
    pub fresh_ring: u64,
    /// Approximate fraction of requests inside sequential scan bursts.
    pub scan_fraction: f64,
    /// Length of each scan burst, in requests.
    pub scan_len: u64,
    /// Distinct ids the scans sweep through (with wraparound).
    pub scan_space: u64,
    /// Number of popularity phases; at each phase boundary the core's
    /// rank→id mapping rotates by `objects / phases`, so the hot set changes
    /// identity. 1 = stationary.
    pub phases: u32,
    /// Fraction of requests emitted as deletes of recently issued ids
    /// (enables the `.ctr` op lane when > 0).
    pub delete_fraction: f64,
    /// Object sizes: 1 = unit; otherwise each id gets a deterministic size
    /// in `1..=max_size` (stable across the whole trace).
    pub max_size: u32,
    /// RNG seed; the same spec + seed reproduces the file byte for byte.
    pub seed: u64,
}

impl StreamSpec {
    /// A skewed-core spec with the satellite streams disabled.
    pub fn zipf(requests: u64, objects: u64, alpha: f64, seed: u64) -> Self {
        StreamSpec {
            requests,
            objects,
            alpha,
            one_hit_fraction: 0.0,
            fresh_ring: 1 << 22,
            scan_fraction: 0.0,
            scan_len: 1000,
            scan_space: 1 << 20,
            phases: 1,
            delete_fraction: 0.0,
            max_size: 1,
            seed,
        }
    }

    /// The "paper-shaped" mix: Zipf(1.0) core plus one-hit wonders, periodic
    /// scan bursts, and 4 popularity phases.
    pub fn paper_mix(requests: u64, objects: u64, seed: u64) -> Self {
        StreamSpec {
            one_hit_fraction: 0.1,
            scan_fraction: 0.05,
            phases: 4,
            ..StreamSpec::zipf(requests, objects, 1.0, seed)
        }
    }

    /// Exclusive upper bound on the ids this spec can emit (the `.ctr`
    /// `id_space` is at most this; the file records the exact maximum seen).
    pub fn id_space(&self) -> u64 {
        let scan = if self.scan_fraction > 0.0 { self.scan_space } else { 0 };
        let fresh = if self.one_hit_fraction > 0.0 { self.fresh_ring } else { 0 };
        self.objects + scan + fresh
    }

    fn validate(&self) -> Result<(), CacheError> {
        if self.objects == 0 {
            return Err(CacheError::InvalidParameter(
                "stream spec needs at least one core object".into(),
            ));
        }
        if self.phases == 0 {
            return Err(CacheError::InvalidParameter("phases must be >= 1".into()));
        }
        if self.max_size == 0 {
            return Err(CacheError::InvalidParameter("max_size must be >= 1".into()));
        }
        for (name, v) in [
            ("one_hit_fraction", self.one_hit_fraction),
            ("scan_fraction", self.scan_fraction),
            ("delete_fraction", self.delete_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(CacheError::InvalidParameter(format!(
                    "{name} must be in [0, 1], got {v}"
                )));
            }
        }
        if self.one_hit_fraction > 0.0 && self.fresh_ring == 0 {
            return Err(CacheError::InvalidParameter(
                "one-hit stream needs fresh_ring > 0".into(),
            ));
        }
        if self.scan_fraction > 0.0 && (self.scan_space == 0 || self.scan_len == 0) {
            return Err(CacheError::InvalidParameter(
                "scan stream needs scan_space > 0 and scan_len > 0".into(),
            ));
        }
        if self.id_space() > 1 << 32 {
            return Err(CacheError::InvalidParameter(format!(
                "id space {} exceeds the dense u32 range",
                self.id_space()
            )));
        }
        Ok(())
    }

    /// Deterministic per-id size in `1..=max_size` (stable for the whole
    /// trace, like a real object store).
    fn size_of(&self, id: u32) -> u32 {
        if self.max_size == 1 {
            1
        } else {
            // Lemire multiply-shift keeps the mapping unbiased without a
            // modulo.
            let h = mix64(u64::from(id) ^ self.seed.rotate_left(17));
            ((u128::from(h) * u128::from(self.max_size)) >> 64) as u32 + 1
        }
    }

    /// Streams the trace into `w` as `.ctr`, a chunk at a time. Memory
    /// footprint is the Zipf sampler (`8 * objects` bytes of CDF, at most
    /// `4 * objects` of guide table) plus one chunk's buffers; nothing
    /// scales with `requests`. Wrap files in a `BufWriter`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidParameter`] for out-of-range knobs and
    /// propagates I/O errors.
    pub fn write<W: Write + Seek>(&self, w: W) -> Result<(W, CtrInfo), CacheError> {
        self.validate()?;
        let lanes = CtrLanes {
            ops: self.delete_fraction > 0.0,
        };
        let mut writer = CtrWriter::create(w, lanes)?;
        let mut rng = SplitMix64::new(self.seed);
        let zipf = ZipfSampler::new(self.objects, self.alpha);

        let scan_base = self.objects;
        let fresh_base = scan_base + if self.scan_fraction > 0.0 { self.scan_space } else { 0 };
        // Probability that a non-burst request *starts* a scan burst, chosen
        // so bursts cover ~scan_fraction of all requests.
        let scan_start_p = if self.scan_fraction > 0.0 {
            self.scan_fraction / self.scan_len as f64
        } else {
            0.0
        };
        // Phase `p` covers requests from `p * phase_len` on, the last one to
        // the end; its rank→id rotation is `p * phase_stride < objects`.
        let phase_len = (self.requests / u64::from(self.phases)).max(1);
        let phase_stride = self.objects / u64::from(self.phases);
        let mut phase = 0u32;
        let mut next_phase_at = phase_len;
        let mut rotation = 0u64;

        let mut scan_remaining = 0u64;
        // Both cursors wrap in place, over `scan_space` / `fresh_ring` ids.
        let mut scan_cursor = 0u64;
        let mut fresh_cursor = 0u64;
        let advance = |cursor: &mut u64, len: u64| {
            let at = *cursor;
            *cursor = if at + 1 == len { 0 } else { at + 1 };
            at
        };
        // Recent core ids, for deletes of plausibly-resident objects.
        let mut recent = [0u32; 64];
        let mut recent_len = 0usize;

        let mut draws = Vec::with_capacity(CHUNK);
        let mut us = Vec::with_capacity(CHUNK);
        let mut ranks = Vec::with_capacity(CHUNK);
        let mut records = Vec::with_capacity(CHUNK);
        let mut t = 0u64;
        while t < self.requests {
            // Control pass: every RNG draw of the chunk, in record order.
            // Which draws happen depends only on `u`, the scan state and
            // how many Zipf draws came before, never on a Zipf rank, so
            // the ranks can wait for the inversion pass.
            draws.clear();
            us.clear();
            for _ in 0..(self.requests - t).min(CHUNK as u64) {
                let draw = if scan_remaining > 0 {
                    scan_remaining -= 1;
                    Draw::Get((scan_base + advance(&mut scan_cursor, self.scan_space)) as u32)
                } else {
                    let u = rng.next_f64();
                    if u < scan_start_p {
                        scan_remaining = self.scan_len - 1;
                        Draw::Get((scan_base + advance(&mut scan_cursor, self.scan_space)) as u32)
                    } else if u < scan_start_p + self.one_hit_fraction {
                        Draw::Get((fresh_base + advance(&mut fresh_cursor, self.fresh_ring)) as u32)
                    } else if u < scan_start_p + self.one_hit_fraction + self.delete_fraction
                        && recent_len > 0
                    {
                        Draw::Delete(rng.next_below(recent_len as u64) as u8)
                    } else {
                        let u = rng.next_f64();
                        zipf.prefetch(u);
                        us.push(u);
                        recent_len = (recent_len + 1).min(recent.len());
                        Draw::Zipf
                    }
                };
                draws.push(draw);
            }
            // Inversion pass: the chunk's Zipf ranks, misses overlapped.
            zipf.ranks_of(&us, &mut ranks);
            // Emit pass: ids from ranks, deletes from `recent`, in order,
            // written as one chunk.
            records.clear();
            let mut zipf_draws = 0;
            for &draw in &draws {
                if t == next_phase_at && phase + 1 < self.phases {
                    phase += 1;
                    next_phase_at += phase_len;
                    rotation += phase_stride;
                }
                let (id, op) = match draw {
                    Draw::Get(id) => (id, Op::Get),
                    Draw::Delete(pick) => (recent[usize::from(pick)], Op::Delete),
                    Draw::Zipf => {
                        let rank = ranks[zipf_draws];
                        zipf_draws += 1;
                        // Both terms are below `objects`, so one subtraction
                        // wraps the sum.
                        let mut id = (rank - 1) + rotation;
                        if id >= self.objects {
                            id -= self.objects;
                        }
                        let id = id as u32;
                        recent[t as usize % recent.len()] = id;
                        (id, Op::Get)
                    }
                };
                records.push((id, self.size_of(id), op));
                t += 1;
            }
            writer.push_records(&records)?;
        }
        writer.finish()
    }

    /// [`StreamSpec::write`] to a file path, buffered.
    ///
    /// # Errors
    ///
    /// Same as [`StreamSpec::write`].
    pub fn write_path(&self, path: &std::path::Path) -> Result<CtrInfo, CacheError> {
        let file = std::fs::File::create(path)?;
        let (w, info) = self.write(std::io::BufWriter::new(file))?;
        w.into_inner().map_err(|e| CacheError::Io(e.to_string()))?;
        Ok(info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctr::{read_trace, CtrReader};
    use cache_types::Request;
    use std::io::Cursor;

    fn generate(spec: &StreamSpec) -> (Vec<u8>, CtrInfo) {
        let (w, info) = spec.write(Cursor::new(Vec::new())).expect("write");
        (w.into_inner(), info)
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = StreamSpec::paper_mix(20_000, 1000, 42);
        let (a, _) = generate(&spec);
        let (b, _) = generate(&spec);
        assert_eq!(a, b, "same spec + seed must produce identical bytes");
        let (c, _) = generate(&StreamSpec { seed: 43, ..spec });
        assert_ne!(a, c, "a different seed must change the stream");
    }

    #[test]
    fn id_space_bounds_hold() {
        let spec = StreamSpec {
            one_hit_fraction: 0.2,
            scan_fraction: 0.1,
            scan_len: 50,
            scan_space: 500,
            fresh_ring: 300,
            phases: 3,
            ..StreamSpec::zipf(30_000, 800, 1.0, 7)
        };
        let (bytes, info) = generate(&spec);
        assert_eq!(info.records, 30_000);
        assert!(info.id_space <= spec.id_space(), "header space within spec bound");
        let (t, _) = read_trace("s", Cursor::new(&bytes)).expect("read");
        let max_id = t.iter().map(|r| r.id).max().expect("non-empty");
        assert_eq!(info.id_space, max_id + 1, "id space is exactly max id + 1");
        // All three id ranges are exercised.
        assert!(t.iter().any(|r| r.id < 800), "core ids");
        assert!(
            t.iter().any(|r| (800..1300).contains(&r.id)),
            "scan ids"
        );
        assert!(t.iter().any(|r| r.id >= 1300), "fresh ids");
    }

    #[test]
    fn one_hit_fraction_is_respected() {
        let spec = StreamSpec {
            one_hit_fraction: 0.25,
            fresh_ring: 1 << 22,
            ..StreamSpec::zipf(40_000, 2000, 1.0, 11)
        };
        let (bytes, _) = generate(&spec);
        let (t, _) = read_trace("s", Cursor::new(&bytes)).expect("read");
        let fresh = t.iter().filter(|r| r.id >= 2000).count() as f64;
        let frac = fresh / t.len() as f64;
        assert!((frac - 0.25).abs() < 0.02, "one-hit share {frac:.3}");
        // With a large ring and a short trace, every fresh id is seen once.
        let mut seen = std::collections::HashSet::new();
        for r in t.iter().filter(|r| r.id >= 2000) {
            assert!(seen.insert(r.id), "fresh id {} repeated", r.id);
        }
    }

    #[test]
    fn scan_bursts_are_sequential() {
        let spec = StreamSpec {
            scan_fraction: 0.3,
            scan_len: 100,
            scan_space: 10_000,
            ..StreamSpec::zipf(20_000, 500, 1.0, 13)
        };
        let (bytes, _) = generate(&spec);
        let (t, _) = read_trace("s", Cursor::new(&bytes)).expect("read");
        let scans = t.iter().filter(|r| r.id >= 500).count() as f64;
        let frac = scans / t.len() as f64;
        assert!((frac - 0.3).abs() < 0.1, "scan share {frac:.3}");
        // Consecutive scan-range requests inside a burst increment by one.
        let mut runs = 0u32;
        for (a, b) in t.iter().zip(t.iter().skip(1)) {
            if a.id >= 500 && b.id == a.id + 1 {
                runs += 1;
            }
        }
        assert!(runs > 1000, "expected long sequential runs, saw {runs}");
    }

    #[test]
    fn phases_rotate_the_hot_set() {
        let spec = StreamSpec {
            phases: 2,
            ..StreamSpec::zipf(40_000, 1000, 1.2, 17)
        };
        let (bytes, _) = generate(&spec);
        let (t, _) = read_trace("s", Cursor::new(&bytes)).expect("read");
        let half = t.len() / 2;
        let top = |reqs: &mut dyn Iterator<Item = Request>| -> u64 {
            let mut counts = std::collections::HashMap::new();
            for r in reqs {
                *counts.entry(r.id).or_insert(0u64) += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).map(|(id, _)| id).expect("non-empty")
        };
        let first = top(&mut t.iter().take(half));
        let second = top(&mut t.iter().skip(half));
        assert_ne!(first, second, "phase change must move the hottest object");
        assert_eq!((first + 500) % 1000, second, "rotation by objects/phases");
    }

    #[test]
    fn deletes_enable_op_lane_and_hit_recent_ids() {
        let spec = StreamSpec {
            delete_fraction: 0.1,
            ..StreamSpec::zipf(10_000, 300, 1.0, 19)
        };
        let (bytes, info) = generate(&spec);
        assert!(info.lanes.ops);
        let (t, _) = read_trace("s", Cursor::new(&bytes)).expect("read");
        let dels = t.iter().filter(|r| r.op == Op::Delete).count() as f64;
        let frac = dels / t.len() as f64;
        assert!((frac - 0.1).abs() < 0.02, "delete share {frac:.3}");
        assert!(t.iter().filter(|r| r.op == Op::Delete).all(|r| r.id < 300));
    }

    #[test]
    fn sizes_are_stable_per_id() {
        let spec = StreamSpec {
            max_size: 64,
            ..StreamSpec::zipf(5_000, 100, 1.0, 23)
        };
        let (bytes, _) = generate(&spec);
        let (t, _) = read_trace("s", Cursor::new(&bytes)).expect("read");
        let mut sizes = std::collections::HashMap::new();
        for r in t.iter() {
            assert!((1..=64).contains(&r.size));
            assert_eq!(*sizes.entry(r.id).or_insert(r.size), r.size, "id {}", r.id);
        }
        assert!(sizes.values().collect::<std::collections::HashSet<_>>().len() > 10);
    }

    #[test]
    fn fresh_ring_wraps_instead_of_growing() {
        let spec = StreamSpec {
            one_hit_fraction: 0.5,
            fresh_ring: 10,
            ..StreamSpec::zipf(2_000, 50, 1.0, 29)
        };
        let (bytes, info) = generate(&spec);
        assert!(info.id_space <= 60, "id space bounded by the ring");
        let mut reader = CtrReader::open(Cursor::new(&bytes)).expect("open");
        let mut buf = Vec::new();
        let mut total = 0;
        while reader.read_chunk(&mut buf, 128).expect("chunk") > 0 {
            total += buf.len();
        }
        assert_eq!(total, 2000);
    }

    /// FNV-1a over a generated file's bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// Pins the bytes across generator rewrites, not just run to run:
    /// `paper_mix` as the ledger draws it, and a spec whose scan, fresh and
    /// phase counters all wrap or clamp (7 phases over a length they do not
    /// divide), with deletes and sizes on.
    #[test]
    fn generated_bytes_are_pinned() {
        let wrapping = StreamSpec {
            one_hit_fraction: 0.2,
            fresh_ring: 97,
            scan_fraction: 0.1,
            scan_len: 40,
            scan_space: 333,
            phases: 7,
            delete_fraction: 0.05,
            max_size: 9,
            ..StreamSpec::zipf(100_003, 1_000, 0.8, 5)
        };
        let got = [
            fnv1a(&generate(&StreamSpec::paper_mix(200_000, 100_000, 1)).0),
            fnv1a(&generate(&wrapping).0),
        ];
        assert_eq!(got, [0xC06D_B515_84BF_157F, 0x8656_B0B5_2A66_718F]);
    }

    /// Pins the bytes at the generator's chunk edges (pinned before the
    /// generator worked in chunks): one record either side of a whole
    /// chunk, a scan burst longer than a chunk, and deletes, which read
    /// ids drawn in earlier chunks, on from the first record.
    #[test]
    fn chunk_edges_are_pinned() {
        let edge = |requests| StreamSpec {
            delete_fraction: 0.05,
            max_size: 3,
            ..StreamSpec::paper_mix(requests, 1_000, 3)
        };
        let long_scans = StreamSpec {
            scan_fraction: 0.3,
            scan_len: 5_000,
            scan_space: 7_000,
            ..StreamSpec::zipf(30_011, 2_000, 1.0, 4)
        };
        let deletes = StreamSpec {
            delete_fraction: 0.4,
            ..StreamSpec::zipf(3 * 4096 + 17, 500, 0.9, 6)
        };
        let got = [4095, 4096, 4097]
            .map(edge)
            .iter()
            .chain([&long_scans, &deletes])
            .map(|spec| fnv1a(&generate(spec).0))
            .collect::<Vec<_>>();
        assert_eq!(
            got,
            [
                0x0850_C1E4_CDF5_0F1E,
                0xC974_EBFA_ED07_33E7,
                0x4D91_CC72_31DC_3BCF,
                0x8F51_6261_EC77_3122,
                0xFF69_0675_94A1_217F,
            ]
        );
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let base = StreamSpec::zipf(10, 10, 1.0, 1);
        for spec in [
            StreamSpec { objects: 0, ..base.clone() },
            StreamSpec { phases: 0, ..base.clone() },
            StreamSpec { max_size: 0, ..base.clone() },
            StreamSpec { one_hit_fraction: 1.5, ..base.clone() },
            StreamSpec { one_hit_fraction: 0.1, fresh_ring: 0, ..base.clone() },
            StreamSpec { scan_fraction: 0.1, scan_len: 0, ..base.clone() },
            StreamSpec { objects: 1 << 33, ..base.clone() },
        ] {
            assert!(spec.write(Cursor::new(Vec::new())).is_err(), "{spec:?}");
        }
    }
}
