//! Differential checking for the out-of-core streamed replayer.
//!
//! [`cache_sim::Replay`] promises that feeding it a `.ctr` stream in
//! bounded chunks ([`Replay::feed_ctr`]) is *bit-identical* to materializing
//! the trace and feeding it whole — same counters, same f64 bits, same
//! per-window miss-ratio series. This module enforces the promise on any
//! trace small enough to run both ways: encode a generated trace to the
//! binary format, replay it streamed at several chunk sizes, replay the
//! decoded trace in one piece, and compare everything — with ddmin
//! shrinking of the request sequence when they disagree (each shrink
//! candidate is re-encoded, so the reproduction is always a self-contained
//! trace).

use crate::fuzz::{generate_trace, shrink_with, FuzzConfig};
use cache_sim::{Replay, Replayed};
use cache_trace::ctr::{read_trace, write_trace, CtrReader};
use cache_trace::Trace;
use cache_types::{CacheError, Request};
use std::io::Cursor;

/// A minimal reproduction of a streamed-vs-in-memory disagreement.
#[derive(Debug, Clone)]
pub struct StreamDivergence {
    /// Registry algorithm name.
    pub algorithm: String,
    /// Cache capacity both replays used.
    pub capacity: u64,
    /// Series window length (reads per window).
    pub window: u64,
    /// Streaming chunk size (records) that diverged.
    pub chunk: usize,
    /// The generator seed that produced the original failing trace.
    pub seed: u64,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// The shrunk request sequence; replaying it through [`stream_diff`]
    /// reproduces the divergence.
    pub trace: Vec<Request>,
}

impl std::fmt::Display for StreamDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} streamed replay @ capacity {} window {} chunk {} diverged (seed {:#x}): {}",
            self.algorithm, self.capacity, self.window, self.chunk, self.seed, self.detail
        )?;
        writeln!(f, "shrunk to {} requests:", self.trace.len())?;
        for (i, r) in self.trace.iter().enumerate() {
            writeln!(
                f,
                "  [{i}] {:?} id={} size={} t={}",
                r.op, r.id, r.size, r.time
            )?;
        }
        Ok(())
    }
}

/// The decoded trace through the registry's engine for `name`, in one piece.
fn in_memory(
    name: &str,
    decoded: &Trace,
    capacity: u64,
    window: u64,
    ignore_size: bool,
) -> Result<Replayed, CacheError> {
    let replay = Replay::on_trace(name, decoded, capacity)?;
    Ok(replay.ignore_size(ignore_size).window(window).run(decoded))
}

/// The `.ctr` bytes through the same engine, `chunk` records at a time.
fn streamed(
    name: &str,
    bytes: &[u8],
    capacity: u64,
    window: u64,
    chunk: usize,
    ignore_size: bool,
) -> Result<Replayed, CacheError> {
    let mut reader = CtrReader::open(Cursor::new(bytes))?;
    let mut replay = Replay::on_dense_ids(name, reader.info().id_space, capacity)?
        .ignore_size(ignore_size)
        .window(window);
    replay.feed_ctr(&mut reader, chunk)?;
    Ok(replay.finish("stream-diff"))
}

/// Encodes `requests` as a `.ctr` stream, replays it both ways, and
/// compares final counters, every f64 bit for bit, and the per-window
/// series point by point. Returns a description of the first disagreement,
/// or `None` when the two replays are identical.
///
/// The in-memory side replays the *decoded* trace (dense ids), which is
/// exactly the request sequence the streamed side sees — the id-table
/// bijection is `cache-trace`'s own roundtrip contract, tested there.
pub fn stream_diff(
    name: &str,
    requests: &[Request],
    capacity: u64,
    window: u64,
    chunk: usize,
    ignore_size: bool,
) -> Option<String> {
    let trace = Trace::new("stream-diff", requests.to_vec());
    let bytes = match write_trace(&trace, Cursor::new(Vec::new())) {
        Ok((cursor, _)) => cursor.into_inner(),
        Err(e) => return Some(format!("encoding failed: {e}")),
    };
    let (decoded, _info) = match read_trace("stream-diff", Cursor::new(&bytes)) {
        Ok(t) => t,
        Err(e) => return Some(format!("decoding failed: {e}")),
    };
    let (mem_result, mem_series) = match in_memory(name, &decoded, capacity, window, ignore_size) {
        Ok(pair) => pair,
        Err(e) => return Some(format!("in-memory replay failed: {e}")),
    };
    let (s, streamed_series) = match streamed(name, &bytes, capacity, window, chunk, ignore_size) {
        Ok(pair) => pair,
        Err(e) => return Some(format!("streamed replay failed: {e}")),
    };
    if s.requests != mem_result.requests
        || s.misses != mem_result.misses
        || s.evictions != mem_result.evictions
    {
        return Some(format!(
            "req/miss/evict {}/{}/{} != in-memory {}/{}/{}",
            s.requests,
            s.misses,
            s.evictions,
            mem_result.requests,
            mem_result.misses,
            mem_result.evictions
        ));
    }
    for (label, a, b) in [
        ("miss ratio", s.miss_ratio, mem_result.miss_ratio),
        (
            "byte miss ratio",
            s.byte_miss_ratio,
            mem_result.byte_miss_ratio,
        ),
        (
            "one-hit eviction fraction",
            s.one_hit_eviction_fraction,
            mem_result.one_hit_eviction_fraction,
        ),
    ] {
        if a.to_bits() != b.to_bits() {
            return Some(format!("{label} {a} != in-memory {b}"));
        }
    }
    // Invariant: both replays set a window, so both keep a series.
    let (streamed_series, mem_series) = (
        streamed_series.expect("windowed"),
        mem_series.expect("windowed"),
    );
    if streamed_series.points().len() != mem_series.points().len() {
        return Some(format!(
            "{} series windows != in-memory {}",
            streamed_series.points().len(),
            mem_series.points().len()
        ));
    }
    for (sp, mp) in streamed_series.points().iter().zip(mem_series.points()) {
        if sp.requests != mp.requests || sp.misses != mp.misses || sp.start_index != mp.start_index
        {
            return Some(format!(
                "window {}: {}req/{}miss@{} != in-memory {}req/{}miss@{}",
                sp.window,
                sp.requests,
                sp.misses,
                sp.start_index,
                mp.requests,
                mp.misses,
                mp.start_index
            ));
        }
    }
    None
}

/// Fuzzes one `(algorithm, window, chunk)` triple: generates the seeded
/// trace for `cfg`, runs [`stream_diff`], and ddmin-shrinks the trace on
/// divergence. Returns the number of requests replayed on success.
///
/// # Errors
///
/// Returns the shrunk [`StreamDivergence`] when the streamed replay
/// disagrees with the in-memory replay anywhere.
pub fn fuzz_stream(
    name: &str,
    capacity: u64,
    window: u64,
    chunk: usize,
    ignore_size: bool,
    cfg: &FuzzConfig,
) -> Result<usize, Box<StreamDivergence>> {
    let requests = generate_trace(cfg);
    match stream_diff(name, &requests, capacity, window, chunk, ignore_size) {
        None => Ok(requests.len()),
        Some(_) => {
            let shrunk = shrink_with(
                &mut |cand| {
                    stream_diff(name, cand, capacity, window, chunk, ignore_size).is_some()
                },
                requests,
            );
            // Invariant: the shrinker only returns candidates that still fail.
            let detail = stream_diff(name, &shrunk, capacity, window, chunk, ignore_size)
                .expect("shrunk trace still fails by construction");
            Err(Box::new(StreamDivergence {
                algorithm: name.to_string(),
                capacity,
                window,
                chunk,
                seed: cfg.seed,
                detail,
                trace: shrunk,
            }))
        }
    }
}

/// The three workload shapes the streamed differential sweeps: pure-Get
/// unit-size (the paper's default mode), mixed ops at unit size (exercises
/// the read-aligned window chunker), and mixed ops with sizes (exercises
/// byte accounting). Each is `(max_size, write_percent, ignore_size)`.
pub const STREAM_SHAPES: &[(u32, u64, bool)] = &[(1, 0, true), (1, 12, true), (9, 12, false)];

/// The algorithms the streamed differential covers: every registry name
/// but Belady, which needs the whole trace and cannot stream, plus
/// parameterized S3-FIFO.
pub const STREAM_ALGORITHMS: &[&str] = &[
    "FIFO",
    "LRU",
    "CLOCK",
    "CLOCK-2bit",
    "SIEVE",
    "SLRU",
    "2Q",
    "S3-FIFO",
    "S3-FIFO(0.25)",
    "ARC",
    "LIRS",
    "TinyLFU",
    "LRU-2",
    "B-LRU",
    "LeCaR",
    "CACHEUS",
    "LHD",
    "FIFO-Merge",
    "S3-FIFO-D",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every streamed algorithm × workload shape × awkward chunk size
    /// agrees with the in-memory replay bit for bit.
    #[test]
    fn streamed_replay_agrees_with_in_memory() {
        for name in STREAM_ALGORITHMS {
            for &(max_size, write_percent, ignore_size) in STREAM_SHAPES {
                for chunk in [13usize, 997] {
                    let cfg = FuzzConfig {
                        seed: 0x57AE_A001 ^ u64::from(max_size) << 8 ^ write_percent,
                        requests: 1_100,
                        max_size,
                        write_percent,
                        ..FuzzConfig::default()
                    };
                    if let Err(d) = fuzz_stream(name, 48, 100, chunk, ignore_size, &cfg) {
                        panic!("divergence:\n{d}");
                    }
                }
            }
        }
    }

    /// Window length 1 and chunk length 1 — the degenerate extremes.
    #[test]
    fn degenerate_window_and_chunk() {
        let cfg = FuzzConfig {
            requests: 300,
            write_percent: 10,
            ..FuzzConfig::default()
        };
        if let Err(d) = fuzz_stream("S3-FIFO", 16, 1, 1, true, &cfg) {
            panic!("divergence:\n{d}");
        }
    }

    /// A planted mutant must be caught *and* shrink to a small trace: diff
    /// S3-FIFO's streamed replay against LRU's in-memory replay.
    #[test]
    fn planted_mutant_diverges_and_shrinks() {
        let cfg = FuzzConfig {
            requests: 1_000,
            write_percent: 0,
            ..FuzzConfig::default()
        };
        let requests = generate_trace(&cfg);
        let mut fails = |cand: &[Request]| -> bool {
            let trace = Trace::new("mutant", cand.to_vec());
            let bytes = match write_trace(&trace, Cursor::new(Vec::new())) {
                Ok((c, _)) => c.into_inner(),
                Err(_) => return false,
            };
            let Ok((s3, _)) = streamed("S3-FIFO", &bytes, 8, 50, 100, true) else {
                return false;
            };
            let (decoded, _) = match read_trace("m", Cursor::new(&bytes)) {
                Ok(t) => t,
                Err(_) => return false,
            };
            let (lru, _) = in_memory("LRU", &decoded, 8, 50, true).expect("LRU is a known policy");
            s3.misses != lru.misses
        };
        assert!(fails(&requests), "S3-FIFO and LRU must differ somewhere");
        let shrunk = shrink_with(&mut fails, requests);
        assert!(fails(&shrunk), "shrunk trace must still reproduce");
        assert!(
            shrunk.len() <= 32,
            "expected a small reproduction, got {} requests",
            shrunk.len()
        );
    }

    #[test]
    fn stream_diff_reports_unstreamable_policy() {
        let reqs: Vec<Request> = (0..10u64).map(|t| Request::get(t % 3, t)).collect();
        let detail = stream_diff("Belady", &reqs, 4, 5, 100, true);
        assert!(detail.is_some(), "Belady cannot stream and must say so");
    }
}
