//! The adapter: every call the benchmark makes into the program is in this
//! file, and nowhere else. README.md lists this surface as frozen; a change
//! that renames or removes one of these entry points has to keep the
//! adapter compiling, which is what tells it the benchmark depends on it.
//!
//! Layers are measured from outside, by timing these functions. None of
//! them times anything itself.

use bytes::Bytes;
use cache_concurrent::lru::MutexLru;
use cache_concurrent::s3fifo::ConcurrentS3Fifo;
pub use cache_concurrent::ConcurrentCache;
use cache_ds::MpmcRing;
use cache_faults::FaultPlan;
use cache_server::proto::{encode_value, parse_frame, Command, Limits, ParseOutcome};
use cache_server::store::{decode_payload, encode_payload, hash_key, StoreConfig, TtlStore};
use cache_server::{Admission, LoadShedder, Server, ServerConfig, ServerHandle, ShedConfig};
use cache_sim::{
    replay_ctr_path, simulate_mrc, simulate_named, CacheSizeSpec, MrcConfig, SimConfig,
};
use cache_trace::ctr::{read_trace, CtrReader};
use cache_trace::stream_gen::StreamSpec;
use cache_trace::Trace;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

// ---------------------------------------------------------------- server

/// A running `cache_server::Server`: one shard, the default 65 536-entry
/// store, no flash tier and no fault plan. The per-request deadline is
/// raised from 50 ms to 5 s: on a shared host the hypervisor now and then
/// takes the CPU away for longer than 50 ms, and a request caught by that
/// must show as latency, not as a `SERVER_ERROR timeout` that fails the run
/// and feeds the shedder.
pub struct ServerUnderTest(ServerHandle);

/// What the server counted, read once the load has stopped.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounts {
    pub requests: u64,
    pub conns_accepted: u64,
    pub conns_rejected: u64,
    pub shed: u64,
    pub gets: u64,
    pub hits: u64,
    pub sets: u64,
    pub expired: u64,
    pub collisions: u64,
}

impl ServerUnderTest {
    pub fn start() -> std::io::Result<Self> {
        Server::start(ServerConfig {
            shards: 1,
            deadline: std::time::Duration::from_secs(5),
            ..ServerConfig::default()
        })
        .map(ServerUnderTest)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    pub fn counts(&self) -> ServerCounts {
        let c = self.0.counters();
        let s = &self.0.ttl_store().counters;
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        ServerCounts {
            requests: load(&c.requests),
            conns_accepted: load(&c.conns_accepted),
            conns_rejected: load(&c.conns_rejected),
            shed: load(&c.shed_replies),
            gets: load(&s.gets),
            hits: load(&s.hits),
            sets: load(&s.sets),
            expired: load(&s.expired),
            collisions: load(&s.collisions),
        }
    }

    /// Graceful shutdown; true when every in-flight request drained.
    pub fn shutdown(self) -> bool {
        self.0.shutdown().drained
    }
}

// ----------------------------------------------------------------- proto

/// What `parse_frame` made of the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parsed {
    Get,
    Set,
    Delete,
    Other,
}

/// Parses one frame; `None` when the buffer holds no complete valid frame.
pub fn proto_parse(buf: &[u8]) -> Option<(Parsed, usize)> {
    match parse_frame(buf, &Limits::default()) {
        ParseOutcome::Frame { cmd, consumed } => {
            let kind = match cmd {
                Command::Get { .. } => Parsed::Get,
                Command::Set { .. } => Parsed::Set,
                Command::Delete { .. } => Parsed::Delete,
                _ => Parsed::Other,
            };
            Some((kind, consumed))
        }
        _ => None,
    }
}

pub fn proto_encode_hit(out: &mut Vec<u8>, key: &str, data: &[u8]) {
    encode_value(out, key, 0, data);
}

// ----------------------------------------------------------------- store

pub struct Store(TtlStore);

impl Store {
    pub fn new() -> Self {
        Store(TtlStore::new(StoreConfig::default(), FaultPlan::none()))
    }

    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.0.get(key).ok().flatten().map(|v| v.data)
    }

    pub fn set(&self, key: &str, data: &[u8]) -> bool {
        self.0.set(key, 0, 0, data).is_ok()
    }

    pub fn delete(&self, key: &str) -> bool {
        self.0.delete(key)
    }
}

pub fn store_hash_key(key: &str) -> u64 {
    hash_key(key)
}

pub fn store_encode_payload(key: &str, data: &[u8]) -> Vec<u8> {
    encode_payload(0, 0, key, data)
}

/// Length of the data a payload decodes to; `None` when it does not decode.
pub fn store_decode_payload(buf: &[u8]) -> Option<usize> {
    decode_payload(buf).map(|(_, _, _, data)| data.len())
}

// ------------------------------------------------------------------ shed

pub struct Shedder(LoadShedder);

impl Shedder {
    pub fn new() -> Self {
        Shedder(LoadShedder::new(ShedConfig::default()))
    }

    /// One request's worth of shedder work: the admission decision and the
    /// outcome report of a request that met its deadline. True when served.
    pub fn admit_and_record(&self, is_write: bool) -> bool {
        let admitted = self.0.admit(is_write) != Admission::Shed;
        if admitted {
            self.0.record_outcome(is_write, true);
        }
        admitted
    }
}

// ------------------------------------------------------------ concurrent

pub type S3Fifo = ConcurrentS3Fifo;

/// `ConcurrentS3Fifo` with its default (batched) hit path.
pub fn s3fifo(capacity: usize) -> Arc<S3Fifo> {
    Arc::new(ConcurrentS3Fifo::new(capacity))
}

/// The paper's Fig. 8 contrast: every hit takes the list lock.
pub fn lru_strict(capacity: usize) -> Arc<dyn ConcurrentCache> {
    Arc::new(MutexLru::strict(capacity))
}

#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounts {
    pub inserts: u64,
    pub evictions: u64,
}

/// The cache's own counters (`ShardStatsSnapshot`, all shards), after
/// flushing the batched hit counts.
pub fn s3fifo_counts(cache: &S3Fifo) -> CacheCounts {
    cache.drain_pending();
    let s = cache.aggregate_stats();
    CacheCounts {
        inserts: s.inserts,
        evictions: s.evictions,
    }
}

/// Violations found by the quiescent full-table audit.
pub fn audit_violations(cache: &dyn ConcurrentCache) -> usize {
    cache.audit_quiescent().violations()
}

pub fn payload(bytes: Vec<u8>) -> Bytes {
    Bytes::from(bytes)
}

// -------------------------------------------------------------------- ds

/// `pairs` push-then-pop pairs on a `MpmcRing` that stays nearly empty.
pub fn ring_push_pop(pairs: u64) -> u64 {
    let ring = MpmcRing::<u64>::new(1024);
    let mut sum = 0u64;
    for i in 0..pairs {
        let _ = ring.push(i);
        sum = sum.wrapping_add(ring.pop().unwrap_or(0));
    }
    sum
}

// ----------------------------------------------------------------- trace

#[derive(Debug, Clone, Copy)]
pub struct CtrMeta {
    pub records: u64,
    pub id_space: u64,
}

/// Streams a `StreamSpec::paper_mix` trace to a `.ctr` file.
pub fn trace_write(path: &Path, requests: u64, objects: u64, seed: u64) -> Result<CtrMeta, String> {
    StreamSpec::paper_mix(requests, objects, seed)
        .write_path(path)
        .map(|info| CtrMeta {
            records: info.records,
            id_space: info.id_space,
        })
        .map_err(|e| e.to_string())
}

/// `CtrReader::read_chunk` alone, start to end of file; records decoded.
pub fn trace_decode(path: &Path) -> Result<u64, String> {
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let mut reader = CtrReader::open(file).map_err(|e| e.to_string())?;
    let mut chunk = Vec::new();
    let mut records = 0u64;
    loop {
        let n = reader
            .read_chunk(&mut chunk, 1 << 16)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Ok(records);
        }
        records += n as u64;
    }
}

/// A `.ctr` file materialised by `read_trace`.
pub struct LoadedTrace(Trace);

pub fn trace_load(path: &Path) -> Result<LoadedTrace, String> {
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    read_trace("ledger", file)
        .map(|(trace, _)| LoadedTrace(trace))
        .map_err(|e| e.to_string())
}

/// The first `Trace::dense()` interns the ids; later calls are cached.
pub fn trace_intern(trace: &LoadedTrace) -> usize {
    trace.0.dense().slots.len()
}

// ------------------------------------------------------------------- sim

/// The counters of one replay, for bit-for-bit comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayCounts {
    pub requests: u64,
    pub misses: u64,
    pub evictions: u64,
    pub miss_ratio_bits: u64,
}

impl ReplayCounts {
    pub fn miss_ratio(&self) -> f64 {
        f64::from_bits(self.miss_ratio_bits)
    }
}

/// Disk to `SimResult`: `replay_ctr_path` at an absolute object capacity.
/// Also returns the peak bytes the replay held in trace buffers.
pub fn sim_stream_replay(
    policy: &str,
    path: &Path,
    capacity: u64,
) -> Result<(ReplayCounts, u64), String> {
    let replay = replay_ctr_path(
        policy,
        path,
        "ledger",
        capacity,
        true,
        u64::MAX,
        cache_sim::DEFAULT_CHUNK_RECORDS,
    )
    .map_err(|e| e.to_string())?;
    let r = &replay.result;
    Ok((
        ReplayCounts {
            requests: r.requests,
            misses: r.misses,
            evictions: r.evictions,
            miss_ratio_bits: r.miss_ratio.to_bits(),
        },
        replay.peak_buffer_bytes,
    ))
}

/// In-memory `simulate_named` at the same absolute capacity.
pub fn sim_replay(
    policy: &str,
    trace: &LoadedTrace,
    capacity: u64,
) -> Result<ReplayCounts, String> {
    let cfg = SimConfig {
        size: CacheSizeSpec::Bytes(capacity),
        ignore_size: true,
        min_objects: 0,
        floor_objects: 0,
    };
    let r = simulate_named(policy, &trace.0, &cfg)
        .map_err(|e| e.to_string())?
        .ok_or("simulate_named skipped the run")?;
    Ok(ReplayCounts {
        requests: r.requests,
        misses: r.misses,
        evictions: r.evictions,
        miss_ratio_bits: r.miss_ratio.to_bits(),
    })
}

/// One point of a curve.
#[derive(Debug, Clone, Copy)]
pub struct CurvePoint {
    pub capacity: u64,
    pub requests: u64,
    pub misses: u64,
}

/// `simulate_mrc` over `grid`; returns the engine the run was routed to.
pub fn sim_mrc(
    policy: &str,
    trace: &LoadedTrace,
    grid: &[u64],
) -> Result<(&'static str, Vec<CurvePoint>), String> {
    let r =
        simulate_mrc(policy, &trace.0, grid, &MrcConfig::default()).map_err(|e| e.to_string())?;
    let points = r
        .points
        .iter()
        .map(|p| CurvePoint {
            capacity: p.capacity,
            requests: p.requests,
            misses: p.misses,
        })
        .collect();
    Ok((r.engine.as_str(), points))
}
