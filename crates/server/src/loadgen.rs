//! Closed-loop load generator: trace-driven clients over real TCP.
//!
//! Each client replays a disjoint slice of a `cache-trace` corpus (Zipf by
//! default; burst-train mixes pipeline a burst then go idle), one request
//! outstanding at a time, and records per-request latency. When op
//! recording is on, every request becomes a [`cache_concurrent::oplog::OpRecord`]
//! with globally-unique insert values and SeqCst interval stamps, so the
//! collected history feeds `cache-check`'s linearizability-lite checker —
//! including histories cut short by a chaos kill.

use cache_concurrent::oplog::{OpKind, OpRecord};
use cache_ds::rng::mix64;
use cache_ds::{Histogram, SplitMix64};
use cache_trace::gen::WorkloadSpec;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Burst-train shaping: send a pipelined burst, then idle.
#[derive(Debug, Clone, Copy)]
pub struct BurstSpec {
    /// Requests pipelined per burst.
    pub burst_len: usize,
    /// Idle gap between bursts.
    pub idle: Duration,
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests issued per client.
    pub requests_per_client: usize,
    /// Zipf keyspace size.
    pub keys: u64,
    /// Zipf skew (paper baseline: 1.0).
    pub alpha: f64,
    /// Fraction of requests that are sets.
    pub write_fraction: f64,
    /// Fraction of requests that are deletes (carved from the write share).
    pub delete_fraction: f64,
    /// Value payload size in bytes (min 16 when recording ops).
    pub value_size: usize,
    /// Master seed: trace + per-client op mix.
    pub seed: u64,
    /// Burst-train shaping; `None` is smooth closed-loop.
    pub burst: Option<BurstSpec>,
    /// Record an oplog history for the linearizability checker.
    pub record_ops: bool,
    /// Socket read timeout (a stuck server fails the run, not hangs it).
    pub read_timeout: Duration,
}

impl LoadgenConfig {
    /// A smooth Zipf mix against `addr`.
    pub fn zipf(addr: SocketAddr, clients: usize, requests_per_client: usize, seed: u64) -> Self {
        LoadgenConfig {
            addr,
            clients,
            requests_per_client,
            keys: 512,
            alpha: 1.0,
            write_fraction: 0.3,
            delete_fraction: 0.05,
            value_size: 32,
            seed,
            burst: None,
            record_ops: false,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// Reply classification counts.
#[derive(Debug, Default, Clone)]
pub struct ErrorCounts {
    /// `SERVER_ERROR timeout` replies.
    pub timeouts: u64,
    /// `SERVER_ERROR shed-*` replies.
    pub shed: u64,
    /// `SERVER_ERROR busy` replies (accept backpressure).
    pub busy: u64,
    /// `SERVER_ERROR shutting-down` replies.
    pub shutting_down: u64,
    /// Typed degradation replies (`device-failure`/`corruption`/`degraded`).
    pub degradation: u64,
    /// `CLIENT_ERROR`/`ERROR` replies (should be zero for this generator).
    pub client_errors: u64,
    /// Connection-level failures (reset, refused, read timeout).
    pub io_errors: u64,
}

/// Aggregated run result.
#[derive(Debug)]
pub struct LoadgenReport {
    /// Per-request latency in microseconds (successful round trips).
    pub latencies_us: Histogram,
    /// Requests that completed a round trip.
    pub ops: u64,
    /// get hits / misses observed.
    pub hits: u64,
    /// Clean get misses.
    pub misses: u64,
    /// STORED replies.
    pub stored: u64,
    /// Error classification.
    pub errors: ErrorCounts,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Oplog history (empty unless `record_ops`), sorted by start stamp.
    pub history: Vec<OpRecord>,
}

impl LoadgenReport {
    /// Completed round trips per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// What one client intends to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlannedOp {
    Get(u64),
    Set(u64),
    Delete(u64),
}

/// One client's private state.
struct Client {
    index: u32,
    stream: Option<BufStream>,
    cfg: LoadgenConfig,
    clock: Arc<AtomicU64>,
    seq: u64,
    report: LoadgenReport,
}

/// A blocking stream with a line-oriented read buffer.
struct BufStream {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl BufStream {
    fn connect(addr: SocketAddr, read_timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        let _ = stream.set_nodelay(true);
        Ok(BufStream {
            stream,
            buf: Vec::new(),
        })
    }

    /// Reads one `\r\n`-terminated line (returned without the terminator).
    fn read_line(&mut self) -> std::io::Result<Vec<u8>> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(line);
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Reads exactly `n` bytes (the data block of a VALUE reply).
    fn read_exact_buffered(&mut self, n: usize) -> std::io::Result<Vec<u8>> {
        while self.buf.len() < n {
            let mut chunk = [0u8; 4096];
            let got = self.stream.read(&mut chunk)?;
            if got == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..got]);
        }
        Ok(self.buf.drain(..n).collect())
    }
}

/// One reply, classified.
#[derive(Debug)]
enum Reply {
    /// get: the single key's value bytes, or None on miss.
    GetResult(Option<Vec<u8>>),
    Stored,
    Deleted,
    NotFound,
    Timeout,
    Shed,
    Busy,
    ShuttingDown,
    Degradation,
    ClientError,
}

/// Encodes the unique oplog value into an ASCII payload of `size` bytes.
fn encode_value_payload(unique: u64, size: usize) -> Vec<u8> {
    let mut v = format!("{unique:016x}").into_bytes();
    v.resize(size.max(16), b'.');
    v
}

/// Decodes a payload written by [`encode_value_payload`]; `u64::MAX` marks
/// an undecodable payload so the checker flags it unconditionally.
fn decode_value_payload(data: &[u8]) -> u64 {
    if data.len() < 16 {
        return u64::MAX;
    }
    std::str::from_utf8(&data[..16])
        .ok()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .unwrap_or(u64::MAX)
}

impl Client {
    /// Writes the request line(s) for `op`. Returns the unique value for
    /// sets.
    fn send(&mut self, op: PlannedOp, out: &mut Vec<u8>) -> u64 {
        out.clear();
        match op {
            PlannedOp::Get(id) => {
                out.extend_from_slice(format!("get k{id}\r\n").as_bytes());
                0
            }
            PlannedOp::Set(id) => {
                self.seq += 1;
                let unique = (u64::from(self.index) << 40) | self.seq;
                let payload = encode_value_payload(unique, self.cfg.value_size);
                out.extend_from_slice(
                    format!("set k{id} 0 0 {}\r\n", payload.len()).as_bytes(),
                );
                out.extend_from_slice(&payload);
                out.extend_from_slice(b"\r\n");
                unique
            }
            PlannedOp::Delete(id) => {
                out.extend_from_slice(format!("delete k{id}\r\n").as_bytes());
                0
            }
        }
    }

    /// Reads and classifies the reply to `op`.
    fn read_reply(&mut self, op: PlannedOp) -> std::io::Result<Reply> {
        // Invariant: callers only invoke read_reply with a live stream.
        #[allow(clippy::expect_used)]
        let s = self.stream.as_mut().expect("read_reply without a stream");
        let line = s.read_line()?;
        if let Some(rest) = line.strip_prefix(b"SERVER_ERROR ".as_slice()) {
            return Ok(match rest {
                r if r.starts_with(b"timeout") => Reply::Timeout,
                r if r.starts_with(b"shed-") => Reply::Shed,
                r if r.starts_with(b"busy") => Reply::Busy,
                r if r.starts_with(b"shutting-down") => Reply::ShuttingDown,
                r if r.starts_with(b"device-failure")
                    || r.starts_with(b"corruption")
                    || r.starts_with(b"degraded") =>
                {
                    Reply::Degradation
                }
                _ => Reply::ClientError,
            });
        }
        if line.starts_with(b"CLIENT_ERROR") || line == b"ERROR" {
            return Ok(Reply::ClientError);
        }
        match op {
            PlannedOp::Get(_) => {
                if line == b"END" {
                    return Ok(Reply::GetResult(None));
                }
                // "VALUE <key> <flags> <len>"
                let text = String::from_utf8_lossy(&line);
                let len: usize = text
                    .split_whitespace()
                    .nth(3)
                    .and_then(|t| t.parse().ok())
                    .ok_or(std::io::ErrorKind::InvalidData)?;
                let data = s.read_exact_buffered(len + 2)?; // data + CRLF
                let end = s.read_line()?;
                if end != b"END" {
                    return Err(std::io::ErrorKind::InvalidData.into());
                }
                Ok(Reply::GetResult(Some(data[..len].to_vec())))
            }
            PlannedOp::Set(_) => match line.as_slice() {
                b"STORED" => Ok(Reply::Stored),
                _ => Ok(Reply::ClientError),
            },
            PlannedOp::Delete(_) => match line.as_slice() {
                b"DELETED" => Ok(Reply::Deleted),
                b"NOT_FOUND" => Ok(Reply::NotFound),
                _ => Ok(Reply::ClientError),
            },
        }
    }

    /// Accounts one completed round trip.
    fn account(&mut self, op: PlannedOp, reply: &Reply, latency_us: u64, start: u64, end: u64) {
        self.report.ops += 1;
        self.report.latencies_us.record(latency_us);
        let key = match op {
            PlannedOp::Get(id) | PlannedOp::Set(id) | PlannedOp::Delete(id) => id,
        };
        let mut kind: Option<OpKind> = None;
        match reply {
            Reply::GetResult(None) => {
                self.report.misses += 1;
                kind = Some(OpKind::Get(None));
            }
            Reply::GetResult(Some(data)) => {
                self.report.hits += 1;
                kind = Some(OpKind::Get(Some(decode_value_payload(data))));
            }
            Reply::Stored => {
                self.report.stored += 1;
                // kind filled by the caller (needs the unique value).
            }
            Reply::Deleted => kind = Some(OpKind::Remove(true)),
            Reply::NotFound => kind = Some(OpKind::Remove(false)),
            Reply::Timeout => self.report.errors.timeouts += 1,
            Reply::Shed => self.report.errors.shed += 1,
            Reply::Busy => self.report.errors.busy += 1,
            Reply::ShuttingDown => self.report.errors.shutting_down += 1,
            Reply::Degradation => self.report.errors.degradation += 1,
            Reply::ClientError => self.report.errors.client_errors += 1,
        }
        if self.cfg.record_ops {
            if let Some(kind) = kind {
                self.report.history.push(OpRecord {
                    thread: self.index,
                    key,
                    kind,
                    start,
                    end,
                });
            }
        }
    }

    /// Runs this client's slice of the trace to completion (or until the
    /// server becomes unreachable).
    fn run(&mut self, plan: &[PlannedOp]) {
        let t0 = Instant::now();
        let burst_len = self.cfg.burst.map_or(1, |b| b.burst_len.max(1));
        let mut wire = Vec::new();
        let mut i = 0;
        while i < plan.len() {
            if self.stream.is_none() {
                match BufStream::connect(self.cfg.addr, self.cfg.read_timeout) {
                    Ok(s) => self.stream = Some(s),
                    Err(_) => {
                        self.report.errors.io_errors += 1;
                        // Server gone (chaos kill or refused): stop; the
                        // harness inspects what completed.
                        break;
                    }
                }
            }
            let burst = &plan[i..(i + burst_len).min(plan.len())];
            // Pipeline the burst: write everything, then read every reply.
            let mut batch = Vec::new();
            let mut uniques = Vec::with_capacity(burst.len());
            let mut starts = Vec::with_capacity(burst.len());
            for &op in burst {
                // ORDERING: SeqCst interval stamps — the linearizability
                // checker requires one total order consistent with real
                // time across clients (same rationale as cache-concurrent's
                // oplog clock).
                starts.push(self.clock.fetch_add(1, Ordering::SeqCst) + 1);
                uniques.push(self.send(op, &mut wire));
                batch.extend_from_slice(&wire);
            }
            let sent_at = Instant::now();
            let write_ok = {
                // Invariant: stream established at the top of the loop.
                #[allow(clippy::expect_used)]
                let s = self.stream.as_mut().expect("stream vanished mid-burst");
                s.stream.write_all(&batch).is_ok()
            };
            if !write_ok {
                self.report.errors.io_errors += 1;
                self.stream = None;
                i += burst.len();
                continue;
            }
            for (j, &op) in burst.iter().enumerate() {
                match self.read_reply(op) {
                    Ok(reply) => {
                        // ORDERING: SeqCst, see the start stamp above.
                        let end = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
                        let latency = sent_at.elapsed().as_micros() as u64;
                        if let (Reply::Stored, true) = (&reply, self.cfg.record_ops) {
                            self.report.history.push(OpRecord {
                                thread: self.index,
                                key: match op {
                                    PlannedOp::Set(id) => id,
                                    _ => 0,
                                },
                                kind: OpKind::Insert(uniques[j]),
                                start: starts[j],
                                end,
                            });
                        }
                        self.account(op, &reply, latency, starts[j], end);
                    }
                    Err(_) => {
                        self.report.errors.io_errors += 1;
                        self.stream = None;
                        break;
                    }
                }
            }
            i += burst.len();
            if let Some(b) = self.cfg.burst {
                if i < plan.len() {
                    std::thread::sleep(b.idle);
                }
            }
        }
        self.report.elapsed = t0.elapsed();
    }
}

/// Builds the per-client op plans from one shared Zipf trace.
fn build_plans(cfg: &LoadgenConfig) -> Vec<Vec<PlannedOp>> {
    let total = cfg.clients * cfg.requests_per_client;
    let trace = WorkloadSpec::zipf("loadgen", total.max(1), cfg.keys.max(1), cfg.alpha, cfg.seed)
        .generate();
    let mut plans: Vec<Vec<PlannedOp>> = vec![Vec::with_capacity(cfg.requests_per_client); cfg.clients];
    let mut rng = SplitMix64::new(mix64(cfg.seed ^ 0x010A_D6E4));
    for (i, req) in trace.iter().take(total).enumerate() {
        let draw = rng.next_f64();
        let op = if draw < cfg.delete_fraction {
            PlannedOp::Delete(req.id)
        } else if draw < cfg.delete_fraction + cfg.write_fraction {
            PlannedOp::Set(req.id)
        } else {
            PlannedOp::Get(req.id)
        };
        plans[i % cfg.clients].push(op);
    }
    plans
}

/// Runs the configured load and merges every client's report.
pub fn run(cfg: &LoadgenConfig) -> LoadgenReport {
    let plans = build_plans(cfg);
    let clock = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for (index, plan) in plans.into_iter().enumerate() {
        let cfg = cfg.clone();
        let clock = Arc::clone(&clock);
        handles.push(std::thread::spawn(move || {
            let mut client = Client {
                index: index as u32,
                stream: None,
                cfg,
                clock,
                seq: 0,
                report: LoadgenReport {
                    latencies_us: Histogram::new(),
                    ops: 0,
                    hits: 0,
                    misses: 0,
                    stored: 0,
                    errors: ErrorCounts::default(),
                    elapsed: Duration::ZERO,
                    history: Vec::new(),
                },
            };
            client.run(&plan);
            client.report
        }));
    }
    let mut merged = LoadgenReport {
        latencies_us: Histogram::new(),
        ops: 0,
        hits: 0,
        misses: 0,
        stored: 0,
        errors: ErrorCounts::default(),
        elapsed: Duration::ZERO,
        history: Vec::new(),
    };
    for h in handles {
        // A panicking client is itself a test failure; surface it.
        #[allow(clippy::expect_used)]
        let r = h.join().expect("loadgen client panicked");
        merged.latencies_us.merge(&r.latencies_us);
        merged.ops += r.ops;
        merged.hits += r.hits;
        merged.misses += r.misses;
        merged.stored += r.stored;
        merged.errors.timeouts += r.errors.timeouts;
        merged.errors.shed += r.errors.shed;
        merged.errors.busy += r.errors.busy;
        merged.errors.shutting_down += r.errors.shutting_down;
        merged.errors.degradation += r.errors.degradation;
        merged.errors.client_errors += r.errors.client_errors;
        merged.errors.io_errors += r.errors.io_errors;
        merged.history.extend(r.history);
    }
    merged.elapsed = t0.elapsed();
    merged.history.sort_by_key(|r| r.start);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_payload_roundtrip() {
        for unique in [0u64, 1, 0xDEAD_BEEF, u64::MAX - 1] {
            let p = encode_value_payload(unique, 32);
            assert_eq!(p.len(), 32);
            assert_eq!(decode_value_payload(&p), unique);
        }
        assert_eq!(decode_value_payload(b"short"), u64::MAX);
        assert_eq!(decode_value_payload(b"zzzzzzzzzzzzzzzz----"), u64::MAX);
    }

    #[test]
    fn plans_are_deterministic_and_partitioned() {
        let mut cfg = LoadgenConfig::zipf("127.0.0.1:1".parse().expect("addr"), 3, 50, 42);
        cfg.keys = 32;
        let a = build_plans(&cfg);
        let b = build_plans(&cfg);
        assert_eq!(a, b, "same seed → same plans");
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|p| p.len() >= 49), "near-even partition");
        let writes: usize = a
            .iter()
            .flatten()
            .filter(|op| matches!(op, PlannedOp::Set(_) | PlannedOp::Delete(_)))
            .count();
        // 35% nominal write+delete share on 150 ops.
        assert!((20..=85).contains(&writes), "write mix sane, got {writes}");
    }
}
