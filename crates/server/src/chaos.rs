//! The chaos suite: seeded fault plans turned into misbehaving clients.
//!
//! Every scenario runs a real server on an ephemeral port, drives it with
//! chaos derived deterministically from one seed, and asserts the
//! robustness ladder holds:
//!
//! - **no panics** — a panicked shard/acceptor thread cannot serve, so
//!   every scenario ends with a health probe plus a graceful shutdown that
//!   must report a clean drain;
//! - **no lost updates or resurrections** — acknowledged histories pass
//!   `cache-check`'s linearizability-lite witness search;
//! - **bounded tail while shedding** — an overloaded server answers
//!   *something* (shed/timeout replies) quickly instead of queueing
//!   without bound.

use crate::loadgen::{self, BurstSpec, LoadgenConfig};
use crate::server::{Server, ServerConfig};
use crate::shed::ShedLevel;
use crate::store::StoreConfig;
use cache_check::check_history;
use cache_ds::SplitMix64;
use cache_faults::{DelaySpec, ErrorBudgetConfig, FaultKind, FaultPlan, OpClass, Schedule};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One fixed master seed; every scenario derives its streams from it so a
/// failure reproduces bit-for-bit.
const CHAOS_SEED: u64 = 0xC4A0_5EED;

fn small_server(mutate: impl FnOnce(&mut ServerConfig)) -> ServerConfig {
    let mut cfg = ServerConfig {
        shards: 2,
        queue_depth: 16,
        max_conns_per_shard: 32,
        deadline: Duration::from_millis(100),
        store: StoreConfig {
            capacity: 4096,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    };
    mutate(&mut cfg);
    cfg
}

/// Round-trips one request on a fresh blocking connection; the suite's
/// "is the server still alive?" probe.
fn probe_healthy(addr: SocketAddr) -> bool {
    let Ok(mut s) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
    if s.write_all(b"set probe 0 0 2\r\nok\r\nget probe\r\n").is_err() {
        return false;
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(5).any(|w| w == b"END\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    text.contains("STORED") && text.contains("VALUE probe") && text.contains("ok")
}

#[test]
fn nominal_load_is_linearizable_and_drains_clean() {
    // One request in flight per client, then pipelined trains of 32.
    let trains = BurstSpec {
        burst_len: 32,
        idle: Duration::from_millis(2),
    };
    for burst in [None, Some(trains)] {
        let handle = Server::start(small_server(|_| {})).expect("bind");
        let addr = handle.addr();
        let mut cfg = LoadgenConfig::zipf(addr, 3, 400, CHAOS_SEED);
        cfg.record_ops = true;
        cfg.keys = 64;
        cfg.burst = burst;
        let report = loadgen::run(&cfg);
        assert_eq!(report.errors.client_errors, 0, "generator speaks the protocol");
        assert_eq!(report.errors.io_errors, 0, "nominal load loses no connections");
        assert!(report.hits > 0, "zipf reuse must produce hits");
        assert!(report.stored > 0);
        let violations = check_history(&report.history);
        assert!(
            violations.is_empty(),
            "acked history must linearize, got {violations:?}"
        );
        assert!(probe_healthy(addr));
        let shutdown = handle.shutdown();
        assert!(shutdown.drained, "graceful shutdown drains in-flight work");
        assert_eq!(shutdown.leaked_in_flight, 0);
        assert!(shutdown.prometheus.contains("cache_server"));
    }
}

#[test]
// ORDERING: Relaxed counter reads — cross-thread visibility is bounded by
// the polling loop, not by memory ordering.
fn slow_readers_are_dropped_without_harming_others() {
    // Tiny outbuf cap so a non-reading client trips the slow-reader guard
    // quickly.
    let handle = Server::start(small_server(|c| {
        c.max_outbuf = 2048;
    }))
    .expect("bind");
    let addr = handle.addr();
    // Seed a value big enough that pipelined replies dwarf both the outbuf
    // cap and the kernel's socket buffers (which silently absorb smaller
    // backlogs).
    let mut setup = TcpStream::connect(addr).expect("connect");
    let big = vec![b'x'; 16 * 1024];
    let mut req = format!("set hot 0 0 {}\r\n", big.len()).into_bytes();
    req.extend_from_slice(&big);
    req.extend_from_slice(b"\r\n");
    setup.write_all(&req).expect("seed set");
    let mut ack = [0u8; 64];
    let _ = setup.read(&mut ack);
    // The slow readers: pipeline hundreds of gets (~4 MB of replies each),
    // never read a byte.
    let mut rng = SplitMix64::new(CHAOS_SEED ^ 1);
    let mut slow = Vec::new();
    for _ in 0..3 {
        let mut s = TcpStream::connect(addr).expect("connect slow");
        let n = 224 + rng.next_below(64);
        let burst = "get hot\r\n".repeat(n as usize);
        let _ = s.write_all(burst.as_bytes());
        slow.push(s); // keep the socket open, unread
    }
    // Give the shards time to fill the outbufs and drop the laggards.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.counters().slow_reader_drops.load(std::sync::atomic::Ordering::Relaxed) == 0
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        handle.counters().slow_reader_drops.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "a reader lagging past the outbuf cap must be disconnected"
    );
    // The cap holds while the replies are produced, not only afterwards:
    // no connection ever held more than the cap plus the reply that
    // overran it (~3.5 MB each when the cap was checked once per sweep).
    let one_reply = big.len() + "VALUE hot 0 16384\r\n\r\nEND\r\n".len();
    let high_water = handle.counters().outbuf_high_water.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        high_water as usize <= 2048 + one_reply,
        "outbuf grew to {high_water} bytes against a 2048-byte cap"
    );
    // A well-behaved client is unaffected.
    assert!(probe_healthy(addr), "healthy clients keep working");
    drop(slow);
    assert!(handle.shutdown().drained);
}

#[test]
fn malformed_frames_never_kill_the_server() {
    let handle = Server::start(small_server(|_| {})).expect("bind");
    let addr = handle.addr();
    let mut rng = SplitMix64::new(CHAOS_SEED ^ 2);
    // A seeded pile of garbage: truncated commands, binary noise, oversized
    // counts, bad data blocks, pathological whitespace.
    let fixed: &[&[u8]] = &[
        b"\x00\x01\x02\xff\xfe\r\n",
        b"set k 0 0 notanumber\r\n",
        b"set k 0 0 5\r\nab\r\n",
        b"set k 0 0 99999999999\r\nxx\r\n",
        b"get\r\n",
        b"get \r\n",
        b"frobnicate all the things\r\n",
        b"set \xc3\x28 0 0 2\r\nhi\r\n",
        b"delete\r\n",
        b"   \r\n",
        b"get k k k k k k k k k k k k k k k k k k k k k k k k k k k k\r\n",
    ];
    for round in 0..40 {
        let mut s = TcpStream::connect(addr).expect("connect");
        let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
        let payload: Vec<u8> = if round % 3 == 0 {
            // Pure seeded noise, sometimes enormous (exercises the
            // line-length fatal path).
            let len = 1 + rng.next_below(6000) as usize;
            (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
        } else {
            fixed[(rng.next_below(fixed.len() as u64)) as usize].to_vec()
        };
        let _ = s.write_all(&payload);
        // Drain whatever the server says (CLIENT_ERROR / close); the
        // assertion is that it answered or closed rather than wedged.
        let mut sink = [0u8; 4096];
        loop {
            match s.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
    }
    assert!(probe_healthy(addr), "server survives the garbage barrage");
    let report = handle.shutdown();
    assert!(report.drained);
}

#[test]
// ORDERING: Relaxed counter reads — post-storm assertions on quiesced
// counters, no synchronization carried by the loads.
fn connection_storm_gets_backpressure_not_collapse() {
    // One shard with tiny queues: most of the storm must bounce with
    // `busy` instead of being buffered without bound.
    // Overflow bounces feed the shedder by design, so the post-storm
    // health check depends on budget recovery; quick probe cadence keeps
    // the test fast.
    let fast_recovery = ErrorBudgetConfig {
        window_ops: 64,
        max_errors: 8,
        probe_interval: 4,
        recovery_probes: 1,
    };
    let handle = Server::start(small_server(|c| {
        c.shards = 1;
        c.queue_depth = 2;
        c.max_conns_per_shard = 4;
        c.shed.write = fast_recovery;
        c.shed.read = fast_recovery;
    }))
    .expect("bind");
    let addr = handle.addr();
    let mut rng = SplitMix64::new(CHAOS_SEED ^ 3);
    let mut held = Vec::new();
    let mut busy_seen = 0u64;
    for _ in 0..120 {
        match TcpStream::connect(addr) {
            Ok(mut s) => {
                let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
                if rng.next_below(4) == 0 {
                    // Some connections actually try to talk.
                    let _ = s.write_all(b"get storm\r\n");
                    let mut buf = [0u8; 256];
                    if let Ok(n) = s.read(&mut buf) {
                        if buf[..n].windows(4).any(|w| w == b"busy") {
                            busy_seen += 1;
                        }
                    }
                }
                held.push(s); // hold them open to keep the caps saturated
            }
            Err(_) => {
                // Kernel backlog overflow also counts as backpressure.
                busy_seen += 1;
            }
        }
    }
    let rejected = handle
        .counters()
        .conns_rejected
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        rejected > 0 || busy_seen > 0,
        "storm must hit the bounded-accept ladder (rejected={rejected}, busy={busy_seen})"
    );
    drop(held);
    // The storm over, new clients are served again.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut healthy = false;
    while Instant::now() < deadline {
        if probe_healthy(addr) {
            healthy = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(healthy, "server recovers once the storm subsides");
    assert!(handle.shutdown().drained);
}

#[test]
fn device_fault_burst_degrades_then_recovers() {
    // Flash tier with a one-shot fault burst: reads/writes fault hard for
    // the first 60 device ops, then the device heals; the ladder must trip
    // to DRAM-only (typed errors) and probe its way back to healthy.
    let plan = FaultPlan::new(CHAOS_SEED ^ 4)
        .with(
            FaultKind::TransientWrite,
            Schedule::Burst {
                period: u64::MAX,
                burst_len: 60,
                inside: 1.0,
                outside: 0.0,
            },
        )
        .with(
            FaultKind::ReadError,
            Schedule::Burst {
                period: u64::MAX,
                burst_len: 60,
                inside: 0.5,
                outside: 0.0,
            },
        );
    let handle = Server::start(small_server(|c| {
        c.store.flash_total_bytes = 8192;
        c.store.fault_seed = 0; // plan.seed already carries the stream
        c.fault_plan = plan;
    }))
    .expect("bind");
    let addr = handle.addr();
    let mut cfg = LoadgenConfig::zipf(addr, 2, 600, CHAOS_SEED ^ 5);
    cfg.keys = 48;
    cfg.write_fraction = 0.5;
    cfg.delete_fraction = 0.0;
    let report = loadgen::run(&cfg);
    assert!(
        report.errors.degradation > 0,
        "device burst must surface typed degradation errors"
    );
    assert_eq!(report.errors.client_errors, 0);
    // Keep driving until the probe ladder recovers the device.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.ttl_store().flash_state() != "healthy" && Instant::now() < deadline {
        let mut cfg = LoadgenConfig::zipf(addr, 1, 200, CHAOS_SEED ^ 6);
        cfg.keys = 48;
        cfg.write_fraction = 0.5;
        cfg.delete_fraction = 0.0;
        let _ = loadgen::run(&cfg);
    }
    assert_eq!(
        handle.ttl_store().flash_state(),
        "healthy",
        "the ladder must recover after the burst"
    );
    assert!(probe_healthy(addr));
    assert!(handle.shutdown().drained);
}

#[test]
fn overload_sheds_writes_first_with_bounded_tail() {
    // Write-classed delay faults push writes past a 5 ms deadline: the
    // write budget trips (ShedWrites), reads never miss and stay admitted,
    // bounced requests come back fast, and the server keeps answering.
    let plan = FaultPlan::new(CHAOS_SEED ^ 7).with_delay(DelaySpec::constant(
        Some(OpClass::Write),
        0.6,
        6_000,
        9_000,
    ));
    let handle = Server::start(small_server(|c| {
        c.deadline = Duration::from_millis(5);
        c.fault_plan = plan;
        c.shed.write = ErrorBudgetConfig {
            window_ops: 64,
            max_errors: 4,
            probe_interval: 4096, // hold the rung down for the whole run
            recovery_probes: 3,
        };
        c.shed.read = ErrorBudgetConfig {
            window_ops: 256,
            max_errors: 64,
            probe_interval: 4096,
            recovery_probes: 3,
        };
    }))
    .expect("bind");
    let addr = handle.addr();
    let mut cfg = LoadgenConfig::zipf(addr, 2, 500, CHAOS_SEED ^ 8);
    cfg.keys = 64;
    cfg.write_fraction = 0.5;
    cfg.delete_fraction = 0.0;
    let report = loadgen::run(&cfg);
    assert!(report.errors.timeouts > 0, "delay faults must cause timeouts");
    assert!(report.errors.shed > 0, "the tripped budget must shed load");
    assert_eq!(report.errors.client_errors, 0, "shedding is not a protocol error");
    let level = handle.shedder().level();
    assert_ne!(level, ShedLevel::ShedAll, "reads stay up under write-led shed");
    // Bounded tail: even during shedding every round trip (including
    // bounces) completes well under a second.
    let p99 = report.latencies_us.quantile(0.99).unwrap_or(0);
    assert!(
        p99 < 500_000,
        "p99 must stay bounded while shedding, got {p99}us"
    );
    // Writes are (correctly) still shed, so the health check is read-only.
    let mut s = TcpStream::connect(addr).expect("connect");
    let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
    s.write_all(b"get anything\r\n").expect("write");
    let mut buf = [0u8; 256];
    let n = s.read(&mut buf).expect("read");
    assert!(
        buf[..n].windows(5).any(|w| w == b"END\r\n"),
        "reads must still be served under ShedWrites"
    );
    assert!(handle.shutdown().drained);
}

#[test]
fn kill_mid_load_loses_no_acked_updates() {
    let handle = Server::start(small_server(|_| {})).expect("bind");
    let addr = handle.addr();
    let loader = std::thread::spawn(move || {
        let mut cfg = LoadgenConfig::zipf(addr, 2, 4_000, CHAOS_SEED ^ 9);
        cfg.record_ops = true;
        cfg.keys = 64;
        cfg.burst = Some(BurstSpec {
            burst_len: 4,
            idle: Duration::from_micros(200),
        });
        cfg.read_timeout = Duration::from_secs(2);
        loadgen::run(&cfg)
    });
    // Kill the server mid-run: drop without graceful drain.
    std::thread::sleep(Duration::from_millis(150));
    drop(handle);
    let report = loader.join().expect("loadgen must not panic");
    assert!(report.ops > 0, "the kill landed mid-run, not before it");
    assert!(
        report.errors.io_errors > 0 || report.errors.shutting_down > 0,
        "clients observed the kill"
    );
    // The acked prefix of the history is still consistent: every reply the
    // server sent before dying linearizes (no lost updates, no
    // resurrections).
    let violations = check_history(&report.history);
    assert!(
        violations.is_empty(),
        "acked-prefix history must linearize, got {violations:?}"
    );
}

#[test]
fn stats_and_metrics_are_well_formed() {
    let handle = Server::start(small_server(|_| {})).expect("bind");
    let addr = handle.addr();
    let mut s = TcpStream::connect(addr).expect("connect");
    let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
    s.write_all(b"set m 0 0 1\r\nx\r\nget m\r\nstats\r\nmetrics\r\n")
        .expect("write");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(3);
    while Instant::now() < deadline {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                let ends = String::from_utf8_lossy(&buf).matches("END\r\n").count();
                if ends >= 3 {
                    // get END + stats END + metrics END
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&buf).to_string();
    assert!(text.contains("STAT cmd_get 1"));
    assert!(text.contains("STAT shed_level normal"));
    assert!(text.contains("STAT flash_state none"));
    assert!(text.contains("STAT outbuf_high_water "));
    // Prometheus lines: `# TYPE name kind` headers then `name value`.
    assert!(text.contains("# TYPE"));
    assert!(text.contains("cache_server_frontend_requests"));
    assert!(text.contains("cache_server_frontend_outbuf_high_water"));
    let shutdown = handle.shutdown();
    assert!(shutdown.drained);
    // The final metrics page, line by line: a header, or `name value` with
    // a value that parses.
    let page = &shutdown.prometheus;
    assert!(page.lines().any(|l| l.starts_with("# TYPE cache_server_")));
    let samples: Vec<&str> = page
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert!(!samples.is_empty(), "no samples in the Prometheus page");
    for line in samples {
        let (name, value) = line.rsplit_once(' ').expect("sample line is `name value`");
        assert!(name.starts_with("cache_server_"), "{line}");
        assert!(value.parse::<f64>().is_ok(), "{line}");
    }
}
