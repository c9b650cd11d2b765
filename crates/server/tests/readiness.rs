//! The server's threads wait on readiness, not on a clock: an idle server
//! does not run at all, and each of the events that must end a wait — a
//! connection handed over, a socket with room again, `stop`, a peer going
//! away — does end it. Over real loopback sockets.
//!
//! "Blocked" is observed, not assumed: a thread whose voluntary context
//! switch count (`/proc/self/task/*/status`) stands still is inside one
//! wait, and a count that moves while the client sends nothing was moved by
//! the event under test. Hence Linux only.
#![cfg(target_os = "linux")]

mod common;

use cache_server::{Server, ServerConfig, ServerHandle};
use common::voluntary_switches;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const SHARD: &str = "cache-shard-0";
const THREADS: [&str; 2] = [SHARD, "cache-accept"];

/// Threads are found by name, so one server at a time.
static ONE_SERVER: Mutex<()> = Mutex::new(());

fn start(mutate: impl FnOnce(&mut ServerConfig)) -> (ServerHandle, MutexGuard<'static, ()>) {
    let guard = ONE_SERVER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut cfg = ServerConfig {
        shards: 1,
        deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    mutate(&mut cfg);
    (Server::start(cfg).expect("bind"), guard)
}

/// Waits the shard and the acceptor have blocked in so far.
fn waits() -> [u64; 2] {
    THREADS.map(voluntary_switches)
}

/// Returns once the shard and the acceptor have each stayed inside one wait
/// for 20 ms. A thread that wakes on a timer never does.
fn await_blocked() {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let before = waits();
        std::thread::sleep(Duration::from_millis(20));
        if waits() == before {
            return;
        }
        assert!(Instant::now() < deadline, "the server's threads keep waking with nothing to do");
    }
}

fn connect(server: &ServerHandle) -> TcpStream {
    let conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    conn
}

/// One round trip; the connection has been adopted by the shard after it.
fn version(conn: &mut TcpStream) {
    conn.write_all(b"version\r\n").expect("send");
    let mut reply = [0u8; 26];
    conn.read_exact(&mut reply).expect("a reply, without any timer to prompt it");
    assert_eq!(&reply, b"VERSION s3fifo-cache 0.1\r\n");
}

fn stat(conn: &mut TcpStream, name: &str) -> String {
    conn.write_all(b"stats\r\n").expect("send");
    let mut text = Vec::new();
    let mut chunk = [0u8; 4096];
    while !text.ends_with(b"END\r\n") {
        let n = conn.read(&mut chunk).expect("stats reply");
        assert!(n > 0, "closed mid-reply");
        text.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8(text).expect("stats are text");
    let line = text.lines().find_map(|l| l.strip_prefix(&format!("STAT {name} ")));
    line.unwrap_or_else(|| panic!("no STAT {name}")).to_string()
}

/// Asserts that neither thread wakes more than 5 times in 200 ms.
fn assert_idle() {
    let before = waits();
    std::thread::sleep(Duration::from_millis(200));
    for ((name, before), after) in THREADS.into_iter().zip(before).zip(waits()) {
        let woke = after - before;
        assert!(woke <= 5, "{name} woke {woke} times in 200 ms with nothing to do");
    }
}

#[test]
fn an_idle_server_with_open_connections_does_not_run() {
    let (server, _one) = start(|_| {});
    let mut conns: Vec<TcpStream> = (0..4).map(|_| connect(&server)).collect();
    conns.iter_mut().for_each(version);
    await_blocked();
    assert_idle();
    // It was resting, not stuck.
    conns.iter_mut().for_each(version);
    drop(conns);
    assert!(server.shutdown().drained);
}

#[test]
fn a_connection_handed_to_a_blocked_shard_is_adopted_and_answered() {
    let (server, _one) = start(|_| {});
    let mut held = Vec::new();
    for _ in 0..3 {
        // The shard is inside a wait that no socket of its own will end:
        // only the acceptor's wake byte tells it about the next connection.
        await_blocked();
        let mut conn = connect(&server);
        version(&mut conn);
        held.push(conn);
    }
    assert_eq!(server.counters().conns_accepted.load(Ordering::Relaxed), 3);
    drop(held);
    assert!(server.shutdown().drained);
}

#[test]
fn a_reader_that_stalls_then_resumes_gets_every_reply_in_order() {
    const KEYS: usize = 16;
    const VALUE_LEN: usize = 64 * 1024;
    // 32 MiB of replies: several times what loopback socket buffers take
    // from a sender whose peer is not reading.
    const GETS: usize = 512;
    let (server, _one) = start(|cfg| cfg.max_outbuf = 64 << 20);
    let mut conn = connect(&server);
    let fill = |k: usize| b'a' + k as u8;
    for k in 0..KEYS {
        conn.write_all(format!("set key:{k:02} 0 0 {VALUE_LEN}\r\n").as_bytes()).expect("send");
        conn.write_all(&vec![fill(k); VALUE_LEN]).expect("send");
        conn.write_all(b"\r\n").expect("send");
        let mut stored = [0u8; 8];
        conn.read_exact(&mut stored).expect("reply");
        assert_eq!(&stored, b"STORED\r\n");
    }
    let gets: String = (0..GETS).map(|i| format!("get key:{:02}\r\n", i % KEYS)).collect();
    conn.write_all(gets.as_bytes()).expect("send");

    // Nothing is read until the shard has filled the socket buffers, kept
    // the rest in `outbuf`, and blocked. From here on the client sends
    // nothing: what wakes the shard is room to write, and only that.
    await_blocked();
    let woken = voluntary_switches(SHARD);
    let mut reply = vec![0u8; format!("VALUE key:00 0 {VALUE_LEN}\r\n\r\nEND\r\n").len() + VALUE_LEN];
    for i in 0..GETS {
        let k = i % KEYS;
        conn.read_exact(&mut reply).expect("every reply arrives");
        let header = format!("VALUE key:{k:02} 0 {VALUE_LEN}\r\n");
        assert!(reply.starts_with(header.as_bytes()), "reply {i} is out of order");
        assert!(reply[header.len()..][..VALUE_LEN].iter().all(|&b| b == fill(k)), "reply {i} is damaged");
        assert!(reply.ends_with(b"\r\nEND\r\n"));
    }
    assert!(
        voluntary_switches(SHARD) > woken,
        "the replies fitted the socket buffers: the shard never had to wait for room"
    );
    assert_eq!(server.counters().slow_reader_drops.load(Ordering::Relaxed), 0);
    drop(conn);
    assert!(server.shutdown().drained);
}

/// Runs `end` on another thread: a server whose threads never learn of
/// `stop` fails the test instead of hanging it.
fn ends_in_time<T: Send + 'static>(end: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || done.send(end()));
    finished
        .recv_timeout(Duration::from_secs(10))
        .expect("blocked threads are woken by stop")
}

#[test]
fn shutdown_and_drop_wake_blocked_threads() {
    for graceful in [true, false] {
        let (server, _one) = start(|_| {});
        let mut conns: Vec<TcpStream> = (0..4).map(|_| connect(&server)).collect();
        conns.iter_mut().for_each(version);
        await_blocked();
        if graceful {
            let report = ends_in_time(move || server.shutdown());
            assert!(report.drained);
            assert_eq!(report.leaked_in_flight, 0);
        } else {
            ends_in_time(move || drop(server));
        }
        // The connections were open throughout, and are closed now.
        for conn in &mut conns {
            assert_eq!(conn.read(&mut [0u8; 1]).unwrap_or(0), 0);
        }
    }
}

#[test]
fn half_close_and_reset_end_a_wait_and_the_connection_without_a_busy_loop() {
    let (server, _one) = start(|_| {});
    let mut watcher = connect(&server);
    let mut half = connect(&server);
    let mut reset = connect(&server);
    [&mut watcher, &mut half, &mut reset].into_iter().for_each(version);
    assert_eq!(stat(&mut watcher, "curr_connections"), "3");

    await_blocked();
    half.shutdown(Shutdown::Write).expect("half-close");
    assert_eq!(half.read(&mut [0u8; 1]).expect("closed in return"), 0);

    // A reply left unread when the socket closes makes the kernel send a
    // reset in place of an orderly close.
    reset.write_all(b"version\r\n").expect("send");
    await_blocked();
    drop(reset);

    await_blocked();
    assert_eq!(stat(&mut watcher, "curr_connections"), "1");
    await_blocked();
    assert_idle();
    drop(watcher);
    assert!(server.shutdown().drained);
}
