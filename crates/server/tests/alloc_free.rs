//! The request path does not allocate: once a connection's buffers have
//! reached their working size, a get hit performs no heap allocation at all
//! and a set performs two: the payload `Vec` (`encode_payload`) and the
//! `Arc<[u8]>` that `Bytes::from` copies it into. The cache keeps that
//! `Bytes` in the index slot the key already has (an overwrite swaps it in
//! place), and the request path around them (buffers, parser, reply) adds
//! none.
//!
//! "Working size" is a burst whose replies fit in 64 KiB: an output buffer
//! that grew past that gives the memory back once drained, and grows again
//! for the next such burst.
//!
//! Bursts are a millisecond apart, so the shard serves each one out of a
//! readiness wait it had blocked in: building the wait set and being woken
//! are part of what is counted, and add nothing (the `PollFd` vector is
//! kept between waits).
//!
//! A test binary of its own, with one test: the counting allocator counts
//! every thread of the process, so nothing else may run beside the server
//! (acceptor and one shard, both allocation-free when idle) and this
//! client, which sends from and reads into buffers it made beforehand.

#[cfg(target_os = "linux")]
mod common;

use cache_server::{Server, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Allocations (and reallocations) made since the process started, and
/// those of them at least as large as a stored value.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

const VALUE_LEN: usize = 4096;

struct Counting;

impl Counting {
    // ORDERING: Relaxed — the test reads the counters only after the replies
    // to the requests it counts have come back over the socket.
    fn count(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if size >= VALUE_LEN {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System`'s guarantees are this allocator's; counting touches
// only atomics and cannot allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; all three arguments are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS: usize = 8;
const ROUNDS: usize = 400;

/// Sends `requests` in one write and reads exactly `replies.len()` bytes
/// back, then leaves the server idle long enough to block. Allocates
/// nothing.
fn exchange(conn: &mut TcpStream, requests: &[u8], replies: &mut [u8]) {
    conn.write_all(requests).expect("send");
    conn.read_exact(replies).expect("every reply comes back");
    std::thread::sleep(Duration::from_millis(1));
}

#[test]
// ORDERING: Relaxed counter reads — see `Counting::count`.
fn get_hits_allocate_nothing_and_sets_only_what_is_stored() {
    let server = Server::start(ServerConfig {
        shards: 1,
        deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // One pipelined burst of each kind, built once.
    let value = vec![b'v'; VALUE_LEN];
    let mut sets = Vec::new();
    let mut gets = Vec::new();
    let mut hit_len = 0;
    for k in 0..KEYS {
        sets.extend_from_slice(format!("set key:{k:08} 0 0 {VALUE_LEN}\r\n").as_bytes());
        sets.extend_from_slice(&value);
        sets.extend_from_slice(b"\r\n");
        gets.extend_from_slice(format!("get key:{k:08}\r\n").as_bytes());
        hit_len += format!("VALUE key:{k:08} 0 {VALUE_LEN}\r\n\r\nEND\r\n").len() + VALUE_LEN;
    }
    let mut stored = vec![0u8; KEYS * b"STORED\r\n".len()];
    let mut hits = vec![0u8; hit_len];

    // Warm-up: buffers grow to their working size, the cache's tables and
    // queues to theirs.
    for _ in 0..ROUNDS {
        exchange(&mut conn, &sets, &mut stored);
        exchange(&mut conn, &gets, &mut hits);
    }
    assert!(stored.chunks(8).all(|r| r == b"STORED\r\n"));
    assert!(hits.ends_with(b"v\r\nEND\r\n") && hits.starts_with(b"VALUE key:00000000 0 4096\r\nvvvv"));

    // Read outside the counted stretch: reading `/proc` allocates.
    #[cfg(target_os = "linux")]
    let waits_before = common::voluntary_switches("cache-shard-0");
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        exchange(&mut conn, &gets, &mut hits);
    }
    let during_gets = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(during_gets, 0, "{} pipelined get hits allocated", KEYS * ROUNDS);
    // Half, not all: a round in which this host ran the shard late is not a
    // failure of what is tested here.
    #[cfg(target_os = "linux")]
    assert!(
        common::voluntary_switches("cache-shard-0") - waits_before >= (ROUNDS / 2) as u64,
        "the bursts were meant to find the shard blocked"
    );

    let (before, large_before) = (ALLOCS.load(Ordering::Relaxed), LARGE_ALLOCS.load(Ordering::Relaxed));
    for _ in 0..ROUNDS {
        exchange(&mut conn, &sets, &mut stored);
    }
    let n = (KEYS * ROUNDS) as u64;
    assert_eq!(
        LARGE_ALLOCS.load(Ordering::Relaxed) - large_before,
        2 * n,
        "a set holds its value in the payload `Vec` and the `Bytes` made from it, nowhere else"
    );
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed) - before,
        2 * n,
        "a set allocates its payload and the `Bytes`, nothing more"
    );
    assert_eq!(server.counters().requests.load(Ordering::Relaxed), (4 * ROUNDS * KEYS) as u64);
    drop(conn);
    assert!(server.shutdown().drained);
}
