//! The TCP front end: acceptor + shard-per-core event loops.
//!
//! ```text
//!             ┌─ acceptor ─┐   bounded SyncSender<TcpStream> queues
//!   clients ─▶│ nonblocking │──▶ shard 0 loop ─┐
//!             │   accept    │──▶ shard 1 loop ─┼─▶ TtlStore (shared)
//!             └─────────────┘──▶ ...           ─┘   LoadShedder (shared)
//! ```
//!
//! Each shard owns its connections outright — reads, parses, executes, and
//! writes happen on the shard thread, so the only cross-thread state is the
//! store, the shedder, and the drain gate. Sockets are nonblocking; a shard
//! sweep services every connection once.
//!
//! Nothing here runs on a timer (DESIGN.md §9, "How a thread waits", has
//! the reasons). A sweep that made no progress has found that every read and
//! every pending write would block, so the shard blocks on exactly that in
//! [`cache_ds::poll`]: each connection for input (unless it is closing) and,
//! only while it holds unsent output, for room to write, plus the read end
//! of a wake channel. The acceptor blocks likewise on the listener and a
//! wake channel of its own. A wake channel is a nonblocking `UnixStream`
//! pair, written for the two events no socket of the waiter's reports: a
//! connection queued for a shard, and `stop`. The sweep does not consult
//! `revents`, so a shard with work never reaches the wait.
//!
//! Overload behavior, outermost first: a full shard queue bounces the
//! connection with `SERVER_ERROR busy` (counted as shedder overflow); a
//! slow reader whose outbuf exceeds the cap is disconnected; a request that
//! overruns its deadline returns `SERVER_ERROR timeout` and feeds the
//! shedder; a tripped shedder bounces requests with `SERVER_ERROR
//! shed-write` / `shed-read` before they touch the store.

use crate::drain::DrainGate;
use crate::proto::{self, Limits, Parsed, Request};
use crate::shed::{Admission, LoadShedder, ShedConfig};
use crate::store::{self, StoreConfig, TtlStore};
use cache_ds::poll::{poll, PollFd, POLLIN, POLLOUT};
use cache_faults::{FaultPlan, OpClass};
use cache_obs::{registry_to_json_lines, registry_to_prometheus, MetricsRegistry};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Shard (worker thread) count; clamped to at least 1.
    pub shards: usize,
    /// Pending-connection queue depth per shard (bounded accept).
    pub queue_depth: usize,
    /// Open-connection cap per shard; excess connections are bounced.
    pub max_conns_per_shard: usize,
    /// Per-request deadline.
    pub deadline: Duration,
    /// Outbuf cap per connection; a reader lagging past it is dropped.
    pub max_outbuf: usize,
    /// Protocol limits (line/value/key-count caps).
    pub limits: Limits,
    /// Storage engine configuration.
    pub store: StoreConfig,
    /// Load-shedder budgets.
    pub shed: ShedConfig,
    /// Fault plan: device faults for the flash tier and injected delays.
    pub fault_plan: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: std::thread::available_parallelism().map_or(1, |n| n.get()).min(4),
            queue_depth: 64,
            max_conns_per_shard: 256,
            deadline: Duration::from_millis(50),
            max_outbuf: 1 << 20,
            limits: Limits::default(),
            store: StoreConfig::default(),
            shed: ShedConfig::default(),
            fault_plan: FaultPlan::none(),
        }
    }
}

/// Front-end counters (advisory; the store keeps its own).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections handed to a shard.
    pub conns_accepted: AtomicU64,
    /// Connections bounced with `busy` (full queues or conn cap).
    pub conns_rejected: AtomicU64,
    /// Connections bounced because shutdown had begun.
    pub conns_draining: AtomicU64,
    /// `accept` failures that leave the connection pending (descriptor
    /// limits); each one is followed by a back-off.
    pub accept_errors: AtomicU64,
    /// Requests executed (admitted past the shedder).
    pub requests: AtomicU64,
    /// Requests answered `SERVER_ERROR timeout`.
    pub timeouts: AtomicU64,
    /// Requests bounced by the shedder.
    pub shed_replies: AtomicU64,
    /// Recoverable protocol errors (CLIENT_ERROR replies).
    pub parse_errors: AtomicU64,
    /// Connections closed on a fatal framing error.
    pub fatal_closes: AtomicU64,
    /// Connections dropped for reading too slowly.
    pub slow_reader_drops: AtomicU64,
    /// Microseconds of injected (fault-plan) delay actually slept.
    pub injected_delay_us: AtomicU64,
    /// Most unsent reply bytes any one connection has held (high-water
    /// mark); bounded by `max_outbuf` plus one reply.
    pub outbuf_high_water: AtomicU64,
}

/// Shared state visible to the acceptor and every shard.
struct Shared {
    store: TtlStore,
    shed: LoadShedder,
    gate: DrainGate,
    /// Hard-stop flag for the event loops (set after drain completes).
    stop: AtomicBool,
    counters: ServerCounters,
    /// Open connections across all shards (gauge).
    conns_open: AtomicU64,
    cfg: ServerConfig,
    started: Instant,
}

impl Shared {
    fn new(cfg: ServerConfig) -> Self {
        Shared {
            store: TtlStore::new(cfg.store, cfg.fault_plan.clone()),
            shed: LoadShedder::new(cfg.shed),
            gate: DrainGate::new(),
            stop: AtomicBool::new(false),
            counters: ServerCounters::default(),
            conns_open: AtomicU64::new(0),
            cfg,
            started: Instant::now(),
        }
    }
}

/// Marker type: construct a running server with [`Server::start`].
#[derive(Debug)]
pub struct Server;

/// A running server; dropping it without [`ServerHandle::shutdown`] aborts
/// connections without draining.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The shards and the acceptor.
    threads: Vec<JoinHandle<()>>,
    /// The write end of each thread's wake channel.
    wakers: Vec<UnixStream>,
}

/// What a graceful shutdown observed.
#[derive(Debug)]
pub struct ShutdownReport {
    /// True when every in-flight request finished inside the drain window.
    pub drained: bool,
    /// Requests still in flight when the window closed (0 when drained).
    pub leaked_in_flight: usize,
    /// Final metrics snapshot, Prometheus exposition format.
    pub prometheus: String,
    /// Final metrics snapshot, JSON lines.
    pub json_lines: String,
    /// Total requests executed.
    pub requests: u64,
}

impl Server {
    /// Binds, spawns the acceptor and shard threads, and returns a handle.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unusable, or what kept a
    /// wake channel or a thread from being created; the threads already
    /// started are stopped and joined first.
    pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        // Threads and wakers go into the handle as they are made: dropping
        // it on an early return stops what was started.
        let mut handle = ServerHandle {
            addr: listener.local_addr()?,
            shared: Arc::new(Shared::new(cfg.clone())),
            threads: Vec::new(),
            wakers: Vec::new(),
        };
        let mut ports = Vec::new();
        for i in 0..cfg.shards.max(1) {
            let (tx, rx) = sync_channel::<TcpStream>(cfg.queue_depth.max(1));
            let (waker, wake_rx) = wake_channel()?;
            ports.push(ShardPort {
                queue: tx,
                waker: waker.try_clone()?,
            });
            handle.wakers.push(waker);
            let shared = Arc::clone(&handle.shared);
            handle.threads.push(
                std::thread::Builder::new()
                    .name(format!("cache-shard-{i}"))
                    .spawn(move || shard_loop(&shared, &rx, &wake_rx))?,
            );
        }
        let (waker, wake_rx) = wake_channel()?;
        handle.wakers.push(waker);
        let shared = Arc::clone(&handle.shared);
        handle
            .threads
            .push(std::thread::Builder::new().name("cache-accept".to_string()).spawn(move || {
                let accept = || listener.accept().map(|(conn, _)| conn);
                accept_loop(&shared, listener.as_raw_fd(), accept, &ports, &wake_rx);
            })?);
        Ok(handle)
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared storage engine (for white-box assertions in tests).
    pub fn ttl_store(&self) -> &TtlStore {
        &self.shared.store
    }

    /// The shared load shedder.
    pub fn shedder(&self) -> &LoadShedder {
        &self.shared.shed
    }

    /// Front-end counters.
    pub fn counters(&self) -> &ServerCounters {
        &self.shared.counters
    }

    /// Builds a point-in-time metrics registry (used by the `metrics`
    /// command and the final shutdown snapshot).
    pub fn collect_metrics(&self) -> MetricsRegistry {
        collect_registry(&self.shared)
    }

    /// Sets `stop`, wakes every thread out of its readiness wait, and joins
    /// them. The gate is closed by the caller first. Joins nothing the
    /// second time (`Drop` after `shutdown`).
    // ORDERING: SeqCst store on `stop` pairs with the loops' SeqCst loads —
    // the stop flag must be ordered after the drain-gate close in the single
    // total order so no loop observes stop without also observing closed.
    // The wake byte is written after the store: a thread that read `stop`
    // as false before it blocked finds the byte and reads `stop` again.
    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.wakers.iter().for_each(wake);
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }

    /// Graceful shutdown: close the accept gate, drain in-flight requests,
    /// stop the loops, join every thread, and return a final snapshot.
    // ORDERING: Relaxed load of the request counter — a statistic, read
    // after every thread that bumps it was joined.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.gate.close();
        let drained = self.shared.gate.await_drained(Duration::from_secs(5));
        let leaked = self.shared.gate.in_flight();
        self.stop_and_join();
        let registry = collect_registry(&self.shared);
        ShutdownReport {
            drained,
            leaked_in_flight: leaked,
            prometheus: registry_to_prometheus(&registry),
            json_lines: registry_to_json_lines(&registry),
            requests: self.shared.counters.requests.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.gate.close();
        self.stop_and_join();
    }
}

/// Builds a metrics registry from the live counters.
// ORDERING: Relaxed counter loads — advisory snapshot.
fn collect_registry(shared: &Shared) -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    let scope = registry.scope("cache_server");
    shared.store.export_obs(&scope);
    let c = &shared.counters;
    let s = scope.scope("frontend");
    s.counter("conns_accepted").add(c.conns_accepted.load(Ordering::Relaxed));
    s.counter("conns_rejected").add(c.conns_rejected.load(Ordering::Relaxed));
    s.counter("conns_draining").add(c.conns_draining.load(Ordering::Relaxed));
    s.counter("accept_errors").add(c.accept_errors.load(Ordering::Relaxed));
    s.counter("requests").add(c.requests.load(Ordering::Relaxed));
    s.counter("timeouts").add(c.timeouts.load(Ordering::Relaxed));
    s.counter("shed_replies").add(c.shed_replies.load(Ordering::Relaxed));
    s.counter("parse_errors").add(c.parse_errors.load(Ordering::Relaxed));
    s.counter("fatal_closes").add(c.fatal_closes.load(Ordering::Relaxed));
    s.counter("slow_reader_drops").add(c.slow_reader_drops.load(Ordering::Relaxed));
    s.counter("injected_delay_us").add(c.injected_delay_us.load(Ordering::Relaxed));
    s.gauge("outbuf_high_water").set(c.outbuf_high_water.load(Ordering::Relaxed) as i64);
    s.gauge("conns_open").set(shared.conns_open.load(Ordering::Relaxed) as i64);
    let shed = scope.scope("shed");
    let (level, sw, sr, dm, of, pr, wt, wrec, rt, rrec) = shared.shed.snapshot();
    shed.gauge("level").set(match level {
        crate::shed::ShedLevel::Normal => 0,
        crate::shed::ShedLevel::ShedWrites => 1,
        crate::shed::ShedLevel::ShedAll => 2,
    });
    shed.counter("shed_writes").add(sw);
    shed.counter("shed_reads").add(sr);
    shed.counter("deadline_misses").add(dm);
    shed.counter("overflows").add(of);
    shed.counter("probes").add(pr);
    shed.counter("write_trips").add(wt);
    shed.counter("write_recoveries").add(wrec);
    shed.counter("read_trips").add(rt);
    shed.counter("read_recoveries").add(rrec);
    let delays = shared.store.delay_stats();
    let faults = scope.scope("faults");
    faults.counter("delays").add(delays.delays);
    faults.counter("delay_units").add(delays.delay_units);
    registry
}

/// Writes a canned reply to a fresh connection and drops it.
fn bounce(mut conn: TcpStream, reply: &[u8]) {
    let _ = conn.set_nodelay(true);
    let _ = conn.write_all(reply);
    // Dropping conn closes it; a lingering RST on unread input is fine.
}

/// A wake channel: a nonblocking socket pair, `(write end, read end)`. A
/// thread that blocks in [`poll`] includes the read end in its wait set;
/// [`wake`] on the write end makes it return.
fn wake_channel() -> std::io::Result<(UnixStream, UnixStream)> {
    let (waker, wake) = UnixStream::pair()?;
    waker.set_nonblocking(true)?;
    wake.set_nonblocking(true)?;
    Ok((waker, wake))
}

/// Makes the thread that holds the other end return from its wait, now or
/// the next time it enters it. A full channel already holds a wake-up and a
/// closed one has nobody to wake, so a failed write is not an error.
fn wake(mut waker: &UnixStream) {
    let _ = waker.write(&[1]);
}

/// Forgets the wake-ups received so far. Call before looking at what they
/// announce (the queue, `stop`): one sent after that look leaves its byte
/// for the next wait.
fn drain_wakes(mut wake: &UnixStream) {
    let mut sink = [0u8; 64];
    while matches!(wake.read(&mut sink), Ok(n) if n == sink.len()) {}
}

/// What the acceptor holds of one shard.
struct ShardPort {
    queue: SyncSender<TcpStream>,
    waker: UnixStream,
}

/// How long a thread pauses after a system call failed for want of a
/// resource. Out of descriptors (`EMFILE`/`ENFILE`) the pending connection
/// stays pending and the listener stays readable, and a `poll` the kernel
/// has no memory for fails again at once: waiting on readiness would spin,
/// and nothing reports that the resource was freed, so this one wait is on
/// a clock.
const ERROR_BACKOFF: Duration = Duration::from_millis(1);

/// The one wait on a clock in either loop.
fn back_off() {
    std::thread::sleep(ERROR_BACKOFF);
}

/// Blocks until a descriptor in `fds` is ready. A signal is a spurious
/// wake-up: the caller finds nothing to do and comes back. Any other failure
/// backs off, so that a wait that cannot be made does not become a spin.
fn block_on(fds: &mut [PollFd]) {
    if matches!(poll(fds, None), Err(e) if e.kind() != std::io::ErrorKind::Interrupted) {
        back_off();
    }
}

/// The acceptor: nonblocking accept + round-robin handoff to shard queues,
/// blocked on the listener (`listener_fd`, which `accept` accepts from) and
/// its wake channel when no connection is pending.
// ORDERING: SeqCst load of `stop` — pairs with shutdown's SeqCst store (see
// ServerHandle::stop_and_join). Relaxed counter bumps — statistics.
fn accept_loop(
    shared: &Shared,
    listener_fd: RawFd,
    mut accept: impl FnMut() -> std::io::Result<TcpStream>,
    ports: &[ShardPort],
    wake_rx: &UnixStream,
) {
    let mut next = 0usize;
    let mut fds = [PollFd::new(listener_fd, POLLIN), PollFd::new(wake_rx.as_raw_fd(), POLLIN)];
    while !shared.stop.load(Ordering::SeqCst) {
        match accept() {
            Ok(conn) => {
                if shared.gate.is_closed() {
                    shared.counters.conns_draining.fetch_add(1, Ordering::Relaxed);
                    bounce(conn, b"SERVER_ERROR shutting-down\r\n");
                    continue;
                }
                // Round-robin, skipping full queues: the connection lands on
                // the first shard with room, or bounces when all are full.
                let mut handed = false;
                let mut conn = Some(conn);
                for probe in 0..ports.len() {
                    let idx = (next + probe) % ports.len();
                    // Invariant: conn is Some until the loop hands it off or
                    // breaks; try_send returns it on failure.
                    #[allow(clippy::expect_used)]
                    let c = conn.take().expect("connection consumed twice");
                    match ports[idx].queue.try_send(c) {
                        Ok(()) => {
                            // Queued and counted first, woken second: the
                            // shard that finds the byte finds the connection,
                            // and a client it answers has been counted.
                            shared.counters.conns_accepted.fetch_add(1, Ordering::Relaxed);
                            wake(&ports[idx].waker);
                            handed = true;
                            next = (idx + 1) % ports.len();
                            break;
                        }
                        Err(TrySendError::Full(c)) | Err(TrySendError::Disconnected(c)) => {
                            conn = Some(c);
                        }
                    }
                }
                if !handed {
                    // Backpressure instead of collapse: typed busy reply,
                    // charged to the shedder as overflow.
                    shared.counters.conns_rejected.fetch_add(1, Ordering::Relaxed);
                    shared.shed.record_overflow();
                    if let Some(c) = conn {
                        bounce(c, b"SERVER_ERROR busy\r\n");
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // The wake byte is left unread: it is only ever sent with
                // `stop`.
                block_on(&mut fds);
            }
            // A signal, or a handshake the peer gave up on: nothing is left
            // stuck, so there is nothing to wait for.
            Err(e) if matches!(e.kind(), std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted) => {}
            Err(_) => {
                shared.counters.accept_errors.fetch_add(1, Ordering::Relaxed);
                back_off();
            }
        }
    }
}

/// Size a connection buffer starts at, and shrinks back to once it has
/// drained empty. Also the most one sweep reads from a connection
/// (DESIGN.md §9, "Read size").
const BUF_BASELINE: usize = 64 * 1024;

/// A connection's input. `buf` is initialised to its whole length so the
/// socket reads straight into `buf[tail..]`; `buf[head..tail]` is unparsed.
/// Frames are consumed by advancing `head`; bytes move only when the
/// partial frame left at the end of a sweep is brought to the front, once,
/// before the next read.
struct InBuf {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    /// What the parser said the frame at `head` needs (0: nothing pending).
    needed: usize,
}

impl InBuf {
    fn new() -> Self {
        InBuf {
            buf: vec![0; BUF_BASELINE],
            head: 0,
            tail: 0,
            needed: 0,
        }
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.head..self.tail]
    }

    fn consume(&mut self, n: usize) {
        self.head += n;
    }

    fn clear(&mut self) {
        self.head = 0;
        self.tail = 0;
    }

    /// Reads once from `stream` into the free space, after making some:
    /// the partial frame moves to the front, an empty oversized buffer
    /// shrinks, and the buffer grows only to what one frame needs.
    fn read_from(&mut self, stream: &mut impl Read) -> std::io::Result<usize> {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.tail == 0 && self.buf.len() > BUF_BASELINE {
            self.buf.truncate(BUF_BASELINE);
            self.buf.shrink_to_fit();
        }
        // The parser bounds `needed` by its line and value limits.
        let needed = std::mem::take(&mut self.needed).max(self.tail + 1);
        if needed > self.buf.len() {
            self.buf.resize(needed.next_multiple_of(BUF_BASELINE), 0);
        }
        let n = stream.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }
}

/// A connection's output. Replies are appended to `buf`; `buf[head..]` is
/// unsent. A flush only advances `head`, so an index taken before a reply
/// was appended stays valid for truncating it; sent bytes are forgotten
/// between frames, by [`OutBuf::reclaim`].
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    head: usize,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Takes back the reply appended since `mark`. Returns false, and
    /// leaves the buffer alone, when a flush already sent part of it: the
    /// peer then holds half a reply that nothing written after it can make
    /// whole, and the connection has to go.
    #[must_use]
    fn take_back(&mut self, mark: usize) -> bool {
        let unsent = self.head <= mark;
        if unsent {
            self.buf.truncate(mark);
        }
        unsent
    }

    /// Writes as much as the socket accepts. Returns false when the
    /// connection is dead.
    fn write_some(&mut self, stream: &mut impl Write) -> bool {
        while self.head < self.buf.len() {
            match stream.write(&self.buf[self.head..]) {
                Ok(0) => return false,
                Ok(n) => self.head += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Forgets the sent bytes: a drained buffer restarts at 0 (and shrinks
    /// if it had grown large); unsent bytes move to the front only once
    /// the sent part is at least as long, so a byte moves at most once per
    /// byte written.
    fn reclaim(&mut self) {
        let pending = self.pending();
        if pending == 0 {
            self.buf.clear();
            if self.buf.capacity() > BUF_BASELINE {
                self.buf.shrink_to(BUF_BASELINE);
            }
        } else if self.head >= pending {
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(pending);
        } else {
            return;
        }
        self.head = 0;
    }
}

/// One connection owned by a shard.
struct Conn<S> {
    stream: S,
    inbuf: InBuf,
    outbuf: OutBuf,
    /// Write out what is buffered, then close.
    closing: bool,
}

impl<S> Conn<S> {
    fn over(stream: S) -> Self {
        Conn {
            stream,
            inbuf: InBuf::new(),
            outbuf: OutBuf::default(),
            closing: false,
        }
    }
}

/// Blocks until a connection can make progress or a wake-up arrives, then
/// forgets the wake-ups. Call only after a sweep found nothing to do: what
/// is waited for is what that sweep found would block.
fn wait_ready(fds: &mut Vec<PollFd>, wake_rx: &UnixStream, conns: &[Conn<TcpStream>]) {
    fds.clear();
    fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
    fds.extend(conns.iter().map(|conn| {
        let input = if conn.closing { 0 } else { POLLIN };
        let output = if conn.outbuf.pending() > 0 { POLLOUT } else { 0 };
        PollFd::new(conn.stream.as_raw_fd(), input | output)
    }));
    block_on(fds);
    if fds[0].revents() != 0 {
        drain_wakes(wake_rx);
    }
}

/// How long a stopping shard keeps trying to hand its connections the
/// replies they are still owed.
const FINAL_FLUSH_DEADLINE: Duration = Duration::from_millis(100);

/// The shard event loop: adopt queued connections, sweep each connection
/// (read → parse/execute → write), block until one is ready when idle.
// ORDERING: SeqCst load of `stop` — pairs with shutdown's SeqCst store.
// Relaxed counter and gauge updates — statistics.
fn shard_loop(shared: &Shared, rx: &Receiver<TcpStream>, wake_rx: &UnixStream) {
    let mut conns: Vec<Conn<TcpStream>> = Vec::new();
    // The wait set, rebuilt for each wait in storage kept between them.
    let mut fds: Vec<PollFd> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        let mut progressed = false;
        // Adopt pending connections, bouncing past the per-shard cap.
        while let Ok(stream) = rx.try_recv() {
            progressed = true;
            if conns.len() >= shared.cfg.max_conns_per_shard {
                shared.counters.conns_rejected.fetch_add(1, Ordering::Relaxed);
                shared.shed.record_overflow();
                bounce(stream, b"SERVER_ERROR busy\r\n");
                continue;
            }
            // A socket that died before setup leaves nothing to clean up.
            if stream.set_nonblocking(true).is_ok() {
                let _ = stream.set_nodelay(true);
                shared.conns_open.fetch_add(1, Ordering::Relaxed);
                conns.push(Conn::over(stream));
            }
        }
        let mut i = 0;
        while i < conns.len() {
            let alive = sweep_conn(shared, &mut conns[i], &mut progressed);
            if alive {
                i += 1;
            } else {
                shared.conns_open.fetch_sub(1, Ordering::Relaxed);
                conns.swap_remove(i);
            }
        }
        if !progressed {
            wait_ready(&mut fds, wake_rx, &conns);
        }
    }
    // Stop: best-effort final flush so drained replies reach clients. Each
    // round writes what the sockets take and keeps the connections that are
    // alive and still owed output, then waits for room on those.
    shared.conns_open.fetch_sub(conns.len() as u64, Ordering::Relaxed);
    let flush_deadline = Instant::now() + FINAL_FLUSH_DEADLINE;
    loop {
        conns.retain_mut(|conn| conn.outbuf.write_some(&mut conn.stream) && conn.outbuf.pending() > 0);
        let left = flush_deadline.saturating_duration_since(Instant::now());
        if conns.is_empty() || left.is_zero() {
            break;
        }
        fds.clear();
        fds.extend(conns.iter().map(|conn| PollFd::new(conn.stream.as_raw_fd(), POLLOUT)));
        if matches!(poll(&mut fds, Some(left)), Err(e) if e.kind() != std::io::ErrorKind::Interrupted) {
            break;
        }
    }
}

/// What a request leaves its connection to do.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Next {
    /// Go on to the next frame.
    Continue,
    /// Flush what is buffered, then close (quit, fatal frame, shutdown).
    Close,
    /// Drop the connection now.
    Drop,
}

/// Services one connection once. Returns false when the connection should
/// be dropped.
// ORDERING: Relaxed counter bumps only — statistics, not synchronization;
// request admission ordering lives in DrainGate/LoadShedder.
fn sweep_conn<S: Read + Write>(shared: &Shared, conn: &mut Conn<S>, progressed: &mut bool) -> bool {
    // 1. Read what is available, once; a full buffer is served first.
    if !conn.closing {
        match conn.inbuf.read_from(&mut conn.stream) {
            Ok(0) => {
                // Peer half-closed; process what we have, then close.
                conn.closing = true;
                *progressed = true;
            }
            Ok(_) => *progressed = true,
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted) => {}
            Err(_) => return false,
        }
    }
    // 2. Parse and execute complete frames where they lie.
    let mut next = Next::Continue;
    while next == Next::Continue {
        match proto::parse_request(conn.inbuf.pending(), &shared.cfg.limits) {
            Parsed::Incomplete { needed } => {
                conn.inbuf.needed = needed;
                break;
            }
            Parsed::Frame { req, consumed } => {
                next = handle_request(shared, &mut conn.stream, &mut conn.outbuf, req);
                conn.inbuf.consume(consumed);
            }
            Parsed::Error { reply, consumed } => {
                shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
                conn.outbuf.buf.extend_from_slice(reply.as_bytes());
                conn.inbuf.consume(consumed);
            }
            Parsed::Fatal { reply } => {
                shared.counters.fatal_closes.fetch_add(1, Ordering::Relaxed);
                conn.outbuf.buf.extend_from_slice(reply.as_bytes());
                conn.inbuf.clear();
                next = Next::Close;
            }
        }
        *progressed = true;
        if next != Next::Drop && !within_outbuf_cap(shared, &mut conn.stream, &mut conn.outbuf) {
            next = Next::Drop;
        }
        conn.outbuf.reclaim();
    }
    match next {
        Next::Continue => {}
        Next::Close => conn.closing = true,
        Next::Drop => return false,
    }
    // 3. Flush.
    if !conn.outbuf.write_some(&mut conn.stream) {
        return false;
    }
    conn.outbuf.reclaim();
    // A closing connection lingers until its outbuf is flushed.
    !(conn.closing && conn.outbuf.pending() == 0)
}

/// The slow-reader cap, checked after every reply (and every value of a
/// multi-get) so that one connection's unsent output never exceeds
/// `max_outbuf` by more than one reply. A backlog past the cap is offered
/// to the socket; returns false when the connection must be dropped,
/// because it is dead or still over the cap.
// ORDERING: Relaxed — statistics.
fn within_outbuf_cap(shared: &Shared, stream: &mut impl Write, out: &mut OutBuf) -> bool {
    let pending = out.pending();
    let high_water = &shared.counters.outbuf_high_water;
    if pending as u64 > high_water.load(Ordering::Relaxed) {
        high_water.fetch_max(pending as u64, Ordering::Relaxed);
    }
    if pending <= shared.cfg.max_outbuf {
        return true;
    }
    if !out.write_some(stream) {
        return false;
    }
    if out.pending() > shared.cfg.max_outbuf {
        shared.counters.slow_reader_drops.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    true
}

/// Executes one parsed request against the store, the shedder, and the
/// drain gate, appending its reply to `out`.
// ORDERING: Relaxed counter bumps — advisory stats; admission and drain
// correctness live in LoadShedder and DrainGate respectively.
fn handle_request(shared: &Shared, stream: &mut impl Write, out: &mut OutBuf, req: Request<'_>) -> Next {
    // Commands that bypass admission entirely.
    match req {
        Request::Quit => return Next::Close,
        Request::Version => {
            out.buf.extend_from_slice(b"VERSION s3fifo-cache 0.1\r\n");
            return Next::Continue;
        }
        Request::Stats => {
            write_stats(shared, &mut out.buf);
            return Next::Continue;
        }
        Request::Metrics => {
            let registry = collect_registry(shared);
            let text = registry_to_prometheus(&registry);
            out.buf.extend_from_slice(text.as_bytes());
            out.buf.extend_from_slice(b"END\r\n");
            return Next::Continue;
        }
        _ => {}
    }
    let noreply = matches!(
        req,
        Request::Set { noreply: true, .. } | Request::Delete { noreply: true, .. }
    );
    // Drain gate: no new work once shutdown began.
    let Some(_in_flight) = shared.gate.try_enter() else {
        if !noreply {
            out.buf.extend_from_slice(b"SERVER_ERROR shutting-down\r\n");
        }
        return Next::Close;
    };
    // Load shedder: bounce before touching the store.
    let is_write = req.is_write();
    let admission = shared.shed.admit(is_write);
    if admission == Admission::Shed {
        shared.counters.shed_replies.fetch_add(1, Ordering::Relaxed);
        if !noreply {
            out.buf.extend_from_slice(if is_write {
                b"SERVER_ERROR shed-write\r\n".as_slice()
            } else {
                b"SERVER_ERROR shed-read\r\n".as_slice()
            });
        }
        return Next::Continue;
    }
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    // Deadline clock starts at admission; injected (fault-plan) delays are
    // slept against it so a delay fault can push a request over. The clock
    // is read again only after something took time: a delay, the store.
    let start = Instant::now();
    let deadline = shared.cfg.deadline;
    let class = if is_write { OpClass::Write } else { OpClass::Read };
    let delay_us = shared.store.next_delay_us(class);
    let mut timed_out = false;
    if delay_us > 0 {
        let sleep = Duration::from_micros(delay_us).min(deadline + Duration::from_millis(1));
        std::thread::sleep(sleep);
        shared
            .counters
            .injected_delay_us
            .fetch_add(sleep.as_micros() as u64, Ordering::Relaxed);
        // When the injected delay alone blew the budget, never touch the
        // store.
        timed_out = start.elapsed() >= deadline;
    }
    // The reply is written in place and taken back if it must not be sent.
    let mark = out.buf.len();
    let mut next = Next::Continue;
    if !timed_out {
        next = execute(shared, stream, out, req);
        timed_out = start.elapsed() >= deadline;
    }
    if timed_out {
        shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
        if out.take_back(mark) {
            out.buf.extend_from_slice(b"SERVER_ERROR timeout\r\n");
        } else {
            next = Next::Drop;
        }
    }
    let met = !timed_out;
    match admission {
        Admission::Probe => shared.shed.record_probe_outcome(is_write, met),
        _ => shared.shed.record_outcome(is_write, met),
    }
    // noreply suppresses success replies AND errors (memcached semantics);
    // timeouts on noreply ops are visible only to stats.
    if noreply {
        // A set or delete: nothing is flushed while its one line is written.
        let _ = out.take_back(mark);
    }
    next
}

/// Runs the store operation and appends the success/typed-error reply.
/// Returns `Drop` when a multi-get's values overran the slow-reader cap, or
/// when a reply that must be replaced is already partly on the wire.
fn execute(shared: &Shared, stream: &mut impl Write, out: &mut OutBuf, req: Request<'_>) -> Next {
    match req {
        Request::Get { keys } => {
            let mark = out.buf.len();
            for key in keys {
                let hit = shared
                    .store
                    .get_with(key, |flags, data| proto::encode_value(&mut out.buf, key, flags, data));
                if let Err(e) = hit {
                    // Typed degradation error replaces the whole reply.
                    if !out.take_back(mark) {
                        return Next::Drop;
                    }
                    store::error_reply(&mut out.buf, &e);
                    return Next::Continue;
                }
                if !within_outbuf_cap(shared, stream, out) {
                    return Next::Drop;
                }
            }
            out.buf.extend_from_slice(b"END\r\n");
        }
        Request::Set {
            key,
            flags,
            exptime,
            value,
            ..
        } => match shared.store.set(key, flags, exptime, value) {
            Ok(()) => out.buf.extend_from_slice(b"STORED\r\n"),
            Err(e) => store::error_reply(&mut out.buf, &e),
        },
        Request::Delete { key, .. } => {
            out.buf.extend_from_slice(if shared.store.delete(key) {
                b"DELETED\r\n".as_slice()
            } else {
                b"NOT_FOUND\r\n".as_slice()
            });
        }
        // Handled before admission; unreachable here but total anyway.
        Request::Stats | Request::Metrics | Request::Version | Request::Quit => {}
    }
    Next::Continue
}

/// Formats the STATS reply.
// ORDERING: Relaxed counter loads — advisory stats.
fn write_stats(shared: &Shared, out: &mut Vec<u8>) {
    use std::fmt::Write as _;
    let mut text = String::new();
    let mut stat = |name: &str, value: String| {
        // Invariant: writing to a String cannot fail.
        let _ = writeln!(text, "STAT {name} {value}\r");
    };
    let c = &shared.counters;
    let sc = &shared.store.counters;
    let cache = shared.store.cache_stats();
    let (level, sw, sr, dm, of, pr, wt, wrec, rt, rrec) = shared.shed.snapshot();
    stat("uptime_ms", shared.started.elapsed().as_millis().to_string());
    stat("curr_connections", shared.conns_open.load(Ordering::Relaxed).to_string());
    stat("total_connections", c.conns_accepted.load(Ordering::Relaxed).to_string());
    stat("rejected_connections", c.conns_rejected.load(Ordering::Relaxed).to_string());
    stat("accept_errors", c.accept_errors.load(Ordering::Relaxed).to_string());
    stat("cmd_get", sc.gets.load(Ordering::Relaxed).to_string());
    stat("cmd_set", sc.sets.load(Ordering::Relaxed).to_string());
    stat("get_hits", sc.hits.load(Ordering::Relaxed).to_string());
    stat(
        "get_misses",
        sc.gets
            .load(Ordering::Relaxed)
            .saturating_sub(sc.hits.load(Ordering::Relaxed))
            .to_string(),
    );
    stat("deletes", sc.deletes.load(Ordering::Relaxed).to_string());
    stat("expired", sc.expired.load(Ordering::Relaxed).to_string());
    stat("collisions", sc.collisions.load(Ordering::Relaxed).to_string());
    stat("resident", shared.store.len().to_string());
    stat("capacity", shared.store.capacity().to_string());
    stat("dram_hit_ratio", format!("{:.4}", cache.hit_ratio()));
    stat("requests", c.requests.load(Ordering::Relaxed).to_string());
    stat("timeouts", c.timeouts.load(Ordering::Relaxed).to_string());
    stat("parse_errors", c.parse_errors.load(Ordering::Relaxed).to_string());
    stat("fatal_closes", c.fatal_closes.load(Ordering::Relaxed).to_string());
    stat("slow_reader_drops", c.slow_reader_drops.load(Ordering::Relaxed).to_string());
    stat("injected_delay_us", c.injected_delay_us.load(Ordering::Relaxed).to_string());
    stat("outbuf_high_water", c.outbuf_high_water.load(Ordering::Relaxed).to_string());
    stat("shed_level", level.label().to_string());
    stat("shed_writes", sw.to_string());
    stat("shed_reads", sr.to_string());
    stat("shed_replies", c.shed_replies.load(Ordering::Relaxed).to_string());
    stat("deadline_misses", dm.to_string());
    stat("overflows", of.to_string());
    stat("probes", pr.to_string());
    stat("write_budget_trips", wt.to_string());
    stat("write_budget_recoveries", wrec.to_string());
    stat("read_budget_trips", rt.to_string());
    stat("read_budget_recoveries", rrec.to_string());
    stat("flash_state", shared.store.flash_state().to_string());
    stat("device_failures", sc.device_failures.load(Ordering::Relaxed).to_string());
    stat("corruptions", sc.corruptions.load(Ordering::Relaxed).to_string());
    stat("degraded", sc.degraded.load(Ordering::Relaxed).to_string());
    out.extend_from_slice(text.as_bytes());
    out.extend_from_slice(b"END\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A scripted peer in place of the socket: reads hand out the queued
    /// input at most `chunk` bytes at a time, writes take at most `accept`
    /// bytes in all (then would block).
    struct Pipe {
        input: VecDeque<u8>,
        chunk: usize,
        output: Vec<u8>,
        accept: usize,
    }

    impl Pipe {
        fn new() -> Self {
            Pipe {
                input: VecDeque::new(),
                chunk: usize::MAX,
                output: Vec::new(),
                accept: usize::MAX,
            }
        }
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.input.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = self.chunk.min(buf.len()).min(self.input.len());
            for (dst, src) in buf.iter_mut().zip(self.input.drain(..n)) {
                *dst = src;
            }
            Ok(n)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.accept == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = self.accept.min(buf.len());
            self.output.extend_from_slice(&buf[..n]);
            self.accept -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn shared(mutate: impl FnOnce(&mut ServerConfig)) -> Shared {
        let mut cfg = ServerConfig {
            deadline: Duration::from_secs(5),
            ..ServerConfig::default()
        };
        mutate(&mut cfg);
        Shared::new(cfg)
    }

    /// Sweeps until the peer's input is used up and a sweep makes no
    /// progress; false when the connection was dropped or closed.
    fn serve(shared: &Shared, conn: &mut Conn<Pipe>) -> bool {
        loop {
            let mut progressed = false;
            if !sweep_conn(shared, conn, &mut progressed) {
                return false;
            }
            if !progressed {
                return true;
            }
        }
    }

    fn set_frame(key: &str, value: &[u8]) -> Vec<u8> {
        let mut f = format!("set {key} 0 0 {}\r\n", value.len()).into_bytes();
        f.extend_from_slice(value);
        f.extend_from_slice(b"\r\n");
        f
    }

    #[test]
    // ORDERING: SeqCst store of `stop`, as in `stop_and_join`; Relaxed
    // counters — `calls` publishes nothing, and the final reads come after
    // the acceptor thread was joined.
    fn accept_errors_are_counted_and_back_off_instead_of_spinning() {
        let shared = shared(|_| {});
        // A connection that is never accepted keeps the listener readable,
        // as it stays when `accept` fails for want of a descriptor.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _pending = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (waker, wake_rx) = wake_channel().expect("wake channel");
        let calls = AtomicU64::new(0);
        let out_of_descriptors = || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(std::io::Error::from_raw_os_error(24)) // EMFILE
        };
        let began = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| accept_loop(&shared, listener.as_raw_fd(), out_of_descriptors, &[], &wake_rx));
            while calls.load(Ordering::Relaxed) < 20 {
                std::thread::yield_now();
            }
            shared.stop.store(true, Ordering::SeqCst);
            wake(&waker);
        });
        // Every failure is followed by one back-off; waiting on the readable
        // listener instead would make 20 calls in microseconds.
        let calls = calls.load(Ordering::Relaxed);
        let most = began.elapsed().as_nanos() / ERROR_BACKOFF.as_nanos() + 1;
        assert!(u128::from(calls) <= most, "{calls} accepts, at most {most} expected");
        assert_eq!(shared.counters.accept_errors.load(Ordering::Relaxed), calls);
        let mut stats = Vec::new();
        write_stats(&shared, &mut stats);
        assert!(String::from_utf8_lossy(&stats).contains(&format!("STAT accept_errors {calls}\r\n")));
    }

    #[test]
    // ORDERING: SeqCst store of `stop`, as in `stop_and_join`; Relaxed
    // counters — `calls` publishes nothing, and `accept_errors` is read
    // after the acceptor thread was joined.
    fn accept_errors_that_leave_nothing_pending_are_retried_uncounted() {
        use std::io::ErrorKind::{ConnectionAborted, Interrupted, WouldBlock};
        let shared = shared(|_| {});
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (waker, wake_rx) = wake_channel().expect("wake channel");
        let calls = AtomicU64::new(0);
        let passing = || {
            Err(match calls.fetch_add(1, Ordering::Relaxed) {
                n if n >= 100 => WouldBlock,
                n if n % 2 == 0 => Interrupted,
                _ => ConnectionAborted,
            }
            .into())
        };
        std::thread::scope(|s| {
            s.spawn(|| accept_loop(&shared, listener.as_raw_fd(), passing, &[], &wake_rx));
            while calls.load(Ordering::Relaxed) <= 100 {
                std::thread::yield_now();
            }
            shared.stop.store(true, Ordering::SeqCst);
            wake(&waker);
        });
        assert_eq!(shared.counters.accept_errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_slow_writer_gets_every_byte_in_order() {
        let shared = shared(|_| {});
        let mut conn = Conn::over(Pipe::new());
        conn.stream.input.extend(set_frame("k", &[b'v'; 5000]));
        conn.stream.input.extend(b"get k\r\n".repeat(20));
        let mut expect = b"STORED\r\n".to_vec();
        for _ in 0..20 {
            proto::encode_value(&mut expect, "k", 0, &[b'v'; 5000]);
            expect.extend_from_slice(b"END\r\n");
        }
        // The peer takes 777 bytes a sweep: the cursor, the move to the
        // front and the reset all happen many times over.
        conn.stream.accept = 0;
        while conn.stream.output.len() < expect.len() {
            conn.stream.accept = 777;
            let mut progressed = false;
            assert!(sweep_conn(&shared, &mut conn, &mut progressed));
            assert!(conn.outbuf.buf.len() <= expect.len(), "sent bytes are forgotten");
        }
        assert_eq!(conn.stream.output, expect);
        assert_eq!(conn.outbuf.pending(), 0);
    }

    #[test]
    fn buffers_give_memory_back_once_drained() {
        let shared = shared(|_| {});
        let mut conn = Conn::over(Pipe::new());
        let big = vec![b'x'; 1 << 20];
        conn.stream.chunk = 100_000;
        conn.stream.input.extend(set_frame("big", &big));
        conn.stream.input.extend(b"get big\r\n");
        assert!(serve(&shared, &mut conn));
        assert!(conn.stream.output.ends_with(b"x\r\nEND\r\n"));
        assert_eq!(conn.stream.output.len(), b"STORED\r\nVALUE big 0 1048576\r\n\r\nEND\r\n".len() + big.len());
        // Small requests afterwards run in baseline-sized buffers again.
        conn.stream.input.extend(b"get nothing\r\n");
        assert!(serve(&shared, &mut conn));
        assert_eq!(conn.inbuf.buf.capacity(), BUF_BASELINE);
        assert!(conn.outbuf.buf.capacity() <= BUF_BASELINE, "{}", conn.outbuf.buf.capacity());
    }

    #[test]
    // ORDERING: Relaxed counter reads — single-threaded test assertions.
    fn the_outbuf_cap_holds_inside_a_sweep() {
        let shared = shared(|c| c.max_outbuf = 2048);
        let mut conn = Conn::over(Pipe::new());
        let value = vec![b'x'; 16 * 1024];
        conn.stream.input.extend(set_frame("hot", &value));
        assert!(serve(&shared, &mut conn));
        // A peer that never reads: the first reply overruns the cap, the
        // connection is dropped there and the other 223 gets never run.
        conn.stream.accept = 0;
        conn.stream.input.extend(b"get hot\r\n".repeat(224));
        assert!(!serve(&shared, &mut conn));
        let c = &shared.counters;
        assert_eq!(c.slow_reader_drops.load(Ordering::Relaxed), 1);
        assert_eq!(shared.store.counters.gets.load(Ordering::Relaxed), 1);
        let one_reply = value.len() + "VALUE hot 0 16384\r\n\r\nEND\r\n".len();
        assert!(c.outbuf_high_water.load(Ordering::Relaxed) as usize <= 2048 + one_reply);
        // Likewise per value of a multi-get.
        let mut conn = Conn::over(Pipe::new());
        conn.stream.accept = 0;
        conn.stream.input.extend(b"get hot hot hot hot hot hot hot hot\r\n");
        assert!(!serve(&shared, &mut conn));
        assert_eq!(shared.store.counters.gets.load(Ordering::Relaxed), 2);
        assert!(c.outbuf_high_water.load(Ordering::Relaxed) as usize <= 2048 + one_reply);
    }

    #[test]
    // ORDERING: Relaxed counter reads — single-threaded test assertions.
    fn a_reply_partly_sent_is_never_patched_with_an_error() {
        // Every request overruns a 1 ns deadline after its reply is built.
        let shared = shared(|c| {
            c.deadline = Duration::from_nanos(1);
            c.max_outbuf = 20_000;
        });
        let value = vec![b'x'; 16 * 1024];
        shared.store.set("hot", 0, 0, &value).expect("set");
        let mut one = Vec::new();
        proto::encode_value(&mut one, "hot", 0, &value);
        // Nothing sent yet: the error replaces the whole reply.
        let mut conn = Conn::over(Pipe::new());
        conn.stream.input.extend(b"get hot\r\n");
        assert!(serve(&shared, &mut conn));
        assert_eq!(conn.stream.output, b"SERVER_ERROR timeout\r\n");
        // The second value overruns the cap and the peer takes both; the
        // third is buffered when the deadline is found missed. The error
        // cannot follow two values of a reply that has no END: the
        // connection goes, and what the peer got is a prefix of the reply.
        let mut conn = Conn::over(Pipe::new());
        conn.stream.accept = 40_000;
        conn.stream.input.extend(b"get hot hot hot\r\nget hot\r\n");
        assert!(!serve(&shared, &mut conn));
        assert_eq!(conn.stream.output, [one.as_slice(), one.as_slice()].concat());
        assert_eq!(shared.counters.timeouts.load(Ordering::Relaxed), 2);
        assert_eq!(shared.counters.slow_reader_drops.load(Ordering::Relaxed), 0);
        assert_eq!(shared.store.counters.gets.load(Ordering::Relaxed), 4, "the frame after it never ran");
    }
}
