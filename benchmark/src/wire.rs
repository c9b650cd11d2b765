//! The load generator: a TCP client for the server's text protocol, with a
//! closed loop (a fixed number of requests in flight per connection) and an
//! open loop (requests sent on a schedule whatever the server does, each
//! timed from the instant it was due, so a stall is charged to every
//! request it delays).
//!
//! One thread drives every connection, with non-blocking sockets that it
//! polls without sleeping. A generator that blocks in `read` is woken by
//! the kernel some tens of microseconds after the reply arrives, and a
//! sender that sleeps until the next request is due oversleeps by as much;
//! on the 2-core reference host those delays, not the server, then decide
//! what is measured (a closed loop against this server is bistable: it
//! either overlaps with the server's sweeps or phase-locks with its idle
//! sleep, at a third of the throughput). Polling costs one core and leaves
//! the other to the server.
//!
//! The client knows the reply each request must get and checks every one.
//! A request that is refused, shed, timed out, answered with another key's
//! payload, or answered with a payload newer than anything sent, is a
//! failed request.

use crate::plan::{check_value, push_request, Op, OpKind};
use crate::spans::{Recorder, NO_PARENT};
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// When no byte moves on any connection for this long, every request in
/// flight fails and the loop ends; it is also the latency a failed request
/// is charged, so that a failure can never improve a percentile.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Writers the harness can tell apart in a payload (connections, the
/// pre-warm pass, the depth-1 probe).
pub const LANES: usize = 8;

/// How many operations each writer has put on the wire so far. A payload
/// that claims a sequence number at or beyond its writer's count is newer
/// than anything sent, and therefore wrong. Every connection of a server
/// shares one of these; the one generator thread is their only user.
pub type SentUpTo = [Cell<u64>; LANES];

pub fn new_sent() -> SentUpTo {
    std::array::from_fn(|_| Cell::new(0))
}

/// What the connections saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub gets: u64,
    pub get_misses: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.gets += o.gets;
        self.get_misses += o.get_misses;
        self.bytes_sent += o.bytes_sent;
        self.bytes_received += o.bytes_received;
    }
}

/// One client connection and its place in its op plan.
pub struct Conn<'a> {
    stream: TcpStream,
    plan: &'a [Op],
    lane: u32,
    value_len: usize,
    sent: &'a SentUpTo,
    /// Received bytes not yet parsed: `inbuf[in_start..in_end]`.
    inbuf: Vec<u8>,
    in_start: usize,
    in_end: usize,
    /// When the last `read` that returned bytes returned.
    last_fill: Instant,
    /// Request bytes the socket has not accepted yet: `outbuf[out_start..]`.
    outbuf: Vec<u8>,
    out_start: usize,
    /// Operations encoded so far; operation `seq` is `plan[seq % len]`.
    seq: u64,
    /// Replies read so far.
    answered: u64,
    pub tally: Tally,
}

impl<'a> Conn<'a> {
    pub fn open(
        addr: SocketAddr,
        plan: &'a [Op],
        lane: u32,
        value_len: usize,
        sent: &'a SentUpTo,
    ) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            plan,
            lane,
            value_len,
            sent,
            inbuf: vec![0; 64 * 1024],
            in_start: 0,
            in_end: 0,
            last_fill: Instant::now(),
            outbuf: Vec::new(),
            out_start: 0,
            seq: 0,
            answered: 0,
            tally: Tally::default(),
        })
    }

    fn in_flight(&self) -> u64 {
        self.seq - self.answered
    }

    /// Encodes the next `n` operations of the plan into the out-buffer.
    fn enqueue(&mut self, n: u64) {
        if self.out_start == self.outbuf.len() {
            self.outbuf.clear();
            self.out_start = 0;
        }
        let before = self.outbuf.len();
        for seq in self.seq..self.seq + n {
            let op = self.plan[(seq % self.plan.len() as u64) as usize];
            push_request(&mut self.outbuf, op, self.lane, seq, self.value_len);
        }
        self.seq += n;
        self.tally.attempted += n;
        self.tally.bytes_sent += (self.outbuf.len() - before) as u64;
        // A later connection may reuse a lane and start counting again while
        // the server still holds the earlier one's values: the count only
        // ever grows.
        let sent = &self.sent[self.lane as usize];
        sent.set(sent.get().max(self.seq));
    }

    /// Hands the socket as much of the out-buffer as it takes. True when
    /// nothing is left.
    fn flush(&mut self) -> io::Result<bool> {
        while self.out_start < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_start..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Reads what the socket holds, without waiting. True when bytes came.
    fn fill(&mut self) -> io::Result<bool> {
        if self.in_start == self.in_end {
            self.in_start = 0;
            self.in_end = 0;
        } else if self.in_end == self.inbuf.len() {
            self.inbuf.copy_within(self.in_start..self.in_end, 0);
            self.in_end -= self.in_start;
            self.in_start = 0;
            if self.in_end == self.inbuf.len() {
                self.inbuf.resize(self.inbuf.len() * 2, 0);
            }
        }
        match self.stream.read(&mut self.inbuf[self.in_end..]) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.last_fill = Instant::now();
                self.in_end += n;
                self.tally.bytes_received += n as u64;
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Parses and checks the reply to the oldest unanswered operation, if
    /// all of it has arrived; consumes nothing otherwise. True when the
    /// reply is the right one.
    fn try_reply(&mut self) -> Option<bool> {
        let op = self.plan[(self.answered % self.plan.len() as u64) as usize];
        let pending = &self.inbuf[self.in_start..self.in_end];
        let (line, after_line) = split_line(pending)?;
        let (ok, used) = match op.kind {
            OpKind::Set => (line == b"STORED", after_line),
            OpKind::Delete => (line == b"DELETED" || line == b"NOT_FOUND", after_line),
            OpKind::Get if line == b"END" => {
                self.tally.get_misses += 1;
                (true, after_line)
            }
            OpKind::Get => match value_line_len(line) {
                // SERVER_ERROR and the like: one line, no END.
                None => (false, after_line),
                Some(len) => {
                    let data = pending.get(after_line..after_line + len)?;
                    let (end, after_end) = split_line(pending.get(after_line + len + 2..)?)?;
                    let good = end == b"END" && self.check(data, op.key);
                    (good, after_line + len + 2 + after_end)
                }
            },
        };
        self.tally.gets += u64::from(op.kind == OpKind::Get);
        self.tally.failed += u64::from(!ok);
        self.in_start += used;
        self.answered += 1;
        Some(ok)
    }

    fn check(&self, data: &[u8], key: u32) -> bool {
        check_value(data, key, self.value_len).is_some_and(|(lane, seq)| {
            (lane as usize) < LANES && seq < self.sent[lane as usize].get()
        })
    }

    /// Everything in flight has failed: the connection is gone or silent.
    fn abandon(&mut self) {
        self.tally.failed += self.in_flight();
        self.answered = self.seq;
    }
}

/// The first line of `buf` without its terminator, and the offset just
/// after the terminator; `None` when no full line is there yet.
fn split_line(buf: &[u8]) -> Option<(&[u8], usize)> {
    let nl = buf.iter().position(|&b| b == b'\n')?;
    let end = if nl > 0 && buf[nl - 1] == b'\r' {
        nl - 1
    } else {
        nl
    };
    Some((&buf[..end], nl + 1))
}

/// The byte count at the end of a `VALUE <key> <flags> <bytes>` line.
fn value_line_len(line: &[u8]) -> Option<usize> {
    if !line.starts_with(b"VALUE ") {
        return None;
    }
    let digits = line.rsplit(|&b| b == b' ').next()?;
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// When a closed loop stops and what it counts.
pub struct ClosedRun {
    /// Requests in flight per connection.
    pub depth: u64,
    /// Replies completed before this instant are warm-up and not counted.
    pub count_from: Instant,
    pub until: Instant,
    /// Stop after this many operations per connection even if `until` has
    /// not come.
    pub max_ops: u64,
    pub window: Duration,
}

/// What a closed loop measured.
#[derive(Default)]
pub struct ClosedOut {
    /// Correct replies completed in each `window`-long slot after
    /// `count_from`.
    pub windows: Vec<u64>,
    /// Round trips in nanoseconds, recorded when `depth` is 1.
    pub rtts_ns: Vec<u64>,
    /// A span per refill of a connection's window, when the run is traced.
    pub rec: Option<Recorder>,
}

/// Closed loop over all of `conns`: each keeps up to `depth` requests in
/// flight and is refilled once half of them have been answered, so that the
/// server is handed requests in batches, as a pipelining client would, and
/// always has the other connections' work when it finishes one.
pub fn closed_loop(conns: &mut [Conn], run: &ClosedRun, out: &mut ClosedOut) {
    let refill_at = (run.depth / 2).max(1);
    let first_seq: Vec<u64> = conns.iter().map(|c| c.seq).collect();
    let mut refilled_at: Vec<Instant> = vec![Instant::now(); conns.len()];
    let mut last_progress = Instant::now();
    loop {
        let now = Instant::now();
        let stop = now >= run.until;
        let mut busy = false;
        let mut progressed = false;
        for (i, c) in conns.iter_mut().enumerate() {
            let step = (|| {
                progressed |= c.fill()?;
                let before = (c.answered, c.tally.failed);
                while c.in_flight() > 0 && c.try_reply().is_some() {}
                let answered = c.answered - before.0;
                if answered > 0 && now >= run.count_from {
                    let slot = ((now - run.count_from).as_nanos() / run.window.as_nanos()) as usize;
                    if out.windows.len() <= slot {
                        out.windows.resize(slot + 1, 0);
                    }
                    out.windows[slot] += answered - (c.tally.failed - before.1);
                    if c.in_flight() == 0 {
                        let done = Instant::now();
                        if run.depth == 1 {
                            out.rtts_ns.push((done - refilled_at[i]).as_nanos() as u64);
                        }
                        if let Some(rec) = out.rec.as_mut() {
                            rec.push(
                                "client.window",
                                refilled_at[i],
                                done,
                                NO_PARENT,
                                c.answered,
                                run.depth as u32,
                            );
                        }
                    }
                }
                let room = run.depth - c.in_flight();
                let left = run.max_ops - (c.seq - first_seq[i]);
                if !stop && room >= refill_at && left > 0 && c.out_start == c.outbuf.len() {
                    c.enqueue(room.min(left));
                    refilled_at[i] = now;
                    progressed = true;
                }
                c.flush()
            })();
            if step.is_err() {
                c.abandon();
            }
            busy |= c.in_flight() > 0 || (!stop && c.seq - first_seq[i] < run.max_ops);
        }
        if !busy {
            return;
        }
        if progressed {
            last_progress = now;
        } else if now - last_progress > REPLY_TIMEOUT {
            conns.iter_mut().for_each(Conn::abandon);
            return;
        }
        std::hint::spin_loop();
    }
}

/// One open-loop request: when it was due, when its bytes went to the
/// socket, when the `read` that completed its reply returned, when the reply
/// was parsed and checked. Nanoseconds since the phase started.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenSample {
    pub due_ns: u64,
    pub send_start_ns: u64,
    pub send_end_ns: u64,
    pub arrived_ns: u64,
    pub done_ns: u64,
    pub failed: bool,
}

impl OpenSample {
    /// Latency from the instant the request was due; a failed request is
    /// charged the reply timeout.
    pub fn latency_us(&self) -> f64 {
        if self.failed {
            REPLY_TIMEOUT.as_secs_f64() * 1e6
        } else {
            self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
        }
    }

    /// How long after it was due the request was sent.
    pub fn late_us(&self) -> f64 {
        self.send_start_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// Open loop: request `i` is due `due_ns[i]` after `start` and is sent
/// then, on connection `i % conns.len()`, however many replies are
/// outstanding. Returns one sample per request.
pub fn open_loop(conns: &mut [Conn], due_ns: &[u64], start: Instant) -> Vec<OpenSample> {
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let mut samples = vec![OpenSample::default(); due_ns.len()];
    // Requests in flight on each connection, oldest first.
    let mut pending: Vec<VecDeque<usize>> = vec![VecDeque::new(); conns.len()];
    // Requests whose bytes the socket has not fully accepted yet.
    let mut unsent: Vec<VecDeque<usize>> = vec![VecDeque::new(); conns.len()];
    let mut next = 0usize;
    let mut last_progress = Instant::now();
    loop {
        let now = Instant::now();
        let now_ns = ns(now);
        let mut progressed = false;
        // Everything due by now is sent now.
        while next < due_ns.len() && due_ns[next] <= now_ns {
            let c = next % conns.len();
            conns[c].enqueue(1);
            samples[next].due_ns = due_ns[next];
            samples[next].send_start_ns = now_ns;
            pending[c].push_back(next);
            unsent[c].push_back(next);
            next += 1;
            progressed = true;
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            let step = (|| {
                if !unsent[c].is_empty() && conn.flush()? {
                    let sent_ns = ns(Instant::now());
                    for i in unsent[c].drain(..) {
                        samples[i].send_end_ns = sent_ns;
                    }
                }
                progressed |= conn.fill()?;
                while let Some(&i) = pending[c].front() {
                    let Some(ok) = conn.try_reply() else {
                        break;
                    };
                    let s = &mut samples[i];
                    s.arrived_ns = ns(conn.last_fill).max(s.send_end_ns);
                    s.done_ns = ns(Instant::now());
                    s.failed = !ok;
                    pending[c].pop_front();
                }
                io::Result::Ok(())
            })();
            if step.is_err() {
                conn.abandon();
                for i in pending[c].drain(..) {
                    samples[i].failed = true;
                }
                unsent[c].clear();
            }
        }
        if next == due_ns.len() && pending.iter().all(VecDeque::is_empty) {
            return samples;
        }
        if progressed {
            last_progress = now;
        } else if now - last_progress > REPLY_TIMEOUT {
            for (c, conn) in conns.iter_mut().enumerate() {
                conn.abandon();
                for i in pending[c].drain(..) {
                    samples[i].failed = true;
                }
            }
            // What was never sent has failed as well.
            for (s, &due) in samples.iter_mut().zip(due_ns).skip(next) {
                *s = OpenSample {
                    due_ns: due,
                    failed: true,
                    ..OpenSample::default()
                };
            }
            return samples;
        }
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::arrival_schedule;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A stand-in server: answers every `get` with a miss, at once, except
    /// that it sleeps for `stall` before answering request number `stall_at`.
    fn stub_server(
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut served = 0;
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                assert!(line.starts_with("get key:"), "unexpected request {line:?}");
                if served == stall_at {
                    std::thread::sleep(stall);
                }
                if writer.write_all(b"END\r\n").is_err() {
                    break;
                }
                served += 1;
            }
            served
        });
        (addr, handle)
    }

    fn gets(n: u32) -> Vec<Op> {
        (0..n)
            .map(|key| Op {
                kind: OpKind::Get,
                key,
            })
            .collect()
    }

    #[test]
    fn open_loop_sends_at_due_times_and_reports_lateness() {
        let (addr, server) = stub_server(usize::MAX, Duration::ZERO);
        let plan = gets(64);
        let sent = new_sent();
        let due = arrival_schedule(2_000.0, 0.25, 9, 0);
        let samples = {
            let mut conns = [Conn::open(addr, &plan, 0, 64, &sent).expect("connect")];
            let samples = open_loop(&mut conns, &due, Instant::now());
            assert_eq!(conns[0].tally.attempted, due.len() as u64);
            assert_eq!(conns[0].tally.get_misses, due.len() as u64);
            assert_eq!(conns[0].tally.failed, 0);
            samples
        };
        assert_eq!(server.join().expect("stub"), due.len());
        assert_eq!(samples.len(), due.len());
        for (s, &d) in samples.iter().zip(&due) {
            assert!(!s.failed);
            assert_eq!(s.due_ns, d);
            assert!(
                s.send_start_ns >= d,
                "sent {} ns before it was due",
                d - s.send_start_ns
            );
            assert!(
                s.send_end_ns >= s.send_start_ns
                    && s.arrived_ns >= s.send_end_ns
                    && s.done_ns >= s.arrived_ns
            );
        }
        // The schedule, not the replies, paces the sends: the last request
        // goes out when it is due, a quarter of a second in.
        assert!(samples.last().unwrap().send_start_ns >= *due.last().unwrap());
        let mut late: Vec<f64> = samples.iter().map(OpenSample::late_us).collect();
        late.sort_by(f64::total_cmp);
        assert!(
            late[late.len() / 2] < 2_000.0,
            "median lateness {} us",
            late[late.len() / 2]
        );
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        // The server freezes for 60 ms at request 100. A closed loop would
        // send nothing meanwhile and record one slow request; the open loop
        // keeps sending on schedule and every request due during the freeze
        // waits for it, timed from when it was due.
        let stall = Duration::from_millis(60);
        let (addr, server) = stub_server(100, stall);
        let plan = gets(64);
        let sent = new_sent();
        let due = arrival_schedule(2_000.0, 0.25, 3, 0);
        let mut conns = [Conn::open(addr, &plan, 0, 64, &sent).expect("connect")];
        let samples = open_loop(&mut conns, &due, Instant::now());
        drop(conns);
        server.join().expect("stub");
        let delayed = samples.iter().filter(|s| s.latency_us() > 10_000.0).count();
        assert!(delayed >= 50, "only {delayed} requests saw the 60 ms stall");
        let on_time = samples.iter().filter(|s| s.late_us() < 5_000.0).count();
        assert!(
            on_time * 10 >= samples.len() * 9,
            "the stall held the sender back: {on_time} on time"
        );
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_counts_every_reply() {
        let (addr, server) = stub_server(usize::MAX, Duration::ZERO);
        let plan = gets(64);
        let sent = new_sent();
        let mut conns = [Conn::open(addr, &plan, 0, 64, &sent).expect("connect")];
        let now = Instant::now();
        let run = ClosedRun {
            depth: 8,
            count_from: now,
            until: now + Duration::from_secs(30),
            max_ops: 1000,
            window: Duration::from_secs(60),
        };
        let mut out = ClosedOut::default();
        closed_loop(&mut conns, &run, &mut out);
        assert_eq!(conns[0].tally.attempted, 1000);
        assert_eq!(conns[0].tally.failed, 0);
        assert_eq!(out.windows, vec![1000]);
        drop(conns);
        assert_eq!(server.join().expect("stub"), 1000);
    }

    #[test]
    fn a_lane_reused_by_a_later_connection_keeps_its_earlier_values_valid() {
        // The first connection of lane 0 sent ten operations; a second one
        // starts counting from zero and reads back what the first stored.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut line = String::new();
            BufReader::new(stream.try_clone().expect("clone"))
                .read_line(&mut line)
                .expect("request");
            let mut reply = b"VALUE key:00000001 0 64\r\n".to_vec();
            crate::plan::push_value(&mut reply, 1, 0, 7, 64);
            reply.extend_from_slice(b"\r\nEND\r\n");
            stream.write_all(&reply).expect("reply");
        });
        let plan = [Op {
            kind: OpKind::Get,
            key: 1,
        }];
        let sent = new_sent();
        sent[0].set(10);
        let mut conns = [Conn::open(addr, &plan, 0, 64, &sent).expect("connect")];
        let now = Instant::now();
        let run = ClosedRun {
            depth: 1,
            count_from: now,
            until: now + Duration::from_secs(30),
            max_ops: 1,
            window: Duration::from_secs(60),
        };
        closed_loop(&mut conns, &run, &mut ClosedOut::default());
        server.join().expect("stub");
        assert_eq!((conns[0].tally.attempted, conns[0].tally.failed), (1, 0));
        assert_eq!(sent[0].get(), 10);
    }

    #[test]
    fn a_wrong_or_refused_reply_is_a_failed_request() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut line = String::new();
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            // Key 0's value under key 1's name, then a shed reply, then a miss.
            let mut other = Vec::new();
            crate::plan::push_value(&mut other, 0, 0, 0, 64);
            for reply in [
                [
                    b"VALUE key:00000001 0 64\r\n".as_slice(),
                    &other,
                    b"\r\nEND\r\n",
                ]
                .concat(),
                b"SERVER_ERROR shed-read\r\n".to_vec(),
                b"END\r\n".to_vec(),
            ] {
                line.clear();
                reader.read_line(&mut line).expect("request");
                stream.write_all(&reply).expect("reply");
            }
        });
        let plan: Vec<Op> = [1, 2, 3]
            .map(|key| Op {
                kind: OpKind::Get,
                key,
            })
            .to_vec();
        let sent = new_sent();
        sent[0].set(10);
        let mut conns = [Conn::open(addr, &plan, 1, 64, &sent).expect("connect")];
        let now = Instant::now();
        let run = ClosedRun {
            depth: 1,
            count_from: now,
            until: now + Duration::from_secs(30),
            max_ops: 3,
            window: Duration::from_secs(60),
        };
        closed_loop(&mut conns, &run, &mut ClosedOut::default());
        server.join().expect("stub");
        let t = conns[0].tally;
        assert_eq!((t.attempted, t.failed, t.gets, t.get_misses), (3, 2, 3, 1));
    }
}
