//! The two wire workloads. Both drive `cache_server::Server` over loopback
//! TCP with its text protocol and nothing else; they differ in what the
//! traffic makes the server do (README.md says why each was chosen).
//!
//! One run: set-up (three times, median reported), a closed-loop phase at
//! pipeline depth 32 for throughput at saturation, then an open-loop phase
//! at the workload's frozen rate for latency. A traced run adds a depth-1
//! probe and replays the same op stream through each server layer alone.

use crate::json::Value;
use crate::layers::{self, Parsed, ServerUnderTest, Shedder, Store};
use crate::plan::{
    arrival_schedule, key_string, op_plan, push_request, push_value, Mix, Op, OpKind,
};
use crate::report::{peak_rss_mb, Metrics, RunResult};
use crate::spans::{
    median, percentile, quiet_rate, quiet_time, timer_overhead_ns, window_percentiles, Recorder,
    NO_PARENT,
};
use crate::wire::{
    closed_loop, new_sent, open_loop, ClosedOut, ClosedRun, Conn, OpenSample, SentUpTo, Tally,
};
use crate::{Scale, TraceOut};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A wire workload: its traffic mix, how much of the key space is stored
/// before timing starts, and the open-loop rate.
pub struct SrvSpec {
    pub mix: Mix,
    pub warm_keys: u32,
    /// Requests per second over all connections in the open-loop phase:
    /// about half of what the seed commit sustains at saturation on the
    /// 2-core reference host, chosen once and frozen. It is never derived
    /// from the commit under test, or a slower server would be offered less
    /// load and look as fast.
    pub open_rate_per_s: f64,
}

impl SrvSpec {
    /// Sizes and rates, for the ledger: two ledgers compare only when these
    /// agree.
    pub fn describe(&self) -> Value {
        Value::obj([
            ("keys", Value::Num(self.mix.keys as f64)),
            ("zipf_alpha", Value::Num(self.mix.alpha)),
            ("set_pct", Value::Num(self.mix.set_pct as f64)),
            ("delete_pct", Value::Num(self.mix.delete_pct as f64)),
            ("value_len", Value::Num(self.mix.value_len as f64)),
            ("warm_keys", Value::Num(f64::from(self.warm_keys))),
            ("connections", Value::Num(f64::from(CONNS))),
            ("pipeline_depth", Value::Num(DEPTH as f64)),
            ("open_rate_per_s", Value::Num(self.open_rate_per_s)),
        ])
    }
}

/// Small values, working set (1 000 000 keys) far larger than the store's
/// 65 536 entries: per-request overhead is nearly all of the work.
pub const GET_SMALL: SrvSpec = SrvSpec {
    mix: Mix {
        keys: 1_000_000,
        alpha: 1.0,
        set_pct: 10,
        delete_pct: 0,
        value_len: 64,
    },
    warm_keys: 65_536,
    open_rate_per_s: 20_000.0,
};

/// 4 KiB values (the paper's Cachelib object size), half of the requests
/// writes, 16 384 keys that all fit: payload bytes dominate.
pub const SET_LARGE: SrvSpec = SrvSpec {
    mix: Mix {
        keys: 16_384,
        alpha: 1.0,
        set_pct: 50,
        delete_pct: 5,
        value_len: 4096,
    },
    warm_keys: 16_384,
    open_rate_per_s: 2_000.0,
};

/// Connections, all driven by the one generator thread. Four, so that when
/// the server's single shard finishes one connection's batch the other
/// three have work waiting and its idle sleep is never entered at
/// saturation; with one or two the loop is bistable (see wire.rs).
const CONNS: u32 = 4;
const WARM_LANE: u32 = CONNS;
const PROBE_LANE: u32 = CONNS + 1;
const DEPTH: u64 = 32;
const PLAN_LEN: usize = 1 << 20;
const RATE_WINDOW: Duration = Duration::from_millis(500);
const LAT_WINDOW: Duration = Duration::from_secs(1);
/// A request sent this long after it was due counts as late.
const LATE_US: f64 = 1000.0;
const MAX_LATE_FRAC: f64 = 0.01;

struct Setup {
    server: ServerUnderTest,
    plans: Vec<Vec<Op>>,
    sent: SentUpTo,
}

/// Everything that happens before the first timed request: op plans, server
/// start, and storing the `warm_keys` most popular keys over the wire.
fn setup(
    spec: &SrvSpec,
    seed: u64,
    plan_len: usize,
    warm_keys: u32,
) -> Result<(Setup, Tally), String> {
    let plans: Vec<Vec<Op>> = (0..CONNS)
        .map(|c| op_plan(&spec.mix, seed, u64::from(c), plan_len))
        .collect();
    let server = ServerUnderTest::start().map_err(|e| format!("server start: {e}"))?;
    // Threads the server started inherited this thread's placement; sort
    // them out again (see affinity.rs). On one CPU there is nothing to do.
    crate::affinity::isolate_main_thread();
    let sent = new_sent();
    let warm_plan: Vec<Op> = (0..warm_keys)
        .map(|key| Op {
            kind: OpKind::Set,
            key,
        })
        .collect();
    let mut conn = [Conn::open(
        server.addr(),
        &warm_plan,
        WARM_LANE,
        spec.mix.value_len,
        &sent,
    )
    .map_err(|e| format!("connect: {e}"))?];
    let now = Instant::now();
    let run = ClosedRun {
        depth: 64,
        count_from: now,
        until: now + Duration::from_secs(60),
        max_ops: u64::from(warm_keys),
        window: RATE_WINDOW,
    };
    closed_loop(&mut conn, &run, &mut ClosedOut::default());
    let tally = conn[0].tally;
    Ok((
        Setup {
            server,
            plans,
            sent,
        },
        tally,
    ))
}

/// All connections in a closed loop for `warm + measure`: correct replies
/// per second in each `RATE_WINDOW` of the measured part.
fn saturate(
    conns: &mut [Conn],
    warm: Duration,
    measure: Duration,
    rec: Option<&mut Recorder>,
) -> Vec<f64> {
    let start = Instant::now();
    let run = ClosedRun {
        depth: DEPTH,
        count_from: start + warm,
        until: start + warm + measure,
        max_ops: u64::MAX,
        window: RATE_WINDOW,
    };
    let mut out = ClosedOut {
        rec: rec.as_ref().map(|r| Recorder::new(r.origin())),
        ..ClosedOut::default()
    };
    closed_loop(conns, &run, &mut out);
    if let (Some(rec), Some(theirs)) = (rec, out.rec) {
        rec.absorb(theirs);
    }
    let full = (measure.as_nanos() / RATE_WINDOW.as_nanos()) as usize;
    let window_s = if full == 0 {
        measure.as_secs_f64()
    } else {
        RATE_WINDOW.as_secs_f64()
    };
    out.windows.resize(full.max(1), 0);
    out.windows.iter().map(|&n| n as f64 / window_s).collect()
}

fn open_conns<'a>(s: &'a Setup, value_len: usize) -> Result<Vec<Conn<'a>>, String> {
    s.plans
        .iter()
        .enumerate()
        .map(|(c, plan)| {
            Conn::open(s.server.addr(), plan, c as u32, value_len, &s.sent)
                .map_err(|e| format!("connect: {e}"))
        })
        .collect()
}

/// The open-loop phase: the frozen rate on a Poisson schedule, spread over
/// the connections. Sample times count from the returned instant.
fn open_phase(
    conns: &mut [Conn],
    rate_per_s: f64,
    duration: Duration,
    seed: u64,
) -> (Vec<OpenSample>, Instant) {
    let schedule = arrival_schedule(rate_per_s, duration.as_secs_f64(), seed, 0);
    let start = Instant::now();
    (open_loop(conns, &schedule, start), start)
}

pub fn run(
    spec: &SrvSpec,
    seed: u64,
    seconds: f64,
    scale: Scale,
    trace: Option<&mut TraceOut>,
) -> Result<RunResult, String> {
    let (plan_len, warm_keys) = if scale == Scale::Smoke {
        (1 << 14, spec.warm_keys / 16)
    } else {
        (PLAN_LEN, spec.warm_keys)
    };
    let secs = |share: f64| Duration::from_secs_f64(seconds * share);
    let traced = trace.is_some();
    let mut m = Metrics::new();
    let mut rec = Recorder::new(Instant::now());
    let mut tally = Tally::default();
    let mut unchecked = 0;

    // Three set-ups, each timed, and each server then driven to saturation
    // for a third of the closed-loop time: a server that happens to land
    // badly (allocation addresses, hash layout) then moves a third of the
    // windows and not the figure. In a traced run the third records spans,
    // and what that costs is its windows against the other two's.
    let mut setup_times = Vec::new();
    let mut rates: Vec<f64> = Vec::new();
    let mut traced_rates = Vec::new();
    let mut first_plan = Vec::new();
    let mut notes = String::new();
    for round in 0..3 {
        let t = Instant::now();
        let (setup, warm) = setup(spec, seed, plan_len, warm_keys)?;
        setup_times.push(t.elapsed().as_secs_f64());
        let mut served = warm;
        let mut conns = open_conns(&setup, spec.mix.value_len)?;
        let spans = traced && round == 2;
        let r = saturate(
            &mut conns,
            secs(0.03),
            secs(0.12),
            spans.then_some(&mut rec),
        );
        if spans {
            traced_rates = r;
        } else {
            rates.extend(r);
        }

        // The first server also serves the open loop, and the run's peak
        // memory is read when it has: before the other two exist, because
        // whether their memory reuses the first one's is the allocator's
        // choice, and it moved the peak by a factor of two.
        if round == 0 {
            let open_secs = if traced { secs(0.35) } else { secs(0.5) };
            let open = open_phase(&mut conns, spec.open_rate_per_s, open_secs, seed);
            notes = latency_metrics(&open.0, &mut m);
            if traced {
                client_spans(&open.0, open.1, &mut rec, &mut m);
                let (rtt, probe) = depth1_probe(
                    &setup.server,
                    &setup.plans[0],
                    spec,
                    &setup.sent,
                    secs(0.08),
                )?;
                m.insert("server.rtt_depth1_p50_us", rtt);
                served.add(&probe);
            }
            m.insert("peak_rss_mb", peak_rss_mb());
        }
        conns.iter().for_each(|c| served.add(&c.tally));
        drop(conns);

        // Every server must have counted exactly what was sent to it, and
        // must drain when shut down.
        let Setup { server, plans, .. } = setup;
        let counts = server.counts();
        let t = Instant::now();
        let drained = server.shutdown();
        unchecked +=
            u64::from(counts.requests + counts.shed != served.attempted) + u64::from(!drained);
        tally.add(&served);
        if round == 0 {
            m.insert("server.shutdown_drain_ms", t.elapsed().as_secs_f64() * 1e3);
            m.insert("server.requests", counts.requests as f64);
            m.insert("server.conns_accepted", counts.conns_accepted as f64);
            m.insert("server.conns_rejected", counts.conns_rejected as f64);
            m.insert("shed.shed_count", counts.shed as f64);
            m.insert("store.gets", counts.gets as f64);
            m.insert("store.hits", counts.hits as f64);
            m.insert("store.sets", counts.sets as f64);
            m.insert("store.expired", counts.expired as f64);
            m.insert("store.collisions", counts.collisions as f64);
            first_plan = plans.into_iter().next().unwrap_or_default();
        }
    }
    m.insert("setup_s", median(&setup_times));
    let sat = quiet_rate(&rates);
    m.insert("sat_ops_per_s", sat);
    if traced {
        m.insert("trace_overhead_frac", 1.0 - quiet_rate(&traced_rates) / sat);
    }
    m.insert(
        "miss_ratio",
        tally.get_misses as f64 / tally.gets.max(1) as f64,
    );
    m.insert(
        "proto.bytes_in_per_req",
        tally.bytes_sent as f64 / tally.attempted.max(1) as f64,
    );
    m.insert(
        "proto.bytes_out_per_req",
        tally.bytes_received as f64 / tally.attempted.max(1) as f64,
    );
    // Two checks per server beside the replies: its counters and its drain.
    let attempted = tally.attempted + 6;
    let failed = tally.failed + unchecked;
    m.insert("fail_frac", failed as f64 / attempted as f64);

    if let Some(out) = trace {
        layer_probes(spec, warm_keys, &first_plan, &tally, sat, &mut rec, &mut m);
        out.notes.push(format!(
            "sat_ops_per_s: 90th percentile of {} windows of {} ms over {} servers; {notes}",
            rates.len(),
            RATE_WINDOW.as_millis(),
            if traced { 2 } else { 3 },
        ));
        out.spans = rec.spans;
    }
    Ok(RunResult {
        attempted,
        failed,
        metrics: m,
    })
}

/// Latency figures of the open loop, from its 1-second windows, and how
/// late the generator ran; returns the sample counts behind them, for the
/// trace file.
fn latency_metrics(samples: &[OpenSample], m: &mut Metrics) -> String {
    let timed: Vec<(u64, f64)> = samples
        .iter()
        .map(|s| (s.done_ns, s.latency_us()))
        .collect();
    let window = LAT_WINDOW.as_nanos() as u64;
    let p50 = window_percentiles(&timed, window, 50.0);
    let p99 = window_percentiles(&timed, window, 99.0);
    m.insert("lat_p50_us", quiet_time(&p50));
    m.insert("lat_p99_us", median(&p99));
    let mut late: Vec<f64> = samples.iter().map(OpenSample::late_us).collect();
    late.sort_by(f64::total_cmp);
    let late_frac = late.iter().filter(|&&l| l > LATE_US).count() as f64 / late.len().max(1) as f64;
    m.insert("gen.late_p99_us", percentile(&late, 99.0));
    m.insert("gen.late_frac", late_frac);
    if late_frac > MAX_LATE_FRAC {
        // The latencies still count from the due times, so the lateness is
        // in them; but it is the generator's, not the server's.
        eprintln!(
            "warning: load generator late on {:.1}% of requests (limit {:.0}%): this run's latencies are invalid, not slow",
            late_frac * 100.0,
            MAX_LATE_FRAC * 100.0
        );
    }
    format!(
        "{} open-loop requests in {} windows of {} s; lat_p50_us: 10th percentile of the windows' medians; lat_p99_us: median of the windows' p99s",
        samples.len(),
        p50.len(),
        LAT_WINDOW.as_secs()
    )
}

/// Turns the open-loop samples into spans (a request span from due to done,
/// with send-wait, send, reply-wait and receive as its children) and reports
/// the medians of the children.
fn client_spans(samples: &[OpenSample], phase_start: Instant, rec: &mut Recorder, m: &mut Metrics) {
    let base = rec.spans.len();
    let offset = rec.ns(phase_start);
    for (i, s) in samples.iter().enumerate() {
        if s.failed || s.send_end_ns == 0 {
            continue;
        }
        let at = |ns: u64| offset + ns;
        let id = i as u64;
        let parent = rec.push_ns(
            "client.request",
            at(s.due_ns),
            at(s.done_ns),
            NO_PARENT,
            id,
            1,
        );
        for (name, from, to) in [
            ("client.send_wait", s.due_ns, s.send_start_ns),
            ("client.send", s.send_start_ns, s.send_end_ns),
            ("client.reply_wait", s.send_end_ns, s.arrived_ns),
            ("client.recv", s.arrived_ns, s.done_ns),
        ] {
            rec.push_ns(name, at(from), at(to), parent, id, 1);
        }
    }
    let p50_us = |name: &str| {
        let mut v: Vec<f64> = rec.spans[base..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, 50.0)
    };
    m.insert("client.send_wait_p50_us", p50_us("client.send_wait"));
    m.insert("client.reply_wait_p50_us", p50_us("client.reply_wait"));
    m.insert("client.recv_p50_us", p50_us("client.recv"));
}

/// One connection, one request in flight: the round trip a client that
/// waits for each reply sees. It exposes the shard loop's idle sleep, which
/// pipelining hides.
fn depth1_probe(
    server: &ServerUnderTest,
    plan: &[Op],
    spec: &SrvSpec,
    sent: &SentUpTo,
    duration: Duration,
) -> Result<(f64, Tally), String> {
    let mut conn = [
        Conn::open(server.addr(), plan, PROBE_LANE, spec.mix.value_len, sent)
            .map_err(|e| format!("connect: {e}"))?,
    ];
    let now = Instant::now();
    let run = ClosedRun {
        depth: 1,
        count_from: now,
        until: now + duration,
        max_ops: u64::MAX,
        window: RATE_WINDOW,
    };
    let mut out = ClosedOut::default();
    closed_loop(&mut conn, &run, &mut out);
    let mut rtts: Vec<f64> = out.rtts_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    rtts.sort_by(f64::total_cmp);
    Ok((percentile(&rtts, 50.0), conn[0].tally))
}

/// Times `calls` calls made by `f` as one span and returns nanoseconds per
/// call.
fn batch_ns(rec: &mut Recorder, name: &'static str, calls: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    let end = Instant::now();
    rec.push(name, start, end, NO_PARENT, 0, calls as u32);
    (end - start).as_nanos() as f64 / calls.max(1) as f64
}

/// The per-layer ledger: the first connection's op stream replayed through
/// each server layer alone, in-process, no sockets. The stage costs are
/// then summed in the proportions the wire run saw and set against the wall
/// time the server spent per request at saturation.
fn layer_probes(
    spec: &SrvSpec,
    warm_keys: u32,
    plan: &[Op],
    wire: &Tally,
    sat_ops_per_s: f64,
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    let value_len = spec.mix.value_len;
    // As many ops as fit in 64 MB of request bytes.
    let per_op = 32 + value_len * spec.mix.set_pct as usize / 100;
    let ops = &plan[..plan.len().min((64 << 20) / per_op).min(200_000)];
    let keys: Vec<String> = ops.iter().map(|o| key_string(o.key)).collect();
    let mut value = Vec::new();
    push_value(&mut value, 0, 0, 0, value_len);

    // proto: parse the exact request bytes, encode hits of the value size.
    let mut bytes = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        push_request(&mut bytes, op, 0, i as u64, value_len);
    }
    let parse = batch_ns(rec, "proto.parse_frame", ops.len(), || {
        let mut pos = 0;
        let mut kinds = [0usize; 4];
        while let Some((kind, used)) = layers::proto_parse(&bytes[pos..]) {
            kinds[kind as usize] += 1;
            pos += used;
        }
        assert_eq!(
            pos,
            bytes.len(),
            "parse_frame stopped before the end of the request stream"
        );
        assert_eq!(kinds[Parsed::Other as usize], 0);
        black_box(kinds);
    });
    let mut out = Vec::with_capacity(value_len + 64);
    let encode = batch_ns(rec, "proto.encode_value", keys.len(), || {
        for key in &keys {
            out.clear();
            layers::proto_encode_hit(&mut out, key, &value);
            black_box(&out);
        }
    });

    // store: hash, payload codec, then the op stream itself.
    let hash = batch_ns(rec, "store.hash_key", keys.len(), || {
        for key in &keys {
            black_box(layers::store_hash_key(key));
        }
    });
    let payload_encode = batch_ns(rec, "store.encode_payload", keys.len(), || {
        for key in &keys {
            black_box(layers::store_encode_payload(key, &value));
        }
    });
    let payload = layers::store_encode_payload(&keys[0], &value);
    let payload_decode = batch_ns(rec, "store.decode_payload", keys.len(), || {
        for _ in &keys {
            black_box(layers::store_decode_payload(black_box(&payload)));
        }
    });
    let store = Store::new();
    for key in 0..warm_keys {
        store.set(&key_string(key), &value);
    }
    let overhead = timer_overhead_ns();
    // [get hit, get miss, set, delete]: (total ns, calls)
    let mut classes = [(0.0f64, 0u64); 4];
    for (op, key) in ops.iter().zip(&keys) {
        let start = Instant::now();
        let class = match op.kind {
            OpKind::Get => usize::from(black_box(store.get(key)).is_none()),
            OpKind::Set => {
                black_box(store.set(key, &value));
                2
            }
            OpKind::Delete => {
                black_box(store.delete(key));
                3
            }
        };
        let end = Instant::now();
        let name = [
            "store.get_hit",
            "store.get_miss",
            "store.set",
            "store.delete",
        ][class];
        rec.push(name, start, end, NO_PARENT, 0, 1);
        classes[class].0 += ((end - start).as_nanos() as f64 - overhead).max(0.0);
        classes[class].1 += 1;
    }
    let per_call = |c: (f64, u64)| if c.1 == 0 { 0.0 } else { c.0 / c.1 as f64 };
    let [get_hit, get_miss, set, delete] = classes.map(per_call);

    // shed: the admission decision and outcome report of one request.
    let shedder = Shedder::new();
    let admit = batch_ns(rec, "shed.admit", ops.len(), || {
        for op in ops {
            black_box(shedder.admit_and_record(op.kind != OpKind::Get));
        }
    });

    m.insert("proto.parse_ns_per_req", parse);
    m.insert("proto.encode_ns_per_hit", encode);
    m.insert("store.hash_key_ns", hash);
    m.insert("store.payload_encode_ns", payload_encode);
    m.insert("store.payload_decode_ns", payload_decode);
    m.insert("store.get_hit_ns", get_hit);
    m.insert("store.get_miss_ns", get_miss);
    m.insert("store.set_ns", set);
    m.insert("store.delete_ns", delete);
    m.insert("shed.admit_ns", admit);

    // The stages of one request, weighted as the wire run mixed them. The
    // store figures already contain the key hash and the payload codec;
    // those are reported on their own above and not added twice.
    let n = wire.attempted.max(1) as f64;
    let gets = wire.gets as f64;
    let hits = gets - wire.get_misses as f64;
    let sets = n * spec.mix.set_pct as f64 / 100.0;
    let deletes = n * spec.mix.delete_pct as f64 / 100.0;
    let store_ns =
        (hits * get_hit + wire.get_misses as f64 * get_miss + sets * set + deletes * delete) / n;
    let stage_sum = parse + admit + store_ns + encode * hits / n;
    let wall = 1e9 / sat_ops_per_s;
    m.insert("server.stage_sum_ns_per_req", stage_sum);
    m.insert("server.wall_ns_per_req", wall);
    m.insert("server.unattributed_frac", 1.0 - stage_sum / wall);
}
