//! `lib-mt-zipf`: `ConcurrentS3Fifo` in-process behind the
//! `ConcurrentCache` trait, real threads, no sockets and no parser. Two
//! phases on a 10 000-entry cache: *hit* (5 000 keys, everything resident:
//! the atomics-only path the paper is about) and *churn* (1 000 000 keys:
//! miss, insert, evict). Payloads are `Bytes`, cloned by a hit, not copied.

use crate::json::Value;
use crate::layers::{self, ConcurrentCache};
use crate::plan::{filler, key_stream, mix64};
use crate::report::{peak_rss_mb, Metrics, RunResult};
use crate::spans::{median, window_percentiles, Recorder, NO_PARENT};
use crate::{Scale, TraceOut};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAPACITY: usize = 10_000;
const HIT_KEYS: u64 = CAPACITY as u64 / 2;
const CHURN_KEYS: u64 = 1_000_000;
const ALPHA: f64 = 1.0;
const VALUE_LEN: usize = 64;
/// Keys each thread draws; a thread that runs out starts over.
const STREAM_LEN: usize = 1 << 20;
/// Operations timed together. One clock read per batch costs under 1 % of
/// the batch, and a batch is short enough (a few microseconds) that its
/// time per operation still shows a lock convoy or a preemption.
const BATCH: usize = 64;
/// Of the churn phase's batches, one in this many is kept as a latency
/// sample. Kept samples are the harness's memory, not the program's, and
/// their number follows the program's speed: with every batch kept, a faster
/// cache showed as a higher `peak_rss_mb`.
const KEEP_EVERY: usize = 8;
const RATE_WINDOW: Duration = Duration::from_millis(250);
const LAT_WINDOW: Duration = Duration::from_secs(1);
/// Audit findings a lock-free cache may legally leave per racing thread
/// (see `AuditReport::is_clean`); more than this is a failure.
const AUDIT_SLACK_PER_THREAD: usize = 8;

/// T = min(nproc, 4).
fn thread_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

pub fn describe() -> Value {
    Value::obj([
        ("capacity", Value::Num(CAPACITY as f64)),
        ("hit_keys", Value::Num(HIT_KEYS as f64)),
        ("churn_keys", Value::Num(CHURN_KEYS as f64)),
        ("zipf_alpha", Value::Num(ALPHA)),
        ("value_len", Value::Num(VALUE_LEN as f64)),
        ("threads", Value::Num(thread_count() as f64)),
        ("batch", Value::Num(BATCH as f64)),
    ])
}

fn value_for(key: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&mix64(key).to_le_bytes());
    v.extend_from_slice(&filler()[..VALUE_LEN - 8]);
    v
}

fn value_ok(key: u64, data: &[u8]) -> bool {
    data.len() == VALUE_LEN && data[..8] == mix64(key).to_le_bytes()
}

/// What one phase measured, all threads together.
#[derive(Default)]
struct Phase {
    gets: u64,
    misses: u64,
    wrong: u64,
    /// Operations completed in each `RATE_WINDOW` of the measured part.
    windows: Vec<u64>,
    /// `(completion time in ns, ns per operation)` of every `KEEP_EVERY`th
    /// measured batch; only kept when asked for.
    batches: Vec<(u64, f64)>,
}

impl Phase {
    /// Operations per second: the median window. Not the quiet end that the
    /// single-stream workloads report (spans.rs): threads that contend for
    /// the same lines run faster, each and even together, while one of them
    /// is kept off its core, so here a disturbance can raise a window as
    /// well as lower it, and the good end is not the undisturbed one.
    fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|&n| n as f64 / RATE_WINDOW.as_secs_f64())
            .collect();
        median(&rates)
    }
}

struct Drive {
    threads: usize,
    warm: Duration,
    measure: Duration,
    keep_batches: bool,
}

/// Runs `threads` threads over `cache`, each through its own key stream:
/// get, and on a miss insert (cache-aside). Every hit's payload is checked.
fn drive(
    cache: &dyn ConcurrentCache,
    streams: &[Vec<u64>],
    d: &Drive,
    mut rec: Option<&mut Recorder>,
) -> Phase {
    let start = Instant::now();
    let count_from = start + d.warm;
    let until = count_from + d.measure;
    let origin = rec.as_ref().map(|r| r.origin());
    let parts: Vec<(Phase, Option<Recorder>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams[..d.threads]
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut p = Phase::default();
                    let mut rec = origin.map(Recorder::new);
                    for (n, batch) in stream.chunks_exact(BATCH).cycle().enumerate() {
                        let t0 = Instant::now();
                        if t0 >= until {
                            break;
                        }
                        let (mut misses, mut wrong) = (0u64, 0u64);
                        for &key in batch {
                            match cache.get(key) {
                                Some(v) => wrong += u64::from(!value_ok(key, &v)),
                                None => {
                                    misses += 1;
                                    cache.insert(key, layers::payload(value_for(key)));
                                }
                            }
                        }
                        let t1 = Instant::now();
                        if t0 < count_from {
                            continue;
                        }
                        p.gets += BATCH as u64;
                        p.misses += misses;
                        p.wrong += wrong;
                        let slot = ((t1 - count_from).as_nanos() / RATE_WINDOW.as_nanos()) as usize;
                        if p.windows.len() <= slot {
                            p.windows.resize(slot + 1, 0);
                        }
                        p.windows[slot] += BATCH as u64;
                        if d.keep_batches && n % KEEP_EVERY == 0 {
                            let ns_per_op = (t1 - t0).as_nanos() as f64 / BATCH as f64;
                            p.batches
                                .push(((t1 - count_from).as_nanos() as u64, ns_per_op));
                        }
                        if let Some(rec) = rec.as_mut() {
                            rec.push(
                                "concurrent.batch",
                                t0,
                                t1,
                                NO_PARENT,
                                n as u64,
                                BATCH as u32,
                            );
                        }
                    }
                    (p, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let full = ((d.measure.as_nanos() / RATE_WINDOW.as_nanos()) as usize).max(1);
    let mut all = Phase {
        windows: vec![0; full],
        ..Phase::default()
    };
    for (p, theirs) in parts {
        all.gets += p.gets;
        all.misses += p.misses;
        all.wrong += p.wrong;
        for (slot, n) in p.windows.iter().enumerate().take(full) {
            all.windows[slot] += n;
        }
        all.batches.extend(p.batches);
        if let (Some(rec), Some(theirs)) = (rec.as_deref_mut(), theirs) {
            rec.absorb(theirs);
        }
    }
    all
}

struct Setup {
    hit_streams: Vec<Vec<u64>>,
    churn_streams: Vec<Vec<u64>>,
    hit_cache: Arc<layers::S3Fifo>,
    churn_cache: Arc<layers::S3Fifo>,
}

fn setup(seed: u64, threads: usize, stream_len: usize) -> Setup {
    let lanes = |keys: u64, phase: u64| -> Vec<Vec<u64>> {
        (0..threads as u64)
            .map(|t| key_stream(keys, ALPHA, seed, phase * 16 + t, stream_len))
            .collect()
    };
    let hit_cache = layers::s3fifo(CAPACITY);
    for key in 0..HIT_KEYS {
        hit_cache.insert(key, layers::payload(value_for(key)));
    }
    Setup {
        hit_streams: lanes(HIT_KEYS, 0),
        churn_streams: lanes(CHURN_KEYS, 1),
        hit_cache,
        churn_cache: layers::s3fifo(CAPACITY),
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    scale: Scale,
    trace: Option<&mut TraceOut>,
) -> Result<RunResult, String> {
    let threads = thread_count();
    let stream_len = if scale == Scale::Smoke {
        1 << 14
    } else {
        STREAM_LEN
    };
    let mut m = Metrics::new();
    let mut result = RunResult::default();

    let secs = |share: f64| Duration::from_secs_f64(seconds * share);
    let traced = trace.is_some();
    let mut rec = Recorder::new(Instant::now());
    let mut audit = 0usize;
    let mut account = |p: &Phase, cache: &dyn ConcurrentCache, result: &mut RunResult| {
        let violations = layers::audit_violations(cache);
        audit += violations;
        result.attempted += p.gets + p.misses + 1;
        result.failed += p.wrong + u64::from(violations > AUDIT_SLACK_PER_THREAD * threads);
    };
    let hit = |s: &Setup, warm: f64, measure: f64, threads: usize, rec: Option<&mut Recorder>| {
        let d = Drive {
            threads,
            warm: secs(warm),
            measure: secs(measure),
            keep_batches: false,
        };
        drive(s.hit_cache.as_ref(), &s.hit_streams, &d, rec)
    };

    // Three set-ups, each timed, and the hit phase run on each for a third
    // of its time, all threads: a cache that happens to land badly in memory
    // then moves a third of the windows and not the figure. In a traced run
    // the third records spans, and what that costs is its rate against the
    // other two's.
    let mut setup_times = Vec::new();
    let mut hit_mt = Phase::default();
    let mut hit_traced = Phase::default();
    let mut kept = None;
    for round in 0..3 {
        let t = Instant::now();
        let s = setup(seed, threads, stream_len);
        setup_times.push(t.elapsed().as_secs_f64());
        let spans = traced && round == 2;
        let p = hit(&s, 0.02, 0.13, threads, spans.then_some(&mut rec));
        account(&p, s.hit_cache.as_ref(), &mut result);
        let pool = if spans { &mut hit_traced } else { &mut hit_mt };
        pool.windows.extend(p.windows);
        kept = Some(s);
    }
    let s = kept.expect("three set-ups ran");
    m.insert("setup_s", median(&setup_times));
    m.insert("sat_ops_per_s", hit_mt.ops_per_s());
    m.insert("concurrent.hit_mt_mops", hit_mt.ops_per_s() / 1e6);
    if traced {
        m.insert(
            "trace_overhead_frac",
            1.0 - hit_traced.ops_per_s() / hit_mt.ops_per_s(),
        );
    }

    // Churn phase, all threads; its batch times are the latency figures.
    let churn = drive(
        s.churn_cache.as_ref(),
        &s.churn_streams,
        &Drive {
            threads,
            warm: secs(0.05),
            measure: secs(if traced { 0.15 } else { 0.45 }),
            keep_batches: true,
        },
        traced.then_some(&mut rec),
    );
    account(&churn, s.churn_cache.as_ref(), &mut result);
    let timed: Vec<(u64, f64)> = churn.batches.iter().map(|b| (b.0, b.1 / 1e3)).collect();
    let window = LAT_WINDOW.as_nanos() as u64;
    let p50 = window_percentiles(&timed, window, 50.0);
    let p99 = window_percentiles(&timed, window, 99.0);
    m.insert("lat_p50_us", median(&p50));
    m.insert("lat_p99_us", median(&p99));
    m.insert("miss_ratio", churn.misses as f64 / churn.gets.max(1) as f64);
    m.insert("concurrent.churn_mt_mops", churn.ops_per_s() / 1e6);
    let counts = layers::s3fifo_counts(&s.churn_cache);
    m.insert(
        "concurrent.evictions_per_insert",
        counts.evictions as f64 / counts.inserts.max(1) as f64,
    );

    if traced {
        // One thread on the hit path, then the paper's Fig. 8 contrast:
        // strict LRU, whose every hit takes the list lock.
        let hit_1t = hit(&s, 0.02, 0.08, 1, None);
        account(&hit_1t, s.hit_cache.as_ref(), &mut result);
        m.insert("concurrent.hit_1t_mops", hit_1t.ops_per_s() / 1e6);
        m.insert(
            "concurrent.scale_eff",
            hit_mt.ops_per_s() / (threads as f64 * hit_1t.ops_per_s()),
        );
        let lru = layers::lru_strict(CAPACITY);
        for key in 0..HIT_KEYS {
            lru.insert(key, layers::payload(value_for(key)));
        }
        let lru_drive = |threads: usize| {
            let d = Drive {
                threads,
                warm: secs(0.02),
                measure: secs(0.06),
                keep_batches: false,
            };
            drive(lru.as_ref(), &s.hit_streams, &d, None)
        };
        let (lru_1t, lru_mt) = (lru_drive(1), lru_drive(threads));
        account(&lru_1t, lru.as_ref(), &mut result);
        account(&lru_mt, lru.as_ref(), &mut result);
        m.insert("concurrent.lru_strict_mops_mt", lru_mt.ops_per_s() / 1e6);
        m.insert(
            "concurrent.lru_strict_scale_eff",
            lru_mt.ops_per_s() / (threads as f64 * lru_1t.ops_per_s()),
        );
        op_probes(&s.hit_streams[0], &mut rec, &mut m);
    }

    m.insert("concurrent.audit_violations", audit as f64);
    m.insert("fail_frac", result.failed as f64 / result.attempted as f64);
    m.insert("peak_rss_mb", peak_rss_mb());
    if let Some(out) = trace {
        out.notes.push(format!(
            "{threads} threads; {} batches of {BATCH} operations in {} windows of {} s; lat_p50_us, lat_p99_us: median of the windows' medians and p99s",
            timed.len(),
            p50.len(),
            LAT_WINDOW.as_secs()
        ));
        out.spans = rec.spans;
    }
    result.metrics = m;
    Ok(result)
}

/// Single operations on one thread, each kind alone, timed in one span per
/// kind: what a hit, a miss, an insert with and without an eviction, and a
/// remove cost when nothing contends.
fn op_probes(hit_stream: &[u64], rec: &mut Recorder, m: &mut Metrics) {
    const N: u64 = 500_000;
    let value = layers::payload(value_for(0));
    let mut per_call = |name: &'static str, calls: u64, f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        let end = Instant::now();
        rec.push(name, start, end, NO_PARENT, 0, calls as u32);
        (end - start).as_nanos() as f64 / calls as f64
    };

    let resident = layers::s3fifo(CAPACITY);
    for key in 0..HIT_KEYS {
        resident.insert(key, value.clone());
    }
    let get_hit = per_call("concurrent.get_hit", hit_stream.len() as u64, &mut || {
        for &key in hit_stream {
            black_box(resident.get(key));
        }
    });
    let get_miss = per_call("concurrent.get_miss", N, &mut || {
        for key in 0..N {
            black_box(resident.get((1 << 40) + key));
        }
    });
    // Room for every key: no insert evicts.
    let roomy = layers::s3fifo(2 * N as usize);
    let insert = per_call("concurrent.insert", N, &mut || {
        for key in 0..N {
            roomy.insert(key, value.clone());
        }
    });
    let remove = per_call("concurrent.remove", N, &mut || {
        for key in 0..N {
            black_box(roomy.remove(key));
        }
    });
    // Full from the start: every insert evicts.
    let full = layers::s3fifo(CAPACITY);
    for key in 0..CAPACITY as u64 {
        full.insert(key, value.clone());
    }
    let insert_evict = per_call("concurrent.insert_evict", N, &mut || {
        for key in 0..N {
            full.insert((1 << 40) + key, value.clone());
        }
    });
    let ring = per_call("ds.ring_push_pop", 2 * N, &mut || {
        black_box(layers::ring_push_pop(2 * N));
    });
    m.insert("concurrent.get_hit_ns", get_hit);
    m.insert("concurrent.get_miss_ns", get_miss);
    m.insert("concurrent.insert_ns", insert);
    m.insert("concurrent.insert_evict_ns", insert_evict);
    m.insert("concurrent.remove_ns", remove);
    m.insert("ds.ring_push_pop_ns", ring);
}
