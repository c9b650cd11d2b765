//! The replay matrix: one stream, every way `Replay` can be driven, one
//! answer.
//!
//! Source {in memory, `.ctr` in chunks of 1 / 4096 / more than the trace}
//! × path {the registry's policy, the same policy with a counting eviction
//! hook, a policy the caller built} × window {none, 777, `u64::MAX`} ×
//! trace {pure-get unit-size, mixed get/set/delete with sizes honoured and
//! ignored}. Every cell must equal the in-memory unwindowed cell of its
//! trace and name bit for bit, and every cell's series must equal the
//! series of its window counted read by read over the keyed policy of the
//! same name, driven here without `Replay`.

use cache_ds::{Histogram, SplitMix64};
use cache_obs::MissRatioSeries;
use cache_policies::registry;
use cache_sim::{Replay, Replayed, SimResult};
use cache_trace::ctr::{read_trace, write_trace, CtrReader};
use cache_trace::gen::WorkloadSpec;
use cache_trace::Trace;
use cache_types::{Eviction, Op, Outcome, Request};
use std::io::Cursor;

const CAPACITY: u64 = 200;

/// A trace as both sources see it: the `.ctr` bytes and their decoding
/// (`.ctr` stores dense ids, so the in-memory side replays the decoded
/// trace and both see the identical request stream).
struct Fixture {
    bytes: Vec<u8>,
    decoded: Trace,
    /// The header's id space: what a streamed dense policy is sized from.
    id_space: u64,
    ignore_size: bool,
}

fn fixture(trace: &Trace, ignore_size: bool) -> Fixture {
    let (cursor, info) = write_trace(trace, Cursor::new(Vec::new())).expect("encode");
    let bytes = cursor.into_inner();
    let (decoded, _) = read_trace(&trace.name, Cursor::new(&bytes)).expect("decode");
    Fixture {
        bytes,
        decoded,
        id_space: info.id_space,
        ignore_size,
    }
}

/// Mixed get/set/delete with sizes 1..=100 — the shape that once exposed
/// the window-boundary accounting bug of the dense path.
fn mixed_trace(requests: usize, universe: u64, seed: u64) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let reqs = (0..requests)
        .map(|_| {
            let id = rng.next_below(universe);
            let op = match rng.next_below(10) {
                0 => Op::Set,
                1 => Op::Delete,
                _ => Op::Get,
            };
            Request {
                id,
                size: 1 + rng.next_below(100) as u32,
                op,
                time: 0,
            }
        })
        .collect();
    Trace::new("mixed", reqs)
}

fn fixtures() -> Vec<Fixture> {
    let pure = WorkloadSpec::zipf("pure", 9_000, 1_500, 1.0, 5).generate();
    let mixed = mixed_trace(9_000, 1_500, 42);
    vec![
        fixture(&pure, true),
        fixture(&mixed, true),
        fixture(&mixed, false),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Source {
    Memory,
    /// `.ctr` bytes, this many records per chunk.
    Ctr(usize),
}

const SOURCES: [Source; 4] = [
    Source::Memory,
    Source::Ctr(1),
    Source::Ctr(4096),
    Source::Ctr(1 << 20),
];

/// Runs `replay` over the fixture from `source`.
fn drive(mut replay: Replay<'_>, f: &Fixture, source: Source) -> Replayed {
    match source {
        Source::Memory => replay.run(&f.decoded),
        Source::Ctr(chunk) => {
            let mut reader = CtrReader::open(Cursor::new(&f.bytes)).expect("open");
            replay.feed_ctr(&mut reader, chunk).expect("stream");
            replay.finish(&f.decoded.name)
        }
    }
}

fn settings<'p>(replay: Replay<'p>, f: &Fixture, window: Option<u64>) -> Replay<'p> {
    let replay = replay.ignore_size(f.ignore_size);
    match window {
        Some(w) => replay.window(w),
        None => replay,
    }
}

/// The registry's policy for `name`, unbuilt.
fn registry_replay<'p>(name: &str, f: &Fixture, source: Source) -> Replay<'p> {
    match source {
        Source::Memory => Replay::on_trace(name, &f.decoded, CAPACITY),
        Source::Ctr(_) => Replay::on_dense_ids(name, f.id_space, CAPACITY),
    }
    .expect("known name")
}

/// The registry's policy for `name`.
fn by_name(name: &str, f: &Fixture, source: Source, window: Option<u64>) -> Replayed {
    drive(
        settings(registry_replay(name, f, source), f, window),
        f,
        source,
    )
}

/// The registry's policy for `name` with an eviction hook that counts what
/// it is handed: exactly the result's evictions, at stream indices that
/// never decrease, whose ages are the result's eviction-age histogram.
fn hooked(name: &str, f: &Fixture, source: Source, window: Option<u64>) -> Replayed {
    let (mut seen, mut last, mut ages) = (0u64, 0u64, Histogram::new());
    let mut count = |index: u64, e: &Eviction<u32>| {
        assert!(index >= last, "{name} {source:?}: index {index} after {last}");
        seen += 1;
        last = index;
        ages.record(e.age(index));
    };
    let replay = settings(registry_replay(name, f, source), f, window);
    let got = drive(replay.on_eviction(&mut count), f, source);
    assert_eq!(seen, got.0.evictions, "{name} {source:?}: hooked records");
    assert_eq!(
        format!("{ages:?}"),
        format!("{:?}", got.0.eviction_age),
        "{name} {source:?}: hooked ages"
    );
    got
}

/// A policy the caller built, rather than the registry's choice.
fn own_dense(name: &str, f: &Fixture, source: Source, window: Option<u64>) -> Replayed {
    let policy = registry::build_dense_domain(name, CAPACITY, None, f.id_space as usize)
        .expect("known name");
    drive(settings(Replay::dense(policy), f, window), f, source)
}

/// The keyed policy of `name` over the fixture in memory, driven here one
/// request at a time, with its histograms and series counted read by read.
fn keyed_by_hand(name: &str, f: &Fixture, window: Option<u64>) -> Replayed {
    let mut policy = registry::build(name, CAPACITY, None).expect("known name");
    let (mut freq, mut age) = (Histogram::new(), Histogram::new());
    let mut series = window.map(MissRatioSeries::new);
    let mut evicted = Vec::new();
    for (now, r) in f.decoded.iter().enumerate() {
        let size = if f.ignore_size { 1 } else { r.size };
        evicted.clear();
        let outcome = policy.request(&Request { size, ..r }, &mut evicted);
        for e in &evicted {
            freq.record(u64::from(e.freq));
            age.record(e.age(now as u64));
        }
        if let Some(series) = series.as_mut().filter(|_| outcome != Outcome::NotRead) {
            series.record(outcome.is_miss());
        }
    }
    if let Some(series) = &mut series {
        series.finish();
    }
    let stats = policy.stats();
    let result = SimResult {
        algorithm: policy.name(),
        trace: f.decoded.name.clone(),
        capacity: policy.capacity(),
        requests: stats.gets,
        misses: stats.misses,
        miss_ratio: stats.miss_ratio(),
        byte_miss_ratio: stats.byte_miss_ratio(),
        evictions: stats.evictions,
        one_hit_eviction_fraction: freq.zero_fraction(),
        freq_at_eviction: freq,
        eviction_age: age,
    };
    (result, series)
}

fn assert_same_result(got: &Replayed, want: &Replayed, ctx: &str) {
    let (g, w) = (&got.0, &want.0);
    assert_eq!(g.algorithm, w.algorithm, "{ctx}: algorithm");
    assert_eq!(g.capacity, w.capacity, "{ctx}: capacity");
    assert_eq!(g.requests, w.requests, "{ctx}: requests");
    assert_eq!(g.misses, w.misses, "{ctx}: misses");
    assert_eq!(g.evictions, w.evictions, "{ctx}: evictions");
    assert_eq!(
        g.miss_ratio.to_bits(),
        w.miss_ratio.to_bits(),
        "{ctx}: miss ratio"
    );
    assert_eq!(
        g.byte_miss_ratio.to_bits(),
        w.byte_miss_ratio.to_bits(),
        "{ctx}: byte miss ratio"
    );
    assert_eq!(
        g.one_hit_eviction_fraction.to_bits(),
        w.one_hit_eviction_fraction.to_bits(),
        "{ctx}: one-hit fraction"
    );
    // Buckets, count, exact sum, min and max: eviction ages only survive
    // chunking if indices are rebased to the stream.
    assert_eq!(
        format!("{:?}", g.freq_at_eviction),
        format!("{:?}", w.freq_at_eviction),
        "{ctx}: frequency histogram"
    );
    assert_eq!(
        format!("{:?}", g.eviction_age),
        format!("{:?}", w.eviction_age),
        "{ctx}: eviction-age histogram"
    );
}

/// [`assert_same_result`], and the same series window for window.
fn assert_same(got: &Replayed, want: &Replayed, ctx: &str) {
    assert_same_result(got, want, ctx);
    match (&got.1, &want.1) {
        (Some(g), Some(w)) => assert_eq!(g.points(), w.points(), "{ctx}: series"),
        (None, None) => {}
        _ => panic!("{ctx}: one side kept a series and the other did not"),
    }
}

#[test]
fn every_cell_equals_the_in_memory_unwindowed_cell() {
    for f in fixtures() {
        for name in ["S3-FIFO", "LRU", "ARC", "LHD"] {
            let trace = format!("{} ignore_size={} {name}", f.decoded.name, f.ignore_size);
            let reference = by_name(name, &f, Source::Memory, None);
            assert!(
                reference.0.evictions > 0 && reference.0.misses > 0,
                "{trace}: vacuous"
            );
            for window in [None, Some(777), Some(u64::MAX)] {
                // The series every cell of this window must reproduce,
                // counted read by read; its result is the keyed door's.
                let series = keyed_by_hand(name, &f, window);
                assert_same_result(&series, &reference, &format!("{trace} keyed"));
                for source in SOURCES {
                    let ctx = format!("{trace} {source:?} window={window:?}");
                    let cells = [
                        ("registry", by_name(name, &f, source, window)),
                        ("hooked", hooked(name, &f, source, window)),
                        ("own dense", own_dense(name, &f, source, window)),
                    ];
                    for (engine, cell) in &cells {
                        assert_same_result(cell, &reference, &format!("{ctx} {engine}"));
                        assert_same(cell, &series, &format!("{ctx} {engine}"));
                    }
                }
                if let Some(s) = &series.1 {
                    assert_eq!(
                        s.total_requests(),
                        reference.0.requests,
                        "{trace}: window sums"
                    );
                    assert_eq!(s.total_misses(), reference.0.misses, "{trace}: window sums");
                    let windows = if window == Some(777) {
                        reference.0.requests.div_ceil(777)
                    } else {
                        1
                    };
                    assert_eq!(s.points().len() as u64, windows, "{trace}: window count");
                }
            }
        }
    }
}

/// Windows count reads, so on a mixed trace they end at different requests
/// than chunks do; every residue of length against window against chunk,
/// including the degenerate window and chunk of 1.
#[test]
fn window_and_chunk_boundaries_never_meet_by_luck() {
    for len in [1usize, 99, 100, 101, 1000, 1024] {
        let f = fixture(&mixed_trace(len, 200, len as u64), true);
        for window in [1u64, 7, 100, 128] {
            let want = keyed_by_hand("S3-FIFO", &f, Some(window));
            for source in [
                Source::Memory,
                Source::Ctr(1),
                Source::Ctr(13),
                Source::Ctr(100),
            ] {
                let got = by_name("S3-FIFO", &f, source, Some(window));
                assert_same(
                    &got,
                    &want,
                    &format!("len={len} window={window} {source:?}"),
                );
            }
        }
    }
}

/// Every name's hook sees every eviction once, at its stream index, in
/// memory and however a `.ctr` stream is chunked. Belady cannot stream.
#[test]
fn the_hook_sees_every_eviction_at_its_stream_index() {
    for f in fixtures() {
        for name in registry::ALL_ALGORITHMS {
            for source in [Source::Memory, Source::Ctr(1), Source::Ctr(4096)] {
                if *name == "Belady" && matches!(source, Source::Ctr(_)) {
                    continue;
                }
                let got = hooked(name, &f, source, None);
                assert!(got.0.evictions > 0, "{name} {source:?}: vacuous");
            }
        }
    }
}

#[test]
fn a_partially_consumed_reader_replays_from_record_zero() {
    let f = &fixtures()[1];
    let want = by_name("S3-FIFO", f, Source::Memory, Some(777));
    let mut reader = CtrReader::open(Cursor::new(&f.bytes)).expect("open");
    let mut scratch = Vec::new();
    reader.read_chunk(&mut scratch, 123).expect("read");
    let mut replay = Replay::on_dense_ids("S3-FIFO", f.id_space, CAPACITY)
        .expect("known name")
        .ignore_size(true)
        .window(777);
    replay.feed_ctr(&mut reader, 1000).expect("stream");
    assert_same(&replay.finish("mixed"), &want, "rewound reader");
}

/// The file front door is the same replay: `replay_ctr_path` over the
/// bytes on disk equals the in-memory windowed cell.
#[test]
fn the_path_front_door_equals_the_in_memory_cell() {
    let f = &fixtures()[2];
    let path = std::env::temp_dir().join(format!("replay_matrix_{}.ctr", std::process::id()));
    std::fs::write(&path, &f.bytes).expect("write");
    let got = cache_sim::replay_ctr_path("LRU", &path, "mixed", CAPACITY, false, 777, 1000);
    std::fs::remove_file(&path).expect("remove");
    let got = got.expect("replay");
    assert_eq!((got.records, got.chunk_records), (9_000, 1000));
    let want = by_name("LRU", f, Source::Memory, Some(777));
    assert_same(&(got.result, Some(got.series)), &want, "replay_ctr_path");
}

/// Trace buffers are bounded by the chunk, not the trace: the reader's raw
/// bytes for one chunk, and two buffer sets of decoded requests and slots,
/// one filled while the other is replayed — nowhere near the 30k-request
/// trace itself.
#[test]
fn buffers_stay_bounded_by_chunk_size() {
    let trace = WorkloadSpec::zipf("bounded", 30_000, 3000, 1.0, 3).generate();
    let f = fixture(&trace, true);
    let chunk = 256usize;
    let mut reader = CtrReader::open(Cursor::new(&f.bytes)).expect("open");
    let raw = chunk * reader.info().record_bytes as usize;
    let mut replay = Replay::on_dense_ids("S3-FIFO", f.id_space, 300).expect("known name");
    let peak = replay.feed_ctr(&mut reader, chunk).expect("stream");
    assert_eq!(replay.finish("bounded").0.requests, 30_000);
    let set = chunk * (std::mem::size_of::<Request>() + std::mem::size_of::<u32>());
    assert_eq!(peak, (raw + 2 * set) as u64, "raw {raw} + 2 sets of {set}");
}

#[test]
fn belady_cannot_stream() {
    assert!(Replay::on_dense_ids("Belady", 100, 50).is_err());
}
