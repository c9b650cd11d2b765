//! Out-of-core trace replay: 1B+ requests from disk in bounded memory.
//!
//! Three phases on the paper-shaped streamed workload
//! ([`StreamSpec::paper_mix`]: Zipf(1.0) core, one-hit wonders, scan
//! bursts, 4 popularity phases):
//!
//! 1. **Generate** — stream the trace straight to a `.ctr` file on disk
//!    (the full run writes 10^9 records ≈ 8 GB; the trace is never held in
//!    memory).
//! 2. **Streamed replay** — replay the file through each policy with
//!    [`cache_sim::replay_ctr_path`] and a per-window miss-ratio series,
//!    recording throughput and the peak trace-buffer footprint, which is
//!    asserted to stay bounded by the chunk size (not the trace length).
//! 3. **Calibration** — the acceptance metric: on a trace small enough to
//!    run both ways, replay streamed-from-disk vs dense in-memory, assert
//!    the results bit-identical (counters, f64 bits, every series window),
//!    and report the throughput ratio. The full run requires
//!    streamed ≤ 1.3× the in-memory time.
//!
//! Results go to stdout as tables and to a JSON file (repo root
//! `BENCH_oo_trace.json` by default).
//!
//! Run: `cargo run --release -p cache-bench --bin oo_trace`
//! Flags: `--smoke` (small trace, write to `target/BENCH_oo_trace.json`),
//!        `--out PATH` (override the output path).
//! Env: `OO_REQUESTS`, `OO_OBJECTS`, `OO_CAL_REQUESTS`, `OO_WINDOW`,
//!      `OO_REPEATS`, `OO_SEED`.

use cache_bench::{banner, f2, f4, print_table};
use cache_sim::{replay_ctr_path, Replay, Replayed, StreamReplay, DEFAULT_CHUNK_RECORDS};
use cache_trace::ctr::read_trace;
use cache_trace::stream_gen::StreamSpec;
use cache_trace::Trace;
use cache_types::Request;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The replayed policies: the paper's algorithm plus the FIFO baseline.
const POLICIES: &[&str] = &["FIFO", "S3-FIFO"];

/// Cache capacity as a fraction of the trace's id space (the paper's
/// large-cache setting, 10 % of the object footprint).
const CAPACITY_FRACTION: f64 = 0.10;

/// Full-run acceptance bound on streamed-vs-in-memory replay time.
const RATIO_BOUND: f64 = 1.3;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn capacity_for(id_space: u64) -> u64 {
    ((id_space as f64 * CAPACITY_FRACTION) as u64).max(1)
}

/// One streamed replay of the on-disk trace, timed end to end (file I/O
/// included). Panics if the trace buffers ever exceed the chunk-derived
/// bound — that would mean the replay is not actually out-of-core.
struct StreamRow {
    name: String,
    secs: f64,
    mreqs: f64,
    replay: StreamReplay,
}

fn run_streamed(
    name: &str,
    path: &Path,
    capacity: u64,
    window: u64,
    record_bytes: u64,
) -> StreamRow {
    let t0 = Instant::now();
    let replay = replay_ctr_path(
        name,
        path,
        "oo-trace",
        capacity,
        true,
        window,
        DEFAULT_CHUNK_RECORDS,
    )
    .expect("streamed replay");
    let secs = t0.elapsed().as_secs_f64();
    // Raw chunk bytes + decoded requests + dense slots, with 2x slack for
    // Vec growth policy. Independent of the trace's record count.
    let per_record = record_bytes + std::mem::size_of::<Request>() as u64 + 4;
    let bound = 2 * DEFAULT_CHUNK_RECORDS as u64 * per_record;
    assert!(
        replay.peak_buffer_bytes <= bound,
        "{name}: peak trace buffers {} exceed the chunk bound {bound}",
        replay.peak_buffer_bytes
    );
    StreamRow {
        name: name.to_string(),
        secs,
        mreqs: replay.records as f64 / secs / 1e6,
        replay,
    }
}

/// One calibration row: streamed-from-disk vs dense in-memory on the same
/// trace, bit-identity asserted before any number is reported.
struct CalRow {
    name: String,
    streamed_mreqs: f64,
    in_memory_mreqs: f64,
    ratio: f64,
    miss_ratio: f64,
}

/// The dense in-memory replay the streamed one is calibrated against.
fn in_memory(name: &str, decoded: &Trace, capacity: u64, window: u64) -> Replayed {
    let replay = Replay::on_trace(&[name], decoded, capacity).expect("known policy");
    replay.ignore_size(true).window(window).run(decoded).remove(0)
}

fn assert_identical(name: &str, streamed: &StreamReplay, decoded: &Trace, capacity: u64, window: u64) {
    let (mem, mem_series) = in_memory(name, decoded, capacity, window);
    let mem_series = mem_series.expect("windowed replay keeps a series");
    let s = &streamed.result;
    assert_eq!(s.requests, mem.requests, "{name}: request counts diverged");
    assert_eq!(s.misses, mem.misses, "{name}: miss counts diverged");
    assert_eq!(s.evictions, mem.evictions, "{name}: eviction counts diverged");
    assert_eq!(
        s.miss_ratio.to_bits(),
        mem.miss_ratio.to_bits(),
        "{name}: miss ratio diverged"
    );
    assert_eq!(
        s.byte_miss_ratio.to_bits(),
        mem.byte_miss_ratio.to_bits(),
        "{name}: byte miss ratio diverged"
    );
    assert_eq!(
        streamed.series.points().len(),
        mem_series.points().len(),
        "{name}: window counts diverged"
    );
    for (sp, mp) in streamed.series.points().iter().zip(mem_series.points()) {
        assert!(
            sp.requests == mp.requests && sp.misses == mp.misses
                && sp.start_index == mp.start_index,
            "{name}: window {} diverged ({}req/{}miss@{} vs {}req/{}miss@{})",
            sp.window, sp.requests, sp.misses, sp.start_index,
            mp.requests, mp.misses, mp.start_index
        );
    }
}

fn calibrate(name: &str, path: &Path, capacity: u64, window: u64, repeats: u32) -> CalRow {
    // The in-memory side gets its trace materialized and interned up front
    // (that is the cost the streamed path exists to avoid); the streamed
    // side pays file open + read + decode every run.
    let file = File::open(path).expect("open calibration trace");
    let (decoded, _) = read_trace("oo-cal", file).expect("decode calibration trace");
    let n = decoded.len() as f64;
    decoded.dense();

    // Correctness gate first: one streamed run diffed bit-for-bit against
    // the in-memory windowed replay of the decoded trace.
    let streamed = replay_ctr_path(name, path, "oo-cal", capacity, true, window, DEFAULT_CHUNK_RECORDS)
        .expect("streamed replay");
    assert_identical(name, &streamed, &decoded, capacity, window);

    let mut streamed_secs = f64::INFINITY;
    let mut mem_secs = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let r = replay_ctr_path(name, path, "oo-cal", capacity, true, window, DEFAULT_CHUNK_RECORDS)
            .expect("streamed replay");
        streamed_secs = streamed_secs.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(r.result.misses);

        let t0 = Instant::now();
        let (r, _) = in_memory(name, &decoded, capacity, window);
        mem_secs = mem_secs.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(r.misses);
    }

    CalRow {
        name: name.to_string(),
        streamed_mreqs: n / streamed_secs / 1e6,
        in_memory_mreqs: n / mem_secs / 1e6,
        ratio: streamed_secs / mem_secs,
        miss_ratio: streamed.result.miss_ratio,
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    mode: &str,
    spec: &StreamSpec,
    id_space: u64,
    trace_bytes: u64,
    record_bytes: u64,
    gen_secs: f64,
    window: u64,
    capacity: u64,
    rows: &[StreamRow],
    cal_requests: u64,
    cal_window: u64,
    cal_capacity: u64,
    repeats: u32,
    cal_rows: &[CalRow],
) -> std::io::Result<()> {
    let max_ratio = cal_rows.iter().map(|r| r.ratio).fold(0.0, f64::max);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"oo_trace\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!(
        "  \"trace\": {{\"requests\": {}, \"objects\": {}, \"id_space\": {id_space}, \
         \"bytes\": {trace_bytes}, \"record_bytes\": {record_bytes}, \"seed\": {}, \
         \"mix\": \"paper\", \"generate_secs\": {gen_secs:.3}, \"generate_mreqs\": {:.4}}},\n",
        spec.requests,
        spec.objects,
        spec.seed,
        spec.requests as f64 / gen_secs / 1e6
    ));
    out.push_str(&format!("  \"window\": {window},\n"));
    out.push_str(&format!("  \"chunk_records\": {DEFAULT_CHUNK_RECORDS},\n"));
    out.push_str(&format!("  \"capacity\": {capacity},\n"));
    out.push_str("  \"streamed\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"secs\": {:.3}, \"mreqs\": {:.4}, \"miss_ratio\": {:.6}, \
             \"misses\": {}, \"evictions\": {}, \"windows\": {}, \"peak_buffer_bytes\": {}}}{}\n",
            r.name,
            r.secs,
            r.mreqs,
            r.replay.result.miss_ratio,
            r.replay.result.misses,
            r.replay.result.evictions,
            r.replay.series.points().len(),
            r.replay.peak_buffer_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    // The acceptance metric: streamed-from-disk replay within RATIO_BOUND of
    // the dense in-memory replay, results bit-identical.
    out.push_str(&format!(
        "  \"calibration\": {{\"requests\": {cal_requests}, \"window\": {cal_window}, \
         \"capacity\": {cal_capacity}, \"repeats\": {repeats}, \"policies\": [\n"
    ));
    for (i, r) in cal_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"streamed_mreqs\": {:.4}, \"in_memory_mreqs\": {:.4}, \
             \"ratio\": {:.4}, \"miss_ratio\": {:.6}, \"identical\": true}}{}\n",
            r.name,
            r.streamed_mreqs,
            r.in_memory_mreqs,
            r.ratio,
            r.miss_ratio,
            if i + 1 < cal_rows.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ], \"max_ratio\": {max_ratio:.4}, \"bound\": {RATIO_BOUND}, \"within_bound\": {}}}\n",
        max_ratio <= RATIO_BOUND
    ));
    out.push_str("}\n");
    std::fs::write(path, out)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if smoke {
                // Smoke runs must not clobber the checked-in full-run numbers.
                "target/BENCH_oo_trace.json".to_string()
            } else {
                "BENCH_oo_trace.json".to_string()
            }
        });

    let (requests, cal_requests, window, repeats) = if smoke {
        (
            env_u64("OO_REQUESTS", 200_000),
            env_u64("OO_CAL_REQUESTS", 400_000),
            env_u64("OO_WINDOW", 10_000),
            env_u64("OO_REPEATS", 3) as u32,
        )
    } else {
        (
            env_u64("OO_REQUESTS", 1_000_000_000),
            env_u64("OO_CAL_REQUESTS", 50_000_000),
            env_u64("OO_WINDOW", 10_000_000),
            env_u64("OO_REPEATS", 2) as u32,
        )
    };
    let objects = env_u64("OO_OBJECTS", (requests / 10).max(1));
    let seed = env_u64("OO_SEED", 42);

    let mut spec = StreamSpec::paper_mix(requests, objects, seed);
    let mut cal_spec = StreamSpec::paper_mix(cal_requests, (cal_requests / 10).max(1), seed ^ 1);
    if smoke {
        // Keep the satellite id ranges proportionate so smoke slabs stay
        // small (the defaults add ~5M ids regardless of trace length).
        for s in [&mut spec, &mut cal_spec] {
            s.fresh_ring = 4096;
            s.scan_space = 4096;
        }
    }

    std::fs::create_dir_all("target").expect("create target/");
    let trace_path = PathBuf::from("target/oo_main.ctr");
    let cal_path = PathBuf::from("target/oo_cal.ctr");

    banner(&format!(
        "oo_trace{}: {requests} requests over {objects} objects, window {window}",
        if smoke { " (smoke)" } else { "" }
    ));

    // Phase 1: generate the on-disk trace.
    let t0 = Instant::now();
    let info = spec.write_path(&trace_path).expect("generate trace");
    let gen_secs = t0.elapsed().as_secs_f64();
    let trace_bytes = std::fs::metadata(&trace_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "generated {} records, id space {}, {:.2} GB in {:.1}s ({:.1} M req/s)",
        info.records,
        info.id_space,
        trace_bytes as f64 / 1e9,
        gen_secs,
        info.records as f64 / gen_secs / 1e6
    );

    // Phase 2: streamed replay, never materializing the trace.
    let capacity = capacity_for(info.id_space);
    let rows: Vec<StreamRow> = POLICIES
        .iter()
        .map(|name| {
            let r = run_streamed(name, &trace_path, capacity, window, u64::from(info.record_bytes));
            println!(
                "  {}: {:.1}s, {:.2} M req/s, miss ratio {:.4}, {} windows, peak buffers {:.1} MB",
                r.name,
                r.secs,
                r.mreqs,
                r.replay.result.miss_ratio,
                r.replay.series.points().len(),
                r.replay.peak_buffer_bytes as f64 / 1e6
            );
            r
        })
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                f2(r.secs),
                f2(r.mreqs),
                f4(r.replay.result.miss_ratio),
                r.replay.series.points().len().to_string(),
                format!("{:.1}", r.replay.peak_buffer_bytes as f64 / 1e6),
            ]
        })
        .collect();
    print_table(
        &["policy", "secs", "Mreq/s", "miss ratio", "windows", "peak buf MB"],
        &table,
    );

    // Phase 3: calibration on a trace that fits in memory.
    let cal_info = cal_spec.write_path(&cal_path).expect("generate calibration trace");
    let cal_capacity = capacity_for(cal_info.id_space);
    let cal_window = (cal_requests / 100).max(1);
    println!();
    println!(
        "calibration: {} requests, capacity {cal_capacity}, window {cal_window}",
        cal_info.records
    );
    let cal_rows: Vec<CalRow> = POLICIES
        .iter()
        .map(|name| calibrate(name, &cal_path, cal_capacity, cal_window, repeats))
        .collect();

    let cal_table: Vec<Vec<String>> = cal_rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                f2(r.streamed_mreqs),
                f2(r.in_memory_mreqs),
                f2(r.ratio),
                f4(r.miss_ratio),
            ]
        })
        .collect();
    print_table(
        &["policy", "streamed Mreq/s", "in-memory Mreq/s", "ratio", "miss ratio"],
        &cal_table,
    );

    let max_ratio = cal_rows.iter().map(|r| r.ratio).fold(0.0, f64::max);
    println!();
    println!(
        "calibration max ratio: {max_ratio:.3} (bound {RATIO_BOUND}, results bit-identical)"
    );
    if !smoke {
        // Smoke traces replay in milliseconds, where timing noise dwarfs the
        // engines; the bound is only meaningful at full scale.
        assert!(
            max_ratio <= RATIO_BOUND,
            "streamed replay {max_ratio:.3}x slower than in-memory (bound {RATIO_BOUND})"
        );
    }

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    write_json(
        &out_path,
        if smoke { "smoke" } else { "full" },
        &spec,
        info.id_space,
        trace_bytes,
        u64::from(info.record_bytes),
        gen_secs,
        window,
        capacity,
        &rows,
        cal_info.records,
        cal_window,
        cal_capacity,
        repeats,
        &cal_rows,
    )
    .expect("write benchmark JSON");
    println!("wrote {out_path}");
}
