//! End-to-end exercise of the observability layer, producing the dumps the
//! CI smoke step validates.
//!
//! Four stages, all feeding one [`MetricsRegistry`] and one [`EventTracer`]:
//!
//! 1. **Windowed simulation** — a windowed `Replay` over a Zipf trace
//!    (dense fast path) producing a per-window miss-ratio timeseries whose
//!    sums are asserted against the run totals.
//! 2. **Flash degradation ladder** — a faulty device bursts write errors,
//!    trips the error budget, then heals; retries, trips, recoveries and
//!    per-retry latency land in `flash.ladder.*` and the tracer.
//! 3. **Concurrent per-shard stats** — a multi-threaded
//!    [`ConcurrentS3Fifo`] run exported as `cc.*` totals and
//!    `cc.shard-NN.*` gauges.
//! 4. **Lossy trace ingest** — a deliberately corrupt CSV read through
//!    `read_csv_lossy_observed`, skip/parse counts in `trace.io.*`.
//!
//! Output: JSON-lines (metrics + events + series) to `--out` (default
//! `target/OBS_dump.jsonl`) and Prometheus text next to it (`.prom`).
//! Every line of the JSON file must parse as a standalone JSON object —
//! that is what `ci.sh`'s obs smoke step checks.
//!
//! Run: `cargo run --release -p cache-bench --bin obs_dump`
//! `--overhead` instead measures the windowed dense replay against the
//! plain dense replay (the <3 % acceptance number in EXPERIMENTS.md) and
//! skips the dump.
//! `--mrc` instead computes FIFO-family miss-ratio curves (`simulate_mrc`),
//! records each in the `mrc.*` metrics, and dumps them as JSON lines — one
//! `{"type":"mrc",...}` object per curve point, a `MissRatioSeries` view
//! per policy, and the `mrc.*` counters/timing histogram — to `--out`
//! (default `target/OBS_mrc.jsonl`, Prometheus text next to it).

use cache_concurrent::{s3fifo::ConcurrentS3Fifo, ConcurrentCache};
use cache_faults::{Backoff, ErrorBudgetConfig, FaultKind, FaultPlan, RetryPolicy, Schedule};
use cache_obs::{
    events_to_json_lines, registry_to_json_lines, registry_to_prometheus, series_to_json_lines,
    EventTracer, MetricsRegistry,
};
use cache_sim::{Replay, SimConfig, SimResult};
use cache_trace::gen::WorkloadSpec;
use cache_trace::Trace;
use std::io::Write as _;

fn out_path(default: &str) -> std::path::PathBuf {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--out" {
            if let Some(p) = args.next() {
                return p.into();
            }
        }
    }
    std::path::PathBuf::from(default)
}

/// `name` on `trace` under `cfg` with a series of `window` reads per window.
fn windowed(
    name: &str,
    trace: &Trace,
    cfg: &SimConfig,
    window: u64,
) -> (SimResult, cache_obs::MissRatioSeries) {
    let replay = Replay::on_trace(name, trace, cfg.capacity_for(trace)).expect("known policy");
    let (result, series) = replay.ignore_size(cfg.ignore_size).window(window).run(trace);
    (result, series.expect("windowed replay keeps a series"))
}

/// `--mrc`: one instrumented single-pass curve per FIFO-family policy on a
/// fixed Zipf trace, dumped as JSON lines plus the `mrc.*` metrics.
fn dump_mrc() {
    use cache_sim::{simulate_mrc, MrcConfig};
    let registry = MetricsRegistry::new();
    let scope = registry.scope("mrc");
    let trace = WorkloadSpec::zipf("obs-mrc", 200_000, 20_000, 1.0, 21).generate();
    // Log-spaced (powers of two) capacities over the trace footprint — the
    // range a capacity-planning sweep walks.
    let slots = trace.dense().ids.len() as u64;
    let mut grid: Vec<u64> = [64u64, 32, 16, 8, 4, 2, 1]
        .iter()
        .map(|d| (slots / d).max(1))
        .collect();
    grid.dedup();
    let cfg = MrcConfig::default();

    let mut dump = String::new();
    let mut curves = 0usize;
    for algo in ["FIFO", "CLOCK", "SIEVE", "S3-FIFO"] {
        // Invariant: the algorithm list and grid above are valid by
        // construction.
        let start = std::time::Instant::now();
        let r = simulate_mrc(algo, &trace, &grid, &cfg).expect("known policy and valid grid");
        let per_point_us = start.elapsed().as_micros() as u64 / r.points.len().max(1) as u64;
        scope.counter("curves").inc();
        scope.counter("points").add(r.points.len() as u64);
        scope
            .counter("requests")
            .add(r.points.first().map_or(0, |s| s.requests));
        scope
            .counter("misses")
            .add(r.points.iter().map(|s| s.misses).sum());
        scope.histogram("point_micros").record(per_point_us);
        for p in &r.points {
            dump.push_str(&format!(
                "{{\"type\":\"mrc\",\"algorithm\":\"{}\",\"trace\":\"{}\",\
                 \"engine\":\"{}\",\"capacity\":{},\"requests\":{},\
                 \"misses\":{},\"evictions\":{},\"miss_ratio\":{:.6}}}\n",
                r.algorithm,
                r.trace,
                r.engine.as_str(),
                p.capacity,
                p.requests,
                p.misses,
                p.evictions,
                p.miss_ratio,
            ));
        }
        dump.push_str(&series_to_json_lines(
            &format!("mrc.{}", r.algorithm),
            &r.series(),
        ));
        curves += 1;
    }
    dump.push_str(&registry_to_json_lines(&registry));

    let path = out_path("target/OBS_mrc.jsonl");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(dump.as_bytes()))
        .expect("write mrc json dump");
    let prom_path = path.with_extension("prom");
    std::fs::write(&prom_path, registry_to_prometheus(&registry)).expect("write prometheus dump");
    println!(
        "obs_dump --mrc: {curves} curves x {} grid points, {} metrics",
        grid.len(),
        registry.len(),
    );
    println!(
        "obs_dump: wrote {} and {}",
        path.display(),
        prom_path.display()
    );
}

/// Windowed-vs-plain dense replay overhead: best-of-N wall time for the
/// same policy on the same trace, with a bit-identity assertion first.
fn measure_overhead() {
    use cache_sim::simulate_named;
    let requests = std::env::var("OBS_OVH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000usize);
    let repeats = std::env::var("OBS_OVH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5u32);
    let trace = WorkloadSpec::zipf("ovh", requests, requests as u64 / 10, 1.0, 3).generate();
    let cfg = SimConfig::large();
    let window = 100_000u64;
    println!(
        "windowed dense replay overhead ({requests} reqs, window {window}, best of {repeats}):"
    );
    for name in ["FIFO", "LRU", "SIEVE", "S3-FIFO"] {
        let plain = simulate_named(name, &trace, &cfg)
            .expect("known policy")
            .expect("no size filter");
        let (with_series, series) = windowed(name, &trace, &cfg, window);
        assert_eq!(plain.miss_ratio.to_bits(), with_series.miss_ratio.to_bits());
        assert_eq!(series.total_misses(), plain.misses);

        let mut plain_secs = f64::INFINITY;
        let mut windowed_secs = f64::INFINITY;
        for _ in 0..repeats {
            let t0 = std::time::Instant::now();
            let r = simulate_named(name, &trace, &cfg).unwrap().unwrap();
            plain_secs = plain_secs.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(r.misses);

            let t0 = std::time::Instant::now();
            let (r, s) = windowed(name, &trace, &cfg, window);
            windowed_secs = windowed_secs.min(t0.elapsed().as_secs_f64());
            std::hint::black_box((r.misses, s.total_misses()));
        }
        let overhead = (windowed_secs / plain_secs - 1.0) * 100.0;
        println!(
            "  {name:<9} plain {:>7.1} ms  windowed {:>7.1} ms  overhead {overhead:+.2}%",
            plain_secs * 1e3,
            windowed_secs * 1e3,
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--overhead") {
        measure_overhead();
        return;
    }
    if std::env::args().any(|a| a == "--mrc") {
        dump_mrc();
        return;
    }
    let registry = MetricsRegistry::new();
    let tracer = EventTracer::new(1 << 14);

    // 1. Windowed dense simulation + miss-ratio timeseries.
    let trace = WorkloadSpec::zipf("obs-zipf", 60_000, 8_000, 1.0, 42).generate();
    let cfg = SimConfig::large();
    let (result, series) = windowed("S3-FIFO", &trace, &cfg, 5_000);
    assert_eq!(
        series.total_misses(),
        result.misses,
        "windowed sums must equal run totals"
    );
    let sim = registry.scope("sim");
    sim.gauge("requests").set(result.requests as i64);
    sim.gauge("misses").set(result.misses as i64);
    sim.gauge("evictions").set(result.evictions as i64);
    sim.gauge("windows").set(series.points().len() as i64);
    let age = sim.histogram("eviction_age");
    age.merge_from(&result.eviction_age);

    // 2. Flash degradation ladder under a deterministic fault burst.
    let plan = FaultPlan::new(13).with(
        FaultKind::TransientWrite,
        Schedule::Burst {
            period: u64::MAX,
            burst_len: 60,
            inside: 1.0,
            outside: 0.0,
        },
    );
    let resilience = cache_flash::ResilienceConfig {
        retry: RetryPolicy::no_retries(),
        budget: ErrorBudgetConfig {
            window_ops: 500,
            max_errors: 5,
            probe_interval: 200,
            recovery_probes: 2,
        },
    };
    let mut fspec = WorkloadSpec::zipf("obs-flash", 60_000, 6_000, 0.8, 7);
    fspec.one_hit_fraction = 0.3;
    fspec.size_model = cache_trace::gen::SizeModel::Uniform {
        min: 100,
        max: 2000,
    };
    let ftrace = fspec.generate();
    let fcfg = cache_flash::FlashCacheConfig {
        total_bytes: ftrace.footprint_bytes() / 10,
        dram_fraction: 0.01,
        admission: cache_flash::AdmissionKind::SmallFifoTwoAccess,
    };
    let mut flash = cache_flash::FlashCache::faulty(fcfg, plan, resilience).expect("flash config");
    flash.attach_obs(&registry.scope("flash.ladder"), tracer.clone());
    let fstats = flash.run(ftrace.iter());
    assert!(
        fstats.budget_trips >= 1 && fstats.budget_recoveries >= 1,
        "fault plan must exercise the full ladder (trips={}, recoveries={})",
        fstats.budget_trips,
        fstats.budget_recoveries
    );

    // 3. Concurrent per-shard aggregation under real parallelism.
    let cc = std::sync::Arc::new(ConcurrentS3Fifo::new(4_096));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let cc = std::sync::Arc::clone(&cc);
            s.spawn(move || {
                let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
                for _ in 0..50_000 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (state >> 33) % 16_384;
                    if cc.get(key).is_none() {
                        cc.insert(key, bytes::Bytes::from_static(b"v"));
                    }
                }
            });
        }
    });
    cc.export_obs(&registry.scope("cc"));

    // 4. Lossy CSV ingest with skip accounting.
    let csv = b"ts,key,op,size\n1,10,get,1\nnot,a,line\n2,11,get,1\n\xff\xfe,3,get\n";
    let (ctrace, report) = cache_trace::io::read_csv_lossy_observed(
        "obs-corrupt",
        &csv[..],
        &registry.scope("trace.io"),
    )
    .expect("lossy read never fails on content");
    assert_eq!(ctrace.len() as u64, report.parsed_lines);
    assert!(
        report.skipped_lines > 0,
        "the corrupt lines must be counted"
    );

    // Render. One JSON object per line: metrics, then events, then series.
    let mut dump = registry_to_json_lines(&registry);
    dump.push_str(&events_to_json_lines(&tracer.drain()));
    dump.push_str(&series_to_json_lines("sim.miss_ratio", &series));

    let path = out_path("target/OBS_dump.jsonl");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(dump.as_bytes()))
        .expect("write json dump");
    let prom_path = path.with_extension("prom");
    std::fs::write(&prom_path, registry_to_prometheus(&registry)).expect("write prometheus dump");

    // Keep the backoff type linked so the faults surface stays exercised
    // even when retries are off above.
    let mut backoff = Backoff::new(RetryPolicy::default(), 99);
    let _ = backoff.next_delay();

    println!(
        "obs_dump: {} metrics, {} events ({} dropped), {} windows, \
         flash trips/recoveries {}/{}, csv parsed/skipped {}/{}",
        registry.len(),
        tracer.recorded(),
        tracer.dropped(),
        series.points().len(),
        fstats.budget_trips,
        fstats.budget_recoveries,
        report.parsed_lines,
        report.skipped_lines,
    );
    println!(
        "obs_dump: wrote {} and {}",
        path.display(),
        prom_path.display()
    );
}
