//! `sim-ctr-mrc`: offline, from bytes on disk to a finished result. Set-up
//! streams a `StreamSpec::paper_mix` trace to a `.ctr` file; the timed part
//! alternates a streamed S3-FIFO replay at 10 % of the id space with a
//! load-and-curve pass (`read_trace`, then a 32-point `simulate_mrc`), and
//! reports the quiet end (10th percentile) of the passes of each. The trace,
//! policy and simulator crates do all of the work; the server and the
//! concurrent cache do none.

use crate::json::Value;
use crate::layers::{self, LoadedTrace, ReplayCounts};
use crate::report::{peak_rss_mb, Metrics, RunResult};
use crate::spans::{median, quiet_time, timer_overhead_ns, Recorder, NO_PARENT};
use crate::{out_dir, Scale, TraceOut};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Frozen so that a replay pass takes about a second and a curve pass two
/// or three on the reference host, and the materialised trace stays far
/// below 1 GiB.
const REQUESTS: u64 = 2_000_000;
const OBJECTS: u64 = 1_000_000;
const POLICY: &str = "S3-FIFO";
const GRID_POINTS: usize = 32;
const MIN_PASSES: usize = 5;

pub fn describe() -> Value {
    Value::obj([
        ("requests", Value::Num(REQUESTS as f64)),
        ("objects", Value::Num(OBJECTS as f64)),
        ("policy", Value::Str(POLICY.into())),
        ("grid_points", Value::Num(GRID_POINTS as f64)),
        ("min_passes", Value::Num(MIN_PASSES as f64)),
    ])
}

/// 32 capacities spaced evenly in the logarithm from 0.1 % to 10 % of the
/// id space; the last one is exactly the streamed replay's capacity.
fn grid(id_space: u64) -> Vec<u64> {
    let lo = id_space as f64 * 0.001;
    (0..GRID_POINTS)
        .map(|i| ((lo * 100f64.powf(i as f64 / (GRID_POINTS - 1) as f64)).round() as u64).max(1))
        .collect()
}

/// Removes the generated trace when the run ends, however it ends.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Equality checks made and failed.
#[derive(Default)]
struct Checks {
    made: u64,
    failed: u64,
}

impl Checks {
    fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.made += 1;
        if got != want {
            self.failed += 1;
            eprintln!("check failed: {what}: got {got:?}, want {want:?}");
        }
    }
}

/// Disk to curve: load, intern, curve, each call a child span of the pass.
/// The curve's point at the replay capacity is returned for checking.
fn curve_pass(
    path: &Path,
    grid: &[u64],
    pass: u64,
    rec: &mut Recorder,
) -> Result<(f64, layers::CurvePoint, LoadedTrace), String> {
    let start = Instant::now();
    let parent = rec.push("sim.curve_pass", start, start, NO_PARENT, pass, 1);
    let (trace, _) = rec.time("trace.read_trace", parent, pass, || {
        layers::trace_load(path)
    });
    let trace = trace?;
    rec.time("trace.dense", parent, pass, || layers::trace_intern(&trace));
    let (curve, _) = rec.time("sim.simulate_mrc", parent, pass, || {
        layers::sim_mrc(POLICY, &trace, grid)
    });
    let (_, points) = curve?;
    let end = Instant::now();
    rec.spans[parent as usize].end_ns = rec.ns(end);
    let last = *points.last().ok_or("empty curve")?;
    Ok(((end - start).as_secs_f64(), last, trace))
}

pub fn run(
    seed: u64,
    seconds: f64,
    scale: Scale,
    trace_out: Option<&mut TraceOut>,
) -> Result<RunResult, String> {
    let (requests, objects) = if scale == Scale::Smoke {
        (200_000, 20_000)
    } else {
        (REQUESTS, OBJECTS)
    };
    let mut m = Metrics::new();
    let mut checks = Checks::default();
    let traced = trace_out.is_some();
    let mut rec = Recorder::new(Instant::now());

    // Set-up: generate the trace file, three times; the same seed must give
    // the same bytes, so any of the three serves.
    let dir = out_dir().map_err(|e| e.to_string())?;
    let file = TempFile(dir.join(format!("sim-{seed}-{}.ctr", std::process::id())));
    let path = file.0.as_path();
    let mut setup_times = Vec::new();
    let mut meta = None;
    for _ in 0..3 {
        let t = Instant::now();
        meta = Some(layers::trace_write(path, requests, objects, seed)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let meta = meta.expect("three set-ups ran");
    let setup_s = median(&setup_times);
    m.insert("setup_s", setup_s);
    m.insert("trace.gen_mreq_per_s", meta.records as f64 / setup_s / 1e6);
    let file_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    m.insert(
        "trace.ctr_bytes_per_req",
        file_bytes as f64 / meta.records as f64,
    );

    let grid = grid(meta.id_space);
    let capacity = *grid.last().expect("grid is not empty");

    // Timed passes, alternating, until the time is spent.
    let budget = Instant::now();
    let mut replay_s = Vec::new();
    let mut curve_s = Vec::new();
    let mut first: Option<(ReplayCounts, u64)> = None;
    let mut loaded = None;
    // A pass that would not end inside the time is not begun.
    let mut pair_s = 0.0;
    while replay_s.len() < MIN_PASSES || budget.elapsed().as_secs_f64() + pair_s < seconds {
        let pass = replay_s.len() as u64;
        let (replay, dt) = rec.time("sim.replay_ctr_path", NO_PARENT, pass, || {
            layers::sim_stream_replay(POLICY, path, capacity)
        });
        let replay = replay?;
        replay_s.push(dt);
        // The last pass's trace stays for the checks below; drop it before
        // loading the next, or peak memory depends on which of two copies
        // the allocator happened to return first.
        drop(loaded.take());
        let (dt, point, trace) = curve_pass(path, &grid, pass, &mut rec)?;
        curve_s.push(dt);
        pair_s = replay_s[pass as usize] + dt;
        // Every pass must give what the first one gave, and the curve's
        // point at the replay capacity must equal the replay.
        let want = *first.get_or_insert(replay);
        checks.eq("streamed replay repeats", replay, want);
        checks.eq(
            "curve point at the replay capacity",
            (point.capacity, point.requests, point.misses),
            (capacity, want.0.requests, want.0.misses),
        );
        loaded = Some(trace);
        // What one pass of each kind needs, read in a process that has done
        // nothing else. Later passes raise the mark by what the allocator
        // kept of the earlier ones and could not reuse: 80 MB, or 110 MB
        // every few runs, and none of it the program's need.
        if pass == 0 {
            m.insert("peak_rss_mb", peak_rss_mb());
        }
        if scale == Scale::Smoke && replay_s.len() >= 2 {
            break;
        }
    }
    let (streamed, peak_buffer_bytes) = first.expect("at least one pass ran");
    let trace = loaded.expect("at least one pass ran");

    // The streamed counters equal the in-memory ones bit for bit.
    let (mem, mem_s) = rec.time("sim.simulate_named", NO_PARENT, 0, || {
        layers::sim_replay(POLICY, &trace, capacity)
    });
    checks.eq(
        "streamed replay equals in-memory simulate_named",
        streamed,
        mem?,
    );
    // A pass is the same work every time, so what differs between passes is
    // the host; the quiet end of them is the program (spans.rs).
    let replay_quiet = quiet_time(&replay_s);
    let curve_quiet = quiet_time(&curve_s);
    m.insert("sat_ops_per_s", meta.records as f64 / replay_quiet);
    m.insert("lat_p50_us", curve_quiet * 1e6);
    m.insert(
        "lat_p99_us",
        curve_s.iter().copied().fold(0.0, f64::max) * 1e6,
    );
    m.insert("miss_ratio", streamed.miss_ratio());
    m.insert("sim.misses", streamed.misses as f64);
    m.insert("sim.peak_buffer_bytes", peak_buffer_bytes as f64);
    m.insert(
        "sim.replay_mem_mreq_per_s",
        meta.records as f64 / mem_s / 1e6,
    );
    m.insert("sim.stream_overhead_frac", 1.0 - mem_s / replay_quiet);

    let mut notes = Vec::new();
    if traced {
        // The stages of the curve pass: the child spans of the pass that the
        // reported time is nearest to, so that they sum to no more than it.
        let nearest = (0..curve_s.len())
            .min_by(|&a, &b| {
                let off = |i: usize| (curve_s[i] - curve_quiet).abs();
                off(a).total_cmp(&off(b))
            })
            .expect("at least one pass ran") as u64;
        let mut stage_sum = 0.0;
        for (metric, span) in [
            ("trace.load_s", "trace.read_trace"),
            ("trace.intern_s", "trace.dense"),
            ("sim.mrc_s.S3-FIFO", "sim.simulate_mrc"),
        ] {
            let stage_s = rec
                .spans
                .iter()
                .find(|s| s.name == span && s.parent != NO_PARENT && s.id == nearest)
                .map_or(0.0, |s| s.dur_ns() as f64 / 1e9);
            m.insert(metric, stage_s);
            stage_sum += stage_s;
        }
        m.insert("sim.stage_sum_s", stage_sum);
        m.insert("sim.pass_s", curve_s[nearest as usize]);
        m.insert(
            "sim.unattributed_frac",
            1.0 - stage_sum / curve_s[nearest as usize],
        );
        let records = meta.records;
        notes = stage_probes(path, &trace, &grid, records, &mut rec, &mut m, &mut checks)?;
        // Both kinds of run record the same seven spans a pass, so the cost
        // of tracing is their clock reads against the length of a pass.
        m.insert(
            "trace_overhead_frac",
            7.0 * timer_overhead_ns() / 1e9 / (replay_quiet + curve_quiet),
        );
    }

    m.insert("fail_frac", checks.failed as f64 / checks.made as f64);
    if let Some(out) = trace_out {
        out.notes = notes;
        out.notes.push(format!(
            "{} requests, id space {}, capacity {capacity}; {} passes of each kind; lat_p99_us is the slowest curve pass",
            meta.records,
            meta.id_space,
            replay_s.len()
        ));
        out.spans = rec.spans;
    }
    Ok(RunResult {
        attempted: checks.made,
        failed: checks.failed,
        metrics: m,
    })
}

/// The rest of the offline path's per-layer ledger, each measured once on
/// the loaded trace: the decode loop alone, the other policies, the other
/// curves.
fn stage_probes(
    path: &Path,
    trace: &LoadedTrace,
    grid: &[u64],
    records: u64,
    rec: &mut Recorder,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<Vec<String>, String> {
    let mut notes = Vec::new();
    let capacity = *grid.last().expect("grid is not empty");
    let (decoded, decode_s) = rec.time("trace.read_chunk", NO_PARENT, 0, || {
        layers::trace_decode(path)
    });
    checks.eq("decode loop reads every record", decoded?, records);
    let mreq_per_s = |s: f64| records as f64 / s / 1e6;
    m.insert("trace.ctr_decode_mreq_per_s", mreq_per_s(decode_s));

    // ARC has no dense twin: it is the keyed path.
    for (metric, policy) in [
        ("policies.FIFO.mreq_per_s", "FIFO"),
        ("policies.LRU.mreq_per_s", "LRU"),
        ("policies.SIEVE.mreq_per_s", "SIEVE"),
        ("policies.S3-FIFO.mreq_per_s", "S3-FIFO"),
        ("policies.ARC.mreq_per_s", "ARC"),
    ] {
        let (r, s) = rec.time("sim.simulate_named", NO_PARENT, 0, || {
            layers::sim_replay(policy, trace, capacity)
        });
        r?;
        m.insert(metric, mreq_per_s(s));
    }
    for (metric, policy) in [
        ("sim.mrc_s.FIFO", "FIFO"),
        ("sim.mrc_s.LRU", "LRU"),
        ("sim.mrc_s.S3-FIFO", POLICY),
    ] {
        let (r, s) = rec.time("sim.simulate_mrc", NO_PARENT, 0, || {
            layers::sim_mrc(policy, trace, grid)
        });
        let (engine, _) = r?;
        notes.push(format!("{metric}: routed to the {engine} engine"));
        // S3-FIFO's time is already there, from the curve passes.
        m.entry(metric).or_insert(s);
    }
    Ok(notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_file_other_seed_other_file() {
        let dir = out_dir().expect("out dir");
        let write = |tag: &str, seed: u64| {
            let file = TempFile(dir.join(format!("test-{tag}-{}.ctr", std::process::id())));
            layers::trace_write(&file.0, 50_000, 5_000, seed).expect("write");
            std::fs::read(&file.0).expect("read back")
        };
        let a = write("a", 7);
        assert_eq!(a, write("b", 7), "same seed, different bytes");
        assert_ne!(a, write("c", 8), "different seed, same bytes");
    }

    #[test]
    fn grid_is_32_log_spaced_points_ending_at_a_tenth() {
        let g = grid(2_000_000);
        assert_eq!((g.len(), g[0], g[31]), (32, 2_000, 200_000));
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        let ratios: Vec<f64> = g.windows(2).map(|w| w[1] as f64 / w[0] as f64).collect();
        assert!(
            ratios.iter().all(|r| (r - ratios[0]).abs() < 0.01),
            "not evenly spaced in the logarithm"
        );
    }
}
