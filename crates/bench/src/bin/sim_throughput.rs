//! Simulator throughput of the dense (pre-interned) replay path.
//!
//! Two measurements on the same Zipf trace:
//!
//! 1. **Per-policy replay** — each FIFO-family policy alone through
//!    `simulate_named` (one-time interned u32 slots, slab-indexed policy
//!    state).
//! 2. **Sweep aggregate** — every policy × every standard cache size, i.e.
//!    what `run_sweep` feeds each worker: same-trace jobs ganged into a
//!    single pass (a multi-policy `Replay`), so one traversal drives several
//!    independent policies' memory streams at once.
//!
//! Before any number is reported each policy's dense replay is asserted
//! bit-identical (miss ratio, evictions) to the same policy behind the keyed
//! adapter, and the ganged sweep to one-policy-at-a-time replay. Results go
//! to stdout as tables and to a JSON file (repo root `BENCH_sim.json` by
//! default) whose numbers the binary checks before writing. The comparison
//! against the hand-written keyed engine this path replaced (1.95×, PR 2)
//! is recorded in EXPERIMENTS.md; that engine no longer exists.
//!
//! Run: `cargo run --release -p cache-bench --bin sim_throughput`
//! Flags: `--smoke` (small trace, write to `target/BENCH_sim.json`),
//!        `--out PATH` (override the output path).
//! Env: `SIM_TP_REQUESTS`, `SIM_TP_OBJECTS`, `SIM_TP_REPEATS`.

use cache_bench::{banner, f2, f4, print_table};
use cache_sim::{simulate_named, CacheSizeSpec, Replay, SimConfig, SimResult};
use cache_trace::gen::WorkloadSpec;
use cache_trace::Trace;
use std::time::Instant;

/// The policies written over the dense slab.
const POLICIES: &[&str] = &[
    "FIFO",
    "LRU",
    "CLOCK",
    "CLOCK-2bit",
    "SIEVE",
    "SLRU",
    "2Q",
    "S3-FIFO",
];

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One measured policy row.
struct Row {
    name: String,
    dense_mreqs: f64,
    miss_ratio: f64,
    dense_secs: f64,
}

fn run_dense(name: &str, trace: &Trace, cfg: &SimConfig) -> SimResult {
    simulate_named(name, trace, cfg)
        .expect("known policy")
        .expect("no size filter")
}

/// The registry's keyed policy for `name`, driven by the same `Replay`.
fn run_keyed(name: &str, trace: &Trace, cfg: &SimConfig) -> SimResult {
    let policy = cache_policies::registry::build(name, cfg.capacity_for(trace), None)
        .expect("known policy");
    let replay = Replay::keyed(policy).ignore_size(cfg.ignore_size);
    replay.run(trace).remove(0).0
}

fn measure(name: &str, trace: &Trace, cfg: &SimConfig, repeats: u32) -> Row {
    let n = trace.requests.len() as f64;

    // Correctness gate first: pre-interned replay must agree bit for bit
    // with the same policy behind the interning, slot-recycling adapter.
    let dense_result = run_dense(name, trace, cfg);
    let keyed_result = run_keyed(name, trace, cfg);
    assert_eq!(
        dense_result.miss_ratio.to_bits(),
        keyed_result.miss_ratio.to_bits(),
        "{name}: dense vs keyed miss ratio diverged"
    );
    assert_eq!(
        dense_result.evictions, keyed_result.evictions,
        "{name}: dense vs keyed evictions diverged"
    );

    // Timed runs: best of `repeats`.
    let mut dense_secs = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let r = run_dense(name, trace, cfg);
        dense_secs = dense_secs.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(r.misses);
    }

    Row {
        name: name.to_string(),
        dense_mreqs: n / dense_secs / 1e6,
        miss_ratio: dense_result.miss_ratio,
        dense_secs,
    }
}

/// The sweep's cache sizes, as fractions of the trace footprint: the
/// paper's small (0.1 %) and large (10 %) settings plus a midpoint.
const FRACTIONS: &[f64] = &[0.001, 0.01, 0.1];

/// The sweep-aggregate measurement: all (policy × size) jobs for one trace.
struct SweepNums {
    jobs: usize,
    dense_secs: f64,
}

fn sweep_config(frac: f64) -> SimConfig {
    SimConfig {
        size: CacheSizeSpec::FractionOfObjects(frac),
        ..SimConfig::large()
    }
}

/// Runs the full (policy × size) job grid one job at a time and returns
/// each job's miss-ratio bits, for the equivalence check on the ganged run.
fn single_sweep(trace: &Trace) -> Vec<u64> {
    FRACTIONS
        .iter()
        .flat_map(|&f| {
            let cfg = sweep_config(f);
            POLICIES
                .iter()
                .map(move |name| run_dense(name, trace, &cfg).miss_ratio.to_bits())
                .collect::<Vec<u64>>()
        })
        .collect()
}

/// Runs the same grid through the ganged dense engine: one trace pass per
/// cache size drives all policies simultaneously.
fn dense_sweep(trace: &Trace) -> Vec<u64> {
    // Gang width defaults to the sweep engine's (`cache_sim::sweep`, which
    // says why more is not better); SIM_TP_GANG overrides it for
    // experiments.
    let gang: usize = std::env::var("SIM_TP_GANG")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
        .max(1);
    FRACTIONS
        .iter()
        .flat_map(|&f| {
            POLICIES
                .chunks(gang)
                .flat_map(|chunk| {
                    let cfg = sweep_config(f);
                    Replay::on_trace(chunk, trace, cfg.capacity_for(trace))
                        .expect("known policies")
                        .ignore_size(cfg.ignore_size)
                        .run(trace)
                        .into_iter()
                        .map(|(r, _)| r.miss_ratio.to_bits())
                        .collect::<Vec<u64>>()
                })
                .collect::<Vec<u64>>()
        })
        .collect()
}

fn measure_sweep(trace: &Trace, repeats: u32) -> SweepNums {
    let dense_ratios = dense_sweep(trace);
    assert_eq!(
        single_sweep(trace),
        dense_ratios,
        "sweep: ganged vs one-at-a-time miss ratios diverged"
    );

    let mut dense_secs = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        std::hint::black_box(dense_sweep(trace));
        dense_secs = dense_secs.min(t0.elapsed().as_secs_f64());
    }
    SweepNums {
        jobs: dense_ratios.len(),
        dense_secs,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(
    path: &str,
    mode: &str,
    requests: u64,
    objects: u64,
    capacity: u64,
    rows: &[Row],
    sweep: &SweepNums,
) -> std::io::Result<()> {
    // The artifact's shape, checked where it is made: a row per policy with
    // a positive rate and a miss ratio in [0, 1], and a non-empty job grid.
    assert_eq!(rows.len(), POLICIES.len(), "one row per policy");
    for r in rows {
        assert!(r.dense_mreqs.is_finite() && r.dense_mreqs > 0.0, "{}: rate", r.name);
        assert!((0.0..=1.0).contains(&r.miss_ratio), "{}: miss ratio", r.name);
    }
    assert_eq!(sweep.jobs, POLICIES.len() * FRACTIONS.len(), "sweep job grid");
    assert!(sweep.dense_secs.is_finite() && sweep.dense_secs > 0.0, "sweep time");

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"sim_throughput\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"requests\": {requests},\n"));
    out.push_str(&format!("  \"objects\": {objects},\n"));
    out.push_str(&format!("  \"capacity\": {capacity},\n"));
    out.push_str("  \"policies\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"dense_mreqs\": {:.4}, \"miss_ratio\": {:.6}, \
             \"identical\": true}}{}\n",
            json_escape(&r.name),
            r.dense_mreqs,
            r.miss_ratio,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let dense_total: f64 = rows.iter().map(|r| r.dense_secs).sum();
    let total_reqs = requests as f64 * rows.len() as f64;
    out.push_str(&format!(
        "  \"serial_aggregate\": {{\"dense_mreqs\": {:.4}}},\n",
        total_reqs / dense_total / 1e6
    ));
    // Aggregate Mreq/s over the full sweep job grid, ganged.
    let sweep_reqs = requests as f64 * sweep.jobs as f64;
    out.push_str(&format!(
        "  \"aggregate\": {{\"metric\": \"sweep\", \"jobs\": {}, \"dense_mreqs\": {:.4}}}\n",
        sweep.jobs,
        sweep_reqs / sweep.dense_secs / 1e6
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
                "target/BENCH_sim.json".to_string()
            } else {
                "BENCH_sim.json".to_string()
            }
        });

    let (requests, objects, repeats) = if smoke {
        (
            env_u64("SIM_TP_REQUESTS", 200_000),
            env_u64("SIM_TP_OBJECTS", 20_000),
            env_u64("SIM_TP_REPEATS", 1) as u32,
        )
    } else {
        (
            env_u64("SIM_TP_REQUESTS", 4_000_000),
            env_u64("SIM_TP_OBJECTS", 400_000),
            env_u64("SIM_TP_REPEATS", 3) as u32,
        )
    };

    let trace =
        WorkloadSpec::zipf("throughput", requests as usize, objects, 1.0, 0xBEEF).generate();
    // Cache size as a fraction of the footprint; default is the paper's
    // large-cache setting (10 %). Overridable to explore hit/miss balance.
    let frac = std::env::var("SIM_TP_FRACTION")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.10);
    let cfg = SimConfig {
        size: cache_sim::CacheSizeSpec::FractionOfObjects(frac),
        ..SimConfig::large()
    };
    let capacity = cfg.capacity_for(&trace);
    // Interning is a one-time per-trace cost shared by every sweep job;
    // trigger it here so per-policy numbers reflect steady-state replay.
    let interned = Instant::now();
    let slots = trace.dense().ids.len();
    let intern_secs = interned.elapsed().as_secs_f64();

    banner(&format!(
        "sim_throughput{}: {requests} reqs, {slots} objects, capacity {capacity} (intern {:.0} ms)",
        if smoke { " (smoke)" } else { "" },
        intern_secs * 1e3
    ));

    let rows: Vec<Row> = POLICIES
        .iter()
        .map(|name| measure(name, &trace, &cfg, repeats))
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![r.name.clone(), f2(r.dense_mreqs), f4(r.miss_ratio)]
        })
        .collect();
    print_table(&["policy", "dense Mreq/s", "miss ratio"], &table);

    let dense_total: f64 = rows.iter().map(|r| r.dense_secs).sum();
    println!();
    println!(
        "serial aggregate: {:.2} Mreq/s ({} policies, dense and keyed bit-identical)",
        requests as f64 * rows.len() as f64 / dense_total / 1e6,
        rows.len()
    );

    let sweep = measure_sweep(&trace, repeats);
    let sweep_reqs = requests as f64 * sweep.jobs as f64;
    println!();
    println!(
        "sweep aggregate ({} jobs = {} policies x {} sizes): {:.2} Mreq/s",
        sweep.jobs,
        POLICIES.len(),
        FRACTIONS.len(),
        sweep_reqs / sweep.dense_secs / 1e6
    );

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    write_json(
        &out_path,
        if smoke { "smoke" } else { "full" },
        requests,
        objects,
        capacity,
        &rows,
        &sweep,
    )
    .expect("write benchmark JSON");
    println!("wrote {out_path}");
}
