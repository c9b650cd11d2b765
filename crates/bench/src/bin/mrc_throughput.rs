//! Miss-ratio-curve throughput: single-pass multi-capacity engines vs the
//! per-capacity sweep.
//!
//! One fixed-seed Zipf trace, one log-spaced capacity grid, every
//! FIFO-family policy. For each policy the *baseline* replays the trace
//! once per grid point through `simulate_named` (what `miss_ratio_curve`
//! does today); the *mrc* path computes the whole grid in ~one pass via
//! `simulate_mrc` (exact insertion-index engine for FIFO, turbo lanes —
//! label `ganged` — for the rest). Every grid point is asserted
//! bit-identical across the two paths before any number is timed.
//!
//! Results go to stdout as a table and to a JSON file (repo root
//! `BENCH_mrc.json` by default). The acceptance numbers live in
//! `aggregate`: `speedup` (all policies, whole grid) and
//! `fifo_exact_speedup` (the exact-FIFO engine alone).
//!
//! Run: `cargo run --release -p cache-bench --bin mrc_throughput`
//! Flags: `--smoke` (small trace + 8-point grid, write to
//!        `target/BENCH_mrc.json`), `--out PATH` (override the output path).
//! Env: `MRC_TP_REQUESTS`, `MRC_TP_OBJECTS`, `MRC_TP_REPEATS`,
//!      `MRC_TP_POINTS`, `MRC_TP_ALPHA` (Zipf skew ×100),
//!      `MRC_TP_LO_DIV`/`MRC_TP_HI_DIV` (grid endpoints as universe
//!      divisors).

use cache_bench::{banner, f2, f4, print_table};
use cache_sim::{simulate_mrc, simulate_named, CacheSizeSpec, MrcConfig, MrcEngine, SimConfig};
use cache_trace::gen::WorkloadSpec;
use cache_trace::Trace;
use std::time::Instant;

/// The FIFO-family policies with a multi-capacity engine. FIFO routes to
/// the exact insertion-index engine on this pure-`Get` unit-size trace;
/// the rest go through the turbo lanes.
const POLICIES: &[&str] = &["FIFO", "CLOCK", "CLOCK-2bit", "SIEVE", "S3-FIFO"];

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Log-spaced capacity grid, strictly increasing (rounding collisions are
/// bumped to `prev + 1`), from `lo` to roughly `hi`.
fn log_grid(lo: u64, hi: u64, points: usize) -> Vec<u64> {
    let lo = lo.max(1) as f64;
    let hi = (hi.max(2) as f64).max(lo * 2.0);
    let mut grid = Vec::with_capacity(points);
    let mut prev = 0u64;
    let denom = points.saturating_sub(1).max(1) as f64;
    for i in 0..points {
        let t = i as f64 / denom;
        let v = (lo * (hi / lo).powf(t)).round() as u64;
        let v = v.max(prev + 1);
        grid.push(v);
        prev = v;
    }
    grid
}

/// One measured policy row.
struct Row {
    name: String,
    engine: &'static str,
    baseline_secs: f64,
    mrc_secs: f64,
    points: Vec<(u64, f64)>,
}

fn sweep_config(cap: u64) -> SimConfig {
    SimConfig {
        size: CacheSizeSpec::Bytes(cap),
        ignore_size: true,
        min_objects: 0,
        floor_objects: 0,
    }
}

/// The per-capacity baseline: one full `simulate_named` replay per grid
/// point, exactly what `miss_ratio_curve` does. Returns
/// (requests, misses, evictions, miss-ratio bits) per point.
fn baseline_sweep(name: &str, trace: &Trace, grid: &[u64]) -> Vec<(u64, u64, u64, u64)> {
    grid.iter()
        .map(|&cap| {
            let r = simulate_named(name, trace, &sweep_config(cap))
                .expect("known policy")
                .expect("no size filter");
            (r.requests, r.misses, r.evictions, r.miss_ratio.to_bits())
        })
        .collect()
}

fn measure(name: &str, trace: &Trace, grid: &[u64], repeats: u32) -> Row {
    let cfg = MrcConfig::default();

    // Correctness gate first: every grid point of the single-pass curve
    // must equal the per-capacity replay bit for bit.
    let mrc = simulate_mrc(name, trace, grid, &cfg).expect("known policy and valid grid");
    let base = baseline_sweep(name, trace, grid);
    assert_eq!(mrc.points.len(), base.len());
    for (point, (requests, misses, evictions, ratio_bits)) in mrc.points.iter().zip(base.iter()) {
        assert_eq!(
            (point.requests, point.misses, point.evictions),
            (*requests, *misses, *evictions),
            "{name}@{}: single-pass vs per-capacity counters diverged",
            point.capacity
        );
        assert_eq!(
            point.miss_ratio.to_bits(),
            *ratio_bits,
            "{name}@{}: single-pass vs per-capacity miss ratio diverged",
            point.capacity
        );
    }

    // Timed runs: best of `repeats` for each path.
    let mut baseline_secs = f64::INFINITY;
    let mut mrc_secs = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let b = baseline_sweep(name, trace, grid);
        baseline_secs = baseline_secs.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(b.len());

        let t0 = Instant::now();
        let r = simulate_mrc(name, trace, grid, &cfg).expect("known policy and valid grid");
        mrc_secs = mrc_secs.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(r.points.len());
    }

    let expected = if name == POLICIES[0] {
        MrcEngine::ExactFifo
    } else {
        MrcEngine::Ganged
    };
    assert_eq!(mrc.engine, expected, "{name} routed through the wrong engine");

    Row {
        name: name.to_string(),
        engine: mrc.engine.as_str(),
        baseline_secs,
        mrc_secs,
        points: mrc.points.iter().map(|p| (p.capacity, p.miss_ratio)).collect(),
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
    grid: &[u64],
    rows: &[Row],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"mrc_throughput\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"requests\": {requests},\n"));
    out.push_str(&format!("  \"objects\": {objects},\n"));
    let grid_strs: Vec<String> = grid.iter().map(|c| c.to_string()).collect();
    out.push_str(&format!("  \"grid\": [{}],\n", grid_strs.join(", ")));
    out.push_str("  \"policies\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"engine\": \"{}\", \"baseline_secs\": {:.4}, \
             \"mrc_secs\": {:.4}, \"speedup\": {:.4}, \"points\": [\n",
            json_escape(&r.name),
            r.engine,
            r.baseline_secs,
            r.mrc_secs,
            r.baseline_secs / r.mrc_secs,
        ));
        for (j, (cap, ratio)) in r.points.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"capacity\": {cap}, \"miss_ratio\": {ratio:.6}, \"identical\": true}}{}\n",
                if j + 1 < r.points.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let baseline_total: f64 = rows.iter().map(|r| r.baseline_secs).sum();
    let mrc_total: f64 = rows.iter().map(|r| r.mrc_secs).sum();
    // Invariant: POLICIES[0] is FIFO, measured through the exact engine.
    let fifo = rows.first().expect("at least one policy row");
    out.push_str(&format!(
        "  \"aggregate\": {{\"metric\": \"mrc\", \"grid_points\": {}, \
         \"baseline_secs\": {:.4}, \"mrc_secs\": {:.4}, \"speedup\": {:.4}, \
         \"fifo_exact_speedup\": {:.4}}}\n",
        grid.len(),
        baseline_total,
        mrc_total,
        baseline_total / mrc_total,
        fifo.baseline_secs / fifo.mrc_secs,
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
                "target/BENCH_mrc.json".to_string()
            } else {
                "BENCH_mrc.json".to_string()
            }
        });

    let (requests, objects, repeats, points) = if smoke {
        (
            env_u64("MRC_TP_REQUESTS", 200_000),
            env_u64("MRC_TP_OBJECTS", 20_000),
            env_u64("MRC_TP_REPEATS", 1) as u32,
            env_u64("MRC_TP_POINTS", 8) as usize,
        )
    } else {
        (
            env_u64("MRC_TP_REQUESTS", 4_000_000),
            env_u64("MRC_TP_OBJECTS", 600_000),
            env_u64("MRC_TP_REPEATS", 3) as u32,
            env_u64("MRC_TP_POINTS", 32) as usize,
        )
    };

    // Skew 1.4 puts the default grid in the hit-dominated regime a
    // capacity-planning sweep walks (miss ratios ~0.02-0.09 across the
    // curve, the single-digit territory production CDN caches run in);
    // the smoke profile keeps the seed default of 1.0.
    let alpha = env_u64("MRC_TP_ALPHA", if smoke { 100 } else { 140 }) as f64 / 100.0;
    let trace =
        WorkloadSpec::zipf("mrc-throughput", requests as usize, objects, alpha, 0x44C2).generate();
    // Interning is a one-time per-trace cost shared by both paths; trigger
    // it here so the timed runs measure steady-state replay.
    let t0 = Instant::now();
    let slots = trace.dense().ids.len() as u64;
    let intern_secs = t0.elapsed().as_secs_f64();
    // Capacity grid over the working set (log-spaced fractions of the
    // distinct objects actually referenced) — the hit-dominated operating
    // regime a capacity-planning sweep walks.
    let lo_div = env_u64("MRC_TP_LO_DIV", 64).max(2);
    let hi_div = env_u64("MRC_TP_HI_DIV", 2).max(1);
    let grid = log_grid(slots / lo_div, slots / hi_div, points);

    banner(&format!(
        "mrc_throughput{}: {requests} reqs, {slots} objects, {}-point grid [{}..{}] (intern {:.0} ms)",
        if smoke { " (smoke)" } else { "" },
        grid.len(),
        grid[0],
        grid[grid.len() - 1],
        intern_secs * 1e3
    ));

    let rows: Vec<Row> = POLICIES
        .iter()
        .map(|name| measure(name, &trace, &grid, repeats))
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let n = (requests * grid.len() as u64) as f64;
            vec![
                r.name.clone(),
                r.engine.to_string(),
                f2(n / r.baseline_secs / 1e6),
                f2(n / r.mrc_secs / 1e6),
                f2(r.baseline_secs / r.mrc_secs),
                f4(r.points[0].1),
                f4(r.points[r.points.len() - 1].1),
            ]
        })
        .collect();
    print_table(
        &[
            "policy",
            "engine",
            "sweep Mpoint-req/s",
            "mrc Mpoint-req/s",
            "speedup",
            "mr@min",
            "mr@max",
        ],
        &table,
    );

    let baseline_total: f64 = rows.iter().map(|r| r.baseline_secs).sum();
    let mrc_total: f64 = rows.iter().map(|r| r.mrc_secs).sum();
    println!();
    println!(
        "aggregate ({} policies x {} grid points, all bit-identical): \
         sweep {:.2} s, single-pass {:.2} s, speedup {:.2}x (exact-FIFO {:.2}x)",
        rows.len(),
        grid.len(),
        baseline_total,
        mrc_total,
        baseline_total / mrc_total,
        rows[0].baseline_secs / rows[0].mrc_secs,
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
        &grid,
        &rows,
    )
    .expect("write benchmark JSON");
    println!("wrote {out_path}");
}
