//! Single-pass MRC engines ⇔ per-capacity replay equivalence.
//!
//! The multi-capacity engines (`cache_policies::dense::mrc`) must be
//! *decision identical*, per grid point, to replaying the single-capacity
//! dense policy at that capacity: same misses, same evictions, same miss
//! ratios, bit for bit — and `simulate_mrc` must send them only the streams
//! they can take (pure `Get`, unit sizes, ≤ 64 points for the turbo lanes,
//! drawn as engines of four lanes each), replaying everything else per
//! capacity. The expected route is part of every case below. The exact-FIFO insertion-index engine is
//! additionally pinned with a property test over seeded Zipf traces (the
//! ISSUE's eviction-age cross-check: FIFO residency from insertion-index
//! distances must reproduce every per-capacity curve exactly).

use cache_sim::{
    simulate_mrc, simulate_named, CacheSizeSpec, MrcConfig, MrcEngine, SimConfig,
};
use cache_trace::gen::{SizeModel, WorkloadSpec};
use cache_trace::Trace;
use proptest::prelude::*;

/// Replays every grid point through `simulate_named` and asserts the MRC
/// result matches bit for bit.
fn assert_mrc_matches_sweep(
    algorithm: &str,
    trace: &Trace,
    capacities: &[u64],
    cfg: &MrcConfig,
    expect_engine: MrcEngine,
) {
    let mrc = simulate_mrc(algorithm, trace, capacities, cfg)
        .unwrap_or_else(|e| panic!("{algorithm} on {}: {e}", trace.name));
    assert_eq!(
        mrc.engine, expect_engine,
        "{algorithm} on {} routed through the wrong engine",
        trace.name
    );
    assert_eq!(mrc.points.len(), capacities.len());
    for (point, &cap) in mrc.points.iter().zip(capacities.iter()) {
        let sim_cfg = SimConfig {
            size: CacheSizeSpec::Bytes(cap),
            ignore_size: cfg.ignore_size,
            min_objects: 0,
            floor_objects: 0,
        };
        let reference = simulate_named(algorithm, trace, &sim_cfg)
            .unwrap_or_else(|e| panic!("{algorithm}@{cap} on {}: {e}", trace.name))
            .expect("no min_objects filter configured");
        let ctx = format!("{algorithm}@{cap} on {}", trace.name);
        assert_eq!(point.capacity, cap, "{ctx}: capacity");
        assert_eq!(point.requests, reference.requests, "{ctx}: requests");
        assert_eq!(point.misses, reference.misses, "{ctx}: misses");
        assert_eq!(point.evictions, reference.evictions, "{ctx}: evictions");
        assert_eq!(
            point.miss_ratio.to_bits(),
            reference.miss_ratio.to_bits(),
            "{ctx}: miss ratio bits"
        );
        assert_eq!(
            point.byte_miss_ratio.to_bits(),
            reference.byte_miss_ratio.to_bits(),
            "{ctx}: byte miss ratio bits"
        );
        assert!(
            (0.0..=1.0).contains(&point.miss_ratio),
            "{ctx}: ratio range"
        );
    }
    // A curve, not only a set of points: along the grid in capacity order
    // the miss ratio never rises (the slack is for FIFO's Belady wobble).
    let mut curve: Vec<(u64, f64)> = mrc
        .points
        .iter()
        .map(|p| (p.capacity, p.miss_ratio))
        .collect();
    curve.sort_by_key(|&(capacity, _)| capacity);
    for pair in curve.windows(2) {
        assert!(
            pair[1].1 <= pair[0].1 + 1e-6,
            "{algorithm} on {}: miss ratio rises from capacity {} to {}",
            trace.name,
            pair[0].0,
            pair[1].0
        );
    }
}

/// The ganged FIFO-family engines match the per-capacity sweep on unit-size
/// Zipf and scan-heavy workloads (including a degenerate capacity-1 lane,
/// duplicates, and an unsorted grid).
#[test]
fn ganged_engines_match_sweep_unit_sizes() {
    let zipf = WorkloadSpec::zipf("zipf", 25_000, 2_500, 1.0, 42).generate();
    let mut scan_spec = WorkloadSpec::zipf("scan-heavy", 25_000, 1_500, 0.9, 7);
    scan_spec.scan_fraction = 0.4;
    scan_spec.scan_len = 100;
    scan_spec.scan_space = 3_000;
    let scan = scan_spec.generate();

    let grid = [1u64, 900, 30, 30, 120, 7];
    let cfg = MrcConfig::default();
    for trace in [&zipf, &scan] {
        for algo in ["CLOCK", "CLOCK-2bit", "SIEVE", "S3-FIFO", "S3-FIFO(0.25)"] {
            assert_mrc_matches_sweep(algo, trace, &grid, &cfg, MrcEngine::Ganged);
        }
        assert_mrc_matches_sweep("FIFO", trace, &grid, &cfg, MrcEngine::ExactFifo);
    }
}

/// Honoured sizes that are all 1 are still a unit-size stream: the route is
/// taken from the trace, not from `ignore_size`.
#[test]
fn unit_size_trace_with_sizes_honoured_stays_single_pass() {
    let trace = WorkloadSpec::zipf("unit-honoured", 20_000, 2_000, 1.0, 23).generate();
    let grid = [1u64, 40, 40, 700, 160];
    let cfg = MrcConfig { ignore_size: false };
    assert_mrc_matches_sweep("FIFO", &trace, &grid, &cfg, MrcEngine::ExactFifo);
    assert_mrc_matches_sweep("S3-FIFO", &trace, &grid, &cfg, MrcEngine::Ganged);
}

/// With real sizes honoured no single-pass engine applies: every
/// FIFO-family curve is replayed per capacity and still matches.
#[test]
fn sized_streams_fall_back_and_match() {
    let mut sized_spec = WorkloadSpec::zipf("sized", 15_000, 1_500, 1.0, 11);
    sized_spec.size_model = SizeModel::Uniform { min: 10, max: 1000 };
    let sized = sized_spec.generate();
    // Byte capacities spanning tiny (single object) to ~40% of footprint.
    let grid = [500u64, 5_000, 50_000, 300_000];
    let cfg = MrcConfig { ignore_size: false };
    for algo in ["FIFO", "CLOCK", "CLOCK-2bit", "SIEVE", "S3-FIFO"] {
        assert_mrc_matches_sweep(algo, &sized, &grid, &cfg, MrcEngine::PerCapacity);
    }
}

/// Deletes force FIFO off the exact engine and SIEVE off the turbo lanes;
/// the per-capacity route must match the sweep decision for decision.
#[test]
fn streams_with_deletes_fall_back_and_match() {
    let mut spec = WorkloadSpec::zipf("deletes", 20_000, 2_000, 1.0, 13);
    spec.delete_fraction = 0.05;
    let trace = spec.generate();
    let grid = [1u64, 25, 100, 400, 1_600];
    let cfg = MrcConfig::default();
    assert_mrc_matches_sweep("FIFO", &trace, &grid, &cfg, MrcEngine::PerCapacity);
    assert_mrc_matches_sweep("SIEVE", &trace, &grid, &cfg, MrcEngine::PerCapacity);
}

/// The turbo route takes grids of up to 64 points (`registry::mrc_grid_fits`,
/// drawn four lanes to an engine); a 65-point grid leaves it for the
/// per-capacity route, while exact FIFO — one index per (object, point) —
/// has no such ceiling.
#[test]
fn a_grid_wider_than_the_turbo_lanes_falls_back_and_matches() {
    let trace = WorkloadSpec::zipf("wide", 6_000, 600, 1.0, 29).generate();
    let grid: Vec<u64> = (1..=65).map(|i| i * 4).collect();
    let cfg = MrcConfig::default();
    assert_mrc_matches_sweep("FIFO", &trace, &grid, &cfg, MrcEngine::ExactFifo);
    assert_mrc_matches_sweep("S3-FIFO", &trace, &grid, &cfg, MrcEngine::PerCapacity);
    assert_mrc_matches_sweep("SIEVE", &trace, &grid, &cfg, MrcEngine::PerCapacity);
    // One point fewer and the lanes apply again.
    assert_mrc_matches_sweep("SIEVE", &trace, &grid[..64], &cfg, MrcEngine::Ganged);
}

/// Single-point grids are the degenerate base case: the MRC engines reduce
/// to exactly one lane and must still agree.
#[test]
fn single_point_grid_matches() {
    let trace = WorkloadSpec::zipf("one-point", 10_000, 1_000, 0.8, 17).generate();
    let cfg = MrcConfig::default();
    assert_mrc_matches_sweep("FIFO", &trace, &[64], &cfg, MrcEngine::ExactFifo);
    assert_mrc_matches_sweep("S3-FIFO", &trace, &[64], &cfg, MrcEngine::Ganged);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: over random seeded Zipf traces and random capacity grids,
    /// the exact-FIFO insertion-index engine reproduces the per-capacity
    /// FIFO replay curve bit for bit at every grid point.
    #[test]
    fn exact_fifo_curve_equals_per_capacity_replay(
        seed in 0u64..1_000_000,
        alpha_pct in 50u32..120,
        universe in 200u64..2_000,
        raw_caps in proptest::collection::vec(1u64..3_000, 1..8),
    ) {
        let alpha = f64::from(alpha_pct) / 100.0;
        let trace = WorkloadSpec::zipf("prop-zipf", 8_000, universe, alpha, seed).generate();
        let mrc = simulate_mrc("FIFO", &trace, &raw_caps, &MrcConfig::default())
            .expect("valid grid by construction");
        prop_assert_eq!(mrc.engine, MrcEngine::ExactFifo);
        for (point, &cap) in mrc.points.iter().zip(raw_caps.iter()) {
            let cfg = SimConfig {
                size: CacheSizeSpec::Bytes(cap),
                ignore_size: true,
                min_objects: 0,
                floor_objects: 0,
            };
            let reference = simulate_named("FIFO", &trace, &cfg)
                .expect("FIFO is a registry policy")
                .expect("no min_objects filter configured");
            prop_assert_eq!(point.requests, reference.requests);
            prop_assert_eq!(point.misses, reference.misses);
            prop_assert_eq!(point.evictions, reference.evictions);
            prop_assert_eq!(point.miss_ratio.to_bits(), reference.miss_ratio.to_bits());
        }
    }
}
