//! Miss-ratio curves (MRC).
//!
//! §6.2.3 argues that adaptive algorithms implicitly assume the miss-ratio
//! curve is convex ("following the gradient direction leads to the global
//! optimum"), but "the miss ratio curves of scan-heavy workloads are often
//! not convex". This module computes MRCs through one front door:
//!
//! - [`simulate_mrc`]: works for every registry algorithm, two ways. A
//!   pure-`Get` unit-size stream (every size ignored, or every size
//!   already 1) goes to the single-pass multi-capacity engines
//!   (`cache_policies::dense::mrc`) — the whole grid in ~one trace pass,
//!   bit-identical to the per-capacity sweep: FIFO to the exact
//!   insertion-index engine ([`MrcEngine::ExactFifo`]), CLOCK / CLOCK-2bit /
//!   SIEVE / S3-FIFO on grids of ≤ 64 points to the turbo lanes — bitmap
//!   residency plus timestamp-derived reference state
//!   ([`MrcEngine::Ganged`]). Everything else — writes, deletes, honoured
//!   non-unit sizes, a wider grid, any other algorithm — is one replay per
//!   grid point ([`MrcEngine::PerCapacity`]).
//! - [`miss_ratio_curve`]: the same, optionally on a SHARDS miniature of
//!   the trace with the grid scaled to match, returned as a sorted curve.
//!
//! # Workers
//!
//! Grid points do not interact (which is what lets one pass answer many of
//! them), so once the route is chosen — on the whole grid — its indices are
//! dealt round-robin to `min(available_parallelism, points)` workers, each
//! of which draws its share on that route over the shared trace, and the
//! samples go back in grid order; on the turbo route there are at least
//! `⌈points / 32⌉`, as one turbo engine holds 32 lanes. Every point is the
//! one a single worker draws. What a worker owns is the cost of adding one:
//! a turbo engine's per-slot header array, 8 B × ids (S3-FIFO's lanes add
//! one ghost bit per id each; the lanes, and exact FIFO's index rows,
//! otherwise only divide), or one policy slab at a time on the
//! per-capacity route.
//!
//! Also provides the convexity check the §6.2.3 argument rests on.

use crate::engine::Replay;
use cache_obs::MissRatioSeries;
use cache_policies::registry;
use cache_trace::sampling::spatial_sample;
use cache_trace::{DenseTrace, Trace};
use cache_types::CacheError;

/// One point of a miss-ratio curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrcPoint {
    /// Cache size in objects.
    pub capacity: u64,
    /// Request miss ratio at that size.
    pub miss_ratio: f64,
}

/// A miss-ratio curve for one algorithm on one trace.
#[derive(Debug, Clone)]
pub struct MissRatioCurve {
    /// Algorithm name.
    pub algorithm: String,
    /// Points, sorted by capacity ascending.
    pub points: Vec<MrcPoint>,
}

impl MissRatioCurve {
    /// True when the curve is non-increasing in cache size (no Belady
    /// anomaly). FIFO famously violates this on some workloads.
    pub fn is_monotone(&self) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].miss_ratio <= w[0].miss_ratio + 1e-9)
    }

    /// True when the curve is convex over its grid (second differences
    /// non-negative, using capacity as the x-axis). Scan-heavy workloads
    /// produce non-convex curves (§6.2.3).
    pub fn is_convex(&self) -> bool {
        // A grid may name a capacity more than once. Repeats carry no shape
        // and would make zero-width chords (`0/0`), so the test runs over
        // the distinct capacities: convex means every middle point lies on
        // or below the chord between its neighbours.
        let mut distinct = self.points.clone();
        distinct.dedup_by_key(|p| p.capacity);
        distinct.windows(3).all(|w| {
            let (x0, y0) = (w[0].capacity as f64, w[0].miss_ratio);
            let (x1, y1) = (w[1].capacity as f64, w[1].miss_ratio);
            let (x2, y2) = (w[2].capacity as f64, w[2].miss_ratio);
            y1 <= y0 + (y2 - y0) * (x1 - x0) / (x2 - x0) + 1e-9
        })
    }
}

/// Computes the MRC of `algorithm` on `trace` at the given capacities
/// (objects; unit-size simulation). When `sample_rate < 1`, the curve is
/// computed on a SHARDS miniature with capacities scaled accordingly and
/// reported against the capacities asked for.
///
/// # Errors
///
/// A `sample_rate` outside `(0, 1]` (NaN included), and everything
/// [`simulate_mrc`] rejects: an unknown algorithm or an empty grid.
pub fn miss_ratio_curve(
    algorithm: &str,
    trace: &Trace,
    capacities: &[u64],
    sample_rate: f64,
) -> Result<MissRatioCurve, CacheError> {
    if !(sample_rate > 0.0 && sample_rate <= 1.0) {
        return Err(CacheError::InvalidParameter(format!(
            "sample_rate must be in (0, 1], got {sample_rate}"
        )));
    }
    let sampled;
    let (sim_trace, scale) = if sample_rate < 1.0 {
        sampled = spatial_sample(trace, sample_rate, 0x5A17);
        (&sampled.trace, sample_rate)
    } else {
        (trace, 1.0)
    };
    let scaled: Vec<u64> = capacities
        .iter()
        .map(|&cap| ((cap as f64 * scale).round() as u64).max(1))
        .collect();
    let mut result = simulate_mrc(algorithm, sim_trace, &scaled, &MrcConfig::default())?;
    for (point, &cap) in result.points.iter_mut().zip(capacities) {
        point.capacity = cap;
    }
    result.algorithm = algorithm.to_string();
    Ok(result.curve())
}

/// Options for [`simulate_mrc`].
#[derive(Debug, Clone, Copy)]
pub struct MrcConfig {
    /// Replay every request at size 1 (capacities are then object counts,
    /// the paper's §5.1.2 convention). Default `true`.
    pub ignore_size: bool,
}

impl Default for MrcConfig {
    fn default() -> Self {
        MrcConfig { ignore_size: true }
    }
}

/// Which implementation produced a curve — recorded in [`MrcResult`] so
/// benchmarks and tests can assert the intended routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MrcEngine {
    /// Exact single-pass FIFO via per-capacity insertion indices.
    ExactFifo,
    /// Turbo lanes, one per grid point, ganged through one trace pass.
    Ganged,
    /// Per-capacity sweep fallback (one full replay per grid point).
    PerCapacity,
}

impl MrcEngine {
    /// Stable lowercase label for JSON artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            MrcEngine::ExactFifo => "exact-fifo",
            MrcEngine::Ganged => "ganged",
            MrcEngine::PerCapacity => "per-capacity",
        }
    }
}

/// One grid point of a [`simulate_mrc`] run — the full counter set, so
/// differential tests can compare more than the ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrcSample {
    /// Cache capacity (objects with `ignore_size`, bytes otherwise).
    pub capacity: u64,
    /// Read requests processed (identical across grid points).
    pub requests: u64,
    /// Read misses at this capacity.
    pub misses: u64,
    /// Evictions at this capacity.
    pub evictions: u64,
    /// Request miss ratio.
    pub miss_ratio: f64,
    /// Byte miss ratio (equals `miss_ratio` with `ignore_size`).
    pub byte_miss_ratio: f64,
}

/// A full multi-capacity simulation result.
#[derive(Debug, Clone)]
pub struct MrcResult {
    /// Algorithm name.
    pub algorithm: String,
    /// Trace name.
    pub trace: String,
    /// Which engine produced the curve.
    pub engine: MrcEngine,
    /// One sample per input grid entry, in input order (duplicates and
    /// unsorted grids are preserved).
    pub points: Vec<MrcSample>,
}

impl MrcResult {
    /// The curve view: points sorted by capacity ascending, ready for
    /// [`MissRatioCurve::is_monotone`] / [`MissRatioCurve::is_convex`].
    pub fn curve(&self) -> MissRatioCurve {
        let mut points: Vec<MrcPoint> = self
            .points
            .iter()
            .map(|s| MrcPoint {
                capacity: s.capacity,
                miss_ratio: s.miss_ratio,
            })
            .collect();
        points.sort_by_key(|p| p.capacity);
        MissRatioCurve {
            algorithm: self.algorithm.clone(),
            points,
        }
    }

    /// Renders the curve as a [`MissRatioSeries`] — one window per grid
    /// point, exact counts — so MRC runs flow through the same export
    /// pipeline (`cache_obs::series_to_json_lines`) as windowed
    /// simulations.
    pub fn series(&self) -> MissRatioSeries {
        let requests = self.points.first().map_or(0, |s| s.requests);
        let mut series = MissRatioSeries::new(requests.max(1));
        for s in &self.points {
            // Aligned windows (take == requests) keep exact miss counts.
            series.record_window(s.requests, s.misses);
        }
        series
    }
}

/// True when the single-pass engines' stream preconditions hold for this
/// run — the one place they are checked: the exact-FIFO arithmetic and the
/// turbo lanes' derived reference state both require a pure-`Get` stream
/// replayed at size 1 (sizes ignored, or every size already 1), and both
/// store per-slot counters as `u32`. The scan is cached on the trace
/// ([`Trace::shape`]), so repeated curves pay it once.
fn pure_get_stream(trace: &Trace, cfg: &MrcConfig) -> bool {
    let shape = trace.shape();
    shape.pure_get && (cfg.ignore_size || shape.unit_size) && trace.len() < u32::MAX as usize
}

/// Computes the miss-ratio curve of `algorithm` on `trace` at every grid
/// capacity, in one trace pass where the FIFO-family engines apply (see the
/// module docs for routing), the grid dealt to one worker per core (see
/// "Workers" there). Results are bit-identical to running
/// [`crate::engine::simulate_named`] once per capacity.
///
/// Unlike [`miss_ratio_curve`], grid order is preserved in
/// [`MrcResult::points`] and full counters are returned per point.
///
/// # Errors
///
/// Returns [`CacheError`] for an unknown algorithm, an empty grid, or a
/// zero grid capacity.
pub fn simulate_mrc(
    algorithm: &str,
    trace: &Trace,
    capacities: &[u64],
    cfg: &MrcConfig,
) -> Result<MrcResult, CacheError> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    simulate_mrc_on(cores, algorithm, trace, capacities, cfg)
}

/// [`simulate_mrc`] drawn by `workers` workers (at least one, at most one
/// per grid point, and at least one per 32 points on the turbo route).
/// The count is an argument only so that tests can sweep it: no field of
/// the result depends on it.
fn simulate_mrc_on(
    workers: usize,
    algorithm: &str,
    trace: &Trace,
    capacities: &[u64],
    cfg: &MrcConfig,
) -> Result<MrcResult, CacheError> {
    if capacities.is_empty() {
        return Err(CacheError::InvalidParameter(
            "capacity grid must not be empty".into(),
        ));
    }
    if capacities.contains(&0) {
        return Err(CacheError::InvalidCapacity(
            "every grid capacity must be > 0".into(),
        ));
    }
    // The route is chosen here, on the whole grid: a share of a 65-point
    // grid would fit the turbo lanes, and the engine a curve reports must
    // not depend on how many cores drew it.
    let dense = (pure_get_stream(trace, cfg)
        && registry::mrc_grid_fits(algorithm, capacities.len()))
    .then(|| trace.dense());
    // Round-robin, not contiguous runs: a lane's work is its miss count,
    // and a sorted grid puts the lanes that miss most at one end. No share
    // is wider than one engine.
    let floor = match dense {
        Some(_) => capacities.len().div_ceil(registry::mrc_engine_lanes(algorithm)),
        None => 1,
    };
    let workers = workers.clamp(1, capacities.len()).max(floor);
    let shares: Vec<Vec<u64>> = (0..workers)
        .map(|w| {
            capacities
                .iter()
                .skip(w)
                .step_by(workers)
                .copied()
                .collect()
        })
        .collect();
    let draw = |share: &[u64]| draw_share(algorithm, trace, dense.as_deref(), share, cfg);
    // The calling thread is the first worker, so one worker spawns nothing.
    let drawn: Vec<Result<MrcResult, CacheError>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = shares[1..]
            .iter()
            .map(|share| scope.spawn(|| draw(share)))
            .collect();
        let first = draw(&shares[0]);
        let rest = spawned.into_iter().map(|worker| {
            worker
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p))
        });
        std::iter::once(first).chain(rest).collect()
    });
    // No route's error depends on a capacity (zero is refused above; what is
    // left names the algorithm or its parameter), so a share that fails does
    // so at its first point and worker order is grid order: this is the
    // error one worker walking the grid would have met first.
    let mut shares = drawn.into_iter().collect::<Result<Vec<_>, _>>()?;
    // Every share agrees on the name and the engine; the points go back
    // where the grid had them.
    let points = (0..capacities.len())
        .map(|i| shares[i % workers].points[i / workers])
        .collect();
    Ok(MrcResult {
        points,
        ..shares.swap_remove(0)
    })
}

/// The curve at `capacities` — one worker's share of a grid, or all of it —
/// on the route `simulate_mrc_on` chose: through a single-pass engine of the
/// worker's own when `dense` is given and the registry has one for the
/// algorithm, one replay per point otherwise.
fn draw_share(
    algorithm: &str,
    trace: &Trace,
    dense: Option<&DenseTrace>,
    capacities: &[u64],
    cfg: &MrcConfig,
) -> Result<MrcResult, CacheError> {
    if let Some(dense) = dense {
        if let Some(mut engine) = registry::build_mrc(algorithm, capacities, &dense.ids)? {
            engine.replay(&dense.slots);
            debug_assert_eq!(engine.validate(), Ok(()), "MRC engine invariants");
            let points = engine
                .lane_stats()
                .iter()
                .zip(capacities.iter())
                .map(|(st, &cap)| MrcSample {
                    capacity: cap,
                    requests: st.gets,
                    misses: st.misses,
                    evictions: st.evictions,
                    miss_ratio: st.miss_ratio(),
                    byte_miss_ratio: st.byte_miss_ratio(),
                })
                .collect();
            return Ok(MrcResult {
                algorithm: engine.name(),
                trace: trace.name.clone(),
                // `build_mrc` has one engine per name: exact for FIFO, turbo
                // lanes for the rest.
                engine: if algorithm == "FIFO" {
                    MrcEngine::ExactFifo
                } else {
                    MrcEngine::Ganged
                },
                points,
            });
        }
    }
    // Everything else: one full replay per grid point.
    let mut points = Vec::with_capacity(capacities.len());
    let mut name = algorithm.to_string();
    for &cap in capacities {
        let replay = Replay::on_trace(&[algorithm], trace, cap)?.ignore_size(cfg.ignore_size);
        let (r, _) = replay.run(trace).remove(0);
        name = r.algorithm;
        points.push(MrcSample {
            capacity: cap,
            requests: r.requests,
            misses: r.misses,
            evictions: r.evictions,
            miss_ratio: r.miss_ratio,
            byte_miss_ratio: r.byte_miss_ratio,
        });
    }
    Ok(MrcResult {
        algorithm: name,
        trace: trace.name.clone(),
        engine: MrcEngine::PerCapacity,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_named, CacheSizeSpec, SimConfig};
    use cache_trace::gen::{loop_trace, SizeModel, WorkloadSpec};

    #[test]
    fn mrc_decreases_with_size_on_zipf() {
        let t = WorkloadSpec::zipf("m", 60_000, 6000, 1.0, 3).generate();
        let caps = [100, 300, 1000, 3000];
        for algo in ["LRU", "S3-FIFO", "FIFO"] {
            let c = miss_ratio_curve(algo, &t, &caps, 1.0).unwrap();
            assert!(c.is_monotone(), "{algo} MRC not monotone: {:?}", c.points);
            assert!(
                c.points[0].miss_ratio > c.points[3].miss_ratio + 0.05,
                "{algo} MRC too flat"
            );
        }
    }

    #[test]
    fn loop_mrc_has_a_cliff_for_lru() {
        // LRU on a loop of length 1000: miss ratio ~1 below the loop size,
        // ~0 above it — the canonical non-convex cliff (§6.2.3).
        let t = loop_trace("loop", 1000, 30);
        let caps = [250, 500, 900, 1100];
        let c = miss_ratio_curve("LRU", &t, &caps, 1.0).unwrap();
        assert!(c.points[2].miss_ratio > 0.95, "below loop: {:?}", c.points);
        assert!(c.points[3].miss_ratio < 0.1, "above loop: {:?}", c.points);
        assert!(
            !c.is_convex(),
            "the LRU loop cliff must be non-convex: {:?}",
            c.points
        );
    }

    /// A grid may repeat a capacity (`mrc_result_views`); three equal
    /// capacities used to make a `0/0` chord and report a flat curve as
    /// non-convex.
    #[test]
    fn repeated_capacities_do_not_break_convexity() {
        let t = WorkloadSpec::zipf("dup", 10_000, 1000, 0.9, 17).generate();
        let flat = simulate_mrc("FIFO", &t, &[400, 400, 400], &MrcConfig::default()).unwrap();
        assert!(flat.curve().is_convex(), "{:?}", flat.curve().points);
        // Duplicates inside a longer grid neither hide nor invent a cliff.
        let lp = loop_trace("loop", 1000, 30);
        let cliff = miss_ratio_curve("LRU", &lp, &[500, 900, 900, 900, 1100], 1.0).unwrap();
        assert!(!cliff.is_convex(), "{:?}", cliff.points);
    }

    #[test]
    fn sampled_mrc_close_to_full() {
        let t = WorkloadSpec::zipf("m", 120_000, 10_000, 0.7, 5).generate();
        let caps = [500, 2000];
        let full = miss_ratio_curve("LRU", &t, &caps, 1.0).unwrap();
        let mini = miss_ratio_curve("LRU", &t, &caps, 0.25).unwrap();
        for (a, b) in full.points.iter().zip(mini.points.iter()) {
            assert!(
                (a.miss_ratio - b.miss_ratio).abs() < 0.06,
                "sampled MRC off: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn unknown_algorithm_errors() {
        let t = WorkloadSpec::zipf("m", 100, 10, 1.0, 1).generate();
        assert!(miss_ratio_curve("Nope", &t, &[10], 1.0).is_err());
    }

    #[test]
    fn simulate_mrc_routes_by_engine() {
        let t = WorkloadSpec::zipf("route", 20_000, 2000, 0.9, 7).generate();
        let caps = [50, 200, 800];
        let cfg = MrcConfig::default();
        let fifo = simulate_mrc("FIFO", &t, &caps, &cfg).unwrap();
        assert_eq!(fifo.engine, MrcEngine::ExactFifo);
        let sieve = simulate_mrc("SIEVE", &t, &caps, &cfg).unwrap();
        assert_eq!(sieve.engine, MrcEngine::Ganged);
        let lru = simulate_mrc("LRU", &t, &caps, &cfg).unwrap();
        assert_eq!(lru.engine, MrcEngine::PerCapacity);
        // Honoured sizes that are all 1 change nothing the engines see.
        let sized = MrcConfig { ignore_size: false };
        let fifo_unit = simulate_mrc("FIFO", &t, &caps, &sized).unwrap();
        assert_eq!(fifo_unit.engine, MrcEngine::ExactFifo);
        // FIFO honouring real sizes has no single-pass engine.
        let mut spec = WorkloadSpec::zipf("route-sized", 20_000, 2000, 0.9, 7);
        spec.size_model = SizeModel::Uniform { min: 10, max: 1000 };
        let fifo_sized = simulate_mrc("FIFO", &spec.generate(), &[5_000, 50_000], &sized).unwrap();
        assert_eq!(fifo_sized.engine, MrcEngine::PerCapacity);
    }

    /// `spatial_sample` asserts its rate; a fallible front door must turn a
    /// bad one into an error instead (and NaN is not "no sampling").
    #[test]
    fn miss_ratio_curve_rejects_rates_outside_zero_one() {
        let t = WorkloadSpec::zipf("rate", 5_000, 500, 1.0, 19).generate();
        for bad in [0.0, -0.5, f64::NAN, 1.5] {
            assert!(
                matches!(
                    miss_ratio_curve("FIFO", &t, &[50], bad),
                    Err(CacheError::InvalidParameter(_))
                ),
                "sample_rate {bad} must be rejected"
            );
        }
        for good in [1.0, 0.25] {
            assert!(miss_ratio_curve("FIFO", &t, &[50], good).is_ok());
        }
    }

    #[test]
    fn simulate_mrc_matches_per_capacity_replay() {
        let t = WorkloadSpec::zipf("diff", 30_000, 3000, 1.0, 11).generate();
        let caps = [30, 100, 300, 1000, 3000];
        let cfg = MrcConfig::default();
        for algo in ["FIFO", "CLOCK", "CLOCK-2bit", "SIEVE", "S3-FIFO"] {
            let mrc = simulate_mrc(algo, &t, &caps, &cfg).unwrap();
            for (p, &cap) in mrc.points.iter().zip(caps.iter()) {
                let sim_cfg = SimConfig {
                    size: CacheSizeSpec::Bytes(cap),
                    ignore_size: true,
                    min_objects: 0,
                    floor_objects: 0,
                };
                let r = simulate_named(algo, &t, &sim_cfg)
                    .unwrap()
                    .expect("no min_objects filter");
                // Invariant: min_objects is 0 above, so the run is kept.
                assert_eq!(p.misses, r.misses, "{algo}@{cap}");
                assert_eq!(p.evictions, r.evictions, "{algo}@{cap}");
                assert_eq!(p.requests, r.requests, "{algo}@{cap}");
                assert_eq!(
                    p.miss_ratio.to_bits(),
                    r.miss_ratio.to_bits(),
                    "{algo}@{cap}"
                );
            }
        }
    }

    /// Everything a caller can read off a curve, ratios by their bits.
    type Drawn = (String, String, MrcEngine, Vec<[u64; 6]>);

    fn drawn(
        workers: usize,
        algo: &str,
        t: &Trace,
        grid: &[u64],
        cfg: &MrcConfig,
    ) -> Result<Drawn, CacheError> {
        let r = simulate_mrc_on(workers, algo, t, grid, cfg)?;
        let bits = |p: &MrcSample| {
            let (miss, byte_miss) = (p.miss_ratio.to_bits(), p.byte_miss_ratio.to_bits());
            [
                p.capacity,
                p.requests,
                p.misses,
                p.evictions,
                miss,
                byte_miss,
            ]
        };
        let points = r.points.iter().map(bits).collect();
        Ok((r.algorithm, r.trace, r.engine, points))
    }

    /// A curve does not depend on how many workers drew it: on every route,
    /// every field equals what one worker returns, errors included.
    #[test]
    fn worker_count_changes_nothing() {
        let spec = |name: &str| WorkloadSpec::zipf(name, 1_200, 150, 0.9, 31);
        let (mut sized, mut deletes) = (spec("sized"), spec("deletes"));
        sized.size_model = SizeModel::Uniform { min: 10, max: 1000 };
        deletes.delete_fraction = 0.05;
        // Honoured sizes make capacities bytes: scale the grids to match.
        let streams = [
            (spec("unit").generate(), MrcConfig::default(), 1),
            (sized.generate(), MrcConfig { ignore_size: false }, 500),
            (deletes.generate(), MrcConfig::default(), 1),
        ];
        let grids: [Vec<u64>; 6] = [
            vec![2, 5, 11, 40, 90],
            vec![40, 2, 90, 11, 5],
            vec![11, 40, 11, 2, 40, 11],
            vec![17],
            (1..=64).map(|i| i * 2).collect(),
            (1..=65).map(|i| i * 2).collect(),
        ];
        let names = [
            "FIFO",
            "CLOCK",
            "CLOCK-2bit",
            "SIEVE",
            "S3-FIFO",
            "S3-FIFO(0.25)",
            "LRU",
            "ARC",
            "Nope",
            "S3-FIFO(x)",
        ];
        let mut engines = std::collections::BTreeSet::new();
        for (t, cfg, scale) in &streams {
            for grid in &grids {
                let grid: Vec<u64> = grid.iter().map(|c| c * scale).collect();
                for algo in names {
                    let one = drawn(1, algo, t, &grid, cfg);
                    assert_eq!(one.is_err(), algo == "Nope" || algo == "S3-FIFO(x)");
                    if let Ok(one) = &one {
                        let caps: Vec<u64> = one.3.iter().map(|p| p[0]).collect();
                        assert_eq!(caps, grid, "grid order");
                        engines.insert(one.2.as_str());
                    }
                    for workers in [2, 3, 5, grid.len(), grid.len() + 3] {
                        assert_eq!(
                            drawn(workers, algo, t, &grid, cfg),
                            one,
                            "{algo} on {}, {} points, {workers} workers",
                            t.name,
                            grid.len()
                        );
                    }
                }
            }
        }
        // All three routes were swept.
        assert_eq!(engines.len(), 3, "{engines:?}");
    }

    #[test]
    fn simulate_mrc_validates_the_grid() {
        let t = WorkloadSpec::zipf("bad", 200, 20, 1.0, 13).generate();
        let cfg = MrcConfig::default();
        assert!(simulate_mrc("FIFO", &t, &[], &cfg).is_err());
        assert!(simulate_mrc("SIEVE", &t, &[8, 0], &cfg).is_err());
        assert!(simulate_mrc("Nope", &t, &[8], &cfg).is_err());
    }

    #[test]
    fn mrc_result_views() {
        let t = WorkloadSpec::zipf("views", 10_000, 1000, 0.9, 17).generate();
        // Unsorted with a duplicate: points stay in input order, curve sorts.
        let caps = [400, 50, 400];
        let r = simulate_mrc("FIFO", &t, &caps, &MrcConfig::default()).unwrap();
        assert_eq!(r.points[0], r.points[2], "duplicate grid entries agree");
        let curve = r.curve();
        assert_eq!(curve.points.first().map(|p| p.capacity), Some(50));
        let series = r.series();
        assert_eq!(series.points().len(), caps.len());
        for (w, p) in series.points().iter().zip(r.points.iter()) {
            assert_eq!(w.requests, p.requests);
            assert_eq!(w.misses, p.misses);
        }
    }
}
