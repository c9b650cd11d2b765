//! Differential checking for miss-ratio curves.
//!
//! [`cache_sim::simulate_mrc`] promises that every grid point of a
//! multi-capacity run is *bit-identical* to replaying a single-capacity
//! cache at that point, whichever route — single-pass engine or one replay
//! per capacity — the stream takes. This module enforces the promise
//! against the obviously-correct reference interpreters
//! ([`crate::reference`]): one MRC run per generated trace, one reference
//! replay per grid point, full counter comparison — and ddmin shrinking of
//! the whole trace when any point disagrees (the failing unit is a *grid
//! point*, not a request index, so the shrinker re-judges whole candidate
//! traces).

use crate::fuzz::{generate_trace, shrink_with, FuzzConfig};
use crate::reference::reference_for;
use cache_sim::{simulate_mrc, MrcConfig};
use cache_trace::Trace;
use cache_types::{Policy, Request};

/// A minimal reproduction of an MRC-vs-reference disagreement.
#[derive(Debug, Clone)]
pub struct MrcDivergence {
    /// Registry algorithm name.
    pub algorithm: String,
    /// The grid capacity that disagreed.
    pub capacity: u64,
    /// The full capacity grid the engine ran with.
    pub grid: Vec<u64>,
    /// The generator seed that produced the original failing trace.
    pub seed: u64,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// The shrunk request sequence; replaying it through [`mrc_diff`]
    /// reproduces the divergence.
    pub trace: Vec<Request>,
}

impl std::fmt::Display for MrcDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} MRC @ capacity {} of grid {:?} diverged (seed {:#x}): {}",
            self.algorithm, self.capacity, self.grid, self.seed, self.detail
        )?;
        writeln!(f, "shrunk to {} requests:", self.trace.len())?;
        for (i, r) in self.trace.iter().enumerate() {
            writeln!(
                f,
                "  [{i}] {:?} id={} size={} t={}",
                r.op, r.id, r.size, r.time
            )?;
        }
        Ok(())
    }
}

/// Runs the MRC engine for `name` over `capacities` on `requests` and
/// replays a fresh reference interpreter at every grid point, comparing
/// requests, misses, evictions, and the f64 *bits* of both miss ratios.
/// Returns the first disagreeing grid index with a description, or `None`
/// when every point matches.
///
/// Grid capacities must be positive; a simulation error (e.g. an empty
/// grid) is reported as a divergence at grid index 0 rather than a panic so
/// the shrinker can keep driving.
pub fn mrc_diff(
    name: &str,
    requests: &[Request],
    capacities: &[u64],
    ignore_size: bool,
) -> Option<(usize, String)> {
    let trace = Trace::new("mrc-diff", requests.to_vec());
    let cfg = MrcConfig { ignore_size };
    let result = match simulate_mrc(name, &trace, capacities, &cfg) {
        Ok(r) => r,
        Err(e) => return Some((0, format!("simulate_mrc failed: {e}"))),
    };
    if result.points.len() != capacities.len() {
        return Some((
            0,
            format!(
                "{} points returned for a {}-point grid",
                result.points.len(),
                capacities.len()
            ),
        ));
    }
    for (grid_idx, (point, &cap)) in result.points.iter().zip(capacities.iter()).enumerate() {
        let Some(mut reference) = reference_for(name, cap) else {
            return Some((grid_idx, format!("no reference model for {name}")));
        };
        let mut evs = Vec::new();
        for r in &trace.requests {
            let req = if ignore_size {
                Request { size: 1, ..(*r) }
            } else {
                *r
            };
            evs.clear();
            reference.request(&req, &mut evs);
        }
        let stats = reference.stats();
        let engine = result.engine.as_str();
        if point.capacity != cap {
            return Some((
                grid_idx,
                format!("point capacity {} != grid {cap}", point.capacity),
            ));
        }
        if point.requests != stats.gets
            || point.misses != stats.misses
            || point.evictions != stats.evictions
        {
            return Some((
                grid_idx,
                format!(
                    "{engine} engine @ {cap}: req/miss/evict {}/{}/{} != reference {}/{}/{}",
                    point.requests,
                    point.misses,
                    point.evictions,
                    stats.gets,
                    stats.misses,
                    stats.evictions
                ),
            ));
        }
        if point.miss_ratio.to_bits() != stats.miss_ratio().to_bits() {
            return Some((
                grid_idx,
                format!(
                    "{engine} engine @ {cap}: miss ratio {} != reference {}",
                    point.miss_ratio,
                    stats.miss_ratio()
                ),
            ));
        }
        if point.byte_miss_ratio.to_bits() != stats.byte_miss_ratio().to_bits() {
            return Some((
                grid_idx,
                format!(
                    "{engine} engine @ {cap}: byte miss ratio {} != reference {}",
                    point.byte_miss_ratio,
                    stats.byte_miss_ratio()
                ),
            ));
        }
    }
    None
}

/// Fuzzes one `(algorithm, grid)` pair: generates the seeded trace for
/// `cfg`, runs [`mrc_diff`], and shrinks the whole trace on divergence.
/// Returns the number of requests replayed on success.
///
/// # Errors
///
/// Returns the shrunk [`MrcDivergence`] when any grid point disagrees with
/// its per-capacity reference replay.
pub fn fuzz_mrc(
    name: &str,
    capacities: &[u64],
    ignore_size: bool,
    cfg: &FuzzConfig,
) -> Result<usize, Box<MrcDivergence>> {
    let requests = generate_trace(cfg);
    match mrc_diff(name, &requests, capacities, ignore_size) {
        None => Ok(requests.len()),
        Some(_) => {
            let shrunk = shrink_with(
                &mut |cand| mrc_diff(name, cand, capacities, ignore_size).is_some(),
                requests,
            );
            // Invariant: the shrinker only returns candidates that still fail.
            let (grid_idx, detail) = mrc_diff(name, &shrunk, capacities, ignore_size)
                .expect("shrunk trace still fails by construction");
            Err(Box::new(MrcDivergence {
                algorithm: name.to_string(),
                capacity: capacities.get(grid_idx).copied().unwrap_or(0),
                grid: capacities.to_vec(),
                seed: cfg.seed,
                detail,
                trace: shrunk,
            }))
        }
    }
}

/// The degenerate and regular capacity grids the MRC differential sweeps:
/// a single point, capacity 1, duplicates, an unsorted multi-point grid,
/// and two at the turbo engines' 32-lane boundary: 32 points fill one
/// engine's residency word where one core draws them, and 40 are split
/// across engines whatever the core count. Shared by the in-tree test and
/// the `check_gate` CI phase.
pub const MRC_GRIDS: &[&[u64]] = &[
    &[1],
    &[7],
    &[5, 5, 9],
    &[21, 1, 8, 3, 13, 2, 5],
    &spread::<32>(),
    &spread::<40>(),
];

/// `N` capacities from 1 up to the fuzzed universe's 64 ids, in a scrambled
/// order (37 is coprime to both `N` used).
const fn spread<const N: usize>() -> [u64; N] {
    let mut grid = [0; N];
    let mut i = 0;
    while i < N {
        grid[i] = 1 + ((i * 37) % N * 61 / N) as u64;
        i += 1;
    }
    grid
}

/// The algorithms the MRC differential covers: every FIFO-family name with
/// a multi-capacity engine, plus parameterized S3-FIFO.
pub const MRC_ALGORITHMS: &[&str] = &[
    "FIFO",
    "CLOCK",
    "CLOCK-2bit",
    "SIEVE",
    "S3-FIFO",
    "S3-FIFO(0.25)",
];

#[cfg(test)]
mod tests {
    use super::*;
    use cache_types::Op;

    /// Every MRC algorithm × degenerate grid × {pure-Get unit, mixed unit,
    /// sized} agrees with the reference at every grid point. The pure-Get
    /// unit mode drives FIFO through the exact insertion-index engine and
    /// the rest through the turbo lanes; the mixed modes pin the
    /// per-capacity route every other stream takes.
    #[test]
    fn mrc_engines_agree_with_reference() {
        let modes = [
            (1u32, 0u64, true),  // unit sizes, pure Get → exact FIFO / turbo lanes
            (1, 10, true),       // unit sizes with writes → per-capacity
            (6, 10, false),      // sized with writes → per-capacity
        ];
        for name in MRC_ALGORITHMS {
            for grid in MRC_GRIDS {
                for (max_size, write_percent, ignore_size) in modes {
                    let cfg = FuzzConfig {
                        seed: 0x3C19_AF05 ^ u64::from(max_size) << 8 ^ write_percent,
                        requests: 1_200,
                        max_size,
                        write_percent,
                        ..FuzzConfig::default()
                    };
                    if let Err(d) = fuzz_mrc(name, grid, ignore_size, &cfg) {
                        panic!("divergence:\n{d}");
                    }
                }
            }
        }
    }

    /// A broken grid must be reported as a divergence, not a panic.
    #[test]
    fn broken_grid_reports_divergence() {
        let reqs: Vec<Request> = (0..20u64).map(|t| Request::get(t % 5, t)).collect();
        assert!(mrc_diff("FIFO", &reqs, &[], true).is_some());
        assert!(mrc_diff("FIFO", &reqs, &[0], true).is_some());
        assert!(mrc_diff("FIFO", &reqs, &[4], true).is_none());
    }

    /// Seed the shrinker with a deliberately wrong comparison to prove the
    /// MRC divergence path shrinks: an engine "mutant" is simulated by
    /// diffing SIEVE's MRC against CLOCK's reference model.
    #[test]
    fn cross_policy_diff_diverges_and_shrinks() {
        let cfg = FuzzConfig {
            requests: 1_500,
            write_percent: 0,
            ..FuzzConfig::default()
        };
        let requests = generate_trace(&cfg);
        // SIEVE vs SIEVE agrees...
        assert!(mrc_diff("SIEVE", &requests, &[2, 8], true).is_none());
        // ...but a trace exists where SIEVE's curve differs from CLOCK's;
        // pretend the engine is broken by diffing mismatched policies.
        let mut fails = |cand: &[Request]| -> bool {
            let t = Trace::new("x", cand.to_vec());
            let sieve = simulate_mrc("SIEVE", &t, &[4], &MrcConfig::default())
                .expect("valid grid");
            // Invariant: the grid [4] is non-empty and zero-free.
            let mut clock = reference_for("CLOCK", 4).expect("CLOCK reference exists");
            // Invariant: CLOCK has a reference interpreter.
            let mut evs = Vec::new();
            for r in &t.requests {
                let req = Request { size: 1, ..(*r) };
                evs.clear();
                clock.request(&req, &mut evs);
            }
            sieve.points[0].misses != clock.stats().misses
        };
        assert!(fails(&requests), "SIEVE and CLOCK must differ somewhere");
        let shrunk = shrink_with(&mut fails, requests);
        assert!(fails(&shrunk), "shrunk trace must still reproduce");
        assert!(
            shrunk.len() <= 24,
            "expected a small reproduction, got {} requests",
            shrunk.len()
        );
    }

    #[test]
    fn pure_get_mode_generates_only_gets() {
        let cfg = FuzzConfig {
            write_percent: 0,
            max_size: 1,
            ..FuzzConfig::default()
        };
        assert!(generate_trace(&cfg).iter().all(|r| r.op == Op::Get));
    }
}
