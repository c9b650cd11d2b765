//! Build policies by name — the factory the sweep engine and benchmark
//! binaries use.

use crate::dense::{
    DenseArc, DenseBloomLru, DenseClock, DenseFifo, DenseLirs, DenseLru, DenseLruK, DenseS3Fifo,
    DenseSieve, DenseSlru, DenseTinyLfu, DenseTwoQ,
};
use crate::{Belady, Cacheus, FifoMerge, LeCar, Lhd};
use cache_types::{CacheError, DensePolicy, Policy, Request};
use s3fifo::dense::{Keyed, SlabPolicy};
use s3fifo::policy::{FifoLru, FifoSieve, LruFifo, LruLru};
use s3fifo::{S3FifoConfig, S3FifoD};

/// Names of the algorithms compared in Fig. 6: S3-FIFO and the thirteen
/// baselines it is measured against. FIFO is not one of them; a sweep adds
/// it as the reference every reduction is computed against.
pub const FIG6_ALGORITHMS: &[&str] = &[
    "S3-FIFO",
    "TinyLFU",
    "TinyLFU-0.1",
    "LIRS",
    "2Q",
    "SLRU",
    "ARC",
    "CACHEUS",
    "LeCaR",
    "LHD",
    "FIFO-Merge",
    "B-LRU",
    "CLOCK",
    "LRU",
];

/// Every name [`build`] accepts.
pub const ALL_ALGORITHMS: &[&str] = &[
    "FIFO",
    "LRU",
    "CLOCK",
    "CLOCK-2bit",
    "SIEVE",
    "SLRU",
    "2Q",
    "ARC",
    "LIRS",
    "TinyLFU",
    "TinyLFU-0.1",
    "LRU-2",
    "LeCaR",
    "CACHEUS",
    "LHD",
    "B-LRU",
    "FIFO-Merge",
    "S3-FIFO",
    "S3-FIFO-D",
    "QDLP-LRU-LRU",
    "QDLP-LRU-FIFO",
    "QDLP-FIFO-LRU",
    "S3-FIFO-Sieve",
    "Belady",
];

/// The one name → dense policy table, expanded once per door. `$wrap` is
/// [`boxed`] (the policy itself, for pre-interned slots) or [`keyed`] (the
/// policy behind [`Keyed`]); it is a generic function rather than a closure
/// because each arm hands it a different concrete type. Evaluates to
/// `Option<_>` and uses `?` on the enclosing function.
macro_rules! dense_by_name {
    ($name:expr, $capacity:expr, $domain:expr, $wrap:path) => {
        if let Some(ratio) = parse_param($name, "S3-FIFO") {
            let cfg = S3FifoConfig { small_ratio: ratio? };
            Some($wrap(DenseS3Fifo::with_config_domain($capacity, cfg, $domain)?))
        } else if let Some(ratio) = parse_param($name, "TinyLFU") {
            Some($wrap(DenseTinyLfu::with_window($capacity, ratio?, $domain)?))
        } else {
            match $name {
                "FIFO" => Some($wrap(DenseFifo::with_domain($capacity, $domain)?)),
                "LRU" => Some($wrap(DenseLru::with_domain($capacity, $domain)?)),
                "CLOCK" => Some($wrap(DenseClock::with_domain($capacity, 1, $domain)?)),
                "CLOCK-2bit" => Some($wrap(DenseClock::with_domain($capacity, 2, $domain)?)),
                "SIEVE" => Some($wrap(DenseSieve::with_domain($capacity, $domain)?)),
                "SLRU" => Some($wrap(DenseSlru::with_domain($capacity, $domain)?)),
                "2Q" => Some($wrap(DenseTwoQ::with_domain($capacity, $domain)?)),
                "S3-FIFO" => Some($wrap(DenseS3Fifo::with_domain($capacity, $domain)?)),
                // §6.3's queue-type ablation and §7's SIEVE in place of `M`.
                "QDLP-LRU-LRU" => Some($wrap(DenseS3Fifo::with_queues($capacity, LruLru, $domain)?)),
                "QDLP-LRU-FIFO" => Some($wrap(DenseS3Fifo::with_queues($capacity, LruFifo, $domain)?)),
                "QDLP-FIFO-LRU" => Some($wrap(DenseS3Fifo::with_queues($capacity, FifoLru, $domain)?)),
                "S3-FIFO-Sieve" => Some($wrap(DenseS3Fifo::with_queues($capacity, FifoSieve, $domain)?)),
                "ARC" => Some($wrap(DenseArc::with_domain($capacity, $domain)?)),
                "LIRS" => Some($wrap(DenseLirs::with_domain($capacity, $domain)?)),
                "TinyLFU" => Some($wrap(DenseTinyLfu::with_window($capacity, 0.01, $domain)?)),
                "TinyLFU-0.1" => Some($wrap(DenseTinyLfu::with_window($capacity, 0.1, $domain)?)),
                "LRU-2" => Some($wrap(DenseLruK::with_domain($capacity, $domain)?)),
                "B-LRU" => Some($wrap(DenseBloomLru::with_domain($capacity, $domain)?)),
                _ => None,
            }
        }
    };
}

/// Builds the named policy at the given byte capacity.
///
/// `trace` is required only by `"Belady"` (the offline-optimal policy needs
/// the future); pass `None` for online algorithms.
///
/// `"S3-FIFO(r)"` with a literal float `r` (e.g. `"S3-FIFO(0.25)"`) selects
/// a non-default small-queue ratio, as does `"TinyLFU(r)"` for the window.
///
/// # Errors
///
/// Returns [`CacheError::InvalidParameter`] for an unknown name, a missing
/// trace for Belady, or an invalid embedded parameter.
pub fn build(
    name: &str,
    capacity: u64,
    trace: Option<&[Request]>,
) -> Result<Box<dyn Policy>, CacheError> {
    // A slab policy exists once: keyed is that policy over the empty domain,
    // interning as it goes.
    if let Some(policy) = dense_by_name!(name, capacity, 0, keyed) {
        return Ok(policy);
    }
    Ok(match name {
        "LeCaR" => Box::new(LeCar::new(capacity)?),
        "CACHEUS" => Box::new(Cacheus::new(capacity)?),
        "LHD" => Box::new(Lhd::new(capacity)?),
        "FIFO-Merge" => Box::new(FifoMerge::new(capacity)?),
        "S3-FIFO-D" => Box::new(S3FifoD::new(capacity)?),
        "Belady" => {
            let trace = trace
                .ok_or_else(|| CacheError::InvalidParameter("Belady requires the trace".into()))?;
            Box::new(Belady::new(capacity, trace)?)
        }
        other => {
            return Err(CacheError::InvalidParameter(format!(
                "unknown algorithm {other:?}"
            )))
        }
    })
}

/// Builds the named slab policy over the dense domain `0..domain`, to be
/// driven with pre-interned slots — a trace's footprint, or 0 for a stream
/// that grows the policy as it names ids ([`DensePolicy::grow_domain`]).
/// `None` for the six keyed-only algorithms — CACHEUS, LeCaR, LHD,
/// FIFO-Merge, S3-FIFO-D and Belady — which the simulator replays as
/// [`build`]'s keyed policy.
///
/// Dense policies: FIFO, LRU, CLOCK, CLOCK-2bit, SIEVE, SLRU, 2Q, S3-FIFO,
/// `"S3-FIFO(r)"`, the three QDLP names, S3-FIFO-Sieve, ARC, LIRS, TinyLFU,
/// TinyLFU-0.1, `"TinyLFU(r)"`, LRU-2 and B-LRU. For these [`build`] returns
/// the same policy behind [`Keyed`].
///
/// # Errors
///
/// Returns [`CacheError`] for an invalid capacity or embedded parameter.
/// An *unknown* name is `Ok(None)` here, not an error: [`build`] is the
/// authority on name validity.
pub fn build_dense_domain(
    name: &str,
    capacity: u64,
    domain: usize,
) -> Result<Option<Box<dyn DensePolicy>>, CacheError> {
    Ok(dense_by_name!(name, capacity, domain, boxed))
}

fn boxed<P: DensePolicy + 'static>(policy: P) -> Box<dyn DensePolicy> {
    Box::new(policy)
}

fn keyed<P: SlabPolicy + Send + 'static>(policy: P) -> Box<dyn Policy> {
    Box::new(Keyed::over(policy))
}

/// Builds the single-pass multi-capacity MRC engine for the named policy
/// over a whole capacity grid (see `cache_policies::dense::mrc`): the exact
/// insertion-index engine for FIFO, the turbo lanes — bitmap residency and
/// timestamp-derived reference state — for CLOCK, CLOCK-2bit, SIEVE, S3-FIFO
/// and `"S3-FIFO(r)"`. `None` when the algorithm has no such engine or the
/// grid does not fit it ([`mrc_grid_fits`]); callers then replay once per
/// capacity. A grid wider than [`mrc_engine_lanes`] that fits is the
/// caller's to deal to several engines; handed here whole it is an error.
///
/// Every lane is decision-identical to the single-capacity dense policy at
/// that grid point (enforced by `crates/sim/tests/mrc_equivalence.rs` and
/// the `cache-check` MRC differential) — on the streams these engines take.
/// The caller is responsible for that precondition (every request a `Get`
/// replayed at size 1, fewer than `u32::MAX` requests): the engines replay
/// slot sequences and cannot see it.
///
/// # Errors
///
/// Returns [`CacheError`] for an invalid grid or embedded parameter. An
/// *unknown* name is `Ok(None)`, mirroring [`build_dense_domain`].
pub fn build_mrc(
    name: &str,
    capacities: &[u64],
    ids: &std::sync::Arc<cache_ds::DenseIds>,
) -> Result<Option<Box<dyn crate::MultiCapacityPolicy>>, CacheError> {
    use crate::dense::{MrcExactFifo, MrcTurboClock, MrcTurboS3Fifo, MrcTurboSieve};
    if !mrc_grid_fits(name, capacities.len()) {
        return Ok(None);
    }
    if name == "FIFO" {
        return Ok(Some(Box::new(MrcExactFifo::new(capacities, ids)?)));
    }
    if let Some(ratio) = parse_param(name, "S3-FIFO") {
        let cfg = S3FifoConfig { small_ratio: ratio? };
        return Ok(Some(Box::new(MrcTurboS3Fifo::with_config(
            capacities, cfg, ids,
        )?)));
    }
    Ok(match name {
        "CLOCK" => Some(Box::new(MrcTurboClock::new(capacities, 1, ids)?)),
        "CLOCK-2bit" => Some(Box::new(MrcTurboClock::new(capacities, 2, ids)?)),
        "SIEVE" => Some(Box::new(MrcTurboSieve::new(capacities, ids)?)),
        "S3-FIFO" => Some(Box::new(MrcTurboS3Fifo::new(capacities, ids)?)),
        _ => None,
    })
}

/// True when a grid of `points` capacities is narrow enough for `name`'s
/// single-pass engine, if it has one: any width for FIFO's insertion-index
/// rows, 64 points (two engines' worth) for the turbo lanes. [`build_mrc`]
/// answers `None` past it. A caller that deals one grid to several engines
/// asks about the whole grid first, or whether a 65-point curve is drawn in
/// one pass would depend on how many ways it was dealt.
pub fn mrc_grid_fits(name: &str, points: usize) -> bool {
    name == "FIFO" || points <= 64
}

/// The most grid points one of `name`'s single-pass engines holds: any
/// number in FIFO's insertion-index rows, 32 in a turbo engine, whose
/// residency word is a `u32`. A grid that [`mrc_grid_fits`] but is wider
/// goes to several engines, each built by [`build_mrc`] over its share.
pub fn mrc_engine_lanes(name: &str) -> usize {
    if name == "FIFO" {
        usize::MAX
    } else {
        crate::dense::mrc::MAX_TURBO_LANES
    }
}

/// Parses `"<prefix>(<float>)"`, returning `Some(Ok(float))` on a match,
/// `Some(Err)` on a malformed parameter, `None` when the name does not have
/// that parameterized shape.
fn parse_param(name: &str, prefix: &str) -> Option<Result<f64, CacheError>> {
    let rest = name.strip_prefix(prefix)?;
    let inner = rest.strip_prefix('(')?.strip_suffix(')')?;
    Some(
        inner
            .parse::<f64>()
            .map_err(|e| CacheError::InvalidParameter(format!("bad parameter in {name:?}: {e}"))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_types::policy::run_trace;
    use cache_types::{Op, Request};

    #[test]
    fn builds_every_listed_algorithm() {
        let trace: Vec<Request> = (0..100u64).map(|i| Request::get(i % 37, i)).collect();
        for name in ALL_ALGORITHMS {
            let mut p = build(name, 16, Some(&trace)).unwrap_or_else(|e| {
                panic!("failed to build {name}: {e}");
            });
            let stats = run_trace(p.as_mut(), &trace);
            assert_eq!(stats.gets, 100, "{name} lost requests");
            assert!(p.used() <= 16, "{name} over capacity");
        }
    }

    #[test]
    fn fig6_algorithms_are_buildable() {
        for name in FIG6_ALGORITHMS {
            assert!(build(name, 100, None).is_ok(), "cannot build {name}");
        }
    }

    #[test]
    fn parameterized_names() {
        let p = build("S3-FIFO(0.25)", 100, None).unwrap();
        assert_eq!(p.name(), "S3-FIFO(0.25)");
        let p = build("TinyLFU(0.2)", 100, None).unwrap();
        assert_eq!(p.name(), "TinyLFU-0.2");
        assert!(build("S3-FIFO(zzz)", 100, None).is_err());
    }

    #[test]
    fn unknown_name_errors() {
        assert!(build("MRU", 100, None).is_err());
    }

    #[test]
    fn belady_needs_trace() {
        assert!(build("Belady", 100, None).is_err());
        assert!(build("Belady", 100, Some(&[])).is_ok());
    }

    /// A dense policy grown chunk by chunk as a stream names ids — with the
    /// room reserved up front or not — decides exactly as one built over
    /// the whole footprint, for every dense name.
    #[test]
    fn a_slab_grown_in_steps_replays_as_a_presized_one() {
        let mut rng = cache_ds::SplitMix64::new(0x6E0C);
        let reqs: Vec<Request> = (0..6_000u64)
            .map(|time| Request {
                id: rng.next_below(700),
                size: 1 + rng.next_below(8) as u32,
                time,
                op: match rng.next_below(10) {
                    0 => Op::Set,
                    1 => Op::Delete,
                    _ => Op::Get,
                },
            })
            .collect();
        let (ids, slots) = cache_ds::DenseIds::intern(reqs.iter().map(|r| r.id));
        let replay = |policy: &mut dyn DensePolicy, grow: Option<usize>| {
            let mut evictions = Vec::new();
            for (s, r) in slots.chunks(97).zip(reqs.chunks(97)) {
                if let Some(reserve) = grow {
                    let named = s.iter().max().map_or(0, |&m| m as usize + 1);
                    policy
                        .grow_domain(named, reserve)
                        .expect("slab policies grow");
                }
                policy.replay(s, r, false, &mut |i, e| evictions.push((i, *e)));
            }
            policy.validate().expect("invariants hold");
            (policy.stats(), policy.used(), policy.len(), evictions)
        };
        let mut checked = 0;
        for name in ALL_ALGORITHMS.iter().copied().chain(["S3-FIFO(0.25)"]) {
            let Some(mut presized) = build_dense_domain(name, 60, ids.len()).expect("builds")
            else {
                continue;
            };
            let want = replay(presized.as_mut(), None);
            for reserve in [0, ids.len()] {
                let mut grown = build_dense_domain(name, 60, 0)
                    .expect("builds")
                    .expect("dense");
                assert!(
                    replay(grown.as_mut(), Some(reserve)) == want,
                    "{name} reserve {reserve}"
                );
            }
            checked += 1;
        }
        assert_eq!(checked, 19, "every dense name");
    }
}
