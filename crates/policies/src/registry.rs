//! Build policies by name — the factory the sweep engine and benchmark
//! binaries use.

use crate::dense::{
    DenseArc, DenseBelady, DenseBloomLru, DenseCacheus, DenseClock, DenseFifo, DenseFifoMerge,
    DenseLeCar, DenseLhd, DenseLirs, DenseLru, DenseLruK, DenseS3Fifo, DenseSieve, DenseSlru,
    DenseTinyLfu, DenseTwoQ,
};
use cache_ds::DenseIds;
use cache_types::{CacheError, Policy, Request};
use s3fifo::dense::{DensePolicy, Keyed, SlabPolicy};
use s3fifo::policy::{FifoLru, FifoSieve, LruFifo, LruLru};
use s3fifo::{DenseS3FifoD, S3FifoConfig};

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
/// because each arm hands it a different concrete type. `$trace`, the
/// trace as slots, is evaluated by Belady's arm alone. Evaluates to the wrapped policy and uses `?` on the
/// enclosing function, which returns an unknown name's error.
macro_rules! dense_by_name {
    ($name:expr, $capacity:expr, $trace:expr, $domain:expr, $wrap:path) => {
        if let Some(ratio) = parse_param($name, "S3-FIFO") {
            let cfg = S3FifoConfig { small_ratio: ratio? };
            $wrap(DenseS3Fifo::with_config_domain($capacity, cfg, $domain)?)
        } else if let Some(ratio) = parse_param($name, "TinyLFU") {
            $wrap(DenseTinyLfu::with_window($capacity, ratio?, $domain)?)
        } else {
            match $name {
                "FIFO" => $wrap(DenseFifo::with_domain($capacity, $domain)?),
                "LRU" => $wrap(DenseLru::with_domain($capacity, $domain)?),
                "CLOCK" => $wrap(DenseClock::with_domain($capacity, 1, $domain)?),
                "CLOCK-2bit" => $wrap(DenseClock::with_domain($capacity, 2, $domain)?),
                "SIEVE" => $wrap(DenseSieve::with_domain($capacity, $domain)?),
                "SLRU" => $wrap(DenseSlru::with_domain($capacity, $domain)?),
                "2Q" => $wrap(DenseTwoQ::with_domain($capacity, $domain)?),
                "S3-FIFO" => $wrap(DenseS3Fifo::with_domain($capacity, $domain)?),
                "S3-FIFO-D" => $wrap(DenseS3FifoD::with_domain($capacity, $domain)?),
                // §6.3's queue-type ablation and §7's SIEVE in place of `M`.
                "QDLP-LRU-LRU" => $wrap(DenseS3Fifo::with_queues($capacity, LruLru, $domain)?),
                "QDLP-LRU-FIFO" => $wrap(DenseS3Fifo::with_queues($capacity, LruFifo, $domain)?),
                "QDLP-FIFO-LRU" => $wrap(DenseS3Fifo::with_queues($capacity, FifoLru, $domain)?),
                "S3-FIFO-Sieve" => $wrap(DenseS3Fifo::with_queues($capacity, FifoSieve, $domain)?),
                "ARC" => $wrap(DenseArc::with_domain($capacity, $domain)?),
                "LIRS" => $wrap(DenseLirs::with_domain($capacity, $domain)?),
                "TinyLFU" => $wrap(DenseTinyLfu::with_window($capacity, 0.01, $domain)?),
                "TinyLFU-0.1" => $wrap(DenseTinyLfu::with_window($capacity, 0.1, $domain)?),
                "LRU-2" => $wrap(DenseLruK::with_domain($capacity, $domain)?),
                "B-LRU" => $wrap(DenseBloomLru::with_domain($capacity, $domain)?),
                "LeCaR" => $wrap(DenseLeCar::with_domain($capacity, $domain)?),
                "CACHEUS" => $wrap(DenseCacheus::with_domain($capacity, $domain)?),
                "LHD" => $wrap(DenseLhd::with_domain($capacity, $domain)?),
                "FIFO-Merge" => $wrap(DenseFifoMerge::with_domain($capacity, $domain)?),
                "Belady" => $wrap(DenseBelady::new($capacity, belady_slots($trace)?, $domain)?),
                other => {
                    return Err(CacheError::InvalidParameter(format!(
                        "unknown algorithm {other:?}"
                    )))
                }
            }
        }
    };
}

/// Builds the named policy at the given byte capacity: the slab policy over
/// the empty domain, behind the interning [`Keyed`] adapter.
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
    // Belady reads only which requests name the same object, so any
    // interning of the ids serves, whichever slots the adapter assigns.
    let interned = |t: &[Request]| DenseIds::intern(t.iter().map(|r| r.id)).1;
    Ok(dense_by_name!(name, capacity, trace.map(interned).as_deref(), 0, keyed))
}

/// Builds the named slab policy over the dense domain `0..domain`, to be
/// driven with pre-interned slots — a trace's footprint, or 0 for a stream
/// that grows the policy as it names ids ([`DensePolicy::grow_domain`]).
/// Every name [`build`] accepts, with the same `trace` rule, the trace given
/// as its slots: Belady needs the slots it will be driven with, in order.
///
/// # Errors
///
/// As [`build`].
pub fn build_dense_domain(
    name: &str,
    capacity: u64,
    trace: Option<&[u32]>,
    domain: usize,
) -> Result<Box<dyn DensePolicy>, CacheError> {
    Ok(dense_by_name!(name, capacity, trace, domain, boxed))
}

/// The slots Belady reads each request's next use off, which it cannot be
/// built without.
fn belady_slots(trace: Option<&[u32]>) -> Result<&[u32], CacheError> {
    trace.ok_or_else(|| CacheError::InvalidParameter("Belady requires the trace".into()))
}

fn boxed<P: DensePolicy + 'static>(policy: P) -> Box<dyn DensePolicy> {
    Box::new(policy)
}

fn keyed<P: SlabPolicy + Send + 'static>(policy: P) -> Box<dyn Policy> {
    Box::new(Keyed::over(policy))
}

/// Builds the single-pass multi-capacity MRC engine for the named policy
/// over a capacity grid (see `cache_policies::dense::mrc`): the exact
/// insertion-index engine for FIFO, the turbo lanes — bitmap residency and
/// timestamp-derived reference state — for CLOCK, CLOCK-2bit, SIEVE, S3-FIFO
/// and `"S3-FIFO(r)"`. `None` when the algorithm has no such engine or the
/// grid does not fit it ([`mrc_grid_fits`]); callers then replay once per
/// capacity. A caller builds one engine per [`mrc_engine_lanes`] points of
/// its grid; a turbo grid wider than a residency word is an error here.
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
/// *unknown* name is `Ok(None)`, like a known one without an engine.
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
/// single-pass engines, if it has them: any width for FIFO's insertion-index
/// rows, 64 points for the turbo lanes. [`build_mrc`] answers `None` past it.
/// The turbo ceiling is not the residency word's (a grid is drawn as
/// engines of [`mrc_engine_lanes`] points each); it stays because the route
/// is part of what a caller reads off a curve — a 65-point turbo grid
/// reports `per-capacity`, and the equivalence tests pin that — so lifting
/// it is a routing change of its own. A caller that deals one grid to
/// several workers asks about the whole grid first, or the route of a
/// 65-point curve would depend on how many ways it was dealt.
pub fn mrc_grid_fits(name: &str, points: usize) -> bool {
    name == "FIFO" || points <= 64
}

/// How many grid points one of `name`'s single-pass engines is built over:
/// all of them in FIFO's insertion-index rows, four in a turbo engine. The
/// residency word holds 32 lanes, but a worker that drew 16 at once held
/// sixteen lanes' queues and ghost bitsets beside the shared headers, which
/// no core's caches kept together. On the ledger's 32-point S3-FIFO curve,
/// engines of 2 and 4 lanes built one after another over the same slots
/// were equally fast, 8 was slower; 4 makes half the passes over the slots
/// that 2 does and drew CLOCK's curves faster. With every queue an 8 B
/// entry allocated once, 2, 4 and 8 drew it equally fast within the host's
/// spread (2 held ~5 MB less, 8 ~10 MB more), and at 4 the curve pass holds
/// no more than the streamed replay before it.
pub fn mrc_engine_lanes(name: &str) -> usize {
    if name == "FIFO" {
        usize::MAX
    } else {
        TURBO_ENGINE_LANES
    }
}

/// Lanes per turbo engine a curve is drawn with ([`mrc_engine_lanes`]); at
/// most `MAX_TURBO_LANES`, the residency word's width.
const TURBO_ENGINE_LANES: usize = 4;

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
        assert!(build_dense_domain("MRU", 100, None, 10).is_err());
    }

    #[test]
    fn belady_needs_trace() {
        assert!(build("Belady", 100, None).is_err());
        assert!(build("Belady", 100, Some(&[])).is_ok());
        assert!(build_dense_domain("Belady", 100, None, 10).is_err());
    }

    /// A dense policy grown chunk by chunk as a stream names ids — with the
    /// room reserved up front or not — decides exactly as one built over
    /// the whole footprint, for every name.
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
        for name in ALL_ALGORITHMS.iter().copied().chain(["S3-FIFO(0.25)"]) {
            let mut presized =
                build_dense_domain(name, 60, Some(&slots), ids.len()).expect("builds");
            let want = replay(presized.as_mut(), None);
            for reserve in [0, ids.len()] {
                let mut grown = build_dense_domain(name, 60, Some(&slots), 0).expect("builds");
                assert!(
                    replay(grown.as_mut(), Some(reserve)) == want,
                    "{name} reserve {reserve}"
                );
            }
        }
    }
}
