//! Spatial (hash-based) trace sampling — SHARDS-style miniature simulation.
//!
//! §6.2.3 points to "downsized simulations using spatial sampling"
//! (Waldspurger et al.) as the way to pick cache parameters: keep each
//! *object* with probability `rate` (decided by a hash of its id, so every
//! request to a kept object survives), and run the simulation with a cache
//! scaled by the same factor. Under hash sampling the miss ratio of the
//! miniature is an unbiased estimate of the full trace's.

use crate::Trace;
use cache_ds::rng::mix64;
use cache_types::Request;

/// A spatially sampled trace plus the scale factor to apply to cache sizes.
#[derive(Debug, Clone)]
pub struct SampledTrace {
    /// The miniature trace (all requests to the kept objects, in order).
    pub trace: Trace,
    /// The sampling rate actually configured.
    pub rate: f64,
}

impl SampledTrace {
    /// Scales a full-trace cache capacity down to the miniature.
    pub fn scale_capacity(&self, full_capacity: u64) -> u64 {
        ((full_capacity as f64 * self.rate).round() as u64).max(1)
    }
}

/// Keeps every request whose object hashes below `rate` (SHARDS' spatial
/// filter), preserving request order.
///
/// # Panics
///
/// Panics when `rate` is not in `(0, 1]`.
///
/// # Examples
///
/// ```
/// use cache_trace::gen::WorkloadSpec;
/// use cache_trace::sampling::spatial_sample;
///
/// let full = WorkloadSpec::zipf("t", 50_000, 5_000, 1.0, 1).generate();
/// let mini = spatial_sample(&full, 0.1, 7);
/// // Simulate the miniature at a 10x smaller cache for ~10x less work.
/// assert_eq!(mini.scale_capacity(1000), 100);
/// ```
pub fn spatial_sample(trace: &Trace, rate: f64, salt: u64) -> SampledTrace {
    assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
    // rate == 1.0 must keep every request *by construction*. `rate *
    // u64::MAX as f64` rounds to 2^64 (not representable as u64), so the
    // old code kept everything only by the accident of f64→u64 cast
    // saturation; make the identity case explicit instead of load-bearing.
    let threshold = if rate >= 1.0 {
        u64::MAX
    } else {
        (rate * u64::MAX as f64) as u64
    };
    let requests: Vec<Request> = trace
        .iter()
        .filter(|r| mix64(r.id ^ salt) <= threshold)
        .collect();
    SampledTrace {
        trace: Trace::new(format!("{}@{rate}", trace.name), requests),
        rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkloadSpec;

    #[test]
    fn sampling_keeps_object_fraction() {
        let t = WorkloadSpec::zipf("s", 100_000, 20_000, 0.8, 3).generate();
        let s = spatial_sample(&t, 0.1, 1);
        let kept = s.trace.footprint() as f64 / t.footprint() as f64;
        assert!(
            (kept - 0.1).abs() < 0.02,
            "kept {kept:.3} of objects at rate 0.1"
        );
    }

    #[test]
    fn all_requests_of_kept_objects_survive() {
        let t = WorkloadSpec::zipf("s", 50_000, 5000, 1.0, 4).generate();
        let s = spatial_sample(&t, 0.2, 2);
        // Per-object request counts must be identical to the full trace.
        let count = |t: &Trace, id| t.iter().filter(|r| r.id == id).count();
        let sampled_ids: std::collections::HashSet<u64> =
            s.trace.iter().map(|r| r.id).collect();
        for &id in sampled_ids.iter().take(50) {
            assert_eq!(
                count(&t, id),
                count(&s.trace, id),
                "object {id} lost requests in sampling"
            );
        }
    }

    #[test]
    fn rate_one_is_identity_modulo_name() {
        let t = WorkloadSpec::zipf("s", 10_000, 1000, 1.0, 5).generate();
        let s = spatial_sample(&t, 1.0, 9);
        assert_eq!(s.trace.len(), t.len());
    }

    /// Sampling variance is dominated by whether individual Zipf-head
    /// objects are kept, so the estimator tests use a flatter head
    /// (α = 0.7) and average over several hash salts, as SHARDS users do in
    /// practice.
    fn mean_mini_mr(
        t: &Trace,
        full_cap: u64,
        rate: f64,
        build: &dyn Fn(u64) -> Box<dyn cache_types::Policy>,
    ) -> f64 {
        use cache_types::policy::run_trace;
        let salts = [7u64, 77, 777];
        let mut acc = 0.0;
        for &salt in &salts {
            let s = spatial_sample(t, rate, salt);
            let mut mini = build(s.scale_capacity(full_cap));
            acc += run_trace(mini.as_mut(), &s.trace.to_requests()).miss_ratio();
        }
        acc / salts.len() as f64
    }

    #[test]
    fn miniature_miss_ratio_estimates_full() {
        // The SHARDS property: simulate the miniature at a scaled cache and
        // get (approximately) the full-trace miss ratio.
        use cache_types::policy::run_trace;
        let t = WorkloadSpec::zipf("s", 200_000, 20_000, 0.7, 6).generate();
        let full_cap = 2000u64;
        let mut full = cache_policies::Lru::new(full_cap).unwrap();
        let full_mr = run_trace(&mut full, &t.to_requests()).miss_ratio();
        let mini_mr = mean_mini_mr(&t, full_cap, 0.2, &|cap| {
            Box::new(cache_policies::Lru::new(cap).unwrap())
        });
        assert!(
            (mini_mr - full_mr).abs() < 0.05,
            "miniature MR {mini_mr:.4} vs full MR {full_mr:.4}"
        );
    }

    #[test]
    fn s3fifo_miniature_estimates_full() {
        use cache_types::policy::run_trace;
        let t = WorkloadSpec::zipf("s", 200_000, 20_000, 0.7, 8).generate();
        let full_cap = 2000u64;
        let mut full = s3fifo::S3Fifo::new(full_cap).unwrap();
        let full_mr = run_trace(&mut full, &t.to_requests()).miss_ratio();
        let mini_mr = mean_mini_mr(&t, full_cap, 0.2, &|cap| {
            Box::new(s3fifo::S3Fifo::new(cap).unwrap())
        });
        assert!(
            (mini_mr - full_mr).abs() < 0.05,
            "miniature MR {mini_mr:.4} vs full MR {full_mr:.4}"
        );
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn zero_rate_panics() {
        let t = WorkloadSpec::zipf("s", 10, 10, 1.0, 1).generate();
        spatial_sample(&t, 0.0, 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::gen::WorkloadSpec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        // Regression: rate 1.0 keeps every request verbatim, for any salt.
        #[test]
        fn rate_one_keeps_everything(seed in 0u64..u64::MAX, salt in 0u64..u64::MAX) {
            let t = WorkloadSpec::zipf("p", 500, 100, 1.0, seed).generate();
            let s = spatial_sample(&t, 1.0, salt);
            prop_assert_eq!(s.trace.to_requests(), t.to_requests());
        }

        // Same (trace, rate, salt) → same sample, always.
        #[test]
        fn sampling_is_deterministic(
            seed in 0u64..u64::MAX,
            salt in 0u64..u64::MAX,
            rate_milli in 1u64..=1000,
        ) {
            let rate = rate_milli as f64 / 1000.0;
            let t = WorkloadSpec::zipf("p", 300, 80, 1.0, seed).generate();
            let a = spatial_sample(&t, rate, salt);
            let b = spatial_sample(&t, rate, salt);
            prop_assert_eq!(a.trace.to_requests(), b.trace.to_requests());
        }

        // Raising the rate only ever *adds* objects (same salt): the lower
        // rate's sample is a subsequence filter of the higher rate's.
        #[test]
        fn sampling_is_monotone_in_rate(
            seed in 0u64..u64::MAX,
            salt in 0u64..u64::MAX,
            lo_milli in 1u64..=999,
            extra_milli in 1u64..=999,
        ) {
            let lo = lo_milli as f64 / 1000.0;
            let hi = ((lo_milli + extra_milli).min(1000)) as f64 / 1000.0;
            let t = WorkloadSpec::zipf("p", 400, 120, 1.0, seed).generate();
            let small = spatial_sample(&t, lo, salt);
            let big = spatial_sample(&t, hi, salt);
            let big_ids: std::collections::HashSet<u64> =
                big.trace.iter().map(|r| r.id).collect();
            for r in small.trace.iter() {
                prop_assert!(big_ids.contains(&r.id), "object {} vanished as rate rose", r.id);
            }
        }
    }
}
