//! Quick-demotion speed and precision (§6.1, Fig. 10).
//!
//! - **Speed**: "how long objects stay in S before they are evicted or moved
//!   to M. We use the LRU eviction age as a baseline and calculate the speed
//!   as LRU-eviction-age / time-in-S", in logical time.
//! - **Precision**: "if the number of requests till an object's next reuse
//!   is larger than cache-size / miss-ratio, then … the quick demotion
//!   results in a correct early eviction."
//!
//! Both are computed from the policies' probationary-eviction records plus
//! the [`NextAccessOracle`].

use crate::engine::Replay;
use crate::oracle::NextAccessOracle;
use cache_trace::Trace;
use cache_types::{CacheError, Eviction};

/// The Fig. 10 metrics for one (algorithm, trace, size) combination.
#[derive(Debug, Clone, Copy)]
pub struct DemotionMetrics {
    /// Mean logical time spent in the probationary structure before
    /// demotion (eviction from S / the window / T1).
    pub mean_time_in_probation: f64,
    /// LRU's mean eviction age on the same trace and size.
    pub lru_eviction_age: f64,
    /// Normalized speed: `lru_eviction_age / mean_time_in_probation`.
    pub speed: f64,
    /// Fraction of probationary evictions that were *correct* early
    /// evictions per the paper's criterion.
    pub precision: f64,
    /// Number of probationary evictions observed.
    pub demotions: u64,
    /// The algorithm's miss ratio on this run.
    pub miss_ratio: f64,
}

/// Runs `name` on `trace` at `capacity` (unit sizes) and computes demotion
/// speed and precision. `lru_eviction_age` is the precomputed LRU baseline
/// (see [`lru_mean_eviction_age`]).
///
/// # Errors
///
/// Propagates registry errors for unknown algorithm names.
pub fn demotion_metrics(
    name: &str,
    trace: &Trace,
    capacity: u64,
    lru_eviction_age: f64,
    oracle: &NextAccessOracle,
) -> Result<DemotionMetrics, CacheError> {
    // For every eviction out of a probationary structure: how long the
    // object stayed there, and how far away its next request is (`None`:
    // never), judged below once the miss ratio is known. The oracle indexes
    // original ids; records name slots.
    let ids = &trace.dense().ids;
    let (mut probation_time_sum, mut reuse) = (0u64, Vec::new());
    let mut demoted = |now: u64, e: &Eviction<u32>| {
        if e.from_probationary {
            probation_time_sum += e.age(now);
            reuse.push(oracle.reuse_distance(ids.orig(e.id), now));
        }
    };
    let replay = Replay::on_trace(name, trace, capacity)?.ignore_size(true);
    let (result, _) = replay.on_eviction(&mut demoted).run(trace);
    let demotions = reuse.len() as u64;
    let threshold = capacity as f64 / result.miss_ratio.max(1e-6);
    let correct = reuse
        .iter()
        .filter(|d| match d {
            None => true, // never reused: unquestionably correct
            Some(dist) => (*dist as f64) > threshold,
        })
        .count();
    let mean_time = if demotions == 0 {
        f64::INFINITY
    } else {
        probation_time_sum as f64 / demotions as f64
    };
    let precision = if reuse.is_empty() {
        1.0
    } else {
        correct as f64 / reuse.len() as f64
    };
    Ok(DemotionMetrics {
        mean_time_in_probation: mean_time,
        lru_eviction_age,
        speed: if mean_time.is_finite() && mean_time > 0.0 {
            lru_eviction_age / mean_time
        } else {
            0.0
        },
        precision,
        demotions,
        miss_ratio: result.miss_ratio,
    })
}

/// LRU's mean eviction age on `trace` at `capacity` — the speed baseline.
///
/// # Panics
///
/// Panics when `capacity` is 0.
pub fn lru_mean_eviction_age(trace: &Trace, capacity: u64) -> f64 {
    // Invariant: "LRU" is a registry name, so only a zero capacity fails.
    let replay = Replay::on_trace("LRU", trace, capacity).expect("capacity > 0");
    let (result, _) = replay.ignore_size(true).run(trace);
    result.eviction_age.mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_trace::gen::WorkloadSpec;

    fn trace() -> Trace {
        WorkloadSpec::zipf("t", 30_000, 3000, 1.0, 13).generate()
    }

    /// The values the hand-written loops produced before these functions
    /// moved onto `Replay` (PR 13), bit for bit.
    #[test]
    fn metrics_are_pinned_to_the_pre_replay_values() {
        let t = trace();
        assert_eq!(
            lru_mean_eviction_age(&t, 200).to_bits(),
            0x407c_0733_d0d7_da14
        );
        let lru = lru_mean_eviction_age(&t, 300);
        assert_eq!(lru.to_bits(), 0x4088_4995_b7c8_0d52);
        let oracle = NextAccessOracle::new(t.iter());
        for (name, time, speed, precision, demotions) in [
            (
                "S3-FIFO",
                0x4065_17aa_30d0_cfc0u64,
                0x4012_6c72_2d1b_a9b4u64,
                0x3fea_953c_89bf_1c98u64,
                7709,
            ),
            (
                "ARC",
                0x4053_2a11_5f0d_c748,
                0x4024_46f7_16fe_9a50,
                0x3fea_c8fd_a9b3_9bae,
                7339,
            ),
        ] {
            let m = demotion_metrics(name, &t, 300, lru, &oracle).unwrap();
            assert_eq!(m.mean_time_in_probation.to_bits(), time, "{name}");
            assert_eq!(m.speed.to_bits(), speed, "{name}");
            assert_eq!(m.precision.to_bits(), precision, "{name}");
            assert_eq!(m.demotions, demotions, "{name}");
        }
    }

    #[test]
    fn lru_age_positive_under_pressure() {
        let t = trace();
        let age = lru_mean_eviction_age(&t, 200);
        assert!(age > 200.0, "LRU eviction age {age} should exceed capacity");
    }

    #[test]
    fn s3fifo_demotes_faster_than_lru_evicts() {
        let t = trace();
        let cap = 300u64;
        let oracle = NextAccessOracle::new(t.iter());
        let lru_age = lru_mean_eviction_age(&t, cap);
        let m = demotion_metrics("S3-FIFO", &t, cap, lru_age, &oracle).unwrap();
        assert!(m.demotions > 0);
        assert!(
            m.speed > 1.0,
            "S3-FIFO's small queue must demote faster than LRU evicts: speed {}",
            m.speed
        );
    }

    #[test]
    fn smaller_s_is_faster() {
        // §6.1: "reducing the size of S always increases the demotion
        // speed."
        let t = trace();
        let cap = 300u64;
        let oracle = NextAccessOracle::new(t.iter());
        let lru_age = lru_mean_eviction_age(&t, cap);
        let fast = demotion_metrics("S3-FIFO(0.05)", &t, cap, lru_age, &oracle).unwrap();
        let slow = demotion_metrics("S3-FIFO(0.40)", &t, cap, lru_age, &oracle).unwrap();
        assert!(
            fast.speed > slow.speed,
            "5% S speed {} should exceed 40% S speed {}",
            fast.speed,
            slow.speed
        );
    }

    #[test]
    fn precision_between_zero_and_one() {
        let t = trace();
        let cap = 300u64;
        let oracle = NextAccessOracle::new(t.iter());
        let lru_age = lru_mean_eviction_age(&t, cap);
        for name in ["S3-FIFO", "TinyLFU-0.1", "ARC", "2Q"] {
            let m = demotion_metrics(name, &t, cap, lru_age, &oracle).unwrap();
            assert!(
                (0.0..=1.0).contains(&m.precision),
                "{name} precision {}",
                m.precision
            );
        }
    }

    #[test]
    fn no_demotions_without_pressure() {
        let small = WorkloadSpec::zipf("t", 1000, 50, 1.0, 3).generate();
        let oracle = NextAccessOracle::new(small.iter());
        let m = demotion_metrics("S3-FIFO", &small, 10_000, 0.0, &oracle).unwrap();
        assert_eq!(m.demotions, 0);
        assert_eq!(m.speed, 0.0);
    }
}
