//! Integration tests pinning the paper's qualitative claims, end to end.

use cache_sim::demotion::{demotion_metrics, lru_mean_eviction_age};
use cache_sim::{simulate_named, NextAccessOracle, SimConfig};
use cache_trace::analysis::{one_hit_wonder_ratio, sampled_window_ohw};
use cache_trace::corpus::{msr_like, twitter_like};
use cache_trace::gen::{two_request_adversarial_mixed, WorkloadSpec};

/// §3.1: shorter sequences have higher one-hit-wonder ratios, on synthetic
/// and production-like traces alike.
#[test]
fn one_hit_wonders_rise_in_short_windows() {
    for trace in [
        WorkloadSpec::zipf("zipf", 150_000, 15_000, 1.0, 1).generate(),
        msr_like(150_000, 1),
        twitter_like(150_000, 1),
    ] {
        let full = one_hit_wonder_ratio(&trace.requests);
        let w10 = sampled_window_ohw(&trace.requests, 0.1, 20, 2);
        assert!(
            w10 > full,
            "{}: window OHW {w10:.3} must exceed full {full:.3}",
            trace.name
        );
    }
}

/// Fig. 4: most objects evicted by LRU are one-hit wonders at a 10% cache.
#[test]
fn most_evictions_are_one_hit_wonders() {
    let trace = msr_like(200_000, 2);
    let cfg = SimConfig::large();
    for algo in ["LRU", "Belady"] {
        let r = simulate_named(algo, &trace, &cfg).unwrap().unwrap();
        assert!(
            r.one_hit_eviction_fraction > 0.5,
            "{algo}: only {:.2} of evictions were one-hit wonders",
            r.one_hit_eviction_fraction
        );
    }
}

/// §6.1: S3-FIFO's demotion speed rises monotonically as S shrinks.
#[test]
fn demotion_speed_monotone_in_s_size() {
    let trace = twitter_like(150_000, 3);
    let cfg = SimConfig::large();
    let cap = cfg.capacity_for(&trace);
    let oracle = NextAccessOracle::new(&trace.requests);
    let lru_age = lru_mean_eviction_age(&trace, cap);
    let mut last_speed = f64::INFINITY;
    for s in [0.02, 0.10, 0.30] {
        let m = demotion_metrics(&format!("S3-FIFO({s})"), &trace, cap, lru_age, &oracle)
            .expect("valid algorithm");
        assert!(
            m.speed < last_speed,
            "speed must fall as S grows: S={s} speed {} >= previous {last_speed}",
            m.speed
        );
        last_speed = m.speed;
    }
}

/// §5.2's adversarial pattern: every object requested exactly twice, with
/// the second request arriving after the object has left the small queue
/// but while LRU would still hold it. A hot working set keeps M populated
/// so S actually shrinks to its 10% target (a pure two-request stream is
/// NOT adversarial — S then simply occupies the whole cache).
#[test]
fn adversarial_two_request_pattern_hurts_s3fifo() {
    let cache = 2000u64;
    let trace = two_request_adversarial_mixed("adv", 30_000, 400, 1800);
    let cfg = SimConfig {
        size: cache_sim::CacheSizeSpec::Bytes(cache),
        ignore_size: true,
        min_objects: 0,
        floor_objects: 0,
    };
    let lru = simulate_named("LRU", &trace, &cfg).unwrap().unwrap();
    let s3 = simulate_named("S3-FIFO", &trace, &cfg).unwrap().unwrap();
    assert!(
        s3.miss_ratio > lru.miss_ratio + 0.05,
        "S3-FIFO {:.4} should lose clearly to LRU {:.4} on the adversarial pattern",
        s3.miss_ratio,
        lru.miss_ratio
    );
}

/// §6.3: queue type barely matters once quick demotion is in place.
#[test]
fn queue_type_ablation_is_flat() {
    let trace = twitter_like(100_000, 4);
    let cfg = SimConfig::large();
    let mut ratios = Vec::new();
    for algo in ["S3-FIFO", "QDLP-LRU-FIFO", "QDLP-FIFO-LRU", "QDLP-LRU-LRU"] {
        let r = simulate_named(algo, &trace, &cfg).unwrap().unwrap();
        ratios.push((algo, r.miss_ratio));
    }
    let max = ratios.iter().map(|r| r.1).fold(f64::MIN, f64::max);
    let min = ratios.iter().map(|r| r.1).fold(f64::MAX, f64::min);
    assert!(
        max - min < 0.03,
        "queue-type variants should be close: {ratios:?}"
    );
    // §7: SIEVE in place of M's FIFO-reinsertion matches or improves on it.
    let sieve = simulate_named("S3-FIFO-Sieve", &trace, &cfg).unwrap().unwrap();
    let (_, fifo_main) = ratios[0];
    assert!(
        sieve.miss_ratio <= fifo_main + 0.02,
        "SIEVE main {:.4} vs FIFO main {fifo_main:.4}",
        sieve.miss_ratio
    );
}

/// §6.2.2: the static 10% S3-FIFO is at least as good as the adaptive
/// variant on a regular (non-adversarial) workload.
#[test]
fn static_matches_adaptive_on_regular_workloads() {
    let trace = twitter_like(150_000, 5);
    let cfg = SimConfig::large();
    let s3 = simulate_named("S3-FIFO", &trace, &cfg).unwrap().unwrap();
    let s3d = simulate_named("S3-FIFO-D", &trace, &cfg).unwrap().unwrap();
    assert!(
        s3.miss_ratio <= s3d.miss_ratio + 0.01,
        "static {:.4} vs adaptive {:.4}",
        s3.miss_ratio,
        s3d.miss_ratio
    );
}
