//! PR 1 acceptance: full-corpus replay under device faults.
//!
//! - A 1% transient-write plan replays a full synthetic trace with zero
//!   panics and a miss ratio within 2 points of fault-free.
//! - The degradation ladder (retry → DRAM-only → recovery) is exercised
//!   end to end and every transition is asserted.
//! - Byte accounting on the device stays exact throughout.

use cache_faults::{
    DegradationState, ErrorBudgetConfig, FaultKind, FaultPlan, RetryPolicy, Schedule,
};
use cache_flash::{AdmissionKind, FlashCache, FlashCacheConfig, ResilienceConfig};
use cache_trace::corpus::{datasets, CorpusConfig};
use cache_trace::Trace;
use cache_types::CacheError;

fn corpus_trace(name: &str, requests: usize) -> Trace {
    let ds = datasets()
        .into_iter()
        .find(|d| d.name == name)
        .expect("dataset exists");
    ds.trace(
        &CorpusConfig {
            traces_per_dataset: 1,
            requests_per_trace: requests,
            seed: 0xACCE,
        },
        0,
    )
}

fn cfg_for(trace: &Trace, admission: AdmissionKind) -> FlashCacheConfig {
    FlashCacheConfig {
        total_bytes: (trace.footprint_bytes() / 10).max(1),
        dram_fraction: 0.01,
        admission,
    }
}

#[test]
fn one_percent_transient_writes_cost_under_two_points() {
    let trace = corpus_trace("cdn1", 100_000);
    for admission in [
        AdmissionKind::SmallFifoTwoAccess,
        AdmissionKind::WriteAll,
        AdmissionKind::Probabilistic(0.2),
    ] {
        let cfg = cfg_for(&trace, admission);
        let mut clean = FlashCache::new(cfg).expect("valid config");
        let base = clean.run(trace.iter());

        let plan = FaultPlan::new(42).with_transient_writes(0.01);
        let mut faulty =
            FlashCache::faulty(cfg, plan, ResilienceConfig::default()).expect("valid config");
        let s = faulty.run(trace.iter());

        assert!(
            (s.miss_ratio() - base.miss_ratio()).abs() < 0.02,
            "{admission:?}: faulty MR {:.4} vs clean {:.4}",
            s.miss_ratio(),
            base.miss_ratio()
        );
        assert!(s.retries > 0, "{admission:?}: retries must engage");
        assert_eq!(
            s.budget_trips, 0,
            "{admission:?}: 1% transients must stay under the default budget"
        );
        assert!(
            faulty.verify_accounting(),
            "{admission:?}: accounting must stay exact under faults"
        );
    }
}

#[test]
fn full_taxonomy_replay_never_panics_and_stays_consistent() {
    let trace = corpus_trace("wiki_cdn", 80_000);
    let cfg = cfg_for(&trace, AdmissionKind::SmallFifoTwoAccess);
    // Every fault kind at once, at rates high enough to trip the budget.
    let plan = FaultPlan::new(7)
        .with(FaultKind::TransientWrite, Schedule::Constant(0.2))
        .with(FaultKind::ReadError, Schedule::Constant(0.05))
        .with(FaultKind::Corruption, Schedule::Constant(0.02))
        .with(FaultKind::DeviceFull, Schedule::Constant(0.05))
        .with(FaultKind::LatencySpike, Schedule::Constant(0.01));
    let mut c = FlashCache::faulty(cfg, plan, ResilienceConfig::default()).expect("valid config");
    let s = c.run(trace.iter());
    assert_eq!(s.requests, 80_000);
    assert!(s.miss_ratio() <= 1.0);
    assert!(s.device_errors() > 0);
    assert!(s.corruptions > 0, "corruption path must have been exercised");
    assert!(c.verify_accounting(), "accounting exact after the storm");
    // Degradation engaged at these rates.
    assert!(s.budget_trips >= 1);
    assert!(s.degraded_ops > 0);
}

#[test]
fn degradation_ladder_retry_then_dram_only_then_recovery() {
    let trace = corpus_trace("cdn1", 60_000);
    let cfg = cfg_for(&trace, AdmissionKind::SmallFifoTwoAccess);
    // The device is dead for its first 40 ops, then heals completely; the
    // short burst is traversed by recovery probes while degraded.
    let plan = FaultPlan::new(3).with(
        FaultKind::TransientWrite,
        Schedule::Burst {
            period: u64::MAX,
            burst_len: 40,
            inside: 1.0,
            outside: 0.0,
        },
    );
    let resilience = ResilienceConfig {
        retry: RetryPolicy {
            max_retries: 2,
            base_delay: 5,
            max_delay: 100,
        },
        budget: ErrorBudgetConfig {
            window_ops: 1_000,
            max_errors: 3,
            probe_interval: 150,
            recovery_probes: 2,
        },
    };
    let mut c = FlashCache::faulty(cfg, plan, resilience).expect("valid config");

    let mut saw_device_failure = false;
    let mut saw_degraded_transition = false;
    let mut ops_while_degraded = 0u64;
    for r in trace.iter() {
        match c.request_checked(r.id, r.size) {
            Ok(_) => {}
            Err(CacheError::DeviceFailure(_)) => saw_device_failure = true,
            Err(CacheError::Degraded(_)) => saw_degraded_transition = true,
            Err(CacheError::Corruption(_)) => panic!("plan injects no corruption"),
            Err(e) => panic!("unexpected error: {e}"),
        }
        if c.degradation() == DegradationState::Degraded {
            ops_while_degraded += 1;
        }
    }
    let s = c.stats();
    // Rung 1: retries were attempted before giving up.
    assert!(s.retries > 0, "retry rung must engage");
    assert!(saw_device_failure, "post-retry failures must surface");
    // Rung 2: the budget tripped and the cache ran DRAM-only.
    assert!(saw_degraded_transition, "trip must surface as Degraded");
    assert_eq!(s.budget_trips, 1);
    assert!(ops_while_degraded > 0);
    assert!(s.degraded_ops > 0);
    // Rung 3: probes found the healed device and re-admitted flash.
    assert_eq!(s.budget_recoveries, 1, "device must recover exactly once");
    assert_eq!(c.degradation(), DegradationState::Healthy);
    assert!(
        s.flash_hits > 0,
        "flash must serve hits after re-admission"
    );
    assert!(c.verify_accounting());
}

#[test]
fn faulty_replay_is_fully_deterministic() {
    let trace = corpus_trace("cdn1", 40_000);
    let cfg = cfg_for(&trace, AdmissionKind::SmallFifoTwoAccess);
    let run = || {
        let plan = FaultPlan::new(99)
            .with_transient_writes(0.05)
            .with_read_errors(0.02);
        let mut c =
            FlashCache::faulty(cfg, plan, ResilienceConfig::default()).expect("valid config");
        let s = c.run(trace.iter());
        (
            s.misses,
            s.flash_write_bytes,
            s.retries,
            s.device_errors(),
            s.budget_trips,
        )
    };
    assert_eq!(run(), run(), "same seed, same replay, same counters");
}
