//! Fault resilience: replays a synthetic CDN corpus through the two-tier
//! flash cache under escalating device-fault rates and reports the miss
//! ratio and write-amplification deltas against the fault-free baseline,
//! plus the resilience machinery's own counters (retries, budget trips,
//! recoveries, degraded ops).
//!
//! The point of the table: with retry + error-budget degradation in place,
//! low fault rates (<= 1%) should cost close to nothing — miss ratio within
//! a couple of points of fault-free — while high fault rates degrade
//! *gracefully* (DRAM keeps serving; no panics, no corruption served).
//!
//! Run: `cargo run --release -p cache-bench --bin fault_resilience`
//!
//! Knobs: `CORPUS_REQUESTS` (default 150 000) scales the trace length.

use cache_bench::{banner, f3, print_table, requests_from_env};
use cache_faults::{FaultKind, FaultPlan, Schedule};
use cache_flash::{AdmissionKind, FlashCache, FlashCacheConfig, ResilienceConfig};
use cache_trace::corpus::{datasets, CorpusConfig};
use cache_trace::Trace;

fn corpus_trace(seed: u64) -> Trace {
    let requests = requests_from_env();
    let ds = datasets()
        .into_iter()
        .find(|d| d.name == "cdn1")
        .unwrap_or_else(|| {
            datasets()
                .into_iter()
                .next()
                .expect("corpus has at least one dataset")
        });
    let cfg = CorpusConfig {
        traces_per_dataset: 1,
        requests_per_trace: requests,
        seed,
    };
    ds.trace(&cfg, 0)
}

fn plan_for(rate: f64) -> FaultPlan {
    // The escalation mixes the full taxonomy, weighted toward the common
    // case (transient writes), with a burst component so the error budget
    // actually gets exercised at the higher rates.
    FaultPlan::new(0xFA17)
        .with(FaultKind::TransientWrite, Schedule::Constant(rate))
        .with(FaultKind::ReadError, Schedule::Constant(rate / 4.0))
        .with(FaultKind::Corruption, Schedule::Constant(rate / 10.0))
        .with(
            FaultKind::DeviceFull,
            Schedule::Burst {
                period: 50_000,
                burst_len: 2_000,
                inside: rate * 5.0,
                outside: 0.0,
            },
        )
}

fn main() {
    let trace = corpus_trace(0xC0FFEE);
    let cfg = FlashCacheConfig {
        total_bytes: (trace.footprint_bytes() / 10).max(1),
        dram_fraction: 0.01,
        admission: AdmissionKind::SmallFifoTwoAccess,
    };
    let unique = trace.footprint_bytes();

    banner(&format!(
        "Fault resilience: {} ({} requests, S3-FIFO admission, 1% DRAM)",
        trace.name,
        trace.requests.len()
    ));

    let mut base = FlashCache::new(cfg).expect("valid config");
    let baseline = base.run(&trace.requests);
    assert!(base.verify_accounting(), "baseline accounting must be exact");

    let mut rows = vec![vec![
        "0 (none)".to_string(),
        f3(baseline.miss_ratio()),
        "+0.000".to_string(),
        f3(baseline.normalized_write_bytes(unique)),
        "+0.000".to_string(),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".into(),
    ]];

    for rate in [0.001, 0.01, 0.05, 0.2, 0.5] {
        let mut c = FlashCache::faulty(cfg, plan_for(rate), ResilienceConfig::default())
            .expect("valid config");
        let s = c.run(&trace.requests);
        assert!(c.verify_accounting(), "accounting must survive faults");
        rows.push(vec![
            format!("{:.1}%", rate * 100.0),
            f3(s.miss_ratio()),
            format!("{:+.3}", s.miss_ratio() - baseline.miss_ratio()),
            f3(s.normalized_write_bytes(unique)),
            format!(
                "{:+.3}",
                s.normalized_write_bytes(unique) - baseline.normalized_write_bytes(unique)
            ),
            s.retries.to_string(),
            s.budget_trips.to_string(),
            s.budget_recoveries.to_string(),
            s.degraded_ops.to_string(),
        ]);
    }

    print_table(
        &[
            "fault rate",
            "miss ratio",
            "Δ miss",
            "write bytes (norm.)",
            "Δ writes",
            "retries",
            "trips",
            "recoveries",
            "degraded ops",
        ],
        &rows,
    );
    println!(
        "\nΔ is relative to the fault-free baseline. Retry absorbs transient\n\
         faults at low rates; at high rates the error budget trips and the\n\
         cache degrades to DRAM-only (higher miss ratio, near-zero writes)\n\
         instead of failing."
    );
}
