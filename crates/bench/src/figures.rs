//! Each table and figure of the paper's evaluation as a function from the
//! scale it runs at (a corpus, a trace, or a request count) to typed
//! results. `repro` prints them at the paper's scale; the root integration
//! tests call the same functions at a smaller one and assert on what they
//! return.

use cache_ds::hist::{summarize, Summary};
use cache_faults::{FaultKind, FaultPlan, Schedule};
use cache_flash::{AdmissionKind, FlashCache, FlashCacheConfig, FlashStats, ResilienceConfig};
use cache_policies::registry::{self, FIG6_ALGORITHMS};
use cache_sim::demotion::{demotion_metrics, lru_mean_eviction_age, DemotionMetrics};
use cache_sim::{
    miss_ratio_curve, per_dataset_means, run_sweep, simulate_named, summarize_reductions,
    CacheSizeSpec, MissRatioCurve, NextAccessOracle, SimConfig, SimResult, SweepRecord, SweepSpec,
};
use cache_trace::analysis::{one_hit_wonder_ratio, sampled_window_ohw, trace_stats, TraceStats};
use cache_trace::corpus::{datasets, msr_like, twitter_like, CorpusConfig, DatasetSpec};
use cache_trace::gen::{loop_trace, two_request_adversarial_mixed, WorkloadSpec};
use cache_trace::sampling::{spatial_sample, SampledTrace};
use cache_trace::Trace;
use cache_types::policy::run_trace;
use cache_types::Request;
use std::collections::BTreeMap;

/// Every trace of the corpus at `cfg`, each with its dataset's name, in
/// dataset order.
pub fn corpus(cfg: &CorpusConfig) -> Vec<(String, Trace)> {
    let named = |ds: &DatasetSpec| ds.traces(cfg).into_iter().map(|t| (ds.name.to_string(), t));
    datasets().iter().flat_map(named).collect()
}

/// Trace 0 of dataset `name`, `requests` long, under corpus seed `seed`.
pub(crate) fn dataset_trace(name: &str, requests: usize, seed: u64) -> Trace {
    let ds = datasets().into_iter().find(|d| d.name == name);
    // Invariant: figures name datasets of Table 1 only.
    let ds = ds.expect("a Table 1 dataset");
    let cfg = CorpusConfig {
        traces_per_dataset: 1,
        requests_per_trace: requests,
        seed,
    };
    ds.trace(&cfg, 0)
}

/// `algorithm` on `trace` at `config`.
fn sim(algorithm: &str, trace: &Trace, config: &SimConfig) -> SimResult {
    simulate_named(algorithm, trace, config)
        // Invariant: figures name registry algorithms, at sizes whose
        // capacity the floor admits.
        .expect("a registry name")
        .expect("an admitted capacity")
}

/// Every one of `algorithms` over every trace of `traces` at `config`.
fn sweep(traces: &[(String, Trace)], algorithms: &[&str], config: SimConfig) -> Vec<SweepRecord> {
    let spec = SweepSpec {
        traces: traces.iter().map(|(d, t)| (d.clone(), t)).collect(),
        algorithms: algorithms.iter().map(|a| a.to_string()).collect(),
        config,
        threads: 0,
    };
    // Invariant: figures sweep registry names only.
    run_sweep(&spec).expect("registry names")
}

/// The path from sweep to percentile table that Fig. 6, Fig. 11, §6.2.2
/// and §6.3 share: each of `algorithms` over the corpus at `config`,
/// summarized as its miss-ratio reduction against FIFO (which must be one
/// of them), best mean first.
fn reductions(
    traces: &[(String, Trace)],
    algorithms: &[&str],
    config: SimConfig,
) -> Vec<(String, Summary)> {
    summarize_reductions(&sweep(traces, algorithms, config), false)
}

/// Table 1: each dataset, with the statistics of each of its corpus traces.
pub fn table1(traces: &[(String, Trace)]) -> Vec<(DatasetSpec, Vec<TraceStats>)> {
    let with_stats = |ds: DatasetSpec| {
        let own = traces.iter().filter(|(d, _)| d == ds.name);
        let stats = own.map(|(_, t)| trace_stats(t, 20, 1)).collect();
        (ds, stats)
    };
    datasets().into_iter().map(with_stats).collect()
}

/// Fig. 2's window lengths, as fractions of the trace's objects.
pub const FIG2_WINDOWS: [f64; 7] = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0];

/// Fig. 2: Zipf traces over `objects` objects of skew 0.6, 0.8, 1.0 and
/// 1.2, then the MSR-like and the Twitter-like trace, each `requests` long;
/// each trace's name and its one-hit-wonder ratio at each of
/// [`FIG2_WINDOWS`].
pub fn fig2(requests: usize, objects: u64) -> Vec<(String, Vec<f64>)> {
    let zipf = |a| WorkloadSpec::zipf(format!("zipf alpha={a}"), requests, objects, a, 7);
    let mut traces: Vec<Trace> = [0.6, 0.8, 1.0, 1.2]
        .iter()
        .map(|&a| zipf(a).generate())
        .collect();
    traces.extend([msr_like(requests, 3), twitter_like(requests, 3)]);
    let ohw = |t: &Trace, window: f64| {
        if window >= 1.0 {
            one_hit_wonder_ratio(t)
        } else {
            sampled_window_ohw(t, window, 30, 42)
        }
    };
    let series = |t: Trace| (t.name.clone(), FIG2_WINDOWS.map(|w| ohw(&t, w)).to_vec());
    traces.into_iter().map(series).collect()
}

/// Fig. 3: the one-hit-wonder ratio of every corpus trace over the full
/// trace and over windows of 50 %, 10 % and 1 % of its objects, each
/// summarized across traces.
pub fn fig3(traces: &[(String, Trace)]) -> [Summary; 4] {
    let mut ratios: [Vec<f64>; 4] = Default::default();
    for (_, t) in traces {
        ratios[0].push(one_hit_wonder_ratio(t));
        for (i, (window, seed)) in [(0.5, 1), (0.1, 2), (0.01, 3)].into_iter().enumerate() {
            ratios[i + 1].push(sampled_window_ohw(t, window, 15, seed));
        }
    }
    ratios.map(|r| summarize(&r))
}

/// Fig. 4: LRU, then Belady, on the Twitter-like and then the MSR-like
/// trace, each `requests` long, at 10 % of the footprint.
pub fn fig4(requests: usize) -> Vec<SimResult> {
    let traces = [twitter_like(requests, 9), msr_like(requests, 9)];
    let runs = traces
        .iter()
        .flat_map(|t| ["LRU", "Belady"].map(|a| (a, t)));
    runs.map(|(a, t)| sim(a, t, &SimConfig::large())).collect()
}

/// Fig. 6: the miss-ratio reduction of every algorithm of
/// [`FIG6_ALGORITHMS`] over the corpus at `config`, best mean first.
pub fn fig6(traces: &[(String, Trace)], config: SimConfig) -> Vec<(String, Summary)> {
    let mut algorithms = FIG6_ALGORITHMS.to_vec();
    algorithms.push("FIFO");
    reductions(traces, &algorithms, config)
}

/// The algorithms Fig. 7 compares, FIFO first as the reference.
pub const FIG7_ALGORITHMS: [&str; 9] = [
    "FIFO",
    "S3-FIFO",
    "TinyLFU",
    "TinyLFU-0.1",
    "LIRS",
    "2Q",
    "ARC",
    "LRU",
    "CLOCK",
];

/// Fig. 7: the mean miss-ratio reduction of each of [`FIG7_ALGORITHMS`] but
/// FIFO, per dataset, at `config`: dataset → algorithm → mean.
pub fn fig7(
    traces: &[(String, Trace)],
    config: SimConfig,
) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut by_dataset: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for (dataset, algorithm, mean) in per_dataset_means(&sweep(traces, &FIG7_ALGORITHMS, config)) {
        by_dataset
            .entry(dataset)
            .or_default()
            .insert(algorithm, mean);
    }
    by_dataset
}

/// Fig. 9: each admission policy at each DRAM fraction over `trace`, with
/// flash and DRAM together 10 % of its footprint: the policy's name, the
/// DRAM fraction, and the run's statistics.
pub fn fig9(trace: &Trace) -> Vec<(&'static str, f64, FlashStats)> {
    let filtered = [
        AdmissionKind::Probabilistic(0.2),
        AdmissionKind::BloomSecondAccess,
        AdmissionKind::FlashieldLike,
        AdmissionKind::SmallFifoTwoAccess,
    ];
    let runs = filtered
        .into_iter()
        .flat_map(|kind| [0.001, 0.01, 0.1].map(|dram| (kind, dram)));
    let total_bytes = (trace.footprint_bytes() / 10).max(1);
    let run = |(admission, dram_fraction)| {
        let config = FlashCacheConfig {
            total_bytes,
            dram_fraction,
            admission,
        };
        // Invariant: every DRAM fraction here is in (0, 1).
        let mut c = FlashCache::new(config).expect("a valid config");
        let stats = c.run(trace.iter());
        (c.admission_name(), dram_fraction, stats)
    };
    let write_all = (AdmissionKind::WriteAll, 0.01);
    std::iter::once(write_all).chain(runs).map(run).collect()
}

/// The small-queue sizes Fig. 10, Fig. 11 and Table 2 sweep, as fractions
/// of the cache.
pub const S_SIZES: [f64; 7] = [0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.40];

/// One panel of Fig. 10.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Cache size in objects.
    pub capacity: u64,
    /// LRU's mean eviction age at that size, the speed normalizer.
    pub lru_age: f64,
    /// ARC, then TinyLFU and S3-FIFO at each of [`S_SIZES`]: family, small
    /// queue size (`None`: adaptive), and metrics.
    pub rows: Vec<(&'static str, Option<f64>, DemotionMetrics)>,
}

/// Fig. 10: quick-demotion speed and precision on `trace` at `config`.
pub fn fig10(trace: &Trace, config: SimConfig) -> Fig10 {
    let capacity = config.capacity_for(trace);
    let oracle = NextAccessOracle::new(trace.iter());
    let lru_age = lru_mean_eviction_age(trace, capacity);
    let metrics = |name: &str| {
        // Invariant: ARC and the families' `Name(s)` forms are registry names.
        demotion_metrics(name, trace, capacity, lru_age, &oracle).expect("a registry name")
    };
    let mut rows = vec![("ARC", None, metrics("ARC"))];
    for family in ["TinyLFU", "S3-FIFO"] {
        for s in S_SIZES {
            rows.push((family, Some(s), metrics(&format!("{family}({s})"))));
        }
    }
    Fig10 {
        capacity,
        lru_age,
        rows,
    }
}

/// Fig. 11: S3-FIFO's miss-ratio reduction at each of [`S_SIZES`] over the
/// corpus at `config`, by algorithm name.
pub fn fig11(traces: &[(String, Trace)], config: SimConfig) -> Vec<(String, Summary)> {
    let names: Vec<String> = S_SIZES.iter().map(|s| format!("S3-FIFO({s})")).collect();
    let mut algorithms = vec!["FIFO"];
    algorithms.extend(names.iter().map(String::as_str));
    let mut sums = reductions(traces, &algorithms, config);
    sums.sort_by(|a, b| a.0.cmp(&b.0));
    sums
}

/// Table 2: the miss ratio on `trace` at `config` of ARC, of LRU, and of
/// TinyLFU (by its window) and S3-FIFO (by its small queue) at each of
/// [`S_SIZES`], largest first.
pub fn table2(trace: &Trace, config: SimConfig) -> (f64, f64, [(&'static str, Vec<f64>); 2]) {
    let mr = |name: &str| sim(name, trace, &config).miss_ratio;
    let sized = |family| {
        let names = S_SIZES.iter().rev().map(|s| format!("{family}({s})"));
        (family, names.map(|name| mr(&name)).collect())
    };
    (mr("ARC"), mr("LRU"), ["TinyLFU", "S3-FIFO"].map(sized))
}

/// §6.2.2: static S3-FIFO against adaptive S3-FIFO-D over the corpus at
/// the large size.
pub fn adaptive(traces: &[(String, Trace)]) -> Vec<(String, Summary)> {
    let algorithms = ["FIFO", "S3-FIFO", "S3-FIFO-D"];
    reductions(traces, &algorithms, SimConfig::large())
}

/// §6.3 and §7: queue-type variants of S3-FIFO, and ARC, over the corpus at
/// the large size.
pub fn queue_type(traces: &[(String, Trace)]) -> Vec<(String, Summary)> {
    let variants = [
        "FIFO",
        "S3-FIFO",       // S=FIFO, M=FIFO (the paper's design)
        "QDLP-LRU-FIFO", // S=LRU
        "QDLP-FIFO-LRU", // M=LRU
        "QDLP-LRU-LRU",  // both LRU (ARC-like data queues)
        "S3-FIFO-Sieve", // M=SIEVE (§7)
        "ARC",
    ];
    reductions(traces, &variants, SimConfig::large())
}

/// The algorithms §5.2's adversarial pattern is run through.
pub const TWO_REQUEST_ALGORITHMS: [&str; 6] =
    ["FIFO", "LRU", "S3-FIFO", "TinyLFU-0.1", "2Q", "S3-FIFO-D"];

/// The cache §5.2's adversarial pattern is run at, in objects.
pub const TWO_REQUEST_CACHE: u64 = 2000;

/// §5.2's adversarial pattern over `objects` objects: each requested
/// exactly twice, `gap` pairs apart, over a hot set of 90 % of the cache
/// that keeps M populated, so S really is squeezed to 10 % (see
/// `cache_trace::gen`). Each of [`TWO_REQUEST_ALGORITHMS`] with its miss
/// ratio.
pub fn two_request(objects: u64, gap: u64) -> Vec<(&'static str, f64)> {
    let hot = TWO_REQUEST_CACHE * 9 / 10;
    let trace = two_request_adversarial_mixed(format!("gap-{gap}"), objects, gap, hot);
    let config = SimConfig {
        size: CacheSizeSpec::Bytes(TWO_REQUEST_CACHE),
        ignore_size: true,
        min_objects: 0,
        floor_objects: 0,
    };
    let run = |a| (a, sim(a, &trace, &config).miss_ratio);
    TWO_REQUEST_ALGORITHMS.map(run).to_vec()
}

/// The capacities the §6.2.3 miss-ratio curves are drawn at, in objects.
pub const MRC_CAPACITIES: [u64; 6] = [200, 500, 1000, 1800, 2500, 4000];

/// §6.2.3: LRU's and S3-FIFO's miss-ratio curves (their convexity is what
/// adaptive algorithms assume) on a Zipf trace, a loop and the MSR-like
/// trace, the first and last `requests` long, each with its trace's label.
pub fn mrc_curves(requests: usize) -> Vec<(&'static str, MissRatioCurve)> {
    let traces = [
        (mrc_zipf(requests), "zipf(1.0)"),
        (loop_trace("loop", 2000, 40), "loop-2000"),
        (msr_like(requests, 3), "msr-like"),
    ];
    let runs = traces
        .iter()
        .flat_map(|t| ["LRU", "S3-FIFO"].map(|a| (a, t)));
    let curve = |(algorithm, (trace, label)): (&str, &(Trace, &'static str))| {
        // Invariant: registry names, a non-empty grid, and a full trace.
        let curve = miss_ratio_curve(algorithm, trace, &MRC_CAPACITIES, 1.0).expect("a curve");
        (*label, curve)
    };
    runs.map(curve).collect()
}

/// §6.2.3's Zipf trace.
fn mrc_zipf(requests: usize) -> Trace {
    WorkloadSpec::zipf("zipf", requests, 20_000, 1.0, 3).generate()
}

/// §6.2.3: LRU, S3-FIFO and ARC at 2000 objects on the Zipf trace of
/// [`mrc_curves`]: the full miss ratio, and a SHARDS miniature's at
/// sampling rates 0.5, 0.2 and 0.1.
pub fn sampling(requests: usize) -> Vec<(&'static str, f64, Vec<f64>)> {
    let zipf = mrc_zipf(requests);
    let miss_ratio = |algorithm, capacity, trace: &Trace, domain: Option<&[Request]>| {
        // Invariant: registry names at a positive capacity.
        let mut policy = registry::build(algorithm, capacity, domain).expect("a registry name");
        run_trace(policy.as_mut(), &trace.to_requests()).miss_ratio()
    };
    let run = |algorithm| {
        let full = miss_ratio(algorithm, 2000, &zipf, Some(&zipf.to_requests()));
        let sampled = [0.5, 0.2, 0.1].map(|rate| spatial_sample(&zipf, rate, 0xAB));
        let mini = |s: &SampledTrace| miss_ratio(algorithm, s.scale_capacity(2000), &s.trace, None);
        (algorithm, full, sampled.iter().map(mini).collect())
    };
    ["LRU", "S3-FIFO", "ARC"].map(run).to_vec()
}

/// A fault plan at `rate`: the full taxonomy, weighted toward the common
/// case (transient writes), with a burst component so the error budget
/// actually gets exercised at the higher rates.
fn plan_for(rate: f64) -> FaultPlan {
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

/// Fault resilience: `trace` through the two-tier flash cache (S3-FIFO
/// admission, 1 % DRAM, 10 % of the footprint) without faults (rate 0),
/// then at fault rates from 0.1 % to 50 % with retry and the error budget
/// in place; each run's fault rate and statistics.
///
/// # Panics
///
/// When a run's byte accounting is not exact.
pub fn fault_resilience(trace: &Trace) -> Vec<(f64, FlashStats)> {
    let config = FlashCacheConfig {
        total_bytes: (trace.footprint_bytes() / 10).max(1),
        dram_fraction: 0.01,
        admission: AdmissionKind::SmallFifoTwoAccess,
    };
    // Invariant: the DRAM fraction above is in (0, 1).
    let mut base = FlashCache::new(config).expect("a valid config");
    let mut runs = vec![(0.0, base.run(trace.iter()))];
    assert!(base.verify_accounting(), "accounting must be exact");
    for rate in [0.001, 0.01, 0.05, 0.2, 0.5] {
        let c = FlashCache::faulty(config, plan_for(rate), ResilienceConfig::default());
        // Invariant: as above.
        let mut c = c.expect("a valid config");
        runs.push((rate, c.run(trace.iter())));
        assert!(c.verify_accounting(), "accounting must survive faults");
    }
    runs
}
