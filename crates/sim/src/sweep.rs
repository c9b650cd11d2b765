//! Parallel (trace × algorithm × size) sweeps and the paper's
//! miss-ratio-reduction aggregation.
//!
//! §5.1.2 defines the headline metric: the *miss ratio reduction* of an
//! algorithm relative to FIFO, `(MR_fifo − MR_algo) / MR_fifo`, with the
//! negated inverse when the algorithm is worse so values stay in `[-1, 1]`.

use crate::engine::{Replay, SimConfig};
use cache_ds::hist::{summarize, Summary};
use cache_trace::Trace;
use cache_types::CacheError;

/// One (trace, algorithm, size) measurement.
#[derive(Debug, Clone)]
pub struct SweepRecord {
    /// Dataset the trace belongs to (empty when standalone).
    pub dataset: String,
    /// Trace name.
    pub trace: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Resolved capacity.
    pub capacity: u64,
    /// Request miss ratio.
    pub miss_ratio: f64,
    /// Byte miss ratio.
    pub byte_miss_ratio: f64,
    /// Fraction of evicted objects that were one-hit wonders.
    pub one_hit_eviction_fraction: f64,
}

/// A sweep: every algorithm against every (dataset, trace) pair.
#[derive(Debug)]
pub struct SweepSpec<'a> {
    /// `(dataset name, trace)` pairs.
    pub traces: Vec<(String, &'a Trace)>,
    /// Algorithm names (see `cache_policies::registry`).
    pub algorithms: Vec<String>,
    /// Simulation configuration (size derivation, unit sizes).
    pub config: SimConfig,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}

/// Runs the sweep on a scoped worker pool, one job per (trace, algorithm)
/// pair.
///
/// The first failing job raises a shared abort flag; every worker checks it
/// before claiming the next job, so one bad algorithm name cancels the whole
/// sweep instead of letting the remaining workers grind through their
/// queues. In-flight jobs still finish — abort is a claim barrier, not a
/// cancellation of running work. When this returns `Ok`, every job ran, so
/// the records are never silently partial.
///
/// # Errors
///
/// Returns the first simulation error (unknown algorithm, bad parameter).
// ORDERING: Relaxed throughout — `next` needs only RMW atomicity to hand
// out unique job indices and `abort` is an advisory stop flag; all result
// hand-off is ordered by the mutex and the scope join.
pub fn run_sweep(spec: &SweepSpec<'_>) -> Result<Vec<SweepRecord>, CacheError> {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;
    let jobs: Vec<(usize, &str)> = (0..spec.traces.len())
        .flat_map(|t| spec.algorithms.iter().map(move |name| (t, name.as_str())))
        .collect();
    let threads = match spec.threads {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    };
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // Every record so far, or the first error.
    let outcome: Mutex<Result<Vec<SweepRecord>, CacheError>> = Mutex::new(Ok(Vec::new()));

    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs.len().max(1)) {
            scope.spawn(|| {
                while !abort.load(Ordering::Relaxed) {
                    let Some(&(t, name)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let (dataset, trace) = &spec.traces[t];
                    let job = run_job(dataset, trace, name, &spec.config);
                    let mut outcome = outcome.lock().unwrap_or_else(|e| e.into_inner());
                    match (&mut *outcome, job) {
                        (Ok(records), Ok(more)) => records.extend(more),
                        (Ok(_), Err(e)) => {
                            *outcome = Err(e);
                            abort.store(true, Ordering::Relaxed);
                        }
                        (Err(_), _) => {}
                    }
                }
            });
        }
    });

    let mut out = outcome.into_inner().unwrap_or_else(|e| e.into_inner())?;
    // Deterministic order regardless of worker interleaving.
    out.sort_by(|x, y| {
        (&x.dataset, &x.trace, &x.algorithm).cmp(&(&y.dataset, &y.trace, &y.algorithm))
    });
    Ok(out)
}

/// One work unit: `name` over `trace`. `None` when the `min_objects` rule
/// excludes the configuration.
fn run_job(
    dataset: &str,
    trace: &Trace,
    name: &str,
    cfg: &SimConfig,
) -> Result<Option<SweepRecord>, CacheError> {
    let Some(capacity) = cfg.admitted_capacity(trace) else {
        return Ok(None);
    };
    let (r, _) = Replay::on_trace(name, trace, capacity)?
        .ignore_size(cfg.ignore_size)
        .run(trace);
    // Records carry the registry name they were requested under, not the
    // policy's display name.
    Ok(Some(SweepRecord {
        dataset: dataset.to_string(),
        trace: trace.name.clone(),
        algorithm: name.to_string(),
        capacity: r.capacity,
        miss_ratio: r.miss_ratio,
        byte_miss_ratio: r.byte_miss_ratio,
        one_hit_eviction_fraction: r.one_hit_eviction_fraction,
    }))
}

/// The paper's bounded miss-ratio-reduction metric (§5.1.2).
pub fn miss_ratio_reduction(mr_fifo: f64, mr_algo: f64) -> f64 {
    if mr_fifo <= 0.0 && mr_algo <= 0.0 {
        return 0.0;
    }
    if mr_algo <= mr_fifo {
        (mr_fifo - mr_algo) / mr_fifo.max(1e-12)
    } else {
        -((mr_algo - mr_fifo) / mr_algo.max(1e-12))
    }
}

/// Groups sweep records per algorithm, computes each trace's reduction
/// against that trace's FIFO record, and summarizes percentiles (Fig. 6).
/// Uses `byte` miss ratios when `byte` is true (§5.2.3).
///
/// Traces missing a FIFO baseline are skipped. Returns
/// `(algorithm, Summary)` pairs sorted by mean reduction, best first.
pub fn summarize_reductions(records: &[SweepRecord], byte: bool) -> Vec<(String, Summary)> {
    use std::collections::BTreeMap;
    let mr = |r: &SweepRecord| {
        if byte {
            r.byte_miss_ratio
        } else {
            r.miss_ratio
        }
    };
    let mut fifo: BTreeMap<(String, String), f64> = BTreeMap::new();
    for r in records {
        if r.algorithm == "FIFO" {
            fifo.insert((r.dataset.clone(), r.trace.clone()), mr(r));
        }
    }
    let mut per_algo: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in records {
        if r.algorithm == "FIFO" {
            continue;
        }
        let Some(&base) = fifo.get(&(r.dataset.clone(), r.trace.clone())) else {
            continue;
        };
        per_algo
            .entry(r.algorithm.clone())
            .or_default()
            .push(miss_ratio_reduction(base, mr(r)));
    }
    let mut out: Vec<(String, Summary)> = per_algo
        .into_iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(a, v)| (a, summarize(&v)))
        .collect();
    // Invariant: miss ratios are finite, so means are never NaN.
    out.sort_by(|a, b| b.1.mean.partial_cmp(&a.1.mean).expect("no NaN"));
    out
}

/// Mean reduction per (dataset, algorithm) — the Fig. 7 view.
pub fn per_dataset_means(records: &[SweepRecord]) -> Vec<(String, String, f64)> {
    use std::collections::BTreeMap;
    let mut fifo: BTreeMap<(String, String), f64> = BTreeMap::new();
    for r in records {
        if r.algorithm == "FIFO" {
            fifo.insert((r.dataset.clone(), r.trace.clone()), r.miss_ratio);
        }
    }
    let mut acc: BTreeMap<(String, String), (f64, usize)> = BTreeMap::new();
    for r in records {
        if r.algorithm == "FIFO" {
            continue;
        }
        let Some(&base) = fifo.get(&(r.dataset.clone(), r.trace.clone())) else {
            continue;
        };
        let e = acc
            .entry((r.dataset.clone(), r.algorithm.clone()))
            .or_insert((0.0, 0));
        e.0 += miss_ratio_reduction(base, r.miss_ratio);
        e.1 += 1;
    }
    acc.into_iter()
        .map(|((d, a), (sum, n))| (d, a, sum / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_trace::gen::WorkloadSpec;

    #[test]
    fn reduction_formula_matches_paper() {
        assert!((miss_ratio_reduction(0.5, 0.4) - 0.2).abs() < 1e-12);
        // Worse than FIFO: negated inverse, bounded by -1.
        assert!((miss_ratio_reduction(0.4, 0.5) + 0.2).abs() < 1e-12);
        assert_eq!(miss_ratio_reduction(0.5, 0.5), 0.0);
        assert!(miss_ratio_reduction(1e-9, 1.0) >= -1.0);
        assert!(miss_ratio_reduction(1.0, 0.0) <= 1.0);
        assert_eq!(miss_ratio_reduction(0.0, 0.0), 0.0);
    }

    #[test]
    fn sweep_runs_all_combinations() {
        let t1 = WorkloadSpec::zipf("t1", 5000, 500, 1.0, 1).generate();
        let t2 = WorkloadSpec::zipf("t2", 5000, 500, 0.8, 2).generate();
        let spec = SweepSpec {
            traces: vec![("d1".into(), &t1), ("d1".into(), &t2)],
            algorithms: vec!["FIFO".into(), "LRU".into(), "S3-FIFO".into()],
            config: SimConfig::large(),
            threads: 2,
        };
        let records = run_sweep(&spec).unwrap();
        assert_eq!(records.len(), 6);
        // Deterministic ordering.
        let again = run_sweep(&spec).unwrap();
        let names: Vec<_> = records
            .iter()
            .map(|r| (r.trace.clone(), r.algorithm.clone()))
            .collect();
        let names2: Vec<_> = again
            .iter()
            .map(|r| (r.trace.clone(), r.algorithm.clone()))
            .collect();
        assert_eq!(names, names2);
        for (a, b) in records.iter().zip(again.iter()) {
            assert_eq!(a.miss_ratio, b.miss_ratio, "sweep must be reproducible");
        }
        // Nor does the output depend on the worker count.
        let bits = |threads| {
            let spec = SweepSpec {
                traces: spec.traces.clone(),
                algorithms: spec.algorithms.clone(),
                threads,
                ..spec
            };
            run_sweep(&spec)
                .unwrap()
                .iter()
                .map(|r| (r.trace.clone(), r.algorithm.clone(), r.miss_ratio.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(1), bits(3));
    }

    #[test]
    fn summaries_rank_s3fifo_above_lru_on_skew() {
        let traces: Vec<Trace> = (0..4)
            .map(|i| WorkloadSpec::zipf(format!("t{i}"), 20_000, 2000, 1.0, i as u64).generate())
            .collect();
        let spec = SweepSpec {
            traces: traces.iter().map(|t| ("d".to_string(), t)).collect(),
            algorithms: vec!["FIFO".into(), "LRU".into(), "S3-FIFO".into()],
            config: SimConfig::large(),
            threads: 0,
        };
        let records = run_sweep(&spec).unwrap();
        let sums = summarize_reductions(&records, false);
        let pos = |name: &str| sums.iter().position(|(a, _)| a == name).unwrap();
        assert!(
            pos("S3-FIFO") < pos("LRU"),
            "S3-FIFO should rank above LRU: {sums:?}"
        );
        // Reductions vs FIFO must be positive for S3-FIFO here.
        assert!(sums[pos("S3-FIFO")].1.mean > 0.0);
    }

    #[test]
    fn sweep_aborts_on_first_error() {
        let t1 = WorkloadSpec::zipf("t1", 1000, 100, 1.0, 1).generate();
        let spec = SweepSpec {
            traces: vec![("d1".into(), &t1)],
            algorithms: vec!["NOT-AN-ALGORITHM".into(), "FIFO".into(), "LRU".into()],
            config: SimConfig::large(),
            threads: 1,
        };
        // One worker hits the bad name first, raises the abort flag, and the
        // remaining jobs are never claimed.
        let err = run_sweep(&spec).unwrap_err();
        assert!(format!("{err}").contains("NOT-AN-ALGORITHM"), "{err}");
    }

    /// The paper's `min_objects` exclusion yields no records and no error.
    #[test]
    fn min_objects_skip_yields_no_records() {
        let t1 = WorkloadSpec::zipf("tiny", 2000, 100, 1.0, 9).generate();
        let spec = SweepSpec {
            traces: vec![("d1".into(), &t1)],
            algorithms: vec!["FIFO".into(), "LRU".into()],
            config: SimConfig {
                size: crate::engine::CacheSizeSpec::FractionOfObjects(0.001),
                ignore_size: true,
                min_objects: 1000,
                floor_objects: 0,
            },
            threads: 1,
        };
        assert!(run_sweep(&spec).unwrap().is_empty());
    }

    #[test]
    fn per_dataset_means_shape() {
        let t1 = WorkloadSpec::zipf("t1", 5000, 500, 1.0, 1).generate();
        let spec = SweepSpec {
            traces: vec![("d1".into(), &t1)],
            algorithms: vec!["FIFO".into(), "LRU".into()],
            config: SimConfig::large(),
            threads: 1,
        };
        let records = run_sweep(&spec).unwrap();
        let means = per_dataset_means(&records);
        assert_eq!(means.len(), 1);
        assert_eq!(means[0].0, "d1");
        assert_eq!(means[0].1, "LRU");
    }
}
