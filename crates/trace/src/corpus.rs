//! A synthetic 14-dataset corpus mirroring Table 1 of the paper.
//!
//! Each [`DatasetSpec`] stands in for one of the paper's trace collections
//! (MSR, Twitter, Tencent CBS, …). The knobs — Zipf skew, the
//! requests-per-object ratio, the one-hit-wonder stream, scan intensity, and
//! temporal locality — are hand-tuned so that the *shape* statistics the
//! paper reports (full-trace vs. windowed one-hit-wonder ratios, block
//! traces being scan-heavy, KV traces being skewed with low OHW) are
//! reproduced. Absolute trace sizes are scaled down by [`CorpusConfig`] so a
//! full sweep runs on one machine; per-trace seeds make everything
//! deterministic.

use crate::gen::{SizeModel, WorkloadSpec};
use crate::Trace;
use cache_ds::rng::mix64;

/// Which kind of cache the dataset was collected from (Table 1's "Cache
/// type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheType {
    /// Block storage trace (MSR, FIU, CloudPhysics, Systor, Tencent CBS,
    /// Alibaba).
    Block,
    /// CDN / object cache trace (CDN 1/2, Tencent Photo, WikiMedia, Meta
    /// CDN).
    Object,
    /// In-memory key-value cache trace (Twitter, Social Network, Meta KV).
    Kv,
}

impl CacheType {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CacheType::Block => "block",
            CacheType::Object => "object",
            CacheType::Kv => "kv",
        }
    }
}

/// Generator parameters for one of the fourteen datasets.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name (matching Table 1).
    pub name: &'static str,
    /// Cache type.
    pub cache_type: CacheType,
    /// Zipf skew of the popularity core.
    pub alpha: f64,
    /// Requests per distinct core object (Table 1's #Request / #Object).
    pub requests_per_object: f64,
    /// Fraction of requests belonging to sequential scans.
    pub scan_fraction: f64,
    /// Scan run length.
    pub scan_len: u64,
    /// Recency boost for the core (block traces have strong locality).
    pub temporal_bias: f64,
    /// Core-object turnover over the whole trace, as a fraction of the core
    /// footprint (KV/object caches see constant new-content churn; §6.1).
    pub churn_turnover: f64,
    /// Object size model.
    pub size_model: SizeModel,
    /// Paper-reported one-hit-wonder ratios (full, 10 %, 1 %) from Table 1,
    /// kept for the Table 1 reproduction to print alongside measurements.
    pub paper_ohw: (f64, f64, f64),
}

/// Scale of the generated corpus.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Traces generated per dataset (the paper has 2–4030 per dataset; we
    /// default to a uniform small number).
    pub traces_per_dataset: usize,
    /// Requests per trace.
    pub requests_per_trace: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            traces_per_dataset: 4,
            requests_per_trace: 200_000,
            seed: 0xC0FFEE,
        }
    }
}

impl CorpusConfig {
    /// A tiny corpus for unit tests (2 traces × 20 k requests per dataset).
    pub fn small() -> Self {
        CorpusConfig {
            traces_per_dataset: 2,
            requests_per_trace: 20_000,
            seed: 0xC0FFEE,
        }
    }
}

/// Poisson-approximation estimate of a Zipf IRM core: returns the expected
/// number of objects requested exactly once and the expected number of
/// objects requested at least once, given `m` objects, skew `alpha`, and
/// `requests` total core requests.
fn zipf_core_estimate(m: u64, alpha: f64, requests: f64) -> (f64, f64) {
    let m = m.max(1);
    let mut h = 0.0f64;
    for i in 1..=m {
        h += 1.0 / (i as f64).powf(alpha);
    }
    let mut one_hit = 0.0f64;
    let mut seen = 0.0f64;
    for i in 1..=m {
        let lambda = requests / ((i as f64).powf(alpha) * h);
        let e = (-lambda).exp();
        one_hit += lambda * e;
        seen += 1.0 - e;
    }
    (one_hit, seen)
}

impl DatasetSpec {
    /// Computes the fraction of requests that must go to fresh one-hit
    /// objects so the full-trace one-hit-wonder ratio lands near the
    /// dataset's Table 1 value, via a short fixed-point iteration over the
    /// Poisson estimate of the Zipf core.
    fn calibrate_fresh_fraction(&self, n: f64, rpo: f64, alpha: f64, scan_objs: f64) -> f64 {
        let target = self.paper_ohw.0;
        let s = self.scan_fraction;
        let mut f = 0.01f64;
        for _ in 0..6 {
            let core_reqs = (n * (1.0 - f - s)).max(1.0);
            let m = ((core_reqs / rpo).round() as u64).max(100);
            let (core_ones, core_seen) = zipf_core_estimate(m, alpha, core_reqs);
            // Solve (F + core_ones) / (F + core_seen + scan_objs) = target.
            let fresh = ((target * (core_seen + scan_objs) - core_ones) / (1.0 - target)).max(0.0);
            f = (fresh / n).clamp(0.0, (0.8 - s).max(0.0));
        }
        f
    }

    /// Refines the analytically calibrated fresh fraction with one secant
    /// step against a small generated probe, correcting for effects the
    /// Poisson model ignores (the recency boost steals IRM draws from the
    /// tail, inflating core one-hit wonders).
    fn refine_fresh_fraction(&self, spec: &WorkloadSpec, rpo: f64, target: f64) -> f64 {
        let probe_requests = spec.requests.min(25_000);
        let probe = |f: f64| -> f64 {
            let core_requests = probe_requests as f64 * (1.0 - f - self.scan_fraction);
            let objects = ((core_requests / rpo).round() as u64).max(100);
            let mut p = spec.clone();
            p.requests = probe_requests;
            p.zipf_objects = objects;
            p.one_hit_fraction = f;
            p.scan_space = ((objects as f64 * 1.5) as u64).max(p.scan_len * 4);
            // Churn is defined as turnover over the whole trace; rescale it
            // to the probe's shorter length and smaller core.
            p.churn_per_request = self.churn_turnover * objects as f64 / probe_requests as f64;
            crate::analysis::one_hit_wonder_ratio(&p.generate())
        };
        let cap = (0.7 - self.scan_fraction).max(0.0);
        let mut f_prev = spec.one_hit_fraction;
        let mut y_prev = probe(f_prev);
        if (y_prev - target).abs() < 0.03 {
            return f_prev;
        }
        // Second point: nudge toward the needed direction, then take up to
        // three secant steps.
        let mut f_cur = if y_prev > target {
            (f_prev * 0.4).max(0.001)
        } else {
            (f_prev + 0.05).min(cap)
        };
        for _ in 0..5 {
            let y_cur = probe(f_cur);
            if (y_cur - target).abs() < 0.03 || (y_cur - y_prev).abs() < 1e-6 {
                return f_cur;
            }
            let f_next =
                (f_cur + (target - y_cur) * (f_cur - f_prev) / (y_cur - y_prev)).clamp(0.0, cap);
            f_prev = f_cur;
            y_prev = y_cur;
            f_cur = f_next;
        }
        f_cur
    }

    /// Generates trace `idx` of this dataset under `cfg`. Traces within a
    /// dataset vary in seed, skew (±0.05·idx jitter), and footprint so the
    /// dataset is a distribution, not `n` copies of one trace.
    pub fn trace(&self, cfg: &CorpusConfig, idx: usize) -> Trace {
        let seed = mix64(cfg.seed ^ mix64(self.name.len() as u64) ^ hash_name(self.name))
            .wrapping_add(idx as u64);
        let jitter = 1.0 + 0.15 * ((idx % 5) as f64 - 2.0) / 2.0; // 0.85..1.15
        let rpo = (self.requests_per_object * jitter).max(1.2);
        let alpha = (self.alpha + 0.05 * ((idx % 3) as f64 - 1.0)).max(0.1);
        let n = cfg.requests_per_trace as f64;
        // Rough scan-object count mirrors the scan_space choice below.
        let pre_objects = (n * (1.0 - self.scan_fraction) / rpo).max(100.0);
        let scan_objs = if self.scan_fraction > 0.0 {
            // Scans sweep a space comparable to the core footprint, so a
            // block is touched roughly once per sweep (real storage scans
            // are one-touch within a pass).
            (pre_objects * 1.5).max(self.scan_len as f64 * 4.0)
        } else {
            0.0
        };
        let one_hit_fraction = self.calibrate_fresh_fraction(n, rpo, alpha, scan_objs);
        let core_requests = n * (1.0 - one_hit_fraction - self.scan_fraction);
        let objects = ((core_requests / rpo).round() as u64).max(100);
        let mut spec = WorkloadSpec {
            name: format!("{}/t{idx:02}", self.name),
            requests: cfg.requests_per_trace,
            zipf_objects: objects,
            alpha,
            one_hit_fraction,
            scan_fraction: self.scan_fraction,
            scan_len: self.scan_len,
            scan_space: ((objects as f64 * 1.5) as u64).max(self.scan_len * 4),
            temporal_bias: self.temporal_bias,
            churn_per_request: self.churn_turnover * objects as f64 / n,
            delete_fraction: 0.0,
            size_model: self.size_model,
            seed,
        };
        // One empirical refinement pass against the Table 1 target.
        let refined = self.refine_fresh_fraction(&spec, rpo, self.paper_ohw.0);
        if (refined - spec.one_hit_fraction).abs() > 1e-9 {
            let core_requests = n * (1.0 - refined - self.scan_fraction);
            let objects = ((core_requests / rpo).round() as u64).max(100);
            spec.one_hit_fraction = refined;
            spec.zipf_objects = objects;
            spec.scan_space = ((objects as f64 * 1.5) as u64).max(self.scan_len * 4);
            spec.churn_per_request = self.churn_turnover * objects as f64 / n;
        }
        spec.generate()
    }

    /// Generates every trace of this dataset under `cfg`.
    pub fn traces(&self, cfg: &CorpusConfig) -> Vec<Trace> {
        (0..cfg.traces_per_dataset)
            .map(|i| self.trace(cfg, i))
            .collect()
    }
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0u64, |acc, b| mix64(acc ^ u64::from(b)))
}

/// The fourteen dataset specifications of Table 1.
pub fn datasets() -> Vec<DatasetSpec> {
    use CacheType::*;
    let block_sizes = SizeModel::Fixed(4096);
    let kv_sizes = SizeModel::Uniform { min: 64, max: 1024 };
    let cdn_sizes = SizeModel::Pareto {
        min: 1024,
        shape: 1.8,
        cap: 8 << 20,
    };
    vec![
        DatasetSpec {
            name: "msr",
            cache_type: Block,
            alpha: 0.8,
            requests_per_object: 5.5,
            scan_fraction: 0.15,
            scan_len: 200,
            temporal_bias: 0.30,
            churn_turnover: 0.2,
            size_model: block_sizes,
            paper_ohw: (0.56, 0.74, 0.86),
        },
        DatasetSpec {
            name: "fiu",
            cache_type: Block,
            alpha: 0.9,
            requests_per_object: 25.0,
            scan_fraction: 0.10,
            scan_len: 500,
            temporal_bias: 0.35,
            churn_turnover: 0.2,
            size_model: block_sizes,
            paper_ohw: (0.28, 0.91, 0.91),
        },
        DatasetSpec {
            name: "cloudphysics",
            cache_type: Block,
            alpha: 0.85,
            requests_per_object: 4.3,
            scan_fraction: 0.12,
            scan_len: 300,
            temporal_bias: 0.30,
            churn_turnover: 0.2,
            size_model: block_sizes,
            paper_ohw: (0.40, 0.71, 0.80),
        },
        DatasetSpec {
            name: "cdn1",
            cache_type: Object,
            alpha: 0.8,
            requests_per_object: 12.5,
            scan_fraction: 0.0,
            scan_len: 0,
            temporal_bias: 0.10,
            churn_turnover: 0.5,
            size_model: cdn_sizes,
            paper_ohw: (0.42, 0.58, 0.70),
        },
        DatasetSpec {
            name: "tencent_photo",
            cache_type: Object,
            alpha: 0.75,
            requests_per_object: 5.4,
            scan_fraction: 0.0,
            scan_len: 0,
            temporal_bias: 0.10,
            churn_turnover: 0.5,
            size_model: cdn_sizes,
            paper_ohw: (0.55, 0.66, 0.74),
        },
        DatasetSpec {
            name: "wiki_cdn",
            cache_type: Object,
            alpha: 0.9,
            requests_per_object: 51.0,
            scan_fraction: 0.0,
            scan_len: 0,
            temporal_bias: 0.10,
            churn_turnover: 0.5,
            size_model: cdn_sizes,
            paper_ohw: (0.46, 0.60, 0.80),
        },
        DatasetSpec {
            name: "systor",
            cache_type: Block,
            alpha: 0.85,
            requests_per_object: 8.8,
            scan_fraction: 0.18,
            scan_len: 400,
            temporal_bias: 0.30,
            churn_turnover: 0.2,
            size_model: block_sizes,
            paper_ohw: (0.37, 0.80, 0.94),
        },
        DatasetSpec {
            name: "tencent_cbs",
            cache_type: Block,
            alpha: 0.9,
            requests_per_object: 61.0,
            scan_fraction: 0.10,
            scan_len: 300,
            temporal_bias: 0.25,
            churn_turnover: 0.2,
            size_model: block_sizes,
            paper_ohw: (0.25, 0.73, 0.77),
        },
        DatasetSpec {
            name: "alibaba",
            cache_type: Block,
            alpha: 0.85,
            requests_per_object: 11.6,
            scan_fraction: 0.14,
            scan_len: 250,
            temporal_bias: 0.30,
            churn_turnover: 0.2,
            size_model: block_sizes,
            paper_ohw: (0.36, 0.68, 0.81),
        },
        DatasetSpec {
            name: "twitter",
            cache_type: Kv,
            alpha: 1.0,
            requests_per_object: 18.3,
            scan_fraction: 0.0,
            scan_len: 0,
            temporal_bias: 0.15,
            churn_turnover: 0.6,
            size_model: kv_sizes,
            paper_ohw: (0.19, 0.32, 0.42),
        },
        DatasetSpec {
            name: "social_network",
            cache_type: Kv,
            alpha: 1.05,
            requests_per_object: 12.8,
            scan_fraction: 0.0,
            scan_len: 0,
            temporal_bias: 0.35,
            churn_turnover: 0.3,
            size_model: kv_sizes,
            paper_ohw: (0.17, 0.28, 0.37),
        },
        DatasetSpec {
            name: "cdn2",
            cache_type: Object,
            alpha: 0.8,
            requests_per_object: 14.0,
            scan_fraction: 0.0,
            scan_len: 0,
            temporal_bias: 0.10,
            churn_turnover: 0.5,
            size_model: cdn_sizes,
            paper_ohw: (0.49, 0.58, 0.64),
        },
        DatasetSpec {
            name: "meta_kv",
            cache_type: Kv,
            alpha: 0.95,
            requests_per_object: 20.0,
            scan_fraction: 0.0,
            scan_len: 0,
            temporal_bias: 0.15,
            churn_turnover: 0.6,
            size_model: kv_sizes,
            paper_ohw: (0.51, 0.53, 0.61),
        },
        DatasetSpec {
            name: "meta_cdn",
            cache_type: Object,
            alpha: 0.75,
            requests_per_object: 3.0,
            scan_fraction: 0.0,
            scan_len: 0,
            temporal_bias: 0.10,
            churn_turnover: 0.5,
            size_model: cdn_sizes,
            paper_ohw: (0.61, 0.76, 0.81),
        },
    ]
}

/// Convenience: an MSR-like block trace (used by Figs. 2, 4, 10 which single
/// out `MSR hm_0`).
pub fn msr_like(requests: usize, seed: u64) -> Trace {
    let ds = &datasets()[0];
    let cfg = CorpusConfig {
        traces_per_dataset: 1,
        requests_per_trace: requests,
        seed,
    };
    let mut t = ds.trace(&cfg, 0);
    t.name = "msr-like".into();
    t
}

/// Convenience: a Twitter-like KV trace (Figs. 2, 4, 10 use Twitter
/// cluster 52).
pub fn twitter_like(requests: usize, seed: u64) -> Trace {
    // Invariant: the built-in dataset registry always includes "twitter".
    let ds = datasets()
        .into_iter()
        .find(|d| d.name == "twitter")
        .expect("twitter dataset exists");
    let cfg = CorpusConfig {
        traces_per_dataset: 1,
        requests_per_trace: requests,
        seed,
    };
    let mut t = ds.trace(&cfg, 0);
    t.name = "twitter-like".into();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn fourteen_datasets() {
        let ds = datasets();
        assert_eq!(ds.len(), 14);
        let names: std::collections::HashSet<_> = ds.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), 14, "dataset names must be unique");
    }

    #[test]
    fn traces_are_deterministic() {
        let cfg = CorpusConfig::small();
        let ds = &datasets()[0];
        let a = ds.trace(&cfg, 0);
        let b = ds.trace(&cfg, 0);
        assert_eq!(a.to_requests(), b.to_requests());
    }

    #[test]
    fn traces_within_dataset_differ() {
        let cfg = CorpusConfig::small();
        let ds = &datasets()[0];
        let a = ds.trace(&cfg, 0);
        let b = ds.trace(&cfg, 1);
        assert_ne!(a.to_requests(), b.to_requests());
    }

    #[test]
    fn corpus_scale_respected() {
        let cfg = CorpusConfig::small();
        let ds = &datasets()[3];
        let traces = ds.traces(&cfg);
        assert_eq!(traces.len(), 2);
        assert!(traces.iter().all(|t| t.len() == 20_000));
    }

    #[test]
    fn kv_traces_have_low_ohw_block_higher() {
        let cfg = CorpusConfig {
            traces_per_dataset: 1,
            requests_per_trace: 100_000,
            seed: 5,
        };
        let ds = datasets();
        let twitter = ds.iter().find(|d| d.name == "twitter").unwrap();
        let msr = ds.iter().find(|d| d.name == "msr").unwrap();
        let ohw_tw = analysis::one_hit_wonder_ratio(&twitter.trace(&cfg, 0));
        let ohw_msr = analysis::one_hit_wonder_ratio(&msr.trace(&cfg, 0));
        assert!(
            ohw_tw < ohw_msr,
            "twitter OHW {ohw_tw:.3} should be below msr OHW {ohw_msr:.3}"
        );
        assert!(ohw_tw < 0.35, "twitter-like OHW too high: {ohw_tw:.3}");
        assert!(ohw_msr > 0.35, "msr-like OHW too low: {ohw_msr:.3}");
    }

    #[test]
    fn window_ohw_rises_for_every_dataset() {
        let cfg = CorpusConfig {
            traces_per_dataset: 1,
            requests_per_trace: 60_000,
            seed: 7,
        };
        for ds in datasets() {
            let t = ds.trace(&cfg, 0);
            let full = analysis::one_hit_wonder_ratio(&t);
            let w10 = analysis::sampled_window_ohw(&t, 0.10, 10, 3);
            assert!(
                w10 > full,
                "{}: window OHW {w10:.3} must exceed full-trace OHW {full:.3}",
                ds.name
            );
        }
    }

    #[test]
    fn helper_traces_have_names() {
        assert_eq!(msr_like(5000, 1).name, "msr-like");
        assert_eq!(twitter_like(5000, 1).name, "twitter-like");
    }
}
