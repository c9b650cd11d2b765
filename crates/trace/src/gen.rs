//! Composable synthetic workload generation.
//!
//! A [`WorkloadSpec`] mixes the request patterns the paper's trace corpus
//! exhibits:
//!
//! - a **Zipf core** of skewed, independently drawn requests (§3.1),
//!   optionally with a recency boost (block traces exhibit strong temporal
//!   locality on top of skew);
//! - a **one-hit wonder stream** of fresh, never-repeated objects (the CDN
//!   datasets in Table 1 have full-trace one-hit-wonder ratios up to 0.61);
//! - **sequential scans** over a finite block space (the pattern that makes
//!   block caches need scan resistance, §3.2).
//!
//! Specialized generators cover the paper's targeted experiments: pure
//! scans, loops, and the §5.2 two-request adversarial pattern.

use crate::zipf::ZipfSampler;
use crate::Trace;
use cache_ds::{rng::mix64, SplitMix64};
use cache_types::Request;

/// How object sizes are assigned (stable per object id).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeModel {
    /// Every object has the same size. `Fixed(1)` reproduces the paper's
    /// default simulator setting of ignoring sizes (§5.1.2).
    Fixed(u32),
    /// Sizes uniform in `[min, max]`.
    Uniform {
        /// Smallest object size in bytes.
        min: u32,
        /// Largest object size in bytes.
        max: u32,
    },
    /// Heavy-tailed sizes: `min / u^(1/shape)` capped at `cap` (Pareto),
    /// the shape CDN object sizes follow.
    Pareto {
        /// Scale (minimum size) in bytes.
        min: u32,
        /// Tail index; smaller = heavier tail. Typical: 1.5–2.5.
        shape: f64,
        /// Upper cap in bytes.
        cap: u32,
    },
}

impl SizeModel {
    /// Deterministic size for `id` under this model (`salt` decorrelates
    /// sizes across traces).
    pub fn size_of(&self, id: u64, salt: u64) -> u32 {
        match *self {
            SizeModel::Fixed(s) => s.max(1),
            SizeModel::Uniform { min, max } => {
                let (lo, hi) = (min.min(max).max(1), max.max(min).max(1));
                let span = u64::from(hi - lo) + 1;
                lo + (mix64(id ^ salt) % span) as u32
            }
            SizeModel::Pareto { min, shape, cap } => {
                let u = (mix64(id ^ salt) >> 11) as f64 / (1u64 << 53) as f64;
                let u = u.max(1e-12);
                let s = f64::from(min.max(1)) / u.powf(1.0 / shape.max(0.1));
                (s as u32).clamp(min.max(1), cap.max(min).max(1))
            }
        }
    }
}

/// Specification of a mixed synthetic workload.
///
/// # Examples
///
/// ```
/// use cache_trace::gen::WorkloadSpec;
///
/// // 100k Zipf(1.0) requests over 10k objects, fully reproducible.
/// let trace = WorkloadSpec::zipf("demo", 100_000, 10_000, 1.0, 42).generate();
/// assert_eq!(trace.len(), 100_000);
/// assert!(trace.footprint() <= 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Trace name.
    pub name: String,
    /// Number of requests to generate.
    pub requests: usize,
    /// Number of distinct objects in the Zipf core.
    pub zipf_objects: u64,
    /// Zipf skew of the core (0 = uniform; production KV ≈ 1.0).
    pub alpha: f64,
    /// Fraction of requests that go to fresh, never-repeated objects.
    pub one_hit_fraction: f64,
    /// Fraction of requests that belong to sequential scans.
    pub scan_fraction: f64,
    /// Length of each scan run (in objects).
    pub scan_len: u64,
    /// Size of the block space scans walk over; scans revisit this space,
    /// creating loop behaviour when it is small.
    pub scan_space: u64,
    /// Probability that a core request re-requests one of the ~1024 most
    /// recently used core objects instead of an IRM draw (recency boost).
    pub temporal_bias: f64,
    /// Expected number of core-object replacements per request: popularity
    /// ranks keep their probability but are re-assigned to fresh object ids
    /// over time, modelling new content becoming popular (§6.1 observes
    /// this churn on the Twitter workload). 0 disables churn.
    pub churn_per_request: f64,
    /// Fraction of requests that are `Delete` operations targeting a
    /// recently requested object (§4.2: "deletions often arrive soon after
    /// insertions in many workloads"). 0 disables deletes.
    pub delete_fraction: f64,
    /// Object size assignment.
    pub size_model: SizeModel,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A pure Zipf IRM workload (the paper's synthetic baseline).
    pub fn zipf(
        name: impl Into<String>,
        requests: usize,
        objects: u64,
        alpha: f64,
        seed: u64,
    ) -> Self {
        WorkloadSpec {
            name: name.into(),
            requests,
            zipf_objects: objects,
            alpha,
            one_hit_fraction: 0.0,
            scan_fraction: 0.0,
            scan_len: 0,
            scan_space: 0,
            temporal_bias: 0.0,
            churn_per_request: 0.0,
            delete_fraction: 0.0,
            size_model: SizeModel::Fixed(1),
            seed,
        }
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics when `requests == 0` or `zipf_objects == 0` or the component
    /// fractions sum to more than 1.
    pub fn generate(&self) -> Trace {
        assert!(self.requests > 0, "empty workload");
        assert!(self.zipf_objects > 0, "need a non-empty Zipf core");
        assert!(
            self.one_hit_fraction >= 0.0
                && self.scan_fraction >= 0.0
                && self.one_hit_fraction + self.scan_fraction <= 1.0,
            "component fractions must be in [0,1] and sum to <= 1"
        );
        let mut rng = SplitMix64::new(self.seed);
        let size_salt = mix64(self.seed ^ 0x5EED_517E);
        let zipf = ZipfSampler::new(self.zipf_objects, self.alpha);

        // Disjoint id spaces for the three components.
        const CORE_BASE: u64 = 0;
        const SCAN_BASE: u64 = 1 << 40;
        const FRESH_BASE: u64 = 1 << 41;

        // Rank -> object id mapping; churn replaces entries with fresh ids.
        let mut core_ids: Vec<u64> = (1..=self.zipf_objects).map(|r| CORE_BASE + r).collect();
        let mut next_core_id = CORE_BASE + self.zipf_objects + 1;
        let mut churn_acc = 0.0f64;

        let mut fresh_counter = 0u64;
        let mut scan_pos = 0u64;
        let mut scan_remaining = 0u64;
        let scan_space = self.scan_space.max(self.scan_len.max(1));

        // Recency buffer for temporal bias.
        let mut recent: Vec<u64> = Vec::with_capacity(1024);
        let mut recent_at = 0usize;

        let mut reqs = Vec::with_capacity(self.requests);
        // Ring of recently issued ids, for delete targeting.
        let mut issued: Vec<u64> = Vec::with_capacity(256);
        let mut issued_at = 0usize;
        for t in 0..self.requests {
            if self.delete_fraction > 0.0 && !issued.is_empty() {
                // Deletes are generated *in addition to* the request mix so
                // the component fractions keep their meaning.
                if rng.next_f64() < self.delete_fraction {
                    let victim = issued[rng.next_below(issued.len() as u64) as usize];
                    reqs.push(Request::delete(victim, t as u64));
                }
            }
            if self.churn_per_request > 0.0 {
                churn_acc += self.churn_per_request;
                while churn_acc >= 1.0 {
                    let rank = rng.next_below(self.zipf_objects) as usize;
                    core_ids[rank] = next_core_id;
                    next_core_id += 1;
                    churn_acc -= 1.0;
                }
            }
            let u = rng.next_f64();
            let id = if u < self.one_hit_fraction {
                fresh_counter += 1;
                FRESH_BASE + fresh_counter
            } else if u < self.one_hit_fraction + self.scan_fraction && self.scan_len > 0 {
                if scan_remaining == 0 {
                    scan_pos = rng.next_below(scan_space);
                    scan_remaining = self.scan_len;
                }
                let id = SCAN_BASE + (scan_pos % scan_space);
                scan_pos += 1;
                scan_remaining -= 1;
                id
            } else {
                let core_id = if self.temporal_bias > 0.0
                    && !recent.is_empty()
                    && rng.next_f64() < self.temporal_bias
                {
                    recent[rng.next_below(recent.len() as u64) as usize]
                } else {
                    core_ids[(zipf.sample(&mut rng) - 1) as usize]
                };
                if self.temporal_bias > 0.0 {
                    if recent.len() < 1024 {
                        recent.push(core_id);
                    } else {
                        recent[recent_at] = core_id;
                        recent_at = (recent_at + 1) % 1024;
                    }
                }
                core_id
            };
            let size = self.size_model.size_of(id, size_salt);
            reqs.push(Request::get_sized(id, size, t as u64));
            if self.delete_fraction > 0.0 {
                if issued.len() < 256 {
                    issued.push(id);
                } else {
                    issued[issued_at] = id;
                    issued_at = (issued_at + 1) % 256;
                }
            }
        }
        Trace::new(self.name.clone(), reqs)
    }
}

/// A pure sequential scan: ids `0..n`, each requested once.
pub fn scan_trace(name: impl Into<String>, n: u64) -> Trace {
    let reqs = (0..n).map(|i| Request::get(i, i)).collect();
    Trace::new(name, reqs)
}

/// A looping workload: the sequence `0..loop_len` repeated `loops` times.
/// Classic LRU-adversarial pattern — LRU gets zero hits whenever
/// `loop_len > cache size`.
pub fn loop_trace(name: impl Into<String>, loop_len: u64, loops: u64) -> Trace {
    let mut reqs = Vec::with_capacity((loop_len * loops) as usize);
    for l in 0..loops {
        for i in 0..loop_len {
            reqs.push(Request::get(i, l * loop_len + i));
        }
    }
    Trace::new(name, reqs)
}

/// The §5.2 adversarial pattern for S3-FIFO: every object is requested
/// exactly twice, with the second request arriving `gap` requests after the
/// first — far enough that the object has already been evicted from a small
/// probationary queue.
pub fn two_request_adversarial(name: impl Into<String>, objects: u64, gap: u64) -> Trace {
    let mut reqs = Vec::with_capacity(2 * objects as usize);
    let mut t = 0u64;
    for i in 0..objects + gap {
        if i < objects {
            reqs.push(Request::get(i, t));
            t += 1;
        }
        if i >= gap && i - gap < objects {
            reqs.push(Request::get(i - gap, t));
            t += 1;
        }
    }
    Trace::new(name, reqs)
}

/// The §5.2 adversarial pattern *in context*: the two-request stream mixed
/// with a hot working set.
///
/// The hot objects keep the main queue `M` populated (via promotions), which
/// squeezes the small queue `S` down to its 10 % target — only then does the
/// two-request stream's second request "fall out of the small FIFO queue"
/// as §5.2 describes. Every odd request goes to one of `hot_objects` ids;
/// even requests alternate between introducing a new two-request object and
/// re-requesting the one from `gap` pairs ago.
pub fn two_request_adversarial_mixed(
    name: impl Into<String>,
    objects: u64,
    gap: u64,
    hot_objects: u64,
) -> Trace {
    let hot = hot_objects.max(1);
    let mut reqs = Vec::new();
    let mut t = 0u64;
    let mut push = |reqs: &mut Vec<Request>, id: u64| {
        reqs.push(Request::get(id, t));
        t += 1;
    };
    const HOT_BASE: u64 = 1 << 42;
    for i in 0..objects + gap {
        if i < objects {
            push(&mut reqs, i);
            push(&mut reqs, HOT_BASE + (i % hot));
        }
        if i >= gap && i - gap < objects {
            push(&mut reqs, i - gap);
            push(&mut reqs, HOT_BASE + ((i + gap / 2) % hot));
        }
    }
    Trace::new(name, reqs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn zipf_spec_generates_requested_length() {
        let t = WorkloadSpec::zipf("z", 10_000, 1000, 1.0, 1).generate();
        assert_eq!(t.len(), 10_000);
        assert!(t.footprint() <= 1000);
        assert!(t.footprint() > 100);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WorkloadSpec::zipf("z", 5000, 500, 0.8, 42).generate();
        let b = WorkloadSpec::zipf("z", 5000, 500, 0.8, 42).generate();
        assert_eq!(a.to_requests(), b.to_requests());
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadSpec::zipf("z", 1000, 500, 0.8, 1).generate();
        let b = WorkloadSpec::zipf("z", 1000, 500, 0.8, 2).generate();
        assert_ne!(a.to_requests(), b.to_requests());
    }

    #[test]
    fn one_hit_fraction_raises_ohw() {
        let base = WorkloadSpec::zipf("z", 50_000, 1000, 1.0, 3).generate();
        let mut spec = WorkloadSpec::zipf("z", 50_000, 1000, 1.0, 3);
        spec.one_hit_fraction = 0.3;
        let spiked = spec.generate();
        let ohw_base = analysis::one_hit_wonder_ratio(&base);
        let ohw_spiked = analysis::one_hit_wonder_ratio(&spiked);
        assert!(
            ohw_spiked > ohw_base + 0.2,
            "one-hit stream must raise OHW: {ohw_base} -> {ohw_spiked}"
        );
    }

    #[test]
    fn scan_component_produces_sequential_runs() {
        let mut spec = WorkloadSpec::zipf("z", 20_000, 1000, 1.0, 4);
        spec.scan_fraction = 0.5;
        spec.scan_len = 100;
        spec.scan_space = 5000;
        let t = spec.generate();
        // Count adjacent-id pairs (scan signature).
        let sequential = t
            .iter()
            .zip(t.iter().skip(1))
            .filter(|(a, b)| b.id == a.id + 1)
            .count();
        assert!(
            sequential > 2000,
            "expected many sequential pairs, got {sequential}"
        );
    }

    #[test]
    fn temporal_bias_increases_short_reuse() {
        let short_reuse = |t: &Trace| {
            let mut last: cache_ds::IdMap<u64> = cache_ds::IdMap::default();
            let mut near = 0usize;
            for (i, r) in t.iter().enumerate() {
                if let Some(&p) = last.get(&r.id) {
                    if (i as u64) - p < 64 {
                        near += 1;
                    }
                }
                last.insert(r.id, i as u64);
            }
            near
        };
        let iid = WorkloadSpec::zipf("z", 30_000, 10_000, 0.6, 5).generate();
        let mut spec = WorkloadSpec::zipf("z", 30_000, 10_000, 0.6, 5);
        spec.temporal_bias = 0.5;
        let biased = spec.generate();
        assert!(short_reuse(&biased) > short_reuse(&iid) * 2);
    }

    #[test]
    fn sizes_are_stable_per_id() {
        let mut spec = WorkloadSpec::zipf("z", 20_000, 100, 1.0, 6);
        spec.size_model = SizeModel::Pareto {
            min: 128,
            shape: 1.8,
            cap: 1 << 20,
        };
        let t = spec.generate();
        let mut sizes: cache_ds::IdMap<u32> = cache_ds::IdMap::default();
        for r in t.iter() {
            let prev = sizes.insert(r.id, r.size);
            if let Some(p) = prev {
                assert_eq!(p, r.size, "object {} changed size", r.id);
            }
        }
    }

    #[test]
    fn pareto_sizes_heavy_tailed() {
        let m = SizeModel::Pareto {
            min: 100,
            shape: 1.5,
            cap: 1_000_000,
        };
        let sizes: Vec<u32> = (0..10_000u64).map(|i| m.size_of(i, 7)).collect();
        let max = *sizes.iter().max().unwrap();
        let median = {
            let mut s = sizes.clone();
            s.sort_unstable();
            s[s.len() / 2]
        };
        assert!(
            max > median * 20,
            "tail too light: max {max}, median {median}"
        );
        assert!(sizes.iter().all(|&s| (100..=1_000_000).contains(&s)));
    }

    #[test]
    fn uniform_sizes_in_range() {
        let m = SizeModel::Uniform { min: 10, max: 20 };
        for i in 0..1000u64 {
            let s = m.size_of(i, 1);
            assert!((10..=20).contains(&s));
        }
    }

    #[test]
    fn scan_trace_is_all_unique() {
        let t = scan_trace("s", 1000);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.footprint(), 1000);
        assert!((analysis::one_hit_wonder_ratio(&t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn loop_trace_repeats() {
        let t = loop_trace("l", 100, 5);
        assert_eq!(t.len(), 500);
        assert_eq!(t.footprint(), 100);
        assert_eq!(t.request(0).id, t.request(100).id);
    }

    #[test]
    fn adversarial_each_object_twice() {
        let t = two_request_adversarial("a", 1000, 300);
        assert_eq!(t.len(), 2000);
        assert_eq!(t.footprint(), 1000);
        let mut counts: cache_ds::IdMap<u32> = cache_ds::IdMap::default();
        for r in t.iter() {
            *counts.entry(r.id).or_insert(0) += 1;
        }
        assert!(counts.values().all(|&c| c == 2));
        // Verify the gap between the two requests of an object.
        let first = t.iter().position(|r| r.id == 500).unwrap();
        let second = t.iter().rposition(|r| r.id == 500).unwrap();
        let gap = second - first;
        assert!(
            (550..=650).contains(&gap),
            "gap {gap} should be about 2x nominal 300 due to interleaving"
        );
    }

    #[test]
    fn delete_fraction_emits_deletes_of_recent_ids() {
        let mut spec = WorkloadSpec::zipf("d", 20_000, 2000, 1.0, 15);
        spec.delete_fraction = 0.1;
        let t = spec.generate();
        let deletes = t
            .iter()
            .filter(|r| r.op == cache_types::Op::Delete)
            .count();
        assert!(
            deletes > 1000 && deletes < 3000,
            "expected ~10% deletes, got {deletes}"
        );
        // Every deleted id must have been requested before its delete.
        let mut seen = cache_ds::IdSet::default();
        for r in t.iter() {
            match r.op {
                cache_types::Op::Delete => {
                    assert!(seen.contains(&r.id), "deleted id {} never issued", r.id)
                }
                _ => {
                    seen.insert(r.id);
                }
            }
        }
    }

    #[test]
    fn mixed_adversarial_structure() {
        let t = two_request_adversarial_mixed("a", 1000, 200, 10);
        // Two-request objects each appear exactly twice; hot ids many times.
        let mut counts: cache_ds::IdMap<u32> = cache_ds::IdMap::default();
        for r in t.iter() {
            *counts.entry(r.id).or_insert(0) += 1;
        }
        let two_req: Vec<u32> = (0..1000u64).map(|id| counts[&id]).collect();
        assert!(two_req.iter().all(|&c| c == 2));
        assert!(counts[&(1 << 42)] > 50, "hot ids must be requested often");
    }

    #[test]
    #[should_panic(expected = "fractions")]
    fn overfull_fractions_panic() {
        let mut spec = WorkloadSpec::zipf("z", 10, 10, 1.0, 1);
        spec.one_hit_fraction = 0.8;
        spec.scan_fraction = 0.5;
        spec.generate();
    }
}
