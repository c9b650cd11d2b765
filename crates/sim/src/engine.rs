//! The replay driver: every way of running requests through a policy.
//!
//! [`Replay`] is the one place a request reaches a policy. It is built over
//! a registry name or an explicit policy, takes its settings (`ignore_size`,
//! a series window, an eviction hook) and is then fed chunks of a request
//! stream: an in-memory [`Trace`] in chunks built from its columns, a
//! `.ctr` file one chunk per read (`crate::stream`); both chunks are
//! [`DEFAULT_CHUNK_RECORDS`] long. DESIGN.md, "The replay surface", has
//! the table of which call serves which combination.
//!
//! The policy is a [`DensePolicy`] fed pre-interned slots, and there is one
//! loop: its own monomorphised [`DensePolicy::replay`], one virtual call per
//! chunk, because dispatching per request costs ~2× (DESIGN.md §5c).
//! Several policies over one trace are several replays.

use crate::stream::DEFAULT_CHUNK_RECORDS;
use cache_ds::Histogram;
use cache_obs::MissRatioSeries;
use cache_policies::registry;
use cache_trace::Trace;
use cache_types::{CacheError, Eviction, PolicyStats, Request};
use s3fifo::dense::DensePolicy;

/// How the cache capacity is derived for a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheSizeSpec {
    /// Absolute capacity in bytes (or objects when sizes are ignored).
    Bytes(u64),
    /// Fraction of the trace footprint in *objects* (§5.1.2's "10 % of the
    /// trace footprint"); only meaningful with `ignore_size = true`.
    FractionOfObjects(f64),
    /// Fraction of the trace footprint in *bytes* (§5.2.3's byte-miss-ratio
    /// sizing).
    FractionOfBytes(f64),
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Cache size derivation.
    pub size: CacheSizeSpec,
    /// When true, every request is treated as size 1 (the paper's default:
    /// "we ignore object size in the simulator", §5.1.2).
    pub ignore_size: bool,
    /// Skip the simulation when the derived capacity is below this many
    /// objects (the paper ignores traces where the small size is under 1000
    /// objects). `0` disables the check.
    pub min_objects: u64,
    /// Clamp the derived capacity up to at least this many objects (used by
    /// the scaled-down corpus instead of skipping). `0` disables the clamp.
    pub floor_objects: u64,
}

impl SimConfig {
    /// The paper's large-cache setting: 10 % of the trace footprint in
    /// objects, sizes ignored.
    pub fn large() -> Self {
        SimConfig {
            size: CacheSizeSpec::FractionOfObjects(0.10),
            ignore_size: true,
            min_objects: 0,
            floor_objects: 10,
        }
    }

    /// The paper's small-cache setting: 0.1 % of the trace footprint
    /// (clamped at a 100-object floor for the scaled-down corpus; the paper
    /// uses a 1000-object floor on full-size traces).
    pub fn small() -> Self {
        SimConfig {
            size: CacheSizeSpec::FractionOfObjects(0.001),
            ignore_size: true,
            min_objects: 0,
            floor_objects: 100,
        }
    }

    /// Resolves the configured size against a trace.
    pub fn capacity_for(&self, trace: &Trace) -> u64 {
        match self.size {
            CacheSizeSpec::Bytes(b) => b,
            CacheSizeSpec::FractionOfObjects(f) => {
                ((trace.footprint() as f64 * f).round() as u64).max(self.floor_objects.max(1))
            }
            CacheSizeSpec::FractionOfBytes(f) => {
                ((trace.footprint_bytes() as f64 * f).round() as u64).max(1)
            }
        }
    }

    /// [`capacity_for`](Self::capacity_for), or `None` when the paper's
    /// `min_objects` rule excludes this trace at this size.
    pub fn admitted_capacity(&self, trace: &Trace) -> Option<u64> {
        let capacity = self.capacity_for(trace);
        (self.min_objects == 0 || capacity >= self.min_objects).then_some(capacity)
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Algorithm name.
    pub algorithm: String,
    /// Trace name.
    pub trace: String,
    /// Capacity used (bytes, or objects in ignore-size mode).
    pub capacity: u64,
    /// Read requests processed.
    pub requests: u64,
    /// Read misses.
    pub misses: u64,
    /// Request miss ratio.
    pub miss_ratio: f64,
    /// Byte miss ratio.
    pub byte_miss_ratio: f64,
    /// Number of evictions.
    pub evictions: u64,
    /// Distribution of post-insert access counts at eviction (Fig. 4).
    pub freq_at_eviction: Histogram,
    /// Fraction of evicted objects with zero post-insert accesses — the
    /// "one-hit wonders at eviction" of Fig. 4.
    pub one_hit_eviction_fraction: f64,
    /// Distribution of logical ages at eviction.
    pub eviction_age: Histogram,
}

/// What a [`Replay`] produced: its result, and its per-window miss-ratio
/// series when [`Replay::window`] was set.
pub type Replayed = (SimResult, Option<MissRatioSeries>);

/// What [`Replay::on_eviction`] is handed.
type EvictionHook<'p> = &'p mut dyn FnMut(u64, &Eviction<u32>);

/// Incremental replay of one request stream through one policy.
///
/// Build it ([`on_trace`](Replay::on_trace), [`on_dense_ids`](Replay::on_dense_ids),
/// [`dense`](Replay::dense)), apply settings, [`feed`](Replay::feed) chunks
/// in stream order, [`finish`](Replay::finish).
/// Results never depend on how the stream was cut into chunks.
pub struct Replay<'p> {
    policy: Box<dyn DensePolicy + 'p>,
    freq_at_eviction: Histogram,
    eviction_age: Histogram,
    series: Option<MissRatioSeries>,
    /// Stats after the previous bulk call; a window's counts are the delta.
    prev: PolicyStats,
    ignore_size: bool,
    hook: Option<EvictionHook<'p>>,
    /// Requests fed so far: the stream index of the next chunk's first.
    fed: u64,
    /// The policy covers slots `0..domain`: the trace's footprint in
    /// memory, the distinct ids named so far on a stream.
    pub(crate) domain: usize,
}

impl<'p> Replay<'p> {
    fn new(policy: Box<dyn DensePolicy + 'p>, domain: usize) -> Self {
        Replay {
            policy,
            freq_at_eviction: Histogram::new(),
            eviction_age: Histogram::new(),
            series: None,
            prev: PolicyStats::default(),
            ignore_size: false,
            hook: None,
            fed: 0,
            domain,
        }
    }

    /// A replay of `trace` at `capacity` through the registry's policy for
    /// `name`.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheError`] from the registry (unknown name, bad
    /// parameter).
    pub fn on_trace(name: &str, trace: &Trace, capacity: u64) -> Result<Self, CacheError> {
        let domain = trace.footprint();
        let policy = registry::build_dense_domain(name, capacity, Some(trace.slots()), domain)?;
        Ok(Self::new(policy, domain))
    }

    /// [`on_trace`](Self::on_trace) for a stream whose ids all lie below
    /// `id_space` (a `.ctr` header's): the policy starts over the empty
    /// domain with room reserved for `id_space` slots, and grows as the
    /// stream names ids ([`feed_ctr`](Self::feed_ctr) numbers them in
    /// first-appearance order). There is no trace, so `Belady`, which needs
    /// the whole of it, is refused by the registry.
    ///
    /// # Errors
    ///
    /// As [`on_trace`](Self::on_trace).
    pub fn on_dense_ids(name: &str, id_space: u64, capacity: u64) -> Result<Self, CacheError> {
        let policy = registry::build_dense_domain(name, capacity, None, 0)?;
        let mut replay = Self::new(policy, 0);
        // The `.ctr` header bounds id_space by 2^32, so this never clamps.
        replay.grow(0, usize::try_from(id_space).unwrap_or(usize::MAX))?;
        Ok(replay)
    }

    /// A replay through the caller's dense policy, which must be fresh. It
    /// is grown ([`DensePolicy::grow_domain`]) to cover the slots it is fed.
    pub fn dense(policy: Box<dyn DensePolicy + 'p>) -> Self {
        Self::new(policy, 0)
    }

    /// Grows the policy to cover slots `0..domain`, with room for `reserve`
    /// ([`DensePolicy::grow_domain`]).
    pub(crate) fn grow(&mut self, domain: usize, reserve: usize) -> Result<(), CacheError> {
        self.policy.grow_domain(domain, reserve)?;
        self.domain = self.domain.max(domain);
        Ok(())
    }

    /// Replays every request at size 1 (capacities are then object counts)
    /// without materialising a unit-size copy of the stream.
    pub fn ignore_size(mut self, ignore_size: bool) -> Self {
        self.ignore_size = ignore_size;
        self
    }

    /// Keeps a miss-ratio series of `window` reads per window. Windows count
    /// reads only, so the totals equal the end-of-run stats; `u64::MAX` is
    /// one window spanning the run.
    pub fn window(mut self, window: u64) -> Self {
        self.series = Some(MissRatioSeries::new(window));
        self
    }

    /// Hands `hook` every eviction, in stream order, with the stream index
    /// of the request that caused it; the record names its slot.
    pub fn on_eviction(mut self, hook: &'p mut dyn FnMut(u64, &Eviction<u32>)) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Replays the next chunk of the stream. `slots` is parallel to `reqs`
    /// and names each request's dense slot. The policy is first grown to
    /// cover every slot named.
    ///
    /// # Errors
    ///
    /// [`DensePolicy::grow_domain`]'s, when the policy cannot grow to the
    /// chunk's slots; nothing is replayed then.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn feed(&mut self, slots: &[u32], reqs: &[Request]) -> Result<(), CacheError> {
        let named = slots.iter().max().map_or(0, |&s| s as usize + 1);
        self.grow(named, 0)?;
        self.feed_covered(slots, reqs);
        Ok(())
    }

    /// [`feed`](Self::feed) for a chunk whose slots the policy already
    /// covers: one `DensePolicy::replay` per chunk, or per series window
    /// when one is kept. A window's counts are stats deltas, so each call
    /// must end exactly where the open window's read budget does; finding
    /// that point scans the chunk, which is skipped when there is no window
    /// to close before the stream ends.
    pub(crate) fn feed_covered(&mut self, slots: &[u32], reqs: &[Request]) {
        assert_eq!(slots.len(), reqs.len(), "slots must parallel reqs");
        let mut base = 0;
        while base < reqs.len() {
            let end = match &self.series {
                Some(s) if s.window_size() != u64::MAX => {
                    let mut budget = s.window_size() - s.total_requests() % s.window_size();
                    let cut = reqs[base..].iter().position(|r| {
                        budget -= u64::from(r.is_read());
                        budget == 0
                    });
                    cut.map_or(reqs.len(), |i| base + i + 1)
                }
                _ => reqs.len(),
            };
            // `replay` reports chunk-relative indices; rebase them so
            // eviction ages do not depend on the chunking.
            let first = self.fed + base as u64;
            self.policy.replay(
                &slots[base..end],
                &reqs[base..end],
                self.ignore_size,
                &mut |i, e| {
                    let now = first + i as u64;
                    self.freq_at_eviction.record(u64::from(e.freq));
                    self.eviction_age.record(e.age(now));
                    if let Some(hook) = &mut self.hook {
                        hook(now, e);
                    }
                },
            );
            if let Some(series) = &mut self.series {
                let cur = self.policy.stats();
                series.record_window(cur.gets - self.prev.gets, cur.misses - self.prev.misses);
                self.prev = cur;
            }
            base = end;
        }
        self.fed += reqs.len() as u64;
    }

    /// Closes the series and returns the [`Replayed`], labelled with
    /// `trace`.
    pub fn finish(mut self, trace: &str) -> Replayed {
        let p = &self.policy;
        let (algorithm, capacity, stats) = (p.name(), p.capacity(), p.stats());
        if let Some(series) = &mut self.series {
            series.finish();
        }
        let result = SimResult {
            algorithm,
            trace: trace.to_string(),
            capacity,
            requests: stats.gets,
            misses: stats.misses,
            miss_ratio: stats.miss_ratio(),
            byte_miss_ratio: stats.byte_miss_ratio(),
            evictions: stats.evictions,
            one_hit_eviction_fraction: self.freq_at_eviction.zero_fraction(),
            freq_at_eviction: self.freq_at_eviction,
            eviction_age: self.eviction_age,
        };
        (result, self.series)
    }

    /// Feeds the whole of `trace`, [`DEFAULT_CHUNK_RECORDS`] requests at a
    /// time built from its columns into one reused buffer, and finishes.
    ///
    /// # Panics
    ///
    /// Panics when a policy the caller built cannot grow to the trace's
    /// footprint; the registry's all can.
    pub fn run(mut self, trace: &Trace) -> Replayed {
        if let Err(e) = self.grow(trace.footprint(), 0) {
            panic!("replaying {}: {e}", trace.name);
        }
        let mut chunk = Vec::with_capacity(DEFAULT_CHUNK_RECORDS.min(trace.len()));
        for start in (0..trace.len()).step_by(DEFAULT_CHUNK_RECORDS) {
            let end = trace.len().min(start + DEFAULT_CHUNK_RECORDS);
            trace.fill(start..end, &mut chunk);
            self.feed_covered(&trace.slots()[start..end], &chunk);
        }
        self.finish(&trace.name)
    }
}

/// Builds the named algorithm for `trace` under `cfg` and simulates it.
///
/// Returns `None` when the derived capacity is below `cfg.min_objects`
/// (mirroring the paper's exclusion of too-small configurations).
///
/// # Errors
///
/// Propagates [`CacheError`] from the registry (unknown name, bad
/// parameter).
///
/// # Examples
///
/// ```
/// use cache_sim::{simulate_named, SimConfig};
/// use cache_trace::gen::WorkloadSpec;
///
/// let trace = WorkloadSpec::zipf("t", 20_000, 2_000, 1.0, 1).generate();
/// let s3 = simulate_named("S3-FIFO", &trace, &SimConfig::large())
///     .unwrap()
///     .unwrap();
/// let fifo = simulate_named("FIFO", &trace, &SimConfig::large())
///     .unwrap()
///     .unwrap();
/// assert!(s3.miss_ratio < fifo.miss_ratio);
/// ```
pub fn simulate_named(
    name: &str,
    trace: &Trace,
    cfg: &SimConfig,
) -> Result<Option<SimResult>, CacheError> {
    let Some(capacity) = cfg.admitted_capacity(trace) else {
        return Ok(None);
    };
    let replay = Replay::on_trace(name, trace, capacity)?.ignore_size(cfg.ignore_size);
    Ok(Some(replay.run(trace).0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_trace::gen::WorkloadSpec;
    use cache_types::Outcome;

    fn small_trace() -> Trace {
        WorkloadSpec::zipf("t", 20_000, 2000, 1.0, 7).generate()
    }

    #[test]
    fn simulate_counts_match_policy_stats() {
        let trace = small_trace();
        let p = Box::new(cache_policies::DenseLru::with_domain(100, 0).unwrap());
        let (r, series) = Replay::dense(p).ignore_size(true).run(&trace);
        assert!(series.is_none(), "no window asked for, no series kept");
        assert_eq!(r.requests, 20_000);
        assert!(r.miss_ratio > 0.0 && r.miss_ratio < 1.0);
        assert_eq!(r.algorithm, "LRU");
        assert!(r.evictions > 0);
        assert_eq!(r.freq_at_eviction.count(), r.evictions);
    }

    #[test]
    fn capacity_resolution() {
        let trace = small_trace();
        let fp = trace.footprint() as f64;
        let cfg = SimConfig::large();
        let cap = cfg.capacity_for(&trace);
        assert_eq!(cap, (fp * 0.1).round() as u64);
        let cfg = SimConfig {
            size: CacheSizeSpec::Bytes(42),
            ignore_size: false,
            min_objects: 0,
            floor_objects: 0,
        };
        assert_eq!(cfg.capacity_for(&trace), 42);
    }

    #[test]
    fn small_config_clamps_to_floor() {
        let trace = small_trace(); // footprint ~1800 → 0.1 % ≈ 2 → floor 100
        let cfg = SimConfig::small();
        assert_eq!(cfg.capacity_for(&trace), 100);
    }

    #[test]
    fn named_simulation_runs_everything() {
        let trace = WorkloadSpec::zipf("t", 5000, 500, 1.0, 9).generate();
        let cfg = SimConfig::large();
        for name in ["FIFO", "LRU", "S3-FIFO", "ARC", "Belady"] {
            let r = simulate_named(name, &trace, &cfg).unwrap().unwrap();
            assert_eq!(r.requests, 5000, "{name}");
        }
    }

    #[test]
    fn min_objects_skips_tiny_caches() {
        let trace = WorkloadSpec::zipf("t", 2000, 100, 1.0, 9).generate();
        let cfg = SimConfig {
            size: CacheSizeSpec::FractionOfObjects(0.001),
            ignore_size: true,
            min_objects: 1000,
            floor_objects: 0,
        };
        assert!(simulate_named("LRU", &trace, &cfg).unwrap().is_none());
    }

    #[test]
    fn s3fifo_beats_fifo_on_skewed_trace() {
        // The headline claim, end to end through the simulator.
        let trace = small_trace();
        let cfg = SimConfig::large();
        let fifo = simulate_named("FIFO", &trace, &cfg).unwrap().unwrap();
        let s3 = simulate_named("S3-FIFO", &trace, &cfg).unwrap().unwrap();
        assert!(
            s3.miss_ratio < fifo.miss_ratio,
            "S3-FIFO {:.4} must beat FIFO {:.4}",
            s3.miss_ratio,
            fifo.miss_ratio
        );
    }

    #[test]
    fn belady_is_lower_bound() {
        let trace = small_trace();
        let cfg = SimConfig::large();
        let opt = simulate_named("Belady", &trace, &cfg).unwrap().unwrap();
        for name in ["FIFO", "LRU", "S3-FIFO", "ARC", "TinyLFU"] {
            let r = simulate_named(name, &trace, &cfg).unwrap().unwrap();
            assert!(
                opt.miss_ratio <= r.miss_ratio + 1e-12,
                "Belady {:.4} vs {name} {:.4}",
                opt.miss_ratio,
                r.miss_ratio
            );
        }
    }

    /// A chunk of explicit slots grows a dense policy to cover them; a
    /// policy that cannot grow is refused before anything is replayed.
    #[test]
    fn feed_grows_the_slab_or_refuses() {
        let reqs: Vec<Request> = [7u64, 9, 7, 3]
            .iter()
            .zip(0..)
            .map(|(&id, t)| Request::get(id, t))
            .collect();
        let slots = [0u32, 5, 0, 2];
        let policy = s3fifo::DenseS3Fifo::with_domain(2, 0).expect("capacity > 0");
        let mut replay = Replay::dense(Box::new(policy));
        replay.feed(&slots, &reqs).expect("a slab policy grows");
        assert_eq!(replay.domain, 6);
        let (r, _) = replay.finish("t");
        assert_eq!((r.requests, r.misses), (4, 3));

        struct Fixed;
        impl DensePolicy for Fixed {
            fn name(&self) -> String {
                "fixed".into()
            }
            fn capacity(&self) -> u64 {
                1
            }
            fn used(&self) -> u64 {
                0
            }
            fn len(&self) -> usize {
                0
            }
            fn request_dense(
                &mut self,
                _: u32,
                _: &Request,
                _: &mut Vec<Eviction<u32>>,
            ) -> Outcome {
                panic!("a policy that cannot grow must not be fed");
            }
            fn resident(&self, _: u32) -> bool {
                false
            }
            fn stats(&self) -> PolicyStats {
                PolicyStats::default()
            }
        }
        let mut replay = Replay::dense(Box::new(Fixed));
        assert!(replay.feed(&slots, &reqs).is_err());
    }

    /// `run` feeds a trace [`DEFAULT_CHUNK_RECORDS`] built requests at a
    /// time; every name, Belady included, decides as if it were fed the
    /// rows in one chunk, or in chunks of 1, 7 or 2^14, windows and sizes
    /// included.
    #[test]
    fn run_in_chunks_equals_one_chunk() {
        let mut spec = WorkloadSpec::zipf("c", DEFAULT_CHUNK_RECORDS + 3_000, 900, 0.9, 21);
        spec.delete_fraction = 0.05;
        spec.size_model = cache_trace::gen::SizeModel::Uniform { min: 1, max: 4 };
        let trace = spec.generate();
        assert!(trace.sizes().is_some() && trace.ops().is_some());
        let rows = trace.to_requests();
        let replay = |name| {
            let replay = Replay::on_trace(name, &trace, 150).unwrap();
            replay.window(1_000)
        };
        for name in registry::ALL_ALGORITHMS {
            let want = format!("{:?}", replay(name).run(&trace));
            for chunk in [1, 7, 1 << 14, trace.len()] {
                let mut fed = replay(name);
                for (slots, reqs) in trace.slots().chunks(chunk).zip(rows.chunks(chunk)) {
                    fed.feed(slots, reqs).unwrap();
                }
                let got = format!("{:?}", fed.finish(&trace.name));
                assert!(got == want, "{name}, chunks of {chunk}");
            }
        }
    }

    #[test]
    fn byte_miss_ratio_with_sizes() {
        let mut spec = WorkloadSpec::zipf("t", 10_000, 1000, 0.9, 11);
        spec.size_model = cache_trace::gen::SizeModel::Uniform { min: 10, max: 1000 };
        let trace = spec.generate();
        let cfg = SimConfig {
            size: CacheSizeSpec::FractionOfBytes(0.1),
            ignore_size: false,
            min_objects: 0,
            floor_objects: 0,
        };
        let r = simulate_named("S3-FIFO", &trace, &cfg).unwrap().unwrap();
        assert!(r.byte_miss_ratio > 0.0 && r.byte_miss_ratio <= 1.0);
        assert!(r.miss_ratio > 0.0);
    }
}
