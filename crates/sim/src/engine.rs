//! The replay driver: every way of running requests through a policy.
//!
//! [`Replay`] is the one place a request reaches a policy. It is built over
//! registry names or explicit policies, takes its settings (`ignore_size`,
//! a series window, a [`RequestObserver`]) and is then fed chunks of a
//! request stream: an in-memory [`Trace`] in chunks built from its columns,
//! a `.ctr` file one chunk per read (`crate::stream`); both chunks are
//! [`DEFAULT_CHUNK_RECORDS`] long. DESIGN.md, "The replay surface", has
//! the table of which call serves which combination.
//!
//! Every policy it drives is a [`DensePolicy`] fed pre-interned slots, and
//! two paths exist inside, and only two. A lone unobserved policy goes
//! through its own monomorphised [`DensePolicy::replay`] — one virtual call
//! per chunk, because dispatching per request costs ~2× (DESIGN.md §5c).
//! Observed runs and several policies sharing a pass (a
//! *gang*) go through one per-request loop. A gang pays the dispatch and
//! still wins on one core: while one policy's slot load stalls on memory
//! the others issue theirs (ROADMAP item 3 has the measurement). Every
//! policy keeps private state and sees the same requests, so a gang's
//! results equal the solo runs bit for bit.

use crate::stream::DEFAULT_CHUNK_RECORDS;
use cache_ds::Histogram;
use cache_obs::MissRatioSeries;
use cache_policies::registry;
use cache_trace::Trace;
use cache_types::{CacheError, Eviction, ObjId, Outcome, PolicyStats, Request};
use s3fifo::dense::DensePolicy;
use s3fifo::dense::LOOKAHEAD;

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

/// What one policy of a [`Replay`] produced: its result, and its
/// per-window miss-ratio series when [`Replay::window`] was set.
pub type Replayed = (SimResult, Option<MissRatioSeries>);

/// Per-request hook into the replay loop.
///
/// `cache-check`'s invariant observer plugs in here to verify structural
/// invariants (capacity bounds, duplicate residency, counter caps, ghost
/// bounds) after every single request; debugging probes and custom metric
/// collectors fit the same shape. Observation must not mutate the policy —
/// the hook only gets a shared reference.
pub trait RequestObserver {
    /// Called once per request, after the policy processed it. `slot` is
    /// the request's dense slot, `req` the request as replayed (size
    /// already overridden in ignore-size mode), `evicted` the evictions it
    /// caused, each named by the id of the requests fed at its slot, and
    /// `policy` the post-request state for structural inspection.
    fn after_request(
        &mut self,
        index: usize,
        slot: u32,
        req: &Request,
        outcome: Outcome,
        evicted: &[Eviction],
        policy: &dyn DensePolicy,
    );
}

/// One policy and what the driver accumulates for it while it replays.
struct Lane<'p> {
    policy: Box<dyn DensePolicy + 'p>,
    freq_at_eviction: Histogram,
    eviction_age: Histogram,
    series: Option<MissRatioSeries>,
    /// Stats after the previous bulk call; a window's counts are the delta.
    prev: PolicyStats,
}

/// Incremental replay of one request stream through one or more policies.
///
/// Build it ([`on_trace`](Replay::on_trace), [`on_dense_ids`](Replay::on_dense_ids),
/// [`dense`](Replay::dense)), apply settings, [`feed`](Replay::feed) chunks
/// in stream order, [`finish`](Replay::finish).
/// Results never depend on how the stream was cut into chunks.
pub struct Replay<'p> {
    lanes: Vec<Lane<'p>>,
    ignore_size: bool,
    observer: Option<&'p mut dyn RequestObserver>,
    /// Requests fed so far: the stream index of the next chunk's first.
    fed: u64,
    /// Every lane covers slots `0..domain`: the trace's footprint in
    /// memory, the distinct ids named so far on a stream.
    pub(crate) domain: usize,
    evs: Vec<Eviction<u32>>,
    /// Observed only: the id each slot's requests carry, learnt as they are
    /// fed, and the request's records named by it.
    ids: Vec<ObjId>,
    named: Vec<Eviction>,
}

impl<'p> Replay<'p> {
    fn new(policies: Vec<Box<dyn DensePolicy + 'p>>, domain: usize) -> Self {
        let lane = |policy| Lane {
            policy,
            freq_at_eviction: Histogram::new(),
            eviction_age: Histogram::new(),
            series: None,
            prev: PolicyStats::default(),
        };
        Replay {
            lanes: policies.into_iter().map(lane).collect(),
            ignore_size: false,
            observer: None,
            fed: 0,
            domain,
            // One request evicts a handful of objects at most; sized once
            // so the loop never grows it.
            evs: Vec::with_capacity(64),
            ids: Vec::new(),
            named: Vec::new(),
        }
    }

    /// One policy per registry name, over `0..domain`; `trace`'s slots are
    /// what Belady reads.
    fn named(
        names: &[&str],
        capacity: u64,
        trace: Option<&[u32]>,
        domain: usize,
    ) -> Result<Self, CacheError> {
        let policies = names
            .iter()
            .map(|name| registry::build_dense_domain(name, capacity, trace, domain))
            .collect::<Result<_, _>>()?;
        Ok(Self::new(policies, domain))
    }

    /// A replay of `trace` at `capacity` through the named policies. Results
    /// come back in the order of `names`.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheError`] from the registry (unknown name, bad
    /// parameter).
    pub fn on_trace(names: &[&str], trace: &Trace, capacity: u64) -> Result<Self, CacheError> {
        Self::named(names, capacity, Some(trace.slots()), trace.footprint())
    }

    /// [`on_trace`](Self::on_trace) for a stream whose ids all lie below
    /// `id_space` (a `.ctr` header's): the policies start over the empty
    /// domain with room reserved for `id_space` slots, and grow as the
    /// stream names ids ([`feed_ctr`](Self::feed_ctr) numbers them in
    /// first-appearance order). There is no trace, so `Belady`, which needs
    /// the whole of it, is refused by the registry.
    ///
    /// # Errors
    ///
    /// As [`on_trace`](Self::on_trace).
    pub fn on_dense_ids(names: &[&str], id_space: u64, capacity: u64) -> Result<Self, CacheError> {
        let mut replay = Self::named(names, capacity, None, 0)?;
        // The `.ctr` header bounds id_space by 2^32, so this never clamps.
        replay.grow(0, usize::try_from(id_space).unwrap_or(usize::MAX))?;
        Ok(replay)
    }

    /// A replay through the caller's dense policy, which must be fresh. It
    /// is grown ([`DensePolicy::grow_domain`]) to cover the slots it is fed.
    pub fn dense(policy: Box<dyn DensePolicy + 'p>) -> Self {
        Self::new(vec![policy], 0)
    }

    /// Grows every lane to cover slots `0..domain`, with room for `reserve`
    /// ([`DensePolicy::grow_domain`]).
    pub(crate) fn grow(&mut self, domain: usize, reserve: usize) -> Result<(), CacheError> {
        for lane in &mut self.lanes {
            lane.policy.grow_domain(domain, reserve)?;
        }
        self.domain = self.domain.max(domain);
        Ok(())
    }

    /// Replays every request at size 1 (capacities are then object counts)
    /// without materialising a unit-size copy of the stream.
    pub fn ignore_size(mut self, ignore_size: bool) -> Self {
        self.ignore_size = ignore_size;
        self
    }

    /// Keeps a miss-ratio series of `window` reads per window for every
    /// policy. Windows count reads only, so the totals equal the end-of-run
    /// stats; `u64::MAX` is one window spanning the run.
    pub fn window(mut self, window: u64) -> Self {
        for lane in &mut self.lanes {
            lane.series = Some(MissRatioSeries::new(window));
        }
        self
    }

    /// Calls `observer` after every request.
    ///
    /// # Errors
    ///
    /// An observer watches one policy, so this is refused on a gang.
    pub fn observer(mut self, observer: &'p mut dyn RequestObserver) -> Result<Self, CacheError> {
        if self.lanes.len() != 1 {
            return Err(CacheError::InvalidParameter(
                "an observer watches exactly one policy".into(),
            ));
        }
        self.observer = Some(observer);
        Ok(self)
    }

    /// Replays the next chunk of the stream. `slots` is parallel to `reqs`
    /// and names each request's dense slot. The policies are first grown to
    /// cover every slot named.
    ///
    /// # Errors
    ///
    /// [`DensePolicy::grow_domain`]'s, when a policy cannot grow to the
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

    /// [`feed`](Self::feed) for a chunk whose slots every lane already
    /// covers.
    pub(crate) fn feed_covered(&mut self, slots: &[u32], reqs: &[Request]) {
        assert_eq!(slots.len(), reqs.len(), "slots must parallel reqs");
        if !self.feed_bulk(slots, reqs) {
            self.feed_each(slots, reqs);
        }
        self.fed += reqs.len() as u64;
    }

    /// The bulk path, taken (and `true`) when the replay drives a lone
    /// unobserved policy: one `DensePolicy::replay` per chunk, or per series
    /// window when one is kept. A window's counts are stats deltas, so each
    /// call must end exactly where the open window's read budget does;
    /// finding that point scans the chunk, which is skipped when there is no
    /// window to close before the stream ends.
    fn feed_bulk(&mut self, slots: &[u32], reqs: &[Request]) -> bool {
        let ([lane], None) = (self.lanes.as_mut_slice(), &self.observer) else {
            return false;
        };
        let policy = &mut lane.policy;
        let mut base = 0;
        while base < reqs.len() {
            let end = match &lane.series {
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
            let (freq, age) = (&mut lane.freq_at_eviction, &mut lane.eviction_age);
            policy.replay(
                &slots[base..end],
                &reqs[base..end],
                self.ignore_size,
                &mut |i, e| {
                    freq.record(u64::from(e.freq));
                    age.record(e.age(first + i as u64));
                },
            );
            if let Some(series) = &mut lane.series {
                let cur = policy.stats();
                series.record_window(cur.gets - lane.prev.gets, cur.misses - lane.prev.misses);
                lane.prev = cur;
            }
            base = end;
        }
        true
    }

    /// The per-request loop, for gangs and observed runs: every policy sees
    /// request `i` before any sees `i + 1`.
    fn feed_each(&mut self, slots: &[u32], reqs: &[Request]) {
        for (i, r) in reqs.iter().enumerate() {
            if let Some(&ahead) = slots.get(i + LOOKAHEAD) {
                for lane in &self.lanes {
                    lane.policy.prefetch(ahead);
                }
            }
            let req = if self.ignore_size {
                Request { size: 1, ..*r }
            } else {
                *r
            };
            let now = self.fed + i as u64;
            for lane in &mut self.lanes {
                self.evs.clear();
                let outcome = lane.policy.request_dense(slots[i], &req, &mut self.evs);
                for e in &self.evs {
                    lane.freq_at_eviction.record(u64::from(e.freq));
                    lane.eviction_age.record(e.age(now));
                }
                if let Some(series) = &mut lane.series {
                    if outcome != Outcome::NotRead {
                        series.record(outcome.is_miss());
                    }
                }
                if let Some(observer) = &mut self.observer {
                    let slot = slots[i];
                    if self.ids.len() <= slot as usize {
                        self.ids.resize(self.domain, 0);
                    }
                    self.ids[slot as usize] = req.id;
                    let ids = &self.ids;
                    let named = self.evs.iter().map(|e| e.named(ids[e.id as usize]));
                    self.named.clear();
                    self.named.extend(named);
                    let evs = &self.named;
                    observer.after_request(now as usize, slot, &req, outcome, evs, &*lane.policy);
                }
            }
        }
    }

    /// Closes every series and returns one [`Replayed`] per policy, in the
    /// order the replay was built over them, labelled with `trace`.
    pub fn finish(self, trace: &str) -> Vec<Replayed> {
        let assemble = |mut lane: Lane<'_>| {
            let p = &lane.policy;
            let (algorithm, capacity, stats) = (p.name(), p.capacity(), p.stats());
            if let Some(series) = &mut lane.series {
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
                one_hit_eviction_fraction: lane.freq_at_eviction.zero_fraction(),
                freq_at_eviction: lane.freq_at_eviction,
                eviction_age: lane.eviction_age,
            };
            (result, lane.series)
        };
        self.lanes.into_iter().map(assemble).collect()
    }

    /// Feeds the whole of `trace`, [`DEFAULT_CHUNK_RECORDS`] requests at a
    /// time built from its columns into one reused buffer, and finishes.
    ///
    /// # Panics
    ///
    /// Panics when a policy the caller built cannot grow to the trace's
    /// footprint; the registry's all can.
    pub fn run(mut self, trace: &Trace) -> Vec<Replayed> {
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
    let replay = Replay::on_trace(&[name], trace, capacity)?.ignore_size(cfg.ignore_size);
    Ok(Some(replay.run(trace).remove(0).0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_trace::gen::WorkloadSpec;

    fn small_trace() -> Trace {
        WorkloadSpec::zipf("t", 20_000, 2000, 1.0, 7).generate()
    }

    #[test]
    fn simulate_counts_match_policy_stats() {
        let trace = small_trace();
        let p = Box::new(cache_policies::DenseLru::with_domain(100, 0).unwrap());
        let (r, series) = Replay::dense(p).ignore_size(true).run(&trace).remove(0);
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

    /// Combinations the driver cannot serve are refused when it is built,
    /// not mis-counted: an observer watches one lane, of any name.
    #[test]
    fn an_observer_is_refused_on_a_gang_and_watches_one_lane() {
        struct Count(usize);
        impl RequestObserver for Count {
            fn after_request(
                &mut self,
                _: usize,
                _: u32,
                _: &Request,
                _: Outcome,
                _: &[Eviction],
                _: &dyn DensePolicy,
            ) {
                self.0 += 1;
            }
        }
        let trace = small_trace();
        let mut gang = Count(0);
        assert!(Replay::on_trace(&["S3-FIFO", "Belady"], &trace, 100)
            .unwrap()
            .observer(&mut gang)
            .is_err());
        for name in registry::ALL_ALGORITHMS {
            let mut seen = Count(0);
            let replay = Replay::on_trace(&[name], &trace, 100).unwrap();
            let observed = replay.observer(&mut seen).unwrap().run(&trace);
            assert_eq!(observed[0].0.requests, 20_000, "{name}");
            assert_eq!(seen.0, 20_000, "{name}");
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
        let (r, _) = replay.finish("t").remove(0);
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
            let replay = Replay::on_trace(&[name], &trace, 150).unwrap();
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
