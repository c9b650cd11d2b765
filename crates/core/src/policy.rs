//! The S3-FIFO eviction policy (Algorithm 1 of the paper).
//!
//! [`DenseS3Fifo`] is the one simulation-grade implementation: three queues
//! threaded through a [`DenseSlab`], with an exact slot-indexed ghost (no
//! fingerprint collisions) so that miss ratios are bit-reproducible. It
//! supplies Algorithm 1's steps — a hit, an insertion, a removal — as a
//! [`SlabPolicy`], and [`serve`] answers each `Get`, `Set` and `Delete` with
//! them, as it does for every slab policy. The simulator drives it with
//! pre-interned slots; [`S3Fifo`] is the same policy behind the keyed
//! [`cache_types::Policy`] interface ([`Keyed`]). The production-style
//! fingerprint ghost lives in `cache-concurrent`'s `ConcurrentS3Fifo`.
//!
//! `S` and `M` are two [`Queue`]s. `EVICTS` (promote or ghost) is written
//! here; `EVICTM` is `M`'s own eviction rule. The §6.3 ablation ("LRU or
//! FIFO?") and §7's SIEVE-in-`M` are the same code: a [`Queues`] marker type
//! names the rule of `S` and of `M`. The default, [`FifoFifo`], is the
//! paper's design: a FIFO `S`, and an `M` under [`rule::Clock`], the
//! FIFO-reinsertion of Algorithm 1.
//!
//! Slot-state conventions (see [`crate::dense::Slot`]): `tag` is the queue
//! tag (`SMALL`/`MAIN`; 0 = absent), `freq` the two-bit access counter.

use crate::dense::{
    rule, serve, validate_queues, DensePolicy, DenseSlab, Keyed, Queue, Rule, SlabPolicy, SlotGhost,
};
use cache_ds::GhostFifo;
use cache_types::{CacheError, Eviction, Outcome, PolicyStats, Request};

/// Cap of the two-bit access counter (§4.1: "similar to a capped counter
/// with frequency up to 3").
pub const MAX_FREQ: u8 = 3;

/// The `S` tail moves to `M` iff its capped frequency exceeds this
/// (Algorithm 1 line 18: `t.freq > 1`), and falls into the ghost otherwise.
pub const PROMOTE_THRESHOLD: u8 = 1;

/// Configuration for [`S3Fifo`] / [`DenseS3Fifo`]. The ghost is not
/// configurable: it holds as many bytes of entries as `M` does (§4.1).
#[derive(Debug, Clone, Copy)]
pub struct S3FifoConfig {
    /// Fraction of the cache devoted to the small queue `S` (paper default
    /// 0.1; Fig. 11 sweeps 0.01–0.40).
    pub small_ratio: f64,
}

impl Default for S3FifoConfig {
    fn default() -> Self {
        S3FifoConfig { small_ratio: 0.1 }
    }
}

/// The queue rules of one S3-FIFO instantiation: a zero-sized marker, so
/// that the paper's instantiation pays nothing for the others.
pub trait Queues: std::fmt::Debug + Send + 'static {
    /// The rule of `S`. Only its hit matters: `EVICTS` takes `S`'s tail.
    type Small: Rule;
    /// The rule of `M`, which `EVICTM` follows.
    type Main: Rule;
    /// Display name; `None` for the paper's own design, which prints its
    /// small-queue ratio instead.
    const NAME: Option<&'static str>;
}

macro_rules! queues {
    ($(#[$doc:meta] $marker:ident = ($small:ident, $main:ident, $name:expr);)*) => {$(
        #[$doc]
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $marker;

        impl Queues for $marker {
            type Small = rule::$small;
            type Main = rule::$main;
            const NAME: Option<&'static str> = $name;
        }
    )*};
}

queues! {
    /// The paper's design: a FIFO `S`, and FIFO-reinsertion in `M`.
    FifoFifo = (Fifo, Clock, None);
    /// §6.3: `S` is an LRU queue.
    LruFifo = (Lru, Clock, Some("QDLP(S=LRU,M=FIFO)"));
    /// §6.3: `M` is an LRU queue.
    FifoLru = (Fifo, Lru, Some("QDLP(S=FIFO,M=LRU)"));
    /// §6.3: both queues LRU (ARC-like data queues).
    LruLru = (Lru, Lru, Some("QDLP(S=LRU,M=LRU)"));
    /// §7: SIEVE replaces the main FIFO queue.
    FifoSieve = (Fifo, Sieve, Some("QDLP(S=FIFO,M=SIEVE)"));
}

/// Which data queue a slot currently lives in.
const SMALL: u8 = 1;
const MAIN: u8 = 2;

/// The S3-FIFO eviction policy over dense slots, with queue rules `Q`.
#[derive(Debug)]
pub struct DenseS3Fifo<Q: Queues = FifoFifo> {
    capacity: u64,
    s_capacity: u64,
    m_capacity: u64,
    cfg: S3FifoConfig,

    slab: DenseSlab,
    /// Small queue; head = most recent insert, tail = next eviction.
    small: Queue<Q::Small>,
    /// Main queue, same orientation.
    main: Queue<Q::Main>,
    ghost: SlotGhost,

    stats: PolicyStats,
    ghost_hits: u64,
}

/// The paper's design. Constructors that do not name a [`Queues`] marker
/// live here, not in the generic `impl`, so that `DenseS3Fifo::with_domain`
/// resolves in expression position (as `HashMap::new` does).
impl DenseS3Fifo {
    /// Creates an S3-FIFO cache with default parameters (S = 10 %) over the
    /// dense domain `0..domain`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn with_domain(capacity: u64, domain: usize) -> Result<Self, CacheError> {
        Self::with_config_domain(capacity, S3FifoConfig::default(), domain)
    }

    /// Creates an S3-FIFO cache with an explicit configuration over the
    /// dense domain `0..domain` (the trace's footprint, or 0 for a stream
    /// that grows it with [`DensePolicy::grow_domain`]).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] when the capacity is zero or the small-queue
    /// ratio is outside `(0, 1)`.
    pub fn with_config_domain(
        capacity: u64,
        cfg: S3FifoConfig,
        domain: usize,
    ) -> Result<Self, CacheError> {
        Self::build(capacity, cfg, domain)
    }
}

impl<Q: Queues> DenseS3Fifo<Q> {
    /// Creates the S3-FIFO variant with queue disciplines `queues` (S = 10 %)
    /// over the dense domain `0..domain`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn with_queues(capacity: u64, _queues: Q, domain: usize) -> Result<Self, CacheError> {
        Self::build(capacity, S3FifoConfig::default(), domain)
    }

    fn build(capacity: u64, cfg: S3FifoConfig, domain: usize) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        if !(cfg.small_ratio > 0.0 && cfg.small_ratio < 1.0) {
            return Err(CacheError::InvalidParameter(format!(
                "small_ratio must be in (0,1), got {}",
                cfg.small_ratio
            )));
        }
        let s_capacity = ((capacity as f64 * cfg.small_ratio).round() as u64).max(1);
        let m_capacity = capacity.saturating_sub(s_capacity).max(1);
        Ok(DenseS3Fifo {
            capacity,
            s_capacity,
            m_capacity,
            cfg,
            // "The same number of ghost entries as M" (§4.1), in bytes.
            ghost: SlotGhost::new(domain, m_capacity),
            slab: DenseSlab::with_domain(domain),
            small: Queue::new(SMALL),
            main: Queue::new(MAIN),
            stats: PolicyStats::default(),
            ghost_hits: 0,
        })
    }

    /// Byte capacity of the small queue.
    pub fn small_capacity(&self) -> u64 {
        self.s_capacity
    }

    /// Byte capacity of the main queue.
    pub fn main_capacity(&self) -> u64 {
        self.m_capacity
    }

    /// Number of ghost entries currently tracked (O(slots): a diagnostic).
    pub fn ghost_len(&self) -> usize {
        self.ghost.marked()
    }

    /// Number of misses that hit in the ghost queue (inserted directly to M).
    pub fn ghost_hits(&self) -> u64 {
        self.ghost_hits
    }

    /// Rebalances the S/M split to give `s_capacity` bytes to the small
    /// queue (used by the adaptive variant, §6.2.2). The ghost window tracks
    /// the new main capacity. Queues shrink lazily through future evictions.
    fn set_small_capacity(&mut self, s_capacity: u64) {
        // Both queues keep a one-byte floor even at capacity 1, exactly like
        // the constructor (`clamp(1, capacity - 1)` would panic there).
        let s = s_capacity.clamp(1, self.capacity.saturating_sub(1).max(1));
        self.s_capacity = s;
        self.m_capacity = self.capacity.saturating_sub(s).max(1);
        self.ghost.set_capacity(self.m_capacity);
    }

    fn used_total(&self) -> u64 {
        self.small.bytes() + self.main.bytes()
    }

    fn len_total(&self) -> usize {
        (self.small.len() + self.main.len()) as usize
    }

    /// Evicts one object from `S`: the tail moves to `M` when its capped
    /// frequency exceeds [`PROMOTE_THRESHOLD`], otherwise it becomes a ghost
    /// (Algorithm 1, `EVICTS`).
    fn evict_small(&mut self, evicted: &mut Vec<Eviction<u32>>) {
        while let Some(tail) = self.small.evict(&mut self.slab) {
            let t = &mut self.slab.slots[tail as usize];
            if t.freq > PROMOTE_THRESHOLD {
                // Move to M; access bits are cleared during the move (§4.1).
                t.freq = 0;
                self.main.push(&mut self.slab, tail);
                if self.main.bytes() > self.m_capacity {
                    self.evict_main(evicted);
                }
            } else {
                self.ghost.insert(tail, t.size);
                evicted.push(self.slab.eviction(tail, true));
                return;
            }
        }
        // S drained without evicting anything: fall back to M.
        if !self.main.is_empty() {
            self.evict_main(evicted);
        }
    }

    /// Evicts one object from `M` by its rule (Algorithm 1, `EVICTM`, for
    /// the paper's design).
    fn evict_main(&mut self, evicted: &mut Vec<Eviction<u32>>) {
        if let Some(slot) = self.main.evict(&mut self.slab) {
            evicted.push(self.slab.eviction(slot, false));
        }
    }

    /// Frees space until `need` more bytes fit (Algorithm 1, `INSERT`'s
    /// eviction loop): evict from `S` when it is at or over target (or `M` is
    /// empty), otherwise from `M`.
    fn make_room(&mut self, need: u32, evicted: &mut Vec<Eviction<u32>>) {
        while self.used_total() + u64::from(need) > self.capacity {
            if self.small.bytes() >= self.s_capacity || self.main.is_empty() {
                self.evict_small(evicted);
            } else {
                self.evict_main(evicted);
            }
            if self.len_total() == 0 {
                break;
            }
        }
    }
}

impl<Q: Queues> SlabPolicy for DenseS3Fifo<Q> {
    fn with_capacity(capacity: u64) -> Result<Self, CacheError> {
        Self::build(capacity, S3FifoConfig::default(), 0)
    }

    fn name(&self) -> String {
        match Q::NAME {
            Some(name) => name.into(),
            None => format!("S3-FIFO({:.2})", self.cfg.small_ratio),
        }
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used_total()
    }

    fn len(&self) -> usize {
        self.len_total()
    }

    fn validate(&self) -> Result<(), String> {
        // No assertion that M's bytes fit `m_capacity`: promotions and ghost-hit
        // inserts trim M by one object, which with sized objects can leave M
        // over budget until the next trim (found by cache-check's
        // differential fuzzer; the reference interpreter agrees).
        let name = SlabPolicy::name(self);
        validate_queues(&name, self.capacity, &self.slab, &[&self.small, &self.main])?;
        let slots = &self.slab.slots;
        let mut resident = self
            .small
            .iter(&self.slab)
            .chain(self.main.iter(&self.slab));
        if let Some(s) =
            resident.find(|&s| slots[s as usize].freq > MAX_FREQ || self.ghost.contains(s))
        {
            return Err(format!(
                "{name}: slot {s} counts past the 2-bit cap or is also a ghost"
            ));
        }
        self.ghost.validate().map_err(|e| format!("ghost: {e}"))
    }

    fn state(&self) -> (&DenseSlab, &PolicyStats) {
        (&self.slab, &self.stats)
    }

    fn state_mut(&mut self) -> (&mut DenseSlab, &mut PolicyStats) {
        (&mut self.slab, &mut self.stats)
    }

    fn hit(&mut self, slot: u32, _req: &Request) {
        // Cache hit: atomically bump the capped counter (§4.1).
        let s = &mut self.slab.slots[slot as usize];
        s.freq = (s.freq + 1).min(MAX_FREQ);
        s.touch();
        // §6.3: an LRU queue also moves the object to its head; the paper's
        // FIFO queues do nothing here.
        if s.tag == SMALL {
            self.small.hit(&mut self.slab, slot);
        } else {
            self.main.hit(&mut self.slab, slot);
        }
    }

    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        // Ghost membership is decided before making room: the eviction loop
        // below inserts into the ghost itself and could otherwise displace
        // exactly the entry being looked up.
        let in_ghost = self.ghost.contains(slot);
        self.make_room(req.size, evicted);
        let s = &mut self.slab.slots[slot as usize];
        s.freq = 0;
        s.on_insert(req);
        if !in_ghost {
            self.small.push(&mut self.slab, slot);
            return;
        }
        self.ghost.remove(slot);
        self.ghost_hits += 1;
        self.main.push(&mut self.slab, slot);
        // A ghost-hit insert into M can overflow M; trim one object now.
        // With unit sizes this restores M's bytes to at most `m_capacity`
        // exactly; with sized objects a single-object trim can leave M
        // transiently over budget (still bounded by `used() <= capacity`).
        // The small queue is allowed to exceed its *target* transiently by
        // design.
        if self.main.bytes() > self.m_capacity {
            self.evict_main(evicted);
        }
    }

    fn remove(&mut self, slot: u32) {
        match self.slab.slots[slot as usize].tag {
            SMALL => self.small.remove(&mut self.slab, slot),
            MAIN => self.main.remove(&mut self.slab, slot),
            _ => {}
        }
    }

    /// Warms both queues' next eviction candidates and `slot`'s ghost mark.
    #[inline]
    fn warm(&self, slot: u32) {
        self.small.warm(&self.slab);
        self.main.warm(&self.slab);
        self.ghost.warm(slot);
    }
}

/// The S3-FIFO eviction policy behind the keyed [`cache_types::Policy`]
/// interface: [`DenseS3Fifo`] with ids interned on the fly.
pub type S3Fifo = Keyed<DenseS3Fifo>;

impl Keyed<DenseS3Fifo> {
    /// Creates an S3-FIFO cache with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] when the capacity is zero or the small-queue
    /// ratio is outside `(0, 1)`.
    pub fn with_config(capacity: u64, cfg: S3FifoConfig) -> Result<Self, CacheError> {
        DenseS3Fifo::with_config_domain(capacity, cfg, 0).map(Self::over)
    }
}

/// §6.2.2: each monitor ghost holds 5 % of the cache.
pub const MONITOR_RATIO: f64 = 0.05;
/// §6.2.2: combined monitor hits between two adaptation decisions.
pub const HITS_PER_DECISION: u64 = 100;
/// §6.2.2: a decision acts only when one monitor has at least 2× the
/// other's hits.
pub const IMBALANCE: f64 = 2.0;
/// §6.2.2: a decision moves 0.1 % of the cache between `S` and `M`.
pub const STEP_RATIO: f64 = 0.001;
/// Clamps on `S`'s share, so that neither queue can be adapted away.
pub const MIN_SMALL_RATIO: f64 = 0.005;
/// See [`MIN_SMALL_RATIO`].
pub const MAX_SMALL_RATIO: f64 = 0.5;

/// S3-FIFO-D: S3-FIFO with dynamically sized queues (§6.2.2), over dense
/// slots.
///
/// The paper's adaptive variant balances *marginal hits* on objects recently
/// evicted from `S` and from `M`. Two small monitor ghosts (5 % of the cache
/// each) remember recent evictions from each data queue. Each time the
/// monitors accumulate [`HITS_PER_DECISION`] hits combined, and one side has
/// at least [`IMBALANCE`]× the hits of the other, 0.1 % of the cache moves to
/// the queue whose evicted objects receive more hits.
///
/// The queues are a [`DenseS3Fifo`]; the monitors (`cache_ds::GhostFifo`)
/// are keyed by slot, which no door reuses, as the policy keeps ghosts.
/// §6.2.2 concludes that the static 10 % split beats the adaptive one on
/// most traces; `repro ablation_adaptive` reproduces that comparison.
#[derive(Debug)]
pub struct DenseS3FifoD {
    inner: DenseS3Fifo,
    /// Monitor ghost for objects evicted from `S`.
    mon_small: GhostFifo,
    /// Monitor ghost for objects evicted from `M`.
    mon_main: GhostFifo,
    hits_small: u64,
    hits_main: u64,
}

impl DenseS3FifoD {
    /// Creates an adaptive S3-FIFO starting from the default 10 % split, over
    /// the dense domain `0..domain`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn with_domain(capacity: u64, domain: usize) -> Result<Self, CacheError> {
        let inner = DenseS3Fifo::with_domain(capacity, domain)?;
        let mon_cap = ((capacity as f64 * MONITOR_RATIO).round() as u64).max(1);
        Ok(DenseS3FifoD {
            inner,
            mon_small: GhostFifo::new(mon_cap),
            mon_main: GhostFifo::new(mon_cap),
            hits_small: 0,
            hits_main: 0,
        })
    }

    /// Current small-queue size in bytes.
    pub fn small_target(&self) -> u64 {
        self.inner.s_capacity
    }

    fn maybe_adapt(&mut self) {
        if self.hits_small + self.hits_main < HITS_PER_DECISION {
            return;
        }
        let capacity = self.inner.capacity as f64;
        let step = ((capacity * STEP_RATIO).round() as u64).max(1);
        let min_s = ((capacity * MIN_SMALL_RATIO).round() as u64).max(1);
        let max_s = ((capacity * MAX_SMALL_RATIO).round() as u64).max(min_s);
        let (hs, hm) = (self.hits_small as f64, self.hits_main as f64);
        let s = self.inner.s_capacity;
        if hs >= hm * IMBALANCE {
            // Objects evicted from S keep getting requested: S is too small.
            self.inner.set_small_capacity((s + step).min(max_s));
        } else if hm >= hs * IMBALANCE {
            // Objects evicted from M are re-requested: M is too small.
            self.inner
                .set_small_capacity(s.saturating_sub(step).max(min_s));
        }
        self.hits_small = 0;
        self.hits_main = 0;
    }
}

impl SlabPolicy for DenseS3FifoD {
    fn with_capacity(capacity: u64) -> Result<Self, CacheError> {
        Self::with_domain(capacity, 0)
    }

    fn name(&self) -> String {
        "S3-FIFO-D".into()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    fn used(&self) -> u64 {
        self.inner.used_total()
    }

    fn len(&self) -> usize {
        self.inner.len_total()
    }

    fn validate(&self) -> Result<(), String> {
        SlabPolicy::validate(&self.inner)
    }

    fn state(&self) -> (&DenseSlab, &PolicyStats) {
        self.inner.state()
    }

    fn state_mut(&mut self) -> (&mut DenseSlab, &mut PolicyStats) {
        self.inner.state_mut()
    }

    fn hit(&mut self, slot: u32, req: &Request) {
        self.inner.hit(slot, req);
    }

    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        self.inner.admit(slot, req, evicted);
    }

    fn remove(&mut self, slot: u32) {
        self.inner.remove(slot);
    }

    #[inline]
    fn warm(&self, slot: u32) {
        self.inner.warm(slot);
    }

    fn step(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) -> Outcome {
        // Count marginal hits on the monitors before the queues change.
        if req.is_read() && !self.resident(slot) {
            self.hits_small += u64::from(self.mon_small.remove(u64::from(slot)));
            self.hits_main += u64::from(self.mon_main.remove(u64::from(slot)));
        }
        let before = evicted.len();
        let outcome = serve(self, slot, req, evicted);
        // Route fresh evictions into the matching monitor.
        for ev in &evicted[before..] {
            let monitor = if ev.from_probationary {
                &mut self.mon_small
            } else {
                &mut self.mon_main
            };
            monitor.insert(u64::from(ev.id), ev.size);
        }
        self.maybe_adapt();
        outcome
    }
}

/// S3-FIFO-D keyed by object id.
pub type S3FifoD = Keyed<DenseS3FifoD>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Slot;
    use cache_types::{ObjId, Op, Policy};
    use proptest::prelude::*;

    fn get(p: &mut impl Policy, id: ObjId, t: u64) -> Outcome {
        let mut evs = Vec::new();
        p.request(&Request::get(id, t), &mut evs)
    }

    /// The slot state of a resident (or ghosted) `id`.
    fn slot<Q: Queues>(p: &Keyed<DenseS3Fifo<Q>>, id: ObjId) -> &Slot {
        &p.slab.slots[p.slot_of(id).expect("id is interned") as usize]
    }

    /// The ids in `queue`, tail (next eviction) first.
    fn tail_first<Q: Queues, R: Rule>(p: &Keyed<DenseS3Fifo<Q>>, queue: &Queue<R>) -> Vec<ObjId> {
        let mut ids: Vec<ObjId> = queue.iter(&p.slab).map(|s| p.ids[s as usize]).collect();
        ids.reverse();
        ids
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(S3Fifo::new(0).is_err());
    }

    #[test]
    fn s3fifo_d_starts_from_the_default_split() {
        let mut p = S3FifoD::new(1000).unwrap();
        assert_eq!(p.small_target(), 100);
        assert_eq!(p.capacity(), 1000);
        assert_eq!(p.name(), "S3-FIFO-D");
        assert_eq!(get(&mut p, 1, 0), Outcome::Miss);
        assert_eq!(get(&mut p, 1, 1), Outcome::Hit);
        assert!(S3FifoD::new(0).is_err());
    }

    #[test]
    fn s3fifo_d_respects_capacity_under_load() {
        let mut p = S3FifoD::new(64).unwrap();
        let mut state = 99u64;
        for t in 0..20_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            get(&mut p, (state >> 33) % 1000, t);
            assert!(p.used() <= 64);
        }
        p.validate().unwrap();
    }

    #[test]
    fn s3fifo_d_grows_s_when_its_evictions_get_hits() {
        // §5.2's adversarial pattern under §6.2.2's own constants: every
        // object's second (and last) request arrives just after it fell out
        // of S, so it hits the S monitor — 5 % of the cache — and nothing
        // ever hits the M monitor. Each 100 such hits move 0.1 % of the
        // cache, one object here, from M to S.
        // The split must only ever move towards S, one step at a time.
        let mut p = S3FifoD::new(1000).unwrap();
        let start = p.small_target();
        let (mut next_id, mut oldest, mut last) = (0u64, 0u64, start);
        for t in 0..8000u64 {
            if oldest < next_id && !p.contains(oldest) {
                get(&mut p, oldest, t);
                oldest += 1;
            } else {
                get(&mut p, next_id, t);
                next_id += 1;
            }
            let now = p.small_target();
            assert!(
                now == last || now == last + 1,
                "S moved from {last} to {now} at request {t}"
            );
            last = now;
        }
        assert!(last >= start + 10, "S grew only to {last}");
        p.validate().unwrap();
    }

    #[test]
    fn s3fifo_d_monitors_count_reads_too_large_to_cache() {
        // Capacity 20: S holds 2, so the 21st insertion evicts id 0 from S
        // into the S monitor.
        let mut p = S3FifoD::new(20).unwrap();
        for t in 0..21u64 {
            get(&mut p, t, t);
        }
        let mut evs = Vec::new();
        let out = p.request(&Request::get_sized(0, 21, 21), &mut evs);
        assert_eq!(out, Outcome::Uncacheable);
        assert_eq!((p.hits_small, p.hits_main), (1, 0));
    }

    #[test]
    fn s3fifo_d_keeps_its_split_without_evictions() {
        let mut p = S3FifoD::new(100).unwrap();
        for t in 0..10_000u64 {
            get(&mut p, t % 50, t); // everything fits
        }
        assert_eq!(p.small_target(), 10, "no evictions -> no adaptation");
    }

    #[test]
    fn rejects_bad_ratio() {
        assert!(S3Fifo::with_config(10, S3FifoConfig { small_ratio: 0.0 }).is_err());
        assert!(S3Fifo::with_config(10, S3FifoConfig { small_ratio: 1.5 }).is_err());
    }

    /// Pins every constant of this implementation to the paper's text
    /// (Algorithm 1 and §4.1), walking objects through a whole life cycle.
    ///
    /// SNIPPETS.md's `OrderedDict` S3-FIFO is the same size as
    /// `cache_check::reference` and differs from the paper, and so from us,
    /// in three places: its frequency counter caps at 10, not 3; its small
    /// queue is an absolute `fifo_length=500000` entries unless `use_ratio`
    /// is set; and it *carries* the counter into `M` on promotion
    /// (`main_cache[item[0]] = item[1]`) where the paper clears it. It
    /// agrees on the ghost size (as many entries as `M`) and on the `> 1`
    /// promotion threshold.
    #[test]
    fn algorithm_1_constants_are_the_papers() {
        // §4.1: "S uses 10 % of the cache space", M the rest, and G holds
        // "the same number of ghost entries as M".
        assert_eq!(S3FifoConfig::default().small_ratio, 0.1);
        let mut p = S3Fifo::new(100).unwrap();
        assert_eq!((p.small_capacity(), p.main_capacity()), (10, 90));
        for i in 1_000..101_000u64 {
            get(&mut p, i, i);
        }
        assert_eq!(p.ghost_len(), 90, "a long scan fills G to exactly |M|");

        // §4.1: two bits per object, "a capped counter with frequency up to
        // 3". Object 1 is hit nine times, object 2 once.
        let mut p = S3Fifo::new(100).unwrap();
        for t in 0..10 {
            get(&mut p, 1, t);
        }
        assert_eq!((slot(&p, 1).freq, slot(&p, 1).hits), (MAX_FREQ, 9));
        assert_eq!(MAX_FREQ, 3);
        get(&mut p, 2, 10);
        get(&mut p, 2, 11);
        assert_eq!(slot(&p, 2).freq, 1);

        // Algorithm 1 line 18: the S tail moves to M iff `t.freq > 1`, and
        // §4.1 clears the access bits on the move; otherwise it falls into G.
        assert_eq!(PROMOTE_THRESHOLD, 1);
        for i in 100..198 {
            get(&mut p, i, i); // the cache is now full, 1 and 2 at the S tail
        }
        get(&mut p, 198, 198);
        assert_eq!((slot(&p, 1).tag, slot(&p, 1).freq), (MAIN, 0));
        assert!(!p.contains(2), "freq 1 is not > 1: object 2 fell into G");

        // Algorithm 1 line 8: a miss on an id in G inserts straight into M.
        assert_eq!(get(&mut p, 2, 199), Outcome::Miss);
        assert_eq!((slot(&p, 2).tag, p.ghost_hits()), (MAIN, 1));

        // Algorithm 1 lines 27–29: the M tail is reinserted with `freq - 1`
        // while `freq > 0`, evicted once it reaches 0. Capacity 10 gives
        // |M| = 9: nine ghost hits fill M, a tenth overflows it.
        let mut p = S3Fifo::new(10).unwrap();
        for i in 0..20 {
            get(&mut p, i, i); // ids 1..=9 end up in G
        }
        for i in 1..=9 {
            get(&mut p, i, 100 + i);
        }
        assert_eq!(p.main.len(), 9);
        get(&mut p, 1, 200);
        get(&mut p, 1, 201); // M's tail, freq 2
        let ghosted = (10..20).find(|&i| p.slot_of(i).is_some_and(|s| p.ghost.contains(s)));
        get(&mut p, ghosted.expect("a scan id is still in G"), 300);
        assert!(p.contains(1) && slot(&p, 1).freq == 1, "reinserted with freq - 1");
        assert!(!p.contains(2), "the next tail had freq 0 and was evicted");
        p.validate().unwrap();
    }

    /// §6.3: a hit in an LRU `S` moves the object to the head; in the
    /// paper's FIFO `S` it stays where it was inserted.
    #[test]
    fn lru_small_queue_reorders_on_hit() {
        let mut lru = Keyed::<DenseS3Fifo<LruFifo>>::new(100).unwrap();
        let mut fifo = S3Fifo::new(100).unwrap();
        for (t, id) in [1, 2, 1].into_iter().enumerate() {
            get(&mut lru, id, t as u64);
            get(&mut fifo, id, t as u64);
        }
        assert_eq!(tail_first(&lru, &lru.small), [2, 1]);
        assert_eq!(tail_first(&fifo, &fifo.small), [1, 2]);
    }

    /// §7: a SIEVE `M` unmarks hit objects *in place* — FIFO-reinsertion
    /// would move them to the head — and its hand steps off a slot that is
    /// deleted under it rather than falling back to the tail.
    #[test]
    fn sieve_main_unmarks_in_place_and_its_hand_survives_a_delete() {
        let mut p = Keyed::<DenseS3Fifo<FifoSieve>>::new(10).unwrap();
        for i in 0..20 {
            get(&mut p, i, i); // ids 1..=9 end up in G
        }
        for i in 1..=9 {
            get(&mut p, i, 100 + i); // ...and from there in M, 1 at the tail
        }
        // One more ghost hit overflows M and evicts from it.
        let overflow_main = |p: &mut Keyed<DenseS3Fifo<FifoSieve>>, t: u64| {
            let ghosted = (10..40).find(|&i| p.slot_of(i).is_some_and(|s| p.ghost.contains(s)));
            get(p, ghosted.expect("a scan id is still in G"), t);
        };
        get(&mut p, 1, 200);
        get(&mut p, 2, 201);
        overflow_main(&mut p, 300);
        assert_eq!(tail_first(&p, &p.main)[..3], [1, 2, 4], "3 evicted, 1 and 2 in place");
        assert_eq!((slot(&p, 1).freq, slot(&p, 2).freq), (0, 0));
        assert_eq!(p.slot_of(4), Some(p.main.hand), "the hand rests past the victim");

        let mut evs = Vec::new();
        p.request(&Request::delete(4, 301), &mut evs);
        assert_eq!(p.slot_of(5), Some(p.main.hand));
        p.validate().unwrap();
        overflow_main(&mut p, 400); // only refills the space the delete freed
        overflow_main(&mut p, 401);
        assert!(!p.contains(5), "the sweep resumed at the hand");
        assert!(p.contains(1) && p.contains(2), "a hand reset to the tail would take 1");
        p.validate().unwrap();
    }

    fn variant_holds_capacity<Q: Queues>(name: &str) {
        let mut p = Keyed::<DenseS3Fifo<Q>>::new(64).unwrap();
        assert_eq!(p.name(), name);
        let mut state = 3u64;
        let mut evs = Vec::new();
        for t in 0..10_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 33;
            let id = if r.is_multiple_of(3) { r % 8 } else { r % 500 };
            evs.clear();
            p.request(&Request::get(id, t), &mut evs);
            assert!(p.used() <= 64, "{name} over capacity at step {t}");
        }
        assert!(p.stats().misses > 0);
        p.validate().unwrap();
    }

    #[test]
    fn every_queue_type_variant_holds_capacity_under_its_name() {
        variant_holds_capacity::<FifoFifo>("S3-FIFO(0.10)");
        variant_holds_capacity::<LruFifo>("QDLP(S=LRU,M=FIFO)");
        variant_holds_capacity::<FifoLru>("QDLP(S=FIFO,M=LRU)");
        variant_holds_capacity::<LruLru>("QDLP(S=LRU,M=LRU)");
        variant_holds_capacity::<FifoSieve>("QDLP(S=FIFO,M=SIEVE)");
    }

    #[test]
    fn hit_after_insert() {
        let mut p = S3Fifo::new(10).unwrap();
        assert_eq!(get(&mut p, 1, 0), Outcome::Miss);
        assert_eq!(get(&mut p, 1, 1), Outcome::Hit);
        assert!(p.contains(1));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn new_objects_enter_small_queue() {
        let mut p = S3Fifo::new(100).unwrap();
        get(&mut p, 1, 0);
        assert_eq!(p.small.len(), 1);
        assert_eq!(p.main.len(), 0);
    }

    #[test]
    fn one_hit_wonders_fall_to_ghost() {
        let mut p = S3Fifo::new(100).unwrap();
        // Evictions only begin once the whole cache is full (Algorithm 1's
        // INSERT); a pure scan then evicts one-hit wonders from S into the
        // ghost, never into M.
        for i in 0..150 {
            get(&mut p, i, i);
        }
        assert_eq!(p.main.len(), 0);
        assert!(p.ghost_len() > 0);
        assert!(p.used() <= 100);
    }

    #[test]
    fn ghost_hit_resurrects_into_main() {
        let mut p = S3Fifo::new(100).unwrap();
        for i in 0..150 {
            get(&mut p, i, i);
        }
        // Object 0 was evicted from S into the ghost; requesting it again is
        // a miss that inserts directly into M.
        assert!(!p.contains(0));
        assert_eq!(get(&mut p, 0, 1000), Outcome::Miss);
        assert!(p.contains(0));
        assert_eq!(p.ghost_hits(), 1);
        assert_eq!(p.main.len(), 1);
        p.validate().unwrap();
    }

    #[test]
    fn twice_accessed_object_promotes_to_main() {
        let mut p = S3Fifo::new(100).unwrap();
        get(&mut p, 1, 0);
        get(&mut p, 1, 1); // freq = 1
        get(&mut p, 1, 2); // freq = 2 > promote threshold 1
        for i in 100..250 {
            get(&mut p, i, i); // fill the cache, then push 1 to the S tail
        }
        assert!(p.contains(1), "hot object must survive via promotion to M");
        assert_eq!(slot(&p, 1).tag, MAIN);
        p.validate().unwrap();
    }

    #[test]
    fn once_accessed_object_is_not_promoted() {
        let mut p = S3Fifo::new(100).unwrap();
        get(&mut p, 1, 0);
        get(&mut p, 1, 1); // freq = 1, not > 1
        for i in 100..250 {
            get(&mut p, i, i);
        }
        assert!(!p.contains(1), "freq=1 object must fall into the ghost");
    }

    #[test]
    fn main_reinsertion_keeps_accessed_objects() {
        let mut p = S3Fifo::new(20).unwrap();
        // Drive object 1 into M: two hits, then fill the cache so the
        // eviction scan reaches it at the S tail and promotes it.
        get(&mut p, 1, 0);
        get(&mut p, 1, 1);
        get(&mut p, 1, 2);
        for i in 10..40 {
            get(&mut p, i, i);
        }
        assert_eq!(slot(&p, 1).tag, MAIN);
        // Access it in M, then keep scanning: FIFO-reinsertion must keep the
        // accessed M resident alive through further evictions.
        get(&mut p, 1, 50);
        for i in 100..200 {
            get(&mut p, i, i);
        }
        assert!(p.contains(1), "accessed M object must be reinserted");
        p.validate().unwrap();
    }

    #[test]
    fn capacity_never_exceeded_unit_sizes() {
        let mut p = S3Fifo::new(50).unwrap();
        for i in 0..1000u64 {
            get(&mut p, i % 97, i);
            assert!(p.used() <= 50, "used {} at step {}", p.used(), i);
        }
        p.validate().unwrap();
    }

    #[test]
    fn eviction_records_are_emitted() {
        let mut p = S3Fifo::new(10).unwrap();
        let mut evs = Vec::new();
        for i in 0..30u64 {
            p.request(&Request::get(i, i), &mut evs);
        }
        assert!(!evs.is_empty());
        // Every eviction from a scan of one-hit wonders is a probationary
        // eviction with zero post-insert accesses.
        assert!(evs.iter().all(|e| e.from_probationary));
        assert!(evs.iter().all(|e| e.is_one_hit_wonder()));
        assert_eq!(p.stats().evictions, evs.len() as u64);
    }

    #[test]
    fn delete_frees_space() {
        let mut p = S3Fifo::new(10).unwrap();
        get(&mut p, 1, 0);
        let mut evs = Vec::new();
        p.request(&Request::delete(1, 1), &mut evs);
        assert!(!p.contains(1));
        assert_eq!(p.used(), 0);
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn set_overwrites_size() {
        let mut p = S3Fifo::new(100).unwrap();
        let mut evs = Vec::new();
        p.request(&Request::get_sized(1, 10, 0), &mut evs);
        assert_eq!(p.used(), 10);
        p.request(
            &Request {
                id: 1,
                size: 30,
                time: 1,
                op: Op::Set,
            },
            &mut evs,
        );
        assert_eq!(p.used(), 30);
        assert!(p.contains(1));
    }

    #[test]
    fn oversized_object_is_uncacheable() {
        let mut p = S3Fifo::new(10).unwrap();
        let mut evs = Vec::new();
        let out = p.request(&Request::get_sized(1, 100, 0), &mut evs);
        assert_eq!(out, Outcome::Uncacheable);
        assert!(!p.contains(1));
        assert_eq!(p.stats().misses, 1);
    }

    #[test]
    fn byte_weighted_capacity() {
        let mut p = S3Fifo::new(100).unwrap();
        let mut evs = Vec::new();
        for i in 0..10u64 {
            p.request(&Request::get_sized(i, 25, i), &mut evs);
            assert!(p.used() <= 100);
        }
        p.validate().unwrap();
    }

    #[test]
    fn zipf_like_mixed_workload_invariants() {
        let mut p = S3Fifo::new(64).unwrap();
        let mut state = 12345u64;
        let mut evs = Vec::new();
        for t in 0..20_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = state >> 33;
            // Skewed: 1/2 of requests to 16 hot ids, rest spread over 4096.
            let id = if r.is_multiple_of(2) { r % 16 } else { r % 4096 };
            evs.clear();
            p.request(&Request::get(id, t), &mut evs);
        }
        p.validate().unwrap();
        assert!(p.used() <= 64);
        let s = p.stats();
        assert_eq!(s.gets, 20_000);
        assert!(s.miss_ratio() < 1.0);
    }

    #[test]
    fn name_reflects_ratio() {
        let p = S3Fifo::with_config(100, S3FifoConfig { small_ratio: 0.25 }).unwrap();
        assert_eq!(p.name(), "S3-FIFO(0.25)");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Randomized workloads never violate capacity or internal
        /// bookkeeping invariants.
        #[test]
        fn random_workload_invariants(
            cap in 4u64..200,
            ids in proptest::collection::vec(0u64..500, 1..2000),
        ) {
            let mut p = S3Fifo::new(cap).unwrap();
            let mut evs = Vec::new();
            for (t, id) in ids.iter().enumerate() {
                evs.clear();
                p.request(&Request::get(*id, t as u64), &mut evs);
                prop_assert!(p.used() <= cap);
            }
            p.validate().unwrap();
        }

        /// With sized objects the cache stays within capacity and the
        /// accounting matches the queues.
        #[test]
        fn sized_workload_invariants(
            ids in proptest::collection::vec(0u64..100, 1..1000),
        ) {
            let mut p = S3Fifo::new(100).unwrap();
            let mut evs = Vec::new();
            for (t, id) in ids.iter().enumerate() {
                evs.clear();
                // Sizes are a stable function of the id so that repeated
                // requests agree on the object's size.
                let size = 1 + (id % 39) as u32;
                p.request(&Request::get_sized(*id, size, t as u64), &mut evs);
                prop_assert!(p.used() <= 100);
            }
            p.validate().unwrap();
        }

        /// Hits never evict: processing a request for a cached object leaves
        /// the cache contents untouched.
        #[test]
        fn hits_do_not_evict(ids in proptest::collection::vec(0u64..50, 1..500)) {
            let mut p = S3Fifo::new(30).unwrap();
            let mut evs = Vec::new();
            for (t, id) in ids.iter().enumerate() {
                evs.clear();
                let was_cached = p.contains(*id);
                let before = p.len();
                let out = p.request(&Request::get(*id, t as u64), &mut evs);
                if was_cached {
                    prop_assert_eq!(out, Outcome::Hit);
                    prop_assert!(evs.is_empty());
                    prop_assert_eq!(p.len(), before);
                }
            }
        }
    }
}
