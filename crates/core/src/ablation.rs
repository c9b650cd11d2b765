//! Queue-type ablation of S3-FIFO (§6.3 "LRU or FIFO?").
//!
//! The paper asks whether replacing the FIFO queues with LRU queues (or
//! moving objects from `S` to `M` on cache hits instead of during eviction)
//! improves efficiency, and finds it does not: *"with quick demotion, the
//! queue type does not matter."*
//!
//! [`Qdlp`] (quick demotion + lazy promotion) generalizes S3-FIFO over those
//! choices: each of `S` and `M` can independently be a FIFO or an LRU queue
//! (and `M` can additionally be a SIEVE queue — §7 suggests "Sieve can be
//! used to replace the large FIFO queue in S3-FIFO to further improve
//! efficiency"), and promotion from `S` to `M` can happen at eviction time
//! (S3-FIFO) or immediately on the qualifying hit. `Qdlp` with both queues
//! FIFO and eviction-time promotion is exactly S3-FIFO.

use crate::policy::GhostFifo;
use cache_ds::{DList, Handle, IdMap};
use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};

/// Queue discipline for one of the two data queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Insertion-ordered; hits do not reorder. Eviction from the main queue
    /// uses two-bit reinsertion exactly as in S3-FIFO.
    Fifo,
    /// Hits promote to the queue head; eviction takes the tail without
    /// reinsertion.
    Lru,
    /// SIEVE discipline (main queue only): hits mark the entry in place; a
    /// persistent hand sweeps tail-to-head, clearing marks and evicting the
    /// first unmarked entry without any reinsertion.
    Sieve,
}

/// Configuration of the [`Qdlp`] ablation policy.
#[derive(Debug, Clone, Copy)]
pub struct QdlpConfig {
    /// Discipline of the small probationary queue.
    pub small: QueueKind,
    /// Discipline of the main queue.
    pub main: QueueKind,
    /// When true, an object in `S` whose frequency passes the promote
    /// threshold moves to `M` immediately on the hit; when false it moves at
    /// eviction time (S3-FIFO's behaviour).
    pub promote_on_hit: bool,
    /// Fraction of capacity for `S` (default 0.1).
    pub small_ratio: f64,
    /// Capped-frequency threshold (exclusive) for promotion, as in
    /// Algorithm 1 (`freq > 1`).
    pub promote_threshold: u8,
}

impl Default for QdlpConfig {
    fn default() -> Self {
        QdlpConfig {
            small: QueueKind::Fifo,
            main: QueueKind::Fifo,
            promote_on_hit: false,
            small_ratio: 0.1,
            promote_threshold: 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Small,
    Main,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    handle: Handle,
    loc: Loc,
    size: u32,
    freq: u8,
    hits: u32,
    insert_time: u64,
    last_access: u64,
}

/// The generalized quick-demotion/lazy-promotion policy used for the §6.3
/// ablation study.
#[derive(Debug)]
pub struct Qdlp {
    capacity: u64,
    s_capacity: u64,
    m_capacity: u64,
    cfg: QdlpConfig,
    table: IdMap<Entry>,
    small: DList<ObjId>,
    main: DList<ObjId>,
    /// SIEVE hand for the main queue (`None` = start at the tail).
    main_hand: Option<Handle>,
    ghost: GhostFifo,
    s_used: u64,
    m_used: u64,
    stats: PolicyStats,
}

impl Qdlp {
    /// Creates an ablation policy over `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] for a zero capacity or a small-queue ratio
    /// outside `(0, 1)`.
    pub fn new(capacity: u64, cfg: QdlpConfig) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        if !(cfg.small_ratio > 0.0 && cfg.small_ratio < 1.0) {
            return Err(CacheError::InvalidParameter(format!(
                "small_ratio must be in (0,1), got {}",
                cfg.small_ratio
            )));
        }
        if cfg.small == QueueKind::Sieve {
            return Err(CacheError::InvalidParameter(
                "the SIEVE discipline is only supported for the main queue".into(),
            ));
        }
        let s_capacity = ((capacity as f64 * cfg.small_ratio).round() as u64).max(1);
        let m_capacity = capacity.saturating_sub(s_capacity).max(1);
        Ok(Qdlp {
            capacity,
            s_capacity,
            m_capacity,
            cfg,
            table: IdMap::default(),
            small: DList::new(),
            main: DList::new(),
            main_hand: None,
            ghost: GhostFifo::new(m_capacity),
            s_used: 0,
            m_used: 0,
            stats: PolicyStats::default(),
        })
    }

    fn used_total(&self) -> u64 {
        self.s_used + self.m_used
    }

    /// Moves an entry from `S` to the head of `M`, clearing its access bits.
    fn move_small_to_main(&mut self, id: ObjId, now: u64, evicted: &mut Vec<Eviction>) {
        let entry = *self.table.get(&id).expect("entry exists");
        debug_assert_eq!(entry.loc, Loc::Small);
        self.small.remove(entry.handle);
        self.s_used -= u64::from(entry.size);
        let h = self.main.push_front(id);
        // Invariant: still tabled — only the queue handle changed.
        let e = self.table.get_mut(&id).expect("entry exists");
        e.handle = h;
        e.loc = Loc::Main;
        e.freq = 0;
        self.m_used += u64::from(entry.size);
        if self.m_used > self.m_capacity {
            self.evict_main(now, evicted);
        }
    }

    fn evict_small(&mut self, now: u64, evicted: &mut Vec<Eviction>) {
        while let Some(&tail_id) = self.small.back() {
            // Invariant: queued ids are always tabled.
            let entry = *self.table.get(&tail_id).expect("small tail in table");
            if entry.freq > self.cfg.promote_threshold {
                self.move_small_to_main(tail_id, now, evicted);
            } else {
                self.small.remove(entry.handle);
                self.s_used -= u64::from(entry.size);
                self.table.remove(&tail_id);
                self.ghost.insert(tail_id, entry.size);
                self.stats.evictions += 1;
                evicted.push(Eviction {
                    id: tail_id,
                    size: entry.size,
                    insert_time: entry.insert_time,
                    last_access_time: entry.last_access,
                    freq: entry.hits,
                    from_probationary: true,
                });
                return;
            }
        }
        if !self.main.is_empty() {
            self.evict_main(now, evicted);
        }
    }

    fn evict_main(&mut self, now: u64, evicted: &mut Vec<Eviction>) {
        if self.cfg.main == QueueKind::Sieve {
            self.evict_main_sieve(now, evicted);
            return;
        }
        while let Some(&tail_id) = self.main.back() {
            // Invariant: queued ids are always tabled.
            let entry = *self.table.get(&tail_id).expect("main tail in table");
            // An LRU main queue evicts the tail outright; a FIFO main queue
            // applies two-bit reinsertion.
            if self.cfg.main == QueueKind::Fifo && entry.freq > 0 {
                self.main.move_to_front(entry.handle);
                self.table.get_mut(&tail_id).expect("entry exists").freq -= 1;
                continue;
            }
            self.main.remove(entry.handle);
            self.m_used -= u64::from(entry.size);
            self.table.remove(&tail_id);
            self.stats.evictions += 1;
            evicted.push(Eviction {
                id: tail_id,
                size: entry.size,
                insert_time: entry.insert_time,
                last_access_time: entry.last_access,
                freq: entry.hits,
                from_probationary: false,
            });
            return;
        }
    }

    /// SIEVE eviction for the main queue: walk the hand from the tail
    /// toward the head; marked (freq > 0) entries are unmarked *in place*;
    /// the first unmarked entry is evicted and the hand rests just before
    /// it.
    fn evict_main_sieve(&mut self, _now: u64, evicted: &mut Vec<Eviction>) {
        let mut cur = self
            .main_hand
            .filter(|&h| self.main.get(h).is_some())
            .or_else(|| self.main.back_handle());
        while let Some(h) = cur {
            // Invariant: the hand was just validated against the list; queued ids are tabled.
            let id = *self.main.get(h).expect("hand points at live node");
            let entry = *self.table.get(&id).expect("main id in table");
            if entry.freq > 0 {
                self.table.get_mut(&id).expect("entry exists").freq = 0;
                cur = self.main.prev_handle(h).or_else(|| self.main.back_handle());
            } else {
                self.main_hand = self.main.prev_handle(h);
                self.main.remove(entry.handle);
                self.m_used -= u64::from(entry.size);
                self.table.remove(&id);
                self.stats.evictions += 1;
                evicted.push(Eviction {
                    id,
                    size: entry.size,
                    insert_time: entry.insert_time,
                    last_access_time: entry.last_access,
                    freq: entry.hits,
                    from_probationary: false,
                });
                return;
            }
        }
    }

    fn make_room(&mut self, need: u32, now: u64, evicted: &mut Vec<Eviction>) {
        while self.used_total() + u64::from(need) > self.capacity {
            if self.s_used >= self.s_capacity || self.main.is_empty() {
                self.evict_small(now, evicted);
            } else {
                self.evict_main(now, evicted);
            }
            if self.table.is_empty() {
                break;
            }
        }
    }

    fn insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        // Ghost membership snapshot precedes eviction (see `DenseS3Fifo::insert`).
        let in_ghost = self.ghost.contains(req.id);
        self.make_room(req.size, req.time, evicted);
        let (handle, loc) = if in_ghost {
            self.ghost.remove(req.id);
            self.m_used += u64::from(req.size);
            (self.main.push_front(req.id), Loc::Main)
        } else {
            self.s_used += u64::from(req.size);
            (self.small.push_front(req.id), Loc::Small)
        };
        self.table.insert(
            req.id,
            Entry {
                handle,
                loc,
                size: req.size,
                freq: 0,
                hits: 0,
                insert_time: req.time,
                last_access: req.time,
            },
        );
        if loc == Loc::Main && self.m_used > self.m_capacity {
            self.evict_main(req.time, evicted);
        }
    }

    fn on_hit(&mut self, id: ObjId, now: u64, evicted: &mut Vec<Eviction>) {
        let (loc, freq, handle) = {
            // Invariant: on_hit fires only after a successful lookup.
            let e = self.table.get_mut(&id).expect("hit entry exists");
            e.freq = (e.freq + 1).min(3);
            e.hits += 1;
            e.last_access = now;
            (e.loc, e.freq, e.handle)
        };
        match loc {
            Loc::Small => {
                if self.cfg.promote_on_hit && freq > self.cfg.promote_threshold {
                    self.move_small_to_main(id, now, evicted);
                } else if self.cfg.small == QueueKind::Lru {
                    self.small.move_to_front(handle);
                }
            }
            Loc::Main => {
                if self.cfg.main == QueueKind::Lru {
                    self.main.move_to_front(handle);
                }
            }
        }
    }

    fn delete(&mut self, id: ObjId) -> bool {
        if let Some(entry) = self.table.remove(&id) {
            match entry.loc {
                Loc::Small => {
                    self.small.remove(entry.handle);
                    self.s_used -= u64::from(entry.size);
                }
                Loc::Main => {
                    if self.main_hand == Some(entry.handle) {
                        self.main_hand = self.main.prev_handle(entry.handle);
                    }
                    self.main.remove(entry.handle);
                    self.m_used -= u64::from(entry.size);
                }
            }
            true
        } else {
            false
        }
    }
}

impl Policy for Qdlp {
    fn name(&self) -> String {
        let q = |k: QueueKind| match k {
            QueueKind::Fifo => "FIFO",
            QueueKind::Lru => "LRU",
            QueueKind::Sieve => "SIEVE",
        };
        format!(
            "QDLP(S={},M={}{})",
            q(self.cfg.small),
            q(self.cfg.main),
            if self.cfg.promote_on_hit {
                ",hit-move"
            } else {
                ""
            }
        )
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used_total()
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn contains(&self, id: ObjId) -> bool {
        self.table.contains_key(&id)
    }

    fn request(&mut self, req: &Request, evicted: &mut Vec<Eviction>) -> Outcome {
        match req.op {
            Op::Get => {
                if self.table.contains_key(&req.id) {
                    self.on_hit(req.id, req.time, evicted);
                    self.stats.record_get(req.size, false);
                    Outcome::Hit
                } else if u64::from(req.size) > self.capacity {
                    self.stats.record_get(req.size, true);
                    Outcome::Uncacheable
                } else {
                    self.stats.record_get(req.size, true);
                    self.insert(req, evicted);
                    Outcome::Miss
                }
            }
            Op::Set => {
                self.delete(req.id);
                if u64::from(req.size) <= self.capacity {
                    self.insert(req, evicted);
                }
                Outcome::NotRead
            }
            Op::Delete => {
                self.delete(req.id);
                Outcome::NotRead
            }
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::S3Fifo;

    fn run(policy: &mut dyn Policy, ids: &[u64]) -> PolicyStats {
        let mut evs = Vec::new();
        for (t, &id) in ids.iter().enumerate() {
            evs.clear();
            policy.request(&Request::get(id, t as u64), &mut evs);
        }
        policy.stats()
    }

    /// A deterministic skewed workload for differential tests.
    fn skewed_trace(n: usize, universe: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = state >> 33;
                if r % 3 == 0 {
                    r % 8 // hot set
                } else {
                    r % universe
                }
            })
            .collect()
    }

    #[test]
    fn default_config_matches_s3fifo_exactly() {
        // Qdlp(FIFO, FIFO, eviction-time promotion) *is* S3-FIFO; the two
        // implementations must agree request-by-request.
        let trace = skewed_trace(30_000, 2000, 7);
        let mut a = Qdlp::new(128, QdlpConfig::default()).unwrap();
        let mut b = S3Fifo::new(128).unwrap();
        let mut evs = Vec::new();
        for (t, &id) in trace.iter().enumerate() {
            evs.clear();
            let ra = a.request(&Request::get(id, t as u64), &mut evs);
            evs.clear();
            let rb = b.request(&Request::get(id, t as u64), &mut evs);
            assert_eq!(ra, rb, "diverged at request {t} (id {id})");
        }
        assert_eq!(a.stats().misses, b.stats().misses);
    }

    #[test]
    fn all_variants_respect_capacity() {
        let trace = skewed_trace(10_000, 500, 3);
        for small in [QueueKind::Fifo, QueueKind::Lru] {
            for main in [QueueKind::Fifo, QueueKind::Lru] {
                for promote_on_hit in [false, true] {
                    let cfg = QdlpConfig {
                        small,
                        main,
                        promote_on_hit,
                        ..Default::default()
                    };
                    let mut p = Qdlp::new(64, cfg).unwrap();
                    let mut evs = Vec::new();
                    for (t, &id) in trace.iter().enumerate() {
                        evs.clear();
                        p.request(&Request::get(id, t as u64), &mut evs);
                        assert!(p.used() <= 64, "{} over capacity", p.name());
                    }
                    assert!(p.stats().misses > 0);
                }
            }
        }
    }

    #[test]
    fn variants_have_similar_efficiency() {
        // §6.3: queue type should not matter much once quick demotion is in
        // place. Allow a generous band, but all variants must be within a
        // few points of each other on a skewed workload.
        let trace = skewed_trace(50_000, 4000, 11);
        let mut ratios = Vec::new();
        for small in [QueueKind::Fifo, QueueKind::Lru] {
            for main in [QueueKind::Fifo, QueueKind::Lru] {
                let cfg = QdlpConfig {
                    small,
                    main,
                    ..Default::default()
                };
                let mut p = Qdlp::new(256, cfg).unwrap();
                let s = run(&mut p, &trace);
                ratios.push(s.miss_ratio());
            }
        }
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 0.08, "variants diverge too much: {ratios:?}");
    }

    #[test]
    fn promote_on_hit_moves_to_main_immediately() {
        let cfg = QdlpConfig {
            promote_on_hit: true,
            ..Default::default()
        };
        let mut p = Qdlp::new(100, cfg).unwrap();
        let mut evs = Vec::new();
        p.request(&Request::get(1, 0), &mut evs);
        p.request(&Request::get(1, 1), &mut evs); // freq 1
        assert_eq!(p.table[&1].loc, Loc::Small);
        p.request(&Request::get(1, 2), &mut evs); // freq 2 > 1: move now
        assert_eq!(p.table[&1].loc, Loc::Main);
        assert_eq!(p.main.len(), 1);
    }

    #[test]
    fn lru_small_queue_reorders_on_hit() {
        let cfg = QdlpConfig {
            small: QueueKind::Lru,
            ..Default::default()
        };
        let mut p = Qdlp::new(100, cfg).unwrap();
        let mut evs = Vec::new();
        p.request(&Request::get(1, 0), &mut evs);
        p.request(&Request::get(2, 1), &mut evs);
        p.request(&Request::get(1, 2), &mut evs); // promotes 1 to S head
        assert_eq!(p.small.back(), Some(&2));
        assert_eq!(p.small.front(), Some(&1));
    }

    #[test]
    fn name_encodes_variant() {
        let p = Qdlp::new(
            10,
            QdlpConfig {
                small: QueueKind::Lru,
                main: QueueKind::Fifo,
                promote_on_hit: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(p.name(), "QDLP(S=LRU,M=FIFO,hit-move)");
    }

    #[test]
    fn sieve_main_keeps_marked_entries_in_place() {
        let cfg = QdlpConfig {
            main: QueueKind::Sieve,
            ..Default::default()
        };
        let mut p = Qdlp::new(100, cfg).unwrap();
        let trace = skewed_trace(30_000, 2000, 13);
        let mut evs = Vec::new();
        for (t, &id) in trace.iter().enumerate() {
            evs.clear();
            p.request(&Request::get(id, t as u64), &mut evs);
            assert!(p.used() <= 100, "over capacity");
        }
        assert!(p.stats().misses > 0);
        assert_eq!(p.name(), "QDLP(S=FIFO,M=SIEVE)");
    }

    #[test]
    fn sieve_main_efficiency_close_to_fifo_main() {
        // §7: Sieve in M should match or improve on FIFO-reinsertion in M.
        let trace = skewed_trace(50_000, 4000, 19);
        let mut fifo_m = Qdlp::new(256, QdlpConfig::default()).unwrap();
        let mr_fifo = run(&mut fifo_m, &trace).miss_ratio();
        let mut sieve_m = Qdlp::new(
            256,
            QdlpConfig {
                main: QueueKind::Sieve,
                ..Default::default()
            },
        )
        .unwrap();
        let mr_sieve = run(&mut sieve_m, &trace).miss_ratio();
        assert!(
            mr_sieve <= mr_fifo + 0.02,
            "SIEVE main {mr_sieve:.4} should be close to FIFO main {mr_fifo:.4}"
        );
    }

    #[test]
    fn sieve_small_is_rejected() {
        let cfg = QdlpConfig {
            small: QueueKind::Sieve,
            ..Default::default()
        };
        assert!(Qdlp::new(100, cfg).is_err());
    }

    #[test]
    fn rejects_invalid_config() {
        assert!(Qdlp::new(0, QdlpConfig::default()).is_err());
        assert!(Qdlp::new(
            10,
            QdlpConfig {
                small_ratio: 1.0,
                ..Default::default()
            }
        )
        .is_err());
    }
}
