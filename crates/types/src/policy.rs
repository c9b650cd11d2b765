//! The keyed eviction-policy abstraction and what every policy reports.
//!
//! A [`Policy`] owns the cache metadata for a fixed capacity (in bytes, or in
//! objects when every request has size 1) and processes one request at a
//! time, found by its object id. Evicted objects are reported through an
//! out-parameter so the simulator can compute the paper's eviction-time
//! metrics: frequency of objects at eviction (Fig. 4) and quick-demotion
//! speed/precision (Fig. 10).
//!
//! The simulator itself drives policies by dense slot instead, through
//! `s3fifo::dense::DensePolicy`: it lives beside the slab it is derived
//! from, and each slab policy's keyed [`Policy`] is `s3fifo::Keyed` over it.

use crate::request::{ObjId, Request};

/// The result of processing a read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The object was found in the cache.
    Hit,
    /// The object was not cached; it has been inserted (read-through).
    Miss,
    /// The request was not a read (e.g. a delete); no hit/miss applies.
    NotRead,
    /// The object is larger than the whole cache and was not admitted.
    Uncacheable,
}

impl Outcome {
    /// Returns true for [`Outcome::Miss`] and [`Outcome::Uncacheable`],
    /// i.e. whenever the backend must be consulted.
    #[inline]
    pub fn is_miss(self) -> bool {
        matches!(self, Outcome::Miss | Outcome::Uncacheable)
    }

    /// Returns true for [`Outcome::Hit`].
    #[inline]
    pub fn is_hit(self) -> bool {
        self == Outcome::Hit
    }
}

/// A record describing one object leaving the cache.
///
/// Policies emit one `Eviction` per object they remove to make room. The
/// simulator uses these to reconstruct the paper's Fig. 4 (frequency at
/// eviction) and Fig. 10 (quick-demotion speed and precision).
///
/// `I` is what names the object: an [`ObjId`] for a keyed [`Policy`], the
/// `u32` slot for a dense policy, whose door alone knows which id a slot
/// stands for ([`Eviction::named`] translates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction<I = ObjId> {
    /// The evicted object.
    pub id: I,
    /// Its size in bytes.
    pub size: u32,
    /// Logical time at which the object was (last) inserted.
    pub insert_time: u64,
    /// Number of accesses *after* insertion (0 for a one-hit wonder).
    pub freq: u32,
    /// True when the object was evicted from a probationary structure
    /// (S3-FIFO's small queue, TinyLFU's window, ARC's T1, …) without ever
    /// reaching the main region. Drives the demotion-speed metric.
    pub from_probationary: bool,
}

impl<I> Eviction<I> {
    /// The same record, naming the object `id`.
    #[inline]
    pub fn named<J>(self, id: J) -> Eviction<J> {
        Eviction {
            id,
            size: self.size,
            insert_time: self.insert_time,
            freq: self.freq,
            from_probationary: self.from_probationary,
        }
    }

    /// True when the object received no access between insertion and
    /// eviction — the paper's "one-hit wonder at eviction".
    #[inline]
    pub fn is_one_hit_wonder(&self) -> bool {
        self.freq == 0
    }

    /// Logical age of the object at eviction, the paper's "eviction age".
    #[inline]
    pub fn age(&self, now: u64) -> u64 {
        now.saturating_sub(self.insert_time)
    }
}

/// Running counters every policy keeps; used for cheap sanity checks and by
/// the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Number of read requests processed.
    pub gets: u64,
    /// Number of read misses.
    pub misses: u64,
    /// Number of objects evicted (not counting explicit deletes).
    pub evictions: u64,
    /// Bytes requested by reads.
    pub get_bytes: u64,
    /// Bytes missed by reads.
    pub miss_bytes: u64,
}

impl PolicyStats {
    /// Request miss ratio; 0 when no requests were observed.
    pub fn miss_ratio(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.misses as f64 / self.gets as f64
        }
    }

    /// Byte miss ratio; 0 when no bytes were requested.
    pub fn byte_miss_ratio(&self) -> f64 {
        if self.get_bytes == 0 {
            0.0
        } else {
            self.miss_bytes as f64 / self.get_bytes as f64
        }
    }

    /// Records a read of `size` bytes with hit/miss flag `miss`.
    #[inline]
    pub fn record_get(&mut self, size: u32, miss: bool) {
        self.gets += 1;
        self.get_bytes += u64::from(size);
        if miss {
            self.misses += 1;
            self.miss_bytes += u64::from(size);
        }
    }
}

/// A cache eviction policy driven by the simulator.
///
/// Implementations are single-threaded; the concurrent prototype in
/// `cache-concurrent` has its own interface because lock-free caches cannot
/// report evictions through `&mut Vec`. The `Send` bound lets a policy (or
/// a structure embedding `Box<dyn Policy>`, like the flash tier) move
/// behind a mutex shared across server threads — implementations own plain
/// data, so the bound costs nothing.
pub trait Policy: Send {
    /// Human-readable algorithm name, e.g. `"S3-FIFO(0.10)"`.
    fn name(&self) -> String;

    /// Total capacity in bytes (or objects, when sizes are all 1).
    fn capacity(&self) -> u64;

    /// Bytes currently used by cached objects.
    fn used(&self) -> u64;

    /// Number of objects currently cached.
    fn len(&self) -> usize;

    /// True when no objects are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `id` is currently cached (ghost entries do not count).
    fn contains(&self, id: ObjId) -> bool;

    /// Processes one request at logical time `req.time`, appending an
    /// [`Eviction`] record for every object removed to make room.
    fn request(&mut self, req: &Request, evicted: &mut Vec<Eviction>) -> Outcome;

    /// Checks the policy's internal structural invariants (byte accounting
    /// matches the queues, no duplicate residency, counters within their
    /// caps, ghost bounds, …), returning a description of the first
    /// violation found.
    ///
    /// Called between requests by the differential fuzzer (`cache-check`)
    /// and the tests that drive the keyed door; implementations may be
    /// O(n) in the number of cached objects — this is a verification hook,
    /// not a production path. The default performs no checks.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }

    /// Returns accumulated statistics.
    fn stats(&self) -> PolicyStats;
}

/// Convenience: run a full trace through a policy, discarding eviction
/// records, and return the final statistics.
pub fn run_trace<P: Policy + ?Sized>(policy: &mut P, reqs: &[Request]) -> PolicyStats {
    let mut evs = Vec::new();
    for r in reqs {
        evs.clear();
        policy.request(r, &mut evs);
    }
    policy.stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates() {
        assert!(Outcome::Hit.is_hit());
        assert!(!Outcome::Hit.is_miss());
        assert!(Outcome::Miss.is_miss());
        assert!(Outcome::Uncacheable.is_miss());
        assert!(!Outcome::NotRead.is_miss());
    }

    #[test]
    fn eviction_one_hit_wonder_flag() {
        let e = Eviction {
            id: 1,
            size: 1,
            insert_time: 10,
            freq: 0,
            from_probationary: true,
        };
        assert!(e.is_one_hit_wonder());
        assert_eq!(e.age(25), 15);
    }

    #[test]
    fn stats_ratios() {
        let mut s = PolicyStats::default();
        s.record_get(100, true);
        s.record_get(100, false);
        s.record_get(200, true);
        assert_eq!(s.gets, 3);
        assert_eq!(s.misses, 2);
        assert!((s.miss_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.byte_miss_ratio() - 300.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = PolicyStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.byte_miss_ratio(), 0.0);
    }

    #[test]
    fn eviction_age_saturates() {
        let e = Eviction {
            id: 1,
            size: 1,
            insert_time: 10,
            freq: 0,
            from_probationary: false,
        };
        assert_eq!(e.age(5), 0);
    }
}
