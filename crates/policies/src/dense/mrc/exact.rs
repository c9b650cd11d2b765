//! The exact single-pass FIFO MRC engine.
//!
//! For a pure-`Get`, unit-size stream, a FIFO of capacity `C` holds exactly
//! the last `C` *insertions* — a hit never reorders the queue, and an object
//! is reinserted only after its previous copy has been evicted, so the last
//! `C` insertions are distinct live objects. Keep one insertion counter `n`
//! per capacity and, per `(object, capacity)`, the index of the object's
//! latest insertion: the object is resident iff that index lies in the
//! window `(n - C, n]`. Hit/miss at every grid point then costs a compare
//! and (on miss) a store per lane — no queues, no links, no eviction scan.
//!
//! This is the place where CIPARSim's cache-intersection property is exact
//! rather than approximate, which is why `simulate_mrc` routes eligible
//! FIFO curves here whatever the width of the grid.

use super::{impl_slot_replay, validate_grid, MultiCapacityPolicy};
use cache_ds::DenseIds;
use cache_types::{CacheError, PolicyStats};
use std::sync::Arc;

/// Exact multi-capacity FIFO over pure-`Get` unit-size streams.
///
/// Produces, per grid capacity, statistics bit-identical to replaying
/// [`super::super::DenseFifo`] at that capacity with `ignore_size` — the
/// property test in `crates/sim/tests/mrc_equivalence.rs` and the MRC
/// differential in `cache-check` pin this.
///
/// Preconditions (enforced by the `simulate_mrc` routing, which is why
/// `replay` takes slots alone): every request is a `Get` of size 1, and the
/// trace has fewer than `u32::MAX` requests (insertion indices are stored
/// as `u32` per `(slot, lane)` to keep the hit path row one cache line
/// wide for typical grids).
pub struct MrcExactFifo {
    caps: Vec<u64>,
    /// Lanes per slot row.
    k: usize,
    /// Latest 1-based insertion index per `(slot, lane)`, interleaved as
    /// `ins[slot*k + lane]`; 0 = never inserted.
    ins: Vec<u32>,
    /// Per-lane insertion counter; equals that lane's miss count.
    n: Vec<u64>,
    /// Per-lane eviction horizon `max(0, n - cap)`: an index is resident
    /// iff it is strictly greater, which folds the `v != 0` and
    /// `v + cap > n` tests into one `u32` compare on the hit path (`v = 0`
    /// is never `> thresh` because `thresh >= 0`, and for `n < cap` the
    /// window `v + cap > n` always holds for live indices).
    thresh: Vec<u32>,
    /// Shared read counter (every lane sees every `Get`).
    gets: u64,
}

impl MrcExactFifo {
    /// Creates one FIFO lane per grid capacity over the interned domain.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] when the grid is empty or contains a zero.
    pub fn new(capacities: &[u64], ids: &Arc<DenseIds>) -> Result<Self, CacheError> {
        validate_grid(capacities)?;
        Ok(MrcExactFifo {
            caps: capacities.to_vec(),
            k: capacities.len(),
            // Written, not `calloc`ed: see DESIGN.md §10, "Workers".
            ins: cache_ds::huge::filled(ids.len() * capacities.len(), 0),
            n: vec![0; capacities.len()],
            thresh: vec![0; capacities.len()],
            gets: 0,
        })
    }

    /// One request's worth of work — the slot is all a pure-`Get`
    /// unit-size request carries.
    #[inline]
    fn step(&mut self, slot: u32) {
        self.gets += 1;
        let base = slot as usize * self.k;
        let row = &mut self.ins[base..base + self.k];
        // Branchless all-hit screen first: resident iff the latest
        // insertion is past the eviction horizon (see `thresh`), one u32
        // compare per lane with no data dependence, so the loop vectorizes
        // and the common hit-everywhere request never enters the update
        // loop below.
        let mut all_hit = true;
        for (v, t) in row.iter().zip(self.thresh.iter()) {
            all_hit &= *v > *t;
        }
        if all_hit {
            return; // FIFO does not touch state on a hit
        }
        for (lane, v) in row.iter_mut().enumerate() {
            if *v > self.thresh[lane] {
                continue;
            }
            let n = self.n[lane] + 1;
            self.n[lane] = n;
            debug_assert!(n < u64::from(u32::MAX), "insertion index overflows u32");
            *v = n as u32;
            self.thresh[lane] = n.saturating_sub(self.caps[lane]) as u32;
        }
    }

    /// Warms the slot's row for a request arriving shortly.
    #[inline]
    fn prefetch(&self, slot: u32) {
        // A k-lane row spans ceil(k/16) cache lines (u32 indices); warm
        // them all, not just the first.
        let base = slot as usize * self.k;
        let mut off = 0;
        while off < self.k {
            cache_ds::prefetch_read(&self.ins, base + off);
            off += 16;
        }
    }
}

impl MultiCapacityPolicy for MrcExactFifo {
    fn name(&self) -> String {
        "FIFO".into()
    }

    fn lane_stats(&self) -> Vec<PolicyStats> {
        self.caps
            .iter()
            .zip(self.n.iter())
            .map(|(&cap, &n)| PolicyStats {
                gets: self.gets,
                misses: n,
                // Unit sizes: evictions = insertions beyond what fits.
                evictions: n - n.min(cap),
                get_bytes: self.gets,
                miss_bytes: n,
            })
            .collect()
    }

    fn validate(&self) -> Result<(), String> {
        for (lane, (&cap, &n)) in self.caps.iter().zip(self.n.iter()).enumerate() {
            if u64::from(self.thresh[lane]) != n.saturating_sub(cap) {
                return Err(format!(
                    "exact FIFO lane {lane}: threshold {} != max(0, {n} - {cap})",
                    self.thresh[lane]
                ));
            }
            let resident = self
                .ins
                .iter()
                .skip(lane)
                .step_by(self.k)
                .filter(|&&v| v != 0 && u64::from(v) + cap > n)
                .count() as u64;
            if resident != n.min(cap) {
                return Err(format!(
                    "exact FIFO lane {lane} (cap {cap}): {resident} residents, expected {}",
                    n.min(cap)
                ));
            }
        }
        Ok(())
    }

    impl_slot_replay!();
}

#[cfg(test)]
mod tests {
    use super::super::super::DenseFifo;
    use super::*;
    use cache_types::{Op, Request};
    use s3fifo::dense::DensePolicy;

    fn get(id: u64, time: u64) -> Request {
        Request {
            time,
            id,
            size: 1,
            op: Op::Get,
        }
    }

    /// A small skewed pure-Get stream with an interned slot sequence.
    fn workload(len: usize, universe: u64) -> (Vec<Request>, Vec<u32>, Arc<DenseIds>) {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut reqs = Vec::with_capacity(len);
        for t in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let roll = state >> 33;
            // Half the accesses hit a hot eighth of the universe.
            let id = if roll.is_multiple_of(2) {
                roll % (universe / 8).max(1)
            } else {
                roll % universe
            };
            reqs.push(get(id, t as u64));
        }
        let (ids, slots) = DenseIds::intern(reqs.iter().map(|r| r.id));
        (reqs, slots, Arc::new(ids))
    }

    #[test]
    fn matches_per_capacity_dense_fifo() {
        let (reqs, slots, ids) = workload(4000, 96);
        let caps = [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89, 96, 200];
        let mut exact = MrcExactFifo::new(&caps, &ids).expect("valid grid");
        // Invariant: caps is non-empty and zero-free, so `new` cannot fail.
        exact.replay(&slots);
        exact.validate().expect("exact FIFO invariants hold");
        // Invariant: validate only fails on an engine bug this test exists
        // to catch.
        let lanes = exact.lane_stats();
        for (lane, &cap) in caps.iter().enumerate() {
            let mut dense = DenseFifo::with_domain(cap, ids.len()).expect("capacity > 0");
            // Invariant: every grid capacity above is positive.
            dense.replay(&slots, &reqs, true, &mut |_, _| {});
            assert_eq!(lanes[lane], dense.stats(), "capacity {cap}");
            assert_eq!(
                lanes[lane].miss_ratio().to_bits(),
                dense.stats().miss_ratio().to_bits(),
                "capacity {cap}"
            );
        }
    }

    #[test]
    fn duplicate_and_unsorted_grid_entries_are_independent_lanes() {
        let (_, slots, ids) = workload(1500, 48);
        let caps = [9u64, 3, 9, 1];
        let mut exact = MrcExactFifo::new(&caps, &ids).expect("valid grid");
        // Invariant: caps is non-empty and zero-free, so `new` cannot fail.
        exact.replay(&slots);
        let lanes = exact.lane_stats();
        assert_eq!(lanes[0], lanes[2], "duplicate capacities agree");
        assert!(lanes[3].misses >= lanes[1].misses);
        assert_eq!(MultiCapacityPolicy::name(&exact), "FIFO");
    }

    #[test]
    fn rejects_degenerate_grids() {
        let (_, _, ids) = workload(10, 4);
        assert!(MrcExactFifo::new(&[], &ids).is_err());
        assert!(MrcExactFifo::new(&[4, 0, 2], &ids).is_err());
    }
}
