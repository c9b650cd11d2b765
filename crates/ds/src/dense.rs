//! Dense-id interning — the libCacheSim layout.
//!
//! The simulator replays the same trace through many policies. Paying a hash
//! lookup per request per policy is the dominant cost of a sweep, so the
//! fast path interns each trace's 64-bit object ids into contiguous `u32`
//! *slots* once ([`DenseIds`]), and dense policies store per-object state in
//! a slab indexed by slot (`s3fifo::dense`), so a hit or an eviction touches
//! a handful of cache lines and zero hash buckets.

use crate::fx::FxBuildHasher;
use std::collections::HashMap;

/// Sentinel for "no slot" / "no neighbour".
pub const NIL: u32 = u32::MAX;

/// A one-time interning of 64-bit object ids to contiguous `u32` slots.
///
/// Built once per trace and shared read-only (behind an `Arc`) by every
/// simulation job replaying that trace. Slots are assigned in first-
/// appearance order, so `len()` equals the trace footprint.
#[derive(Debug, Default)]
pub struct DenseIds {
    slot_of: HashMap<u64, u32, FxBuildHasher>,
    orig: Vec<u64>,
}

impl DenseIds {
    /// Interns `ids` in order, returning the table plus the per-occurrence
    /// slot sequence (same length as the input).
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` distinct ids appear (a trace with
    /// four billion distinct objects does not fit the dense fast path).
    pub fn intern(ids: impl Iterator<Item = u64>) -> (Self, Vec<u32>) {
        let (lo, _) = ids.size_hint();
        let mut table = DenseIds {
            slot_of: HashMap::with_capacity_and_hasher(lo / 4 + 16, FxBuildHasher::default()),
            orig: Vec::new(),
        };
        let mut slots = crate::huge::with_capacity(lo);
        for id in ids {
            let next = table.orig.len() as u32;
            let slot = *table.slot_of.entry(id).or_insert(next);
            if slot == next {
                assert!(next < NIL, "dense-id domain exhausted");
                table.orig.push(id);
            }
            slots.push(slot);
        }
        (table, slots)
    }

    /// The slot assigned to `id`, if `id` appeared during interning.
    #[inline]
    pub fn slot_of(&self, id: u64) -> Option<u32> {
        self.slot_of.get(&id).copied()
    }

    /// The original id interned at `slot`.
    ///
    /// # Panics
    ///
    /// Panics when `slot >= len()`.
    #[inline]
    pub fn orig(&self, slot: u32) -> u64 {
        self.orig[slot as usize]
    }

    /// Number of distinct ids (the trace footprint).
    #[inline]
    pub fn len(&self) -> usize {
        self.orig.len()
    }

    /// True when no ids were interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.orig.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_first_appearance_order() {
        let ids = [10u64, 20, 10, 30, 20, 10];
        let (t, slots) = DenseIds::intern(ids.iter().copied());
        assert_eq!(slots, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.orig(0), 10);
        assert_eq!(t.orig(2), 30);
        assert_eq!(t.slot_of(20), Some(1));
        assert_eq!(t.slot_of(999), None);
    }

    #[test]
    fn empty_intern() {
        let (t, slots) = DenseIds::intern(std::iter::empty());
        assert!(t.is_empty());
        assert!(slots.is_empty());
    }
}
