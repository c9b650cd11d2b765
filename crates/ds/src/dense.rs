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

/// How many ids ahead [`DenseIds::extend`] warms a direct table's entry:
/// far enough to overlap a fetch from memory with the lookups before it.
const LOOKAHEAD: usize = 16;

/// A one-time interning of 64-bit object ids to contiguous `u32` slots.
///
/// Built once per trace and shared read-only (behind an `Arc`) by every
/// simulation job replaying that trace. Slots are assigned in first-
/// appearance order, so `len()` equals the trace footprint.
///
/// Ids of unknown range go through a hash map ([`DenseIds::intern`]). When
/// the caller knows every id is below a bound — a `.ctr` header's id space —
/// [`DenseIds::bounded`] looks them up in a direct `u32` table instead, 4 B
/// per possible id and no hashing, and [`DenseIds::extend`] feeds it a chunk
/// at a time. Either way the slots come out the same.
#[derive(Debug)]
pub struct DenseIds {
    slot_of: SlotOf,
    orig: Vec<u64>,
}

/// Where an id's slot is looked up.
#[derive(Debug)]
enum SlotOf {
    Hashed(HashMap<u64, u32, FxBuildHasher>),
    /// `table[id]` is `id`'s slot, or [`NIL`] while `id` is unseen; every id
    /// is below `table.len()`.
    Direct(Vec<u32>),
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
        let mut map = HashMap::with_capacity_and_hasher(lo / 4 + 16, FxBuildHasher::default());
        let mut orig = Vec::new();
        let mut slots = crate::huge::with_capacity(lo);
        for id in ids {
            let next = orig.len() as u32;
            let slot = *map.entry(id).or_insert(next);
            if slot == next {
                assert!(next < NIL, "dense-id domain exhausted");
                orig.push(id);
            }
            slots.push(slot);
        }
        let table = DenseIds {
            slot_of: SlotOf::Hashed(map),
            orig,
        };
        (table, slots)
    }

    /// An empty table for ids below `bound`, looked up directly rather than
    /// hashed. The table sits on huge pages where the host grants them
    /// ([`crate::huge`]): the ids arrive in no order its pages share.
    pub fn bounded(bound: usize) -> Self {
        DenseIds {
            slot_of: SlotOf::Direct(crate::huge::filled(bound, NIL)),
            orig: Vec::new(),
        }
    }

    /// Interns the ids of `items` (`id_of` reads one) in order after
    /// everything interned so far, appending one slot per item to `slots`.
    /// A direct table is warmed `LOOKAHEAD` items ahead, which takes
    /// about a third off a chunk's interning.
    ///
    /// # Panics
    ///
    /// Panics when a table made by [`DenseIds::bounded`] meets an id at or
    /// above its bound, or when more than `u32::MAX - 1` distinct ids
    /// appear.
    pub fn extend<T>(&mut self, items: &[T], id_of: impl Fn(&T) -> u64, slots: &mut Vec<u32>) {
        let orig = &mut self.orig;
        let mut name = |id: u64| {
            let next = orig.len() as u32;
            assert!(next < NIL, "dense-id domain exhausted");
            orig.push(id);
            next
        };
        slots.reserve(items.len());
        match &mut self.slot_of {
            SlotOf::Hashed(map) => {
                for item in items {
                    let id = id_of(item);
                    slots.push(*map.entry(id).or_insert_with(|| name(id)));
                }
            }
            SlotOf::Direct(table) => {
                for (i, item) in items.iter().enumerate() {
                    if let Some(ahead) = items.get(i + LOOKAHEAD) {
                        crate::prefetch_read(table, id_of(ahead) as usize);
                    }
                    let id = id_of(item);
                    let slot = &mut table[id as usize];
                    if *slot == NIL {
                        *slot = name(id);
                    }
                    slots.push(*slot);
                }
            }
        }
    }

    /// Renames every interned id through `table` (`id` becomes
    /// `table[id]`), each keeping its slot. The lookup is rebuilt over the
    /// new names: in the direct table when they all fit below its bound,
    /// hashed otherwise.
    ///
    /// # Errors
    ///
    /// Returns an id `table` gives two interned ids, which would leave one
    /// name with two slots; the table is unusable then.
    ///
    /// # Panics
    ///
    /// Panics when an interned id is not below `table.len()`.
    pub fn remap(&mut self, table: &[u64]) -> Result<(), u64> {
        for id in &mut self.orig {
            *id = table[*id as usize];
        }
        let fits = match &self.slot_of {
            SlotOf::Direct(direct) => self.orig.iter().all(|&id| id < direct.len() as u64),
            SlotOf::Hashed(_) => false,
        };
        if !fits {
            self.slot_of = SlotOf::Hashed(HashMap::with_capacity_and_hasher(
                self.orig.len(),
                FxBuildHasher::default(),
            ));
        }
        match &mut self.slot_of {
            SlotOf::Direct(direct) => {
                direct.fill(NIL);
                for (slot, &id) in self.orig.iter().enumerate() {
                    let entry = &mut direct[id as usize];
                    if *entry != NIL {
                        return Err(id);
                    }
                    *entry = slot as u32;
                }
            }
            SlotOf::Hashed(map) => {
                map.clear();
                for (slot, &id) in self.orig.iter().enumerate() {
                    if map.insert(id, slot as u32).is_some() {
                        return Err(id);
                    }
                }
            }
        }
        Ok(())
    }

    /// The slot assigned to `id`, if `id` appeared during interning.
    #[inline]
    pub fn slot_of(&self, id: u64) -> Option<u32> {
        match &self.slot_of {
            SlotOf::Hashed(map) => map.get(&id).copied(),
            SlotOf::Direct(table) => {
                let slot = *table.get(usize::try_from(id).ok()?)?;
                (slot != NIL).then_some(slot)
            }
        }
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

    /// A table fed in chunks of any size, bounded or hashed, numbers ids
    /// exactly as the hashed one does in a single pass.
    #[test]
    fn chunks_equal_one_hashed_pass() {
        let mut rng = crate::SplitMix64::new(0xD1EC);
        let ids: Vec<u64> = (0..5_000).map(|_| rng.next_below(900)).collect();
        let (want, want_slots) = DenseIds::intern(ids.iter().copied());
        for (chunk, bounded) in [(1usize, true), (7, true), (4096, true), (7, false)] {
            let (mut got, mut slots) = if bounded {
                (DenseIds::bounded(900), Vec::new())
            } else {
                DenseIds::intern(std::iter::empty())
            };
            for part in ids.chunks(chunk) {
                got.extend(part, |&id| id, &mut slots);
            }
            assert_eq!(slots, want_slots, "chunk {chunk}, bounded {bounded}");
            assert_eq!(got.len(), want.len());
            for id in [0u64, 1, 450, 899, 900, u64::MAX] {
                assert_eq!(got.slot_of(id), want.slot_of(id), "slot_of({id})");
            }
            for slot in 0..got.len() as u32 {
                assert_eq!(got.orig(slot), want.orig(slot));
            }
        }
    }

    /// A remapped table keeps every slot and looks the new names up, in
    /// the direct table when they fit and hashed when they do not; a name
    /// given twice is refused.
    #[test]
    fn remap_renames_in_place() {
        for (bounded, table) in [
            (true, [3u64, 2, 1, 0]),
            (true, [40, 30, 20, 10]),
            (false, [40, 30, 20, 10]),
        ] {
            let (mut t, mut slots) = if bounded {
                (DenseIds::bounded(4), Vec::new())
            } else {
                DenseIds::intern(std::iter::empty())
            };
            t.extend(&[2u64, 0, 2, 3], |&id| id, &mut slots);
            t.remap(&table).expect("a bijection");
            assert_eq!(slots, [0, 1, 0, 2]);
            for slot in 0..t.len() as u32 {
                assert_eq!(t.slot_of(t.orig(slot)), Some(slot));
            }
            assert_eq!(t.orig(0), table[2]);
            assert_eq!(t.slot_of(table[1]), None, "id 1 never appeared");
        }
        let (mut t, _) = DenseIds::intern([0u64, 1].into_iter());
        assert_eq!(t.remap(&[7, 7]), Err(7));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn bounded_refuses_an_id_past_its_bound() {
        DenseIds::bounded(4).extend(&[4u64], |&id| id, &mut Vec::new());
    }
}
