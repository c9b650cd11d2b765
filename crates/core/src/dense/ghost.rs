//! Slot-indexed, byte-bounded ghost FIFO: S3-FIFO's `G`, 2Q's `A1out` and
//! ARC's `B1`/`B2`.
//!
//! `insert` pushes a FIFO entry only when the slot was not already *marked*
//! present, then trims oldest entries while over byte capacity; `remove`
//! only clears the mark, leaving the FIFO entry behind as a tombstone that
//! stays charged against capacity until it reaches the front. A tombstoned
//! slot can be re-inserted (a second FIFO entry appears), and when the stale
//! entry later pops it clears the mark of the *newer* entry too. The quirk
//! is deliberate: `cache_check::reference` and the id-keyed
//! `cache_ds::GhostFifo` (S3-FIFO-D's monitors) do the same. It is also why
//! a policy with a ghost never lets [`Keyed`](super::Keyed) give a slot to
//! another id: a stale entry popping later would clear the newcomer's mark.

use std::collections::VecDeque;

/// A byte-bounded FIFO ghost over dense slots.
#[derive(Debug)]
pub struct SlotGhost {
    fifo: VecDeque<(u32, u32)>,
    /// Per-slot presence mark. Sized to the domain up front on the
    /// pre-interned path; over a growing domain it grows to the highest
    /// slot ever inserted, and slots beyond it read as unmarked.
    present: Vec<bool>,
    used: u64,
    capacity: u64,
    /// The bytes charged when a [`SlotGhost::set_capacity`] shrank the
    /// window below them, 0 otherwise: those entries stay until the next
    /// insertion trims them, and [`SlotGhost::validate`] allows for that.
    over: u64,
}

impl SlotGhost {
    /// A ghost over `slots` slots holding up to `capacity` bytes of entries.
    pub fn new(slots: usize, capacity: u64) -> Self {
        SlotGhost {
            fifo: VecDeque::new(),
            present: cache_ds::huge::filled(slots, false),
            used: 0,
            capacity,
            over: 0,
        }
    }

    /// True when `slot` is marked (a ghost hit would find it).
    #[inline]
    pub fn contains(&self, slot: u32) -> bool {
        self.present.get(slot as usize).copied().unwrap_or(false)
    }

    /// Warms the presence mark for `slot` ahead of its request — every miss
    /// consults [`SlotGhost::contains`], and the mark array is large enough
    /// to fall out of cache between touches. Observable-state-free, like
    /// [`DensePolicy::prefetch`](super::DensePolicy::prefetch).
    #[inline]
    pub fn warm(&self, slot: u32) {
        cache_ds::prefetch_read(&self.present, slot as usize);
    }

    /// Inserts `slot`, whose residency tag the caller has already cleared;
    /// evicts oldest entries beyond capacity.
    pub fn insert(&mut self, slot: u32, size: u32) {
        if self.capacity == 0 {
            return;
        }
        let i = slot as usize;
        if i >= self.present.len() {
            self.present.resize(i + 1, false);
        }
        if !self.present[i] {
            self.present[i] = true;
            self.fifo.push_back((slot, size));
            self.used += u64::from(size);
        }
        self.trim_to(self.capacity);
        self.over = 0;
    }

    /// Drops oldest entries until at most `cap` bytes are charged (ARC
    /// bounds its directory this way below the ghost's own capacity).
    pub fn trim_to(&mut self, cap: u64) {
        while self.used > cap {
            let Some((old, sz)) = self.fifo.pop_front() else {
                break;
            };
            // `used` charges every FIFO entry, including tombstones left by
            // `remove`, so the subtraction is unconditional.
            self.used -= u64::from(sz);
            self.present[old as usize] = false;
        }
    }

    /// Removes the mark (ghost hit); the FIFO slot becomes a tombstone.
    pub fn remove(&mut self, slot: u32) -> bool {
        self.present
            .get_mut(slot as usize)
            .is_some_and(|mark| std::mem::replace(mark, false))
    }

    /// Bytes charged, tombstones included.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of marked slots. O(slots): a diagnostic, not a hot path.
    pub fn marked(&self) -> usize {
        self.present.iter().filter(|&&p| p).count()
    }

    /// Adjusts the window size; existing entries expire against the new
    /// capacity on the next insertion.
    pub fn set_capacity(&mut self, capacity: u64) {
        self.capacity = capacity;
        self.over = if self.used > capacity { self.used } else { 0 };
    }

    /// Structural self-check: the byte charge matches the FIFO entries
    /// (tombstones included), the window bound holds (or, after a shrink
    /// and before the next insertion, the charge did not grow), and every
    /// marked slot owns a FIFO entry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.used > self.capacity.max(self.over) {
            return Err(format!(
                "ghost used {} > capacity {}",
                self.used, self.capacity
            ));
        }
        let bytes: u64 = self.fifo.iter().map(|&(_, s)| u64::from(s)).sum();
        if bytes != self.used {
            return Err(format!("ghost slot bytes {bytes} != accounted {}", self.used));
        }
        let live = self
            .fifo
            .iter()
            .filter(|&&(s, _)| self.present[s as usize])
            .count();
        let marked = self.marked();
        if live < marked {
            return Err(format!(
                "ghost marks {marked} slots but only {live} own FIFO entries"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_ds::GhostFifo;

    #[test]
    fn matches_keyed_ghost_semantics() {
        // Differential check against the id-keyed GhostFifo on a random-ish
        // op stream: contains/remove results must agree at every step.
        let mut dense = SlotGhost::new(64, 10);
        let mut keyed = GhostFifo::new(10);
        let mut state = 0x9E37_79B9u64;
        for step in 0..5000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = ((state >> 33) % 64) as u32;
            let id = u64::from(slot) + 1000; // slot↔id bijection
            match (state >> 20) % 4 {
                0 => {
                    dense.insert(slot, 1 + (slot % 3));
                    keyed.insert(id, 1 + (slot % 3));
                }
                1 => {
                    assert_eq!(dense.remove(slot), keyed.remove(id), "step {step}");
                }
                2 if step % 7 == 0 => {
                    // ARC's directory bound.
                    let cap = (state >> 40) % 11;
                    dense.trim_to(cap);
                    keyed.trim_to(cap);
                    assert_eq!(dense.used(), keyed.used(), "step {step}");
                }
                _ => {
                    assert_eq!(dense.contains(slot), keyed.contains(id), "step {step}");
                }
            }
        }
        for slot in 0..64u32 {
            assert_eq!(
                dense.contains(slot),
                keyed.contains(u64::from(slot) + 1000),
                "final state diverged at slot {slot}"
            );
        }
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut g = SlotGhost::new(8, 0);
        g.insert(3, 1);
        assert!(!g.contains(3));
    }

    #[test]
    fn a_shrunk_window_is_allowed_its_overshoot_until_the_next_insertion() {
        let mut g = SlotGhost::new(8, 3);
        for slot in 0..3 {
            g.insert(slot, 1);
        }
        g.set_capacity(1);
        assert_eq!(g.used(), 3);
        g.validate().unwrap();
        g.insert(3, 1);
        assert_eq!(g.used(), 1);
        g.validate().unwrap();
        // A ghost that stopped trimming after that insertion is caught, even
        // though its window was once 3 bytes wide.
        g.fifo.push_back((4, 1));
        g.used += 1;
        let err = g.validate().unwrap_err();
        assert!(err.contains("> capacity 1"), "{err}");
    }

    #[test]
    fn tombstone_stays_charged() {
        let mut g = SlotGhost::new(8, 3);
        g.insert(0, 1);
        g.insert(1, 1);
        g.insert(2, 1);
        assert!(g.remove(1));
        // The tombstone still occupies a byte: inserting one more evicts the
        // oldest live entry (slot 0) rather than fitting for free.
        g.insert(3, 1);
        assert!(!g.contains(0));
        assert!(g.contains(2) && g.contains(3));
    }
}
