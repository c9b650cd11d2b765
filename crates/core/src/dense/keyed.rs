//! [`Keyed`]: any slab policy as a keyed [`Policy`], interning ids on the fly.

use super::{DensePolicy, SlabPolicy};
use cache_ds::IdMap;
use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};
use std::collections::hash_map::Entry;

/// Slot 0 is never mapped to an id: a request that can leave nothing behind
/// (a delete of, or an oversized request for, an id the policy does not
/// know) runs against it, so it touches neither the map nor the free list.
const SCRATCH: u32 = 0;

/// The keyed [`Policy`] over slab policy `P`.
///
/// Interns `ObjId → slot` as ids arrive, growing the slab a slot at a time,
/// and forwards to [`DensePolicy::request_dense`]. An id keeps its slot for
/// as long as the policy can still look at it — while resident, and while
/// any ghost FIFO entry, live or tombstoned, names the slot; the policy says
/// when that ends ([`DenseSlab::release`](super::DenseSlab::release)) and
/// the slot goes to the next new id. The table therefore holds at most the
/// resident objects plus the ghost FIFO's entries, however many distinct
/// ids pass through.
///
/// Dereferences to `P` for the policy's own read accessors.
#[derive(Debug)]
pub struct Keyed<P> {
    inner: P,
    /// The slot of every id the policy still remembers.
    map: IdMap<u32>,
    /// Idle slots, reused before the slab grows.
    free: Vec<u32>,
}

impl<P: SlabPolicy> Keyed<P> {
    /// The keyed policy at `capacity` with `P`'s default parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn new(capacity: u64) -> Result<Self, CacheError> {
        P::with_capacity(capacity).map(Self::over)
    }

    /// Wraps `inner`, which must be fresh and built over the empty domain
    /// (`with_domain(.., 0)`).
    ///
    /// # Panics
    ///
    /// Panics when `inner`'s slab already has slots.
    pub fn over(mut inner: P) -> Self {
        let slab = inner.slab_mut();
        slab.start_recycling();
        let scratch = slab.grow();
        debug_assert_eq!(scratch, SCRATCH);
        Keyed {
            inner,
            map: IdMap::default(),
            free: Vec::new(),
        }
    }

    /// The slot `id` currently occupies, if the policy still remembers it.
    pub fn slot_of(&self, id: ObjId) -> Option<u32> {
        self.map.get(&id).copied()
    }

    /// Ids currently interned: resident objects plus ghost FIFO entries.
    pub fn interned(&self) -> usize {
        self.map.len()
    }

    /// Idle slots awaiting reuse.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Unmaps and frees every slot the last request left idle.
    fn reclaim(&mut self) {
        let slab = self.inner.slab_mut();
        while let Some(slot) = slab.pop_idle() {
            // A slot can be reported and then re-admitted (a `Set` deletes,
            // then inserts) or reported twice within one request, so both
            // its idleness and its mapping are re-checked here.
            if !slab.is_idle(slot) {
                continue;
            }
            if let Entry::Occupied(mapped) = self.map.entry(slab.slots[slot as usize].orig) {
                if *mapped.get() == slot {
                    mapped.remove();
                    self.free.push(slot);
                }
            }
        }
    }
}

impl<P> std::ops::Deref for Keyed<P> {
    type Target = P;

    fn deref(&self) -> &P {
        &self.inner
    }
}

impl<P: SlabPolicy + Send> Policy for Keyed<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn contains(&self, id: ObjId) -> bool {
        self.map.get(&id).is_some_and(|&s| self.inner.resident(s))
    }

    fn request(&mut self, req: &Request, evicted: &mut Vec<Eviction>) -> Outcome {
        let slot = match self.map.entry(req.id) {
            Entry::Occupied(mapped) => *mapped.get(),
            Entry::Vacant(_)
                if req.op == Op::Delete || u64::from(req.size) > self.inner.capacity() =>
            {
                SCRATCH
            }
            Entry::Vacant(unmapped) => {
                let slot = match self.free.pop() {
                    Some(slot) => slot,
                    None => self.inner.slab_mut().grow(),
                };
                *unmapped.insert(slot)
            }
        };
        let outcome = self.inner.request_dense(slot, req, evicted);
        self.reclaim();
        outcome
    }

    /// The dense policy's own invariants, then the adapter's: mapped, free
    /// and scratch slots partition the slab; a mapped slot carries its id
    /// and is not idle (else it leaked); a free slot is idle (else it was
    /// recycled under a live object or a ghost entry).
    fn validate(&self) -> Result<(), String> {
        self.inner.validate()?;
        let slab = self.inner.slab();
        if self.map.len() + self.free.len() + 1 != slab.domain() {
            return Err(format!(
                "{} mapped + {} free + scratch != {} slots",
                self.map.len(),
                self.free.len(),
                slab.domain()
            ));
        }
        let mut seen = vec![false; slab.domain()];
        let mut claim = |slot: u32, what: &str| match seen.get_mut(slot as usize) {
            Some(s @ false) => {
                *s = true;
                Ok(())
            }
            _ => Err(format!("{what} slot {slot} is out of range or claimed twice")),
        };
        for (&id, &slot) in &self.map {
            claim(slot, "mapped")?;
            if slab.slots[slot as usize].orig != id {
                return Err(format!(
                    "id {id} maps to slot {slot}, which carries id {}",
                    slab.slots[slot as usize].orig
                ));
            }
            if slab.is_idle(slot) {
                return Err(format!("id {id} keeps idle slot {slot}"));
            }
        }
        for slot in std::iter::once(SCRATCH).chain(self.free.iter().copied()) {
            claim(slot, "unmapped")?;
            if !slab.is_idle(slot) {
                return Err(format!("unmapped slot {slot} is resident or named by a ghost"));
            }
        }
        Ok(())
    }

    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }
}
