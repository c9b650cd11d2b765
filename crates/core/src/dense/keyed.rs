//! [`Keyed`]: any slab policy as a keyed [`Policy`], interning ids on the fly.

use super::{DensePolicy, SlabPolicy};
use cache_ds::{IdMap, NIL};
use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};
use std::collections::hash_map::Entry;

/// Slot 0 is never mapped to an id: a request that can leave nothing behind
/// (a delete of, or an oversized request for, an id the policy does not
/// know) runs against it, so it touches neither the map nor the free list.
const SCRATCH: u32 = 0;

/// The keyed [`Policy`] over slab policy `P`.
///
/// Interns `ObjId → slot` in first-appearance order, growing the slab
/// through [`DenseSlab::grow_to`](super::DenseSlab::grow_to), forwards
/// to [`DensePolicy::request_dense`], and names the slot in each
/// [`Eviction`] record it pushes by the id the slot was given. A
/// ghost-keeping policy never gives a slot back: its table holds every id
/// it has seen, as the streamed dense door's does. A
/// [`SlabPolicy::GHOSTLESS`] policy's slot state ends with its object, so
/// after each request the adapter unmaps and frees the request's own slot
/// if its object is not resident (a delete, a refused admission), and the
/// slot of every record the request pushed. Its table then holds at most
/// the resident objects and two slots, however many distinct ids pass
/// through: the long-lived server's flash tier (`cache_server
/// --flash-bytes`) keeps a FIFO device and an LRU or FIFO DRAM tier this
/// way.
///
/// Dereferences to `P` for the policy's own read accessors.
#[derive(Debug)]
pub struct Keyed<P> {
    inner: P,
    /// The slot of every interned id.
    map: IdMap<u32>,
    /// The id each slot was last given, over the whole slab: `map` read
    /// backwards, and the only slot → id table on this door.
    pub(crate) ids: Vec<ObjId>,
    /// Freed slots, reused before the slab grows (ghostless policies only).
    free: Vec<u32>,
    /// The records of the request being served, naming slots.
    evs: Vec<Eviction<u32>>,
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
        assert_eq!(slab.domain(), 0, "the keyed door numbers every slot itself");
        slab.grow_to(SCRATCH as usize + 1, 0);
        Keyed {
            inner,
            map: IdMap::default(),
            ids: vec![0; SCRATCH as usize + 1],
            free: Vec::new(),
            evs: Vec::new(),
        }
    }

    /// The slot `id` currently occupies, if it is interned.
    pub fn slot_of(&self, id: ObjId) -> Option<u32> {
        self.map.get(&id).copied()
    }

    /// Ids currently interned: for a ghostless policy the resident objects,
    /// for any other every id seen.
    pub fn interned(&self) -> usize {
        self.map.len()
    }

    /// Freed slots awaiting reuse.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// [`Policy::request`], served only when `req`'s object is resident
    /// (`resident`) or only when it is not (`!resident`); otherwise `None`,
    /// with nothing changed. One probe of the id map decides and serves:
    /// [`Policy::contains`] and then [`Policy::request`] would be two.
    pub fn request_if(
        &mut self,
        resident: bool,
        req: &Request,
        evicted: &mut Vec<Eviction>,
    ) -> Option<Outcome> {
        self.serve(Some(resident), req, evicted)
    }

    /// Serves `req` unless `gate` names a residency its object does not
    /// have, frees what a ghostless policy let go of, and names the records.
    fn serve(
        &mut self,
        gate: Option<bool>,
        req: &Request,
        evicted: &mut Vec<Eviction>,
    ) -> Option<Outcome> {
        let slot = match self.map.entry(req.id) {
            Entry::Occupied(mapped) => {
                let slot = *mapped.get();
                if gate.is_some_and(|resident| resident != self.inner.resident(slot)) {
                    return None;
                }
                slot
            }
            Entry::Vacant(_) if gate == Some(true) => return None,
            Entry::Vacant(_)
                if req.op == Op::Delete || u64::from(req.size) > self.inner.capacity() =>
            {
                SCRATCH
            }
            Entry::Vacant(unmapped) => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.ids[slot as usize] = req.id;
                        slot
                    }
                    None => {
                        let slab = self.inner.slab_mut();
                        let slot = u32::try_from(slab.domain()).unwrap_or(NIL);
                        assert!(slot < NIL, "dense-id domain exhausted");
                        slab.grow_to(slot as usize + 1, 0);
                        self.ids.push(req.id);
                        slot
                    }
                };
                *unmapped.insert(slot)
            }
        };
        self.evs.clear();
        let outcome = self.inner.request_dense(slot, req, &mut self.evs);
        if P::GHOSTLESS {
            // The request's slot may also be a record's: it is freed once.
            self.release(slot);
            for i in 0..self.evs.len() {
                self.release(self.evs[i].id);
            }
        }
        let ids = &self.ids;
        evicted.extend(self.evs.iter().map(|e| e.named(ids[e.id as usize])));
        Some(outcome)
    }

    /// Unmaps and frees `slot` unless its object is resident (an object
    /// evicted and admitted again within one request keeps its slot). A
    /// slot no id maps to — scratch, or one freed already — stays as it is.
    fn release(&mut self, slot: u32) {
        if self.inner.resident(slot) {
            return;
        }
        if let Entry::Occupied(mapped) = self.map.entry(self.ids[slot as usize]) {
            if *mapped.get() == slot {
                self.free.push(mapped.remove());
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
        // Ungated, `serve` always answers.
        self.serve(None, req, evicted).unwrap_or(Outcome::NotRead)
    }

    /// The dense policy's own invariants, then the adapter's: mapped, free
    /// and scratch slots partition the slab, scratch holds nothing, and
    /// every mapped slot names the id mapped to it. A ghostless policy's
    /// mapped slots are resident (else a slot leaked), and its free slots
    /// are not (else one was freed under a live object); any other policy
    /// frees nothing.
    fn validate(&self) -> Result<(), String> {
        self.inner.validate()?;
        let slab = self.inner.slab();
        if !P::GHOSTLESS && !self.free.is_empty() {
            return Err(format!("{} ghost-keeping slots were freed", self.free.len()));
        }
        if self.ids.len() != slab.domain() {
            return Err(format!(
                "{} slots name ids, but the slab has {}",
                self.ids.len(),
                slab.domain()
            ));
        }
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
            if self.ids[slot as usize] != id {
                return Err(format!(
                    "id {id} maps to slot {slot}, which names id {}",
                    self.ids[slot as usize]
                ));
            }
            if P::GHOSTLESS && !self.inner.resident(slot) {
                return Err(format!("id {id} keeps non-resident slot {slot}"));
            }
        }
        for slot in std::iter::once(SCRATCH).chain(self.free.iter().copied()) {
            claim(slot, "unmapped")?;
            if self.inner.resident(slot) {
                return Err(format!("unmapped slot {slot} is resident"));
            }
        }
        Ok(())
    }

    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }
}
