//! The flash device model: a byte-capacity FIFO store with write
//! accounting.
//!
//! §5.4: "most production flash cache systems … use FIFO or
//! FIFO-reinsertion" because insertion-order eviction turns into sequential
//! writes. The experiments use plain FIFO for every admission policy so the
//! admission effect is isolated. That FIFO is [`cache_policies::Fifo`], the
//! one every figure measures: a read is a `Get` of a resident object, a
//! write a `Set` of a non-resident one that fits, and an evicted object's
//! hits are the FIFO's [`Eviction::freq`].

use cache_policies::Fifo;
use cache_types::{Eviction, ObjId, Op, Policy, Request};

/// A FIFO flash tier.
#[derive(Debug)]
pub struct FlashTier {
    fifo: Fifo,
    /// Total bytes ever written.
    write_bytes: u64,
    /// Objects written.
    writes: u64,
    /// The FIFO's eviction records for the request being served.
    evicted: Vec<Eviction>,
}

/// An object evicted from flash, with its hit count while resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashEviction {
    /// Evicted object.
    pub id: ObjId,
    /// Its size in bytes.
    pub size: u32,
    /// Hits received while on flash.
    pub hits: u32,
}

impl FlashTier {
    /// Creates a flash tier of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        // Invariant: `Fifo::new` refuses a zero capacity and nothing else.
        let fifo = Fifo::new(capacity).expect("flash capacity must be positive");
        FlashTier {
            fifo,
            write_bytes: 0,
            writes: 0,
            evicted: Vec::new(),
        }
    }

    /// Submits `op` on `id` to the FIFO, at the logical time of the writes
    /// so far, if `id` is resident (`resident`) or is not (`!resident`).
    /// Returns whether it was submitted; one id-table probe either way.
    fn submit_if(&mut self, resident: bool, id: ObjId, size: u32, op: Op) -> bool {
        let req = Request {
            id,
            size,
            time: self.writes,
            op,
        };
        self.evicted.clear();
        self.fifo.request_if(resident, &req, &mut self.evicted).is_some()
    }

    /// True when `id` is resident.
    pub fn contains(&self, id: ObjId) -> bool {
        self.fifo.contains(id)
    }

    /// Records a read hit on a resident object. Returns false when the
    /// object is not resident.
    pub fn read(&mut self, id: ObjId) -> bool {
        self.submit_if(true, id, 0, Op::Get)
    }

    /// Writes `id` to flash (a no-op when already resident), evicting in
    /// FIFO order to make room. Evictions are appended to `evicted`.
    pub fn write(&mut self, id: ObjId, size: u32, evicted: &mut Vec<FlashEviction>) {
        if u64::from(size) > self.capacity() || !self.submit_if(false, id, size, Op::Set) {
            return;
        }
        evicted.extend(self.evicted.iter().map(|e| FlashEviction {
            id: e.id,
            size: e.size,
            hits: e.freq,
        }));
        self.write_bytes += u64::from(size);
        self.writes += 1;
    }

    /// Drops `id` from the tier (corruption discard, invalidation).
    /// Returns the object's size, or `None` when not resident.
    pub fn remove(&mut self, id: ObjId) -> Option<u32> {
        let before = self.used();
        if !self.submit_if(true, id, 0, Op::Delete) {
            return None;
        }
        u32::try_from(before - self.used()).ok()
    }

    /// Total bytes written to the device so far.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Objects written so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Resident bytes.
    pub fn used(&self) -> u64 {
        self.fifo.used()
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.fifo.capacity()
    }

    /// Resident object count.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Exhaustive accounting check (O(n)): the FIFO's own invariants —
    /// `used` is the sum of resident sizes and within capacity, every
    /// queued object is resident once — and its id table's. Used by the
    /// torture harnesses.
    pub fn verify_accounting(&self) -> bool {
        self.fifo.validate().is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let mut f = FlashTier::new(100);
        let mut evs = Vec::new();
        f.write(1, 10, &mut evs);
        assert!(f.contains(1));
        assert!(f.read(1));
        assert!(!f.read(2));
        assert_eq!(f.write_bytes(), 10);
    }

    #[test]
    fn fifo_eviction_order() {
        let mut f = FlashTier::new(20);
        let mut evs = Vec::new();
        f.write(1, 10, &mut evs);
        f.write(2, 10, &mut evs);
        f.read(1); // hits do not protect FIFO entries
        f.write(3, 10, &mut evs);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].id, 1);
        assert_eq!(evs[0].hits, 1);
        assert!(!f.contains(1));
    }

    #[test]
    fn duplicate_write_is_noop() {
        let mut f = FlashTier::new(100);
        let mut evs = Vec::new();
        f.write(1, 10, &mut evs);
        f.write(1, 10, &mut evs);
        assert_eq!(f.write_bytes(), 10);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn oversized_object_rejected() {
        let mut f = FlashTier::new(10);
        let mut evs = Vec::new();
        f.write(1, 100, &mut evs);
        assert!(!f.contains(1));
        assert_eq!(f.write_bytes(), 0);
    }

    #[test]
    fn remove_keeps_accounting_exact() {
        let mut f = FlashTier::new(100);
        let mut evs = Vec::new();
        f.write(1, 10, &mut evs);
        f.write(2, 20, &mut evs);
        assert_eq!(f.remove(1), Some(10));
        assert!(!f.contains(1));
        assert_eq!(f.used(), 20);
        assert_eq!(f.len(), 1);
        assert_eq!(f.remove(1), None);
        // Re-writing the removed id with a different size stays exact.
        f.write(1, 30, &mut evs);
        assert_eq!(f.used(), 50);
    }

    /// `cache_server --flash-bytes` writes an unbounded stream of hashed
    /// keys through this tier for as long as it runs, so its id table must
    /// stay bounded by what is resident, whatever passes through.
    #[test]
    fn a_million_distinct_writes_leave_a_bounded_table() {
        let mut f = FlashTier::new(4_000);
        let mut evs = Vec::new();
        for id in 0..1_000_000u64 {
            evs.clear();
            f.write(id, 4, &mut evs);
        }
        assert_eq!(f.len(), 1_000);
        let table = f.fifo.interned() + f.fifo.free_slots() + 1;
        assert!(table <= f.len() + 2, "{table} slots for {} objects", f.len());
        assert!(f.verify_accounting());
    }

    #[test]
    fn capacity_respected() {
        let mut f = FlashTier::new(50);
        let mut evs = Vec::new();
        for i in 0..100u64 {
            f.write(i, 7, &mut evs);
            assert!(f.used() <= 50);
        }
        assert_eq!(f.write_bytes(), 700);
    }
}
