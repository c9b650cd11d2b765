//! Packed per-slot storage for the dense policies.
//!
//! Everything a request needs lives in a single [`Slot`] (26 bytes, aligned
//! to 32, two to a line), so the hot path costs one line for the slot plus
//! one per queue neighbour. [`PackedQueue`] threads intrusive queues through
//! the `prev`/`next` fields with [`cache_ds::DList`]'s orientation (head =
//! newest, tail = next eviction); a differential test below holds the two in
//! lockstep. Only this module and [`super::Queue`], which gives a queue its
//! tag, its bytes and its eviction rule, touch the links.
//!
//! A slab covers the dense domain `0..domain` and only ever grows
//! (`grow_to`, as a stream or [`super::Keyed`] names new ids). It hands no
//! slot back: the keyed door reuses a ghostless policy's slots from the
//! eviction records the policy already pushes.
//!
//! A slot does not know which object it stands for: records name slots, and
//! only a door that numbers slots names their objects ([`super::Keyed`]'s
//! slot → id array).

use cache_ds::NIL;
use cache_types::{Eviction, Request};

/// All per-object state of a dense policy, half a cache line: aligned to
/// 32 bytes, a slot never straddles a line.
///
/// `tag` and `freq` are policy-defined: residency flags, queue tags, SLRU
/// segment indices, CLOCK/S3-FIFO counters, the SIEVE visited bit. The only
/// shared convention is `tag == 0` ⇒ not resident.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
pub struct Slot {
    /// Neighbour toward the tail-to-head direction (`NIL` at the tail).
    pub(crate) prev: u32,
    /// Neighbour toward the head-to-tail direction (`NIL` at the head).
    pub(crate) next: u32,
    /// Object size at insertion.
    pub size: u32,
    /// Accesses after insertion.
    pub hits: u32,
    /// Logical insertion time.
    pub insert_time: u64,
    /// Policy-defined residency / queue / segment tag; 0 = absent.
    pub tag: u8,
    /// Policy-defined counter or flag.
    pub freq: u8,
}

impl Slot {
    const EMPTY: Slot = Slot {
        prev: NIL,
        next: NIL,
        size: 0,
        hits: 0,
        insert_time: 0,
        tag: 0,
        freq: 0,
    };

    /// Resets the bookkeeping fields on (re)insertion.
    #[inline]
    pub fn on_insert(&mut self, req: &Request) {
        self.size = req.size;
        self.insert_time = req.time;
        self.hits = 0;
    }

    /// Records a hit.
    #[inline]
    pub fn touch(&mut self) {
        self.hits += 1;
    }
}

/// The slot array every dense policy stores its per-object state in.
#[derive(Debug)]
pub struct DenseSlab {
    /// One [`Slot`] per interned id.
    pub slots: Vec<Slot>,
}

impl DenseSlab {
    /// A slab over a pre-sized dense domain `0..domain`, with no interning
    /// table behind it: in-memory replay passes the trace's footprint, the
    /// out-of-core streaming replayer and [`Keyed`](super::Keyed) 0 and
    /// then [`DenseSlab::grow_to`] as ids arrive. The slots sit on huge
    /// pages where the host grants them (`cache_ds::huge`): a request's slot
    /// line is then seldom a TLB miss.
    pub fn with_domain(domain: usize) -> Self {
        DenseSlab {
            slots: cache_ds::huge::filled(domain, Slot::EMPTY),
        }
    }

    /// Extends the domain to `0..domain`; never shrinks it. The first growth
    /// makes room on huge pages for `reserve` slots (or `domain`, if more),
    /// so growth inside that room never moves the slab, and only the slots
    /// it adds are written. Past the room the slab at least doubles, as a
    /// `Vec` does.
    pub fn grow_to(&mut self, domain: usize, reserve: usize) {
        let room = domain.max(reserve);
        if room > self.slots.capacity() {
            let mut slots = cache_ds::huge::with_capacity(room.max(2 * self.slots.capacity()));
            slots.extend_from_slice(&self.slots);
            self.slots = slots;
        }
        if domain > self.slots.len() {
            self.slots.resize(domain, Slot::EMPTY);
        }
    }

    /// Number of slots in the dense domain.
    #[inline]
    pub fn domain(&self) -> usize {
        self.slots.len()
    }

    /// Object size recorded at `slot`'s insertion.
    #[inline]
    pub fn size(&self, slot: u32) -> u32 {
        self.slots[slot as usize].size
    }

    /// Warms one slot's cache line (pure prefetch hint, no state change).
    #[inline]
    pub fn warm_slot(&self, s: u32) {
        cache_ds::prefetch_read(&self.slots, s as usize);
    }

    /// Builds the [`Eviction`] record for `slot`, which names the slot
    /// (cold path).
    #[inline]
    pub fn eviction(&self, slot: u32, from_probationary: bool) -> Eviction<u32> {
        let s = &self.slots[slot as usize];
        Eviction {
            id: slot,
            size: s.size,
            insert_time: s.insert_time,
            freq: s.hits,
            from_probationary,
        }
    }
}

/// Head/tail/len view of one queue threaded through `[Slot]` links.
///
/// All operations are O(1). Callers uphold the membership contract:
/// `push_front` only detached slots, `remove`/`move_to_front` only members
/// of *this* queue (policies track membership in the slot's `tag`).
#[derive(Debug, Clone, Copy)]
pub struct PackedQueue {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for PackedQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl PackedQueue {
    /// An empty queue.
    pub const fn new() -> Self {
        PackedQueue {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of queued slots.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when no slots are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tail (oldest) slot, or `None` when empty.
    #[inline]
    pub fn tail(&self) -> Option<u32> {
        if self.tail == NIL {
            None
        } else {
            Some(self.tail)
        }
    }

    /// The neighbour of `s` toward the head, or `None` when `s` is the head.
    #[inline]
    pub(super) fn toward_head(&self, slots: &[Slot], s: u32) -> Option<u32> {
        let p = slots[s as usize].prev;
        if p == NIL {
            None
        } else {
            Some(p)
        }
    }

    /// Inserts detached slot `s` at the head.
    #[inline]
    pub fn push_front(&mut self, slots: &mut [Slot], s: u32) {
        debug_assert!(slots[s as usize].prev == NIL && slots[s as usize].next == NIL);
        let old_head = self.head;
        slots[s as usize].next = old_head;
        slots[s as usize].prev = NIL;
        if old_head != NIL {
            slots[old_head as usize].prev = s;
        } else {
            self.tail = s;
        }
        self.head = s;
        self.len += 1;
    }

    #[inline]
    fn unlink(&mut self, slots: &mut [Slot], s: u32) {
        let Slot { prev: p, next: n, .. } = slots[s as usize];
        if p != NIL {
            slots[p as usize].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            slots[n as usize].prev = p;
        } else {
            self.tail = p;
        }
    }

    /// Removes and returns the tail slot.
    #[inline]
    pub fn pop_back(&mut self, slots: &mut [Slot]) -> Option<u32> {
        if self.tail == NIL {
            return None;
        }
        let s = self.tail;
        self.unlink(slots, s);
        slots[s as usize].prev = NIL;
        slots[s as usize].next = NIL;
        self.len -= 1;
        Some(s)
    }

    /// Detaches slot `s`, which must be in this queue.
    #[inline]
    pub fn remove(&mut self, slots: &mut [Slot], s: u32) {
        self.unlink(slots, s);
        slots[s as usize].prev = NIL;
        slots[s as usize].next = NIL;
        self.len -= 1;
    }

    /// Moves slot `s`, which must be in this queue, to the head.
    #[inline]
    pub fn move_to_front(&mut self, slots: &mut [Slot], s: u32) {
        if self.head == s {
            return;
        }
        self.unlink(slots, s);
        let old_head = self.head;
        slots[s as usize].prev = NIL;
        slots[s as usize].next = old_head;
        if old_head != NIL {
            slots[old_head as usize].prev = s;
        } else {
            self.tail = s;
        }
        self.head = s;
    }

    /// Iterates slots head → tail (validation and differential tests only;
    /// not a hot path).
    pub fn iter<'a>(&'a self, slots: &'a [Slot]) -> impl Iterator<Item = u32> + 'a {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let s = cur;
            cur = slots[s as usize].next;
            Some(s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_ds::{DList, SplitMix64};

    /// Two slots to a line, neither straddling it: a field added here
    /// doubles the slab, and must change this first.
    #[test]
    fn slot_is_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<Slot>(), 32);
        assert_eq!(std::mem::align_of::<Slot>(), 32);
    }

    #[test]
    fn differential_against_dlist() {
        // Random push/pop/promote/remove interleavings must match DList.
        let n = 64usize;
        let mut rng = SplitMix64::new(0x51AB);
        let mut slots = vec![Slot::EMPTY; n];
        let mut pq = PackedQueue::new();
        let mut dl: DList<u32> = DList::new();
        let mut handles = vec![None; n];
        for _ in 0..10_000 {
            let s = rng.next_below(n as u64) as u32;
            match (rng.next_below(4), handles[s as usize]) {
                (0, None) => {
                    pq.push_front(&mut slots, s);
                    handles[s as usize] = Some(dl.push_front(s));
                }
                (1, _) => {
                    let popped = pq.pop_back(&mut slots);
                    assert_eq!(popped, dl.pop_back());
                    if let Some(x) = popped {
                        handles[x as usize] = None;
                    }
                }
                (2, Some(h)) => {
                    pq.move_to_front(&mut slots, s);
                    dl.move_to_front(h);
                }
                (3, Some(h)) => {
                    pq.remove(&mut slots, s);
                    dl.remove(h);
                    handles[s as usize] = None;
                }
                _ => {}
            }
            assert_eq!(pq.len() as usize, dl.len());
            assert_eq!(pq.tail(), dl.back().copied());
        }
        let got: Vec<u32> = pq.iter(&slots).collect();
        let want: Vec<u32> = dl.iter().copied().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn toward_head_matches_orientation() {
        let mut slots = vec![Slot::EMPTY; 4];
        let mut q = PackedQueue::new();
        for s in [1u32, 2, 3] {
            q.push_front(&mut slots, s); // head 3, 2, 1 tail
        }
        assert_eq!(q.toward_head(&slots, 1), Some(2));
        assert_eq!(q.toward_head(&slots, 3), None);
        assert_eq!(q.tail(), Some(1));
    }
}
