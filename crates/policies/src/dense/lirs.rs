//! LIRS — Low Inter-reference Recency Set (Jiang & Zhang, SIGMETRICS '02),
//! over dense slots.
//!
//! LIRS ranks blocks by *reuse distance* (inter-reference recency, IRR)
//! rather than recency. Blocks with low IRR are **LIR** (hot) and own ~99 %
//! of the cache; the rest are **HIR** and live in a small queue `Q` (~1 % —
//! the quick-demotion queue §5.2 credits for LIRS's efficiency). The LIRS
//! stack `S` tracks recency and holds LIR blocks, resident HIR blocks, and
//! non-resident HIR blocks (ghosts):
//!
//! - hit on a LIR block → move to the top of `S`, prune the stack;
//! - hit on a resident HIR block in `S` → it becomes LIR; the LIR block at
//!   the stack bottom is demoted into `Q`;
//! - hit on a resident HIR block not in `S` → move to `Q`'s head, re-push
//!   onto `S`;
//! - miss on a non-resident HIR block in `S` (ghost hit) → becomes LIR,
//!   demote the bottom LIR;
//! - miss on an unknown block → resident HIR, pushed onto `S` and `Q`.
//!
//! Eviction removes the front of `Q`; the block stays in `S` as a
//! non-resident ghost. The stack is bounded (non-resident entries beyond
//! ~3× the cache's entry count are pruned from the bottom).
//!
//! Slot-state conventions: `tag` is `LIR` or `HIR` for a resident block (0
//! = not resident), and `freq` is 1 while the block is on `S`, resident or
//! not. `S` runs through the slots' links; `Q` is a list beside them, with
//! each resident HIR block's node in `q_nodes`, which catches up with the
//! slab's domain on insertion.

use cache_ds::{DList, Handle};
use cache_types::{CacheError, Eviction, PolicyStats, Request};
use s3fifo::dense::{DenseSlab, Keyed, PackedQueue, SlabPolicy};

const LIR: u8 = 1;
const HIR: u8 = 2;
/// The paper's share of the cache for resident HIR blocks.
const HIR_RATIO: f64 = 0.01;

/// The LIRS eviction algorithm with the paper's 1 % HIR allocation, over
/// dense slots.
#[derive(Debug)]
pub struct DenseLirs {
    capacity: u64,
    /// Byte budget for LIR blocks.
    lir_capacity: u64,
    lir_used: u64,
    /// Resident bytes (LIR + resident HIR).
    resident_used: u64,
    /// Resident blocks.
    resident: usize,
    slab: DenseSlab,
    /// Recency stack; head = most recent.
    s: PackedQueue,
    /// Resident HIR queue; head = most recent, tail = next eviction.
    q: DList<u32>,
    /// Each resident HIR block's node in `q`, by slot.
    q_nodes: Vec<Option<Handle>>,
    /// Bound on stack entries, to keep ghost memory proportional to the
    /// cache size.
    max_stack_entries: usize,
    stats: PolicyStats,
}

impl DenseLirs {
    /// Creates a LIRS cache of `capacity` bytes over the dense domain
    /// `0..domain`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn with_domain(capacity: u64, domain: usize) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        let hir_capacity = ((capacity as f64 * HIR_RATIO).round() as u64).max(1);
        Ok(DenseLirs {
            capacity,
            lir_capacity: capacity.saturating_sub(hir_capacity).max(1),
            lir_used: 0,
            resident_used: 0,
            resident: 0,
            slab: DenseSlab::with_domain(domain),
            s: PackedQueue::new(),
            q: DList::new(),
            q_nodes: vec![None; domain],
            max_stack_entries: (capacity as usize).saturating_mul(3).max(16),
            stats: PolicyStats::default(),
        })
    }

    fn on_stack(&self, slot: u32) -> bool {
        self.slab.slots[slot as usize].freq == 1
    }

    /// Moves `slot` to the top of the stack, pushing it if it was off it.
    fn push_stack_top(&mut self, slot: u32) {
        if self.on_stack(slot) {
            self.s.move_to_front(&mut self.slab.slots, slot);
        } else {
            self.s.push_front(&mut self.slab.slots, slot);
            self.slab.slots[slot as usize].freq = 1;
        }
    }

    /// Takes `slot` off the stack; a non-resident block is then forgotten.
    fn pop_stack(&mut self, slot: u32) {
        self.s.remove(&mut self.slab.slots, slot);
        self.slab.slots[slot as usize].freq = 0;
    }

    fn queue_push(&mut self, slot: u32) {
        self.q_nodes[slot as usize] = Some(self.q.push_front(slot));
    }

    fn queue_pop(&mut self) -> Option<u32> {
        let slot = self.q.pop_back()?;
        self.q_nodes[slot as usize] = None;
        Some(slot)
    }

    /// Stack pruning: drops HIR blocks from the stack bottom until a LIR
    /// block anchors it.
    fn prune(&mut self) {
        while let Some(bottom) = self.s.tail() {
            if self.slab.slots[bottom as usize].tag == LIR {
                break;
            }
            self.pop_stack(bottom);
        }
    }

    /// Turns LIR `slot` into a resident HIR block at the head of Q.
    fn demote(&mut self, slot: u32) {
        self.slab.slots[slot as usize].tag = HIR;
        self.queue_push(slot);
        self.lir_used -= u64::from(self.slab.size(slot));
    }

    /// Bounds the stack size by dropping entries from its bottom.
    fn bound_stack(&mut self) {
        while self.s.len() as usize > self.max_stack_entries {
            let Some(bottom) = self.s.tail() else { break };
            self.pop_stack(bottom);
            if self.slab.slots[bottom as usize].tag == LIR {
                // Demote the bottom LIR into Q so residency is preserved.
                self.demote(bottom);
                self.prune();
            }
        }
    }

    /// Demotes the LIR block at the stack bottom to resident HIR (front of
    /// Q), then prunes.
    fn demote_bottom_lir(&mut self) {
        // After pruning, the bottom is LIR by invariant.
        self.prune();
        let Some(bottom) = self.s.tail() else { return };
        self.demote(bottom);
        self.pop_stack(bottom);
        self.prune();
    }

    /// Promotes resident `slot` to LIR, demoting bottom LIR blocks while the
    /// LIR region overflows.
    fn make_lir(&mut self, slot: u32) {
        if let Some(node) = self.q_nodes[slot as usize].take() {
            self.q.remove(node);
        }
        self.slab.slots[slot as usize].tag = LIR;
        self.lir_used += u64::from(self.slab.size(slot));
        while self.lir_used > self.lir_capacity {
            self.demote_bottom_lir();
        }
    }

    /// Evicts the resident HIR block at the tail of Q; it stays on the stack
    /// as a non-resident ghost if it is there.
    fn evict_one(&mut self, evicted: &mut Vec<Eviction<u32>>) {
        let (slot, from_q) = match self.queue_pop() {
            Some(slot) => (slot, true),
            // Q empty: demote a LIR block and retry once.
            None if self.lir_used > 0 => {
                self.demote_bottom_lir();
                match self.queue_pop() {
                    Some(slot) => (slot, false),
                    None => return,
                }
            }
            None => return,
        };
        self.resident_used -= u64::from(self.slab.size(slot));
        self.resident -= 1;
        evicted.push(self.slab.eviction(slot, from_q));
        self.slab.slots[slot as usize].tag = 0;
    }
}

impl SlabPolicy for DenseLirs {
    fn with_capacity(capacity: u64) -> Result<Self, CacheError> {
        Self::with_domain(capacity, 0)
    }

    fn name(&self) -> String {
        "LIRS".into()
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.resident_used
    }

    fn len(&self) -> usize {
        self.resident
    }

    fn validate(&self) -> Result<(), String> {
        let (mut resident, mut hir, mut on_stack) = (0usize, 0usize, 0usize);
        let (mut resident_bytes, mut lir_bytes) = (0u64, 0u64);
        for (slot, s) in self.slab.slots.iter().enumerate() {
            let queued = self.q_nodes.get(slot).is_some_and(Option::is_some);
            if queued != (s.tag == HIR) {
                return Err(format!("LIRS: slot {slot} tagged {} has a Q node: {queued}", s.tag));
            }
            if s.tag == LIR && s.freq != 1 {
                return Err(format!("LIRS: LIR block in slot {slot} is not on stack S"));
            }
            on_stack += usize::from(s.freq == 1);
            hir += usize::from(s.tag == HIR);
            if s.tag != 0 {
                resident += 1;
                resident_bytes += u64::from(s.size);
                if s.tag == LIR {
                    lir_bytes += u64::from(s.size);
                }
            }
        }
        let walked = self.s.iter(&self.slab.slots).count();
        if walked != self.s.len() as usize || walked != on_stack {
            return Err(format!(
                "LIRS: stack links walk {walked} slots, len says {}, {on_stack} are flagged",
                self.s.len()
            ));
        }
        if self.q.len() != hir {
            return Err(format!("LIRS: Q holds {} nodes for {hir} HIR blocks", self.q.len()));
        }
        if (resident, resident_bytes, lir_bytes) != (self.resident, self.resident_used, self.lir_used)
        {
            return Err(format!(
                "LIRS: {resident} blocks / {resident_bytes} bytes / {lir_bytes} LIR bytes resident, \
                 accounted {} / {} / {}",
                self.resident, self.resident_used, self.lir_used
            ));
        }
        if self.resident_used > self.capacity || self.lir_used > self.lir_capacity {
            return Err(format!(
                "LIRS: resident {} > capacity {} or LIR {} > budget {}",
                self.resident_used, self.capacity, self.lir_used, self.lir_capacity
            ));
        }
        // `bound_stack` runs on misses; hits on off-stack resident HIR blocks
        // (all of which sit in Q) may each add one stack entry in between.
        if self.s.len() as usize > self.max_stack_entries + self.q.len() {
            return Err(format!(
                "LIRS: stack grew to {} (bound {} + {} queued)",
                self.s.len(),
                self.max_stack_entries,
                self.q.len()
            ));
        }
        Ok(())
    }

    fn state(&self) -> (&DenseSlab, &PolicyStats) {
        (&self.slab, &self.stats)
    }

    fn state_mut(&mut self) -> (&mut DenseSlab, &mut PolicyStats) {
        (&mut self.slab, &mut self.stats)
    }

    fn hit(&mut self, slot: u32, _req: &Request) {
        self.slab.slots[slot as usize].touch();
        if self.slab.slots[slot as usize].tag == LIR {
            let was_bottom = self.s.tail() == Some(slot);
            self.push_stack_top(slot);
            if was_bottom {
                self.prune();
            }
        } else if self.on_stack(slot) {
            // Low IRR proven: promote to LIR.
            self.push_stack_top(slot);
            self.make_lir(slot);
        } else {
            // Not in S: stay HIR, refresh position in both.
            self.push_stack_top(slot);
            if let Some(node) = self.q_nodes[slot as usize] {
                self.q.move_to_front(node);
            }
        }
    }

    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        let size = u64::from(req.size);
        while self.resident_used + size > self.capacity && self.resident_used > 0 {
            self.evict_one(evicted);
        }
        if self.q_nodes.len() < self.slab.domain() {
            // `Keyed` grows the slab a slot at a time, and a stream grows it
            // by chunks: the Q nodes follow.
            self.q_nodes.resize(self.slab.domain(), None);
        }
        // A non-resident block still on the stack (a ghost hit) has shown a
        // low IRR and becomes LIR; so does any block while the LIR region
        // has room (the paper's cold-start rule).
        let ghost_hit = self.on_stack(slot);
        let s = &mut self.slab.slots[slot as usize];
        s.on_insert(req);
        s.tag = HIR;
        self.resident_used += size;
        self.resident += 1;
        self.push_stack_top(slot);
        if ghost_hit || self.lir_used + size <= self.lir_capacity {
            self.make_lir(slot);
        } else {
            self.queue_push(slot);
        }
        self.bound_stack();
    }

    fn remove(&mut self, slot: u32) {
        if self.on_stack(slot) {
            self.pop_stack(slot);
        }
        let tag = std::mem::replace(&mut self.slab.slots[slot as usize].tag, 0);
        if tag == 0 {
            return;
        }
        let size = u64::from(self.slab.size(slot));
        if tag == LIR {
            self.lir_used -= size;
        } else if let Some(node) = self.q_nodes[slot as usize].take() {
            self.q.remove(node);
        }
        self.resident_used -= size;
        self.resident -= 1;
        self.prune();
    }

    #[inline]
    fn warm(&self, _slot: u32) {
        if let Some(tail) = self.s.tail() {
            self.slab.warm_slot(tail);
        }
    }
}

/// LIRS keyed by object id.
pub type Lirs = Keyed<DenseLirs>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{check_policy_basics, miss_ratio_of, test_trace};
    use cache_types::Policy;

    /// The tag of `id`'s slot, and whether it is on the stack.
    fn state_of(p: &Lirs, id: u64) -> Option<(u8, bool)> {
        p.slot_of(id)
            .map(|s| (p.slab.slots[s as usize].tag, p.on_stack(s)))
    }

    #[test]
    fn cold_start_fills_lir() {
        let mut p = Lirs::new(100).unwrap();
        let mut evs = Vec::new();
        for id in 0..50u64 {
            p.request(&Request::get(id, id), &mut evs);
        }
        assert!(p.lir_used > 0);
        assert!(p.used() <= 100);
    }

    #[test]
    fn resident_bytes_bounded() {
        let mut p = Lirs::new(50).unwrap();
        let trace = test_trace(20_000, 1000, 31);
        let mut evs = Vec::new();
        for r in &trace {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.used() <= 50, "resident {} > 50", p.used());
        }
    }

    #[test]
    fn ghost_hit_promotes_to_lir() {
        let mut p = Lirs::new(20).unwrap();
        let mut evs = Vec::new();
        let mut t = 0u64;
        for id in 0..100u64 {
            evs.clear();
            p.request(&Request::get(id, t), &mut evs);
            t += 1;
        }
        // Find a ghost (evicted but still on the stack).
        let ghost = (0..100u64)
            .rev()
            .find(|&id| state_of(&p, id) == Some((0, true)));
        if let Some(g) = ghost {
            evs.clear();
            let out = p.request(&Request::get(g, t), &mut evs);
            assert!(out.is_miss());
            assert_eq!(state_of(&p, g).map(|(tag, _)| tag), Some(LIR));
        }
    }

    #[test]
    fn loop_workload_beats_lru() {
        // LIRS's claim to fame: loops larger than the cache.
        let mut reqs = Vec::new();
        let mut t = 0u64;
        for _ in 0..30 {
            for id in 0..30u64 {
                reqs.push(Request::get(id, t));
                t += 1;
            }
        }
        let mut lirs = Lirs::new(20).unwrap();
        let mut lru = crate::Lru::new(20).unwrap();
        let mr_lirs = miss_ratio_of(&mut lirs, &reqs);
        let mr_lru = miss_ratio_of(&mut lru, &reqs);
        assert!(
            mr_lirs < mr_lru - 0.2,
            "LIRS {mr_lirs:.3} must crush LRU {mr_lru:.3} on loops"
        );
    }

    #[test]
    fn skewed_workload_reasonable() {
        let trace = test_trace(30_000, 2000, 37);
        let mut lirs = Lirs::new(64).unwrap();
        let mut fifo = crate::Fifo::new(64).unwrap();
        let mr_lirs = miss_ratio_of(&mut lirs, &trace);
        let mr_fifo = miss_ratio_of(&mut fifo, &trace);
        assert!(
            mr_lirs < mr_fifo,
            "LIRS {mr_lirs:.4} should beat FIFO {mr_fifo:.4}"
        );
    }

    #[test]
    fn stack_is_bounded() {
        let mut p = Lirs::new(50).unwrap();
        let mut evs = Vec::new();
        for id in 0..100_000u64 {
            evs.clear();
            p.request(&Request::get(id, id), &mut evs);
        }
        assert!(
            p.s.len() as usize <= p.max_stack_entries,
            "stack grew to {}",
            p.s.len()
        );
    }

    #[test]
    fn basics() {
        let mut p = Lirs::new(100).unwrap();
        check_policy_basics(&mut p, 100);
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(Lirs::new(0).is_err());
    }
}
