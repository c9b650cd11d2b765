//! LIRS — Low Inter-reference Recency Set (Jiang & Zhang, SIGMETRICS '02).
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

use crate::util::Meta;
use cache_ds::{DList, Handle, IdMap};
use cache_types::{CacheError, Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Lir,
    HirResident,
    HirGhost,
}

struct Node {
    state: State,
    /// Handle in the stack S (`None` when pruned from S).
    s_handle: Option<Handle>,
    /// Handle in the queue Q (`Some` only for resident HIR).
    q_handle: Option<Handle>,
    meta: Meta,
}

/// The LIRS eviction algorithm with the paper's 1 % HIR allocation.
pub struct Lirs {
    capacity: u64,
    /// Byte budget for LIR blocks (99 % by default).
    lir_capacity: u64,
    lir_used: u64,
    /// Resident bytes (LIR + resident HIR).
    resident_used: u64,
    /// Recency stack; head = most recent.
    s: DList<ObjId>,
    /// Resident HIR queue; head = most recent, tail = next eviction.
    q: DList<ObjId>,
    table: IdMap<Node>,
    /// Bound on stack entries, to keep ghost memory proportional to the
    /// cache size.
    max_stack_entries: usize,
    stats: PolicyStats,
}

impl Lirs {
    /// Creates a LIRS cache giving `hir_ratio` of the capacity to resident
    /// HIR blocks (paper: 0.01).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] for a zero capacity or a ratio outside (0,1).
    pub fn with_ratio(capacity: u64, hir_ratio: f64) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::InvalidCapacity("capacity must be > 0".into()));
        }
        if !(hir_ratio > 0.0 && hir_ratio < 1.0) {
            return Err(CacheError::InvalidParameter(format!(
                "hir_ratio must be in (0,1), got {hir_ratio}"
            )));
        }
        let hir_cap = ((capacity as f64 * hir_ratio).round() as u64).max(1);
        Ok(Lirs {
            capacity,
            lir_capacity: capacity.saturating_sub(hir_cap).max(1),
            lir_used: 0,
            resident_used: 0,
            s: DList::new(),
            q: DList::new(),
            table: IdMap::default(),
            max_stack_entries: ((capacity as usize).saturating_mul(3)).max(16),
            stats: PolicyStats::default(),
        })
    }

    /// Creates a LIRS cache with the paper's default 1 % HIR allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    pub fn new(capacity: u64) -> Result<Self, CacheError> {
        Self::with_ratio(capacity, 0.01)
    }

    /// Stack pruning: remove HIR entries from the stack bottom until a LIR
    /// block anchors it.
    fn prune(&mut self) {
        while let Some(&bottom) = self.s.back() {
            let node = self.table.get_mut(&bottom).expect("stack id in table");
            if node.state == State::Lir {
                break;
            }
            // Invariant: ids resident in the stack hold a stack handle.
            let h = node.s_handle.take().expect("bottom has stack handle");
            self.s.remove(h);
            if node.state == State::HirGhost {
                // A pruned ghost is forgotten entirely.
                self.table.remove(&bottom);
            }
        }
    }

    /// Bounds the stack size by dropping ghosts from the bottom region.
    fn bound_stack(&mut self) {
        while self.s.len() > self.max_stack_entries {
            let Some(&bottom) = self.s.back() else { break };
            let node = self.table.get_mut(&bottom).expect("stack id in table");
            // Invariant: ids resident in the stack hold a stack handle.
            let h = node.s_handle.take().expect("bottom has stack handle");
            self.s.remove(h);
            match node.state {
                State::HirGhost => {
                    self.table.remove(&bottom);
                }
                State::Lir => {
                    // Demote the bottom LIR into Q so residency is preserved.
                    node.state = State::HirResident;
                    let size = node.meta.size;
                    node.q_handle = Some(self.q.push_front(bottom));
                    self.lir_used -= u64::from(size);
                    self.prune();
                }
                State::HirResident => {}
            }
        }
    }

    /// Demotes the LIR block at the stack bottom to resident HIR (front of
    /// Q), then prunes.
    fn demote_bottom_lir(&mut self) {
        // After pruning, the bottom is LIR by invariant.
        self.prune();
        let Some(&bottom) = self.s.back() else { return };
        let node = self.table.get_mut(&bottom).expect("stack id in table");
        debug_assert_eq!(node.state, State::Lir);
        node.state = State::HirResident;
        // Invariant: a LIR bottom always holds a stack handle.
        let h = node.s_handle.take().expect("bottom has stack handle");
        node.q_handle = Some(self.q.push_front(bottom));
        self.lir_used -= u64::from(node.meta.size);
        self.s.remove(h);
        self.prune();
    }

    /// Promotes a block to LIR, demoting bottom LIR blocks while the LIR
    /// region overflows.
    fn make_lir(&mut self, id: ObjId) {
        let node = self.table.get_mut(&id).expect("promoted id in table");
        debug_assert_ne!(node.state, State::Lir);
        if let Some(qh) = node.q_handle.take() {
            self.q.remove(qh);
        }
        node.state = State::Lir;
        self.lir_used += u64::from(node.meta.size);
        while self.lir_used > self.lir_capacity {
            self.demote_bottom_lir();
        }
    }

    fn push_stack_top(&mut self, id: ObjId) {
        // Invariant: callers pass tabled ids.
        let node = self.table.get_mut(&id).expect("id in table");
        if let Some(h) = node.s_handle.take() {
            self.s.remove(h);
        }
        let h = self.s.push_front(id);
        // Invariant: the same tabled id as above.
        self.table.get_mut(&id).expect("id in table").s_handle = Some(h);
    }

    /// Evicts the resident HIR block at the tail of Q, leaving a ghost in S
    /// when the block is still on the stack.
    fn evict_one(&mut self, evicted: &mut Vec<Eviction>) {
        if let Some(id) = self.q.pop_back() {
            let node = self.table.get_mut(&id).expect("q id in table");
            debug_assert_eq!(node.state, State::HirResident);
            node.q_handle = None;
            self.resident_used -= u64::from(node.meta.size);
            self.stats.evictions += 1;
            evicted.push(node.meta.eviction(id, true));
            if node.s_handle.is_some() {
                node.state = State::HirGhost;
            } else {
                self.table.remove(&id);
            }
            return;
        }
        // Q empty: demote a LIR block and retry once.
        if self.lir_used > 0 {
            self.demote_bottom_lir();
            if let Some(id) = self.q.pop_back() {
                let node = self.table.get_mut(&id).expect("q id in table");
                node.q_handle = None;
                self.resident_used -= u64::from(node.meta.size);
                self.stats.evictions += 1;
                evicted.push(node.meta.eviction(id, false));
                if node.s_handle.is_some() {
                    node.state = State::HirGhost;
                } else {
                    self.table.remove(&id);
                }
            }
        }
    }

    fn on_hit(&mut self, id: ObjId, now: u64) {
        let state = {
            // Invariant: on_hit fires only after a successful lookup.
            let node = self.table.get_mut(&id).expect("hit id in table");
            node.meta.touch(now);
            node.state
        };
        match state {
            State::Lir => {
                let was_bottom = self.s.back() == Some(&id);
                self.push_stack_top(id);
                if was_bottom {
                    self.prune();
                }
            }
            State::HirResident => {
                let in_stack = self.table[&id].s_handle.is_some();
                if in_stack {
                    // Low IRR proven: promote to LIR.
                    self.push_stack_top(id);
                    self.make_lir(id);
                } else {
                    // Not in S: stay HIR, refresh position in both.
                    self.push_stack_top(id);
                    let node = self.table.get_mut(&id).expect("id in table");
                    if let Some(qh) = node.q_handle {
                        self.q.move_to_front(qh);
                    }
                }
            }
            State::HirGhost => unreachable!("ghosts are not resident"),
        }
    }

    fn miss_insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        let size = u64::from(req.size);
        while self.resident_used + size > self.capacity && self.resident_used > 0 {
            self.evict_one(evicted);
        }
        let ghost_hit = matches!(
            self.table.get(&req.id).map(|n| n.state),
            Some(State::HirGhost)
        );
        if ghost_hit {
            // Non-resident HIR in the stack: becomes LIR.
            {
                let node = self.table.get_mut(&req.id).expect("ghost in table");
                node.meta = Meta::new(req.size, req.time);
                node.state = State::HirResident; // transitional; make_lir flips it
            }
            self.resident_used += size;
            self.push_stack_top(req.id);
            self.make_lir(req.id);
        } else {
            debug_assert!(!self.table.contains_key(&req.id));
            self.table.insert(
                req.id,
                Node {
                    state: State::HirResident,
                    s_handle: None,
                    q_handle: None,
                    meta: Meta::new(req.size, req.time),
                },
            );
            self.resident_used += size;
            self.push_stack_top(req.id);
            // While the LIR region is not yet full, new blocks become LIR
            // directly (cold-start rule of the paper).
            if self.lir_used + size <= self.lir_capacity {
                self.make_lir(req.id);
            } else {
                let node = self.table.get_mut(&req.id).expect("id in table");
                node.q_handle = Some(self.q.push_front(req.id));
            }
        }
        self.bound_stack();
    }

    fn delete(&mut self, id: ObjId) {
        if let Some(node) = self.table.get_mut(&id) {
            match node.state {
                State::HirGhost => {
                    if let Some(h) = node.s_handle.take() {
                        self.s.remove(h);
                    }
                    self.table.remove(&id);
                }
                State::HirResident => {
                    let (sh, qh, size) =
                        (node.s_handle.take(), node.q_handle.take(), node.meta.size);
                    if let Some(h) = sh {
                        self.s.remove(h);
                    }
                    if let Some(h) = qh {
                        self.q.remove(h);
                    }
                    self.resident_used -= u64::from(size);
                    self.table.remove(&id);
                    self.prune();
                }
                State::Lir => {
                    let (sh, size) = (node.s_handle.take(), node.meta.size);
                    if let Some(h) = sh {
                        self.s.remove(h);
                    }
                    self.lir_used -= u64::from(size);
                    self.resident_used -= u64::from(size);
                    self.table.remove(&id);
                    self.prune();
                }
            }
        }
    }
}

impl Policy for Lirs {
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
        self.table
            .values()
            .filter(|n| n.state != State::HirGhost)
            .count()
    }

    fn contains(&self, id: ObjId) -> bool {
        self.table
            .get(&id)
            .map(|n| n.state != State::HirGhost)
            .unwrap_or(false)
    }

    fn request(&mut self, req: &Request, evicted: &mut Vec<Eviction>) -> Outcome {
        match req.op {
            Op::Get => {
                if self.contains(req.id) {
                    self.on_hit(req.id, req.time);
                    self.stats.record_get(req.size, false);
                    Outcome::Hit
                } else if u64::from(req.size) > self.capacity {
                    self.stats.record_get(req.size, true);
                    Outcome::Uncacheable
                } else {
                    self.stats.record_get(req.size, true);
                    self.miss_insert(req, evicted);
                    Outcome::Miss
                }
            }
            Op::Set => {
                self.delete(req.id);
                if u64::from(req.size) <= self.capacity {
                    self.miss_insert(req, evicted);
                }
                Outcome::NotRead
            }
            Op::Delete => {
                self.delete(req.id);
                Outcome::NotRead
            }
        }
    }

    fn validate(&self) -> Result<(), String> {
        let mut lir_bytes = 0u64;
        let mut resident_bytes = 0u64;
        let mut n_hir_res = 0usize;
        let mut s_handles = 0usize;
        let mut q_handles = 0usize;
        for (id, n) in self.table.iter() {
            if n.s_handle.is_some() {
                s_handles += 1;
            }
            if n.q_handle.is_some() {
                q_handles += 1;
            }
            match n.state {
                State::Lir => {
                    lir_bytes += u64::from(n.meta.size);
                    resident_bytes += u64::from(n.meta.size);
                    if n.s_handle.is_none() {
                        return Err(format!("LIR block {id} is not on stack S"));
                    }
                    if n.q_handle.is_some() {
                        return Err(format!("LIR block {id} holds a Q handle"));
                    }
                }
                State::HirResident => {
                    n_hir_res += 1;
                    resident_bytes += u64::from(n.meta.size);
                    if n.q_handle.is_none() {
                        return Err(format!("resident HIR block {id} is not in Q"));
                    }
                }
                State::HirGhost => {
                    if n.s_handle.is_none() {
                        return Err(format!("ghost {id} survived off-stack (pruning failed)"));
                    }
                    if n.q_handle.is_some() {
                        return Err(format!("ghost {id} holds a Q handle"));
                    }
                }
            }
        }
        if resident_bytes != self.resident_used {
            return Err(format!(
                "resident bytes {} != accounted {}",
                resident_bytes, self.resident_used
            ));
        }
        if lir_bytes != self.lir_used {
            return Err(format!(
                "LIR bytes {} != accounted {}",
                lir_bytes, self.lir_used
            ));
        }
        if self.resident_used > self.capacity {
            return Err(format!(
                "resident {} > capacity {}",
                self.resident_used, self.capacity
            ));
        }
        if self.lir_used > self.lir_capacity {
            return Err(format!(
                "LIR bytes {} > LIR budget {}",
                self.lir_used, self.lir_capacity
            ));
        }
        if self.s.len() != s_handles {
            return Err(format!(
                "stack holds {} entries but {} nodes hold stack handles",
                self.s.len(),
                s_handles
            ));
        }
        if self.q.len() != q_handles {
            return Err(format!(
                "Q holds {} entries but {} nodes hold Q handles",
                self.q.len(),
                q_handles
            ));
        }
        if self.q.len() != n_hir_res {
            return Err(format!(
                "Q holds {} entries but {} resident HIR nodes exist",
                self.q.len(),
                n_hir_res
            ));
        }
        // `bound_stack` runs on misses; hits on off-stack resident HIR blocks
        // (all of which sit in Q) may each add one stack entry in between.
        if self.s.len() > self.max_stack_entries + self.q.len() {
            return Err(format!(
                "stack grew to {} (bound {} + {} queued)",
                self.s.len(),
                self.max_stack_entries,
                self.q.len()
            ));
        }
        for id in self.s.iter() {
            if !self.table.contains_key(id) {
                return Err(format!("stack id {id} missing from table"));
            }
        }
        for id in self.q.iter() {
            match self.table.get(id).map(|n| n.state) {
                Some(State::HirResident) => {}
                other => {
                    return Err(format!("Q id {id} is {other:?}, expected resident HIR"));
                }
            }
        }
        Ok(())
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{check_policy_basics, miss_ratio_of, test_trace};

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
            .find(|id| matches!(p.table.get(id).map(|n| n.state), Some(State::HirGhost)));
        if let Some(g) = ghost {
            evs.clear();
            let out = p.request(&Request::get(g, t), &mut evs);
            assert!(out.is_miss());
            assert_eq!(p.table[&g].state, State::Lir);
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
            p.s.len() <= p.max_stack_entries,
            "stack grew to {}",
            p.s.len()
        );
        assert!(p.table.len() <= p.max_stack_entries + p.q.len() + 1);
    }

    #[test]
    fn basics() {
        let mut p = Lirs::new(100).unwrap();
        check_policy_basics(&mut p, 100);
    }

    #[test]
    fn rejects_bad_params() {
        assert!(Lirs::new(0).is_err());
        assert!(Lirs::with_ratio(10, 0.0).is_err());
        assert!(Lirs::with_ratio(10, 1.0).is_err());
    }
}
