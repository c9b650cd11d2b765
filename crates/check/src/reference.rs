//! Tiny, obviously-correct reference interpreters for the queue policies.
//!
//! Each interpreter is a naive `Vec`-based executable specification of one
//! eviction algorithm: no handles, no intrusive links, no incremental byte
//! accounting — every quantity is recomputed by scanning. They exist to be
//! *read and believed*, then used as the ground truth the differential
//! fuzzer ([`crate::fuzz`]) compares the production policies against,
//! decision for decision — through both their keyed and, where they have
//! one, their pre-interned door. They are the only second implementation
//! of these algorithms.
//!
//! Conventions shared with the production policies:
//!
//! - `Vec` index 0 is the queue **tail** (oldest, next eviction candidate);
//!   `push` appends at the **head** (newest). This mirrors the `DList`
//!   orientation where `push_front` inserts the newest entry.
//! - A `Get` of a resident object touches metadata only; a `Get` of an
//!   absent object larger than the whole cache is `Uncacheable`, otherwise
//!   it is a read-through `Miss` that inserts after making room (B-LRU only
//!   once its filter has seen the object before). A `Set` deletes any
//!   existing entry and re-inserts when the object fits; a `Delete`
//!   removes. Hits never update the stored size.
//! - Ghost queues charge every FIFO slot — including tombstones left by
//!   `remove` — until the slot ages out, exactly like the production
//!   `SlotGhost` (and the id-keyed `cache_ds::GhostFifo`).
//! - B-LRU's admission filter is exact (`RefFilter`) where production
//!   keeps Bloom filters sized for at least 1 024 ids at 1 % false
//!   positives; the fuzzer's universes are far too small to meet one.

use cache_types::{Eviction, ObjId, Op, Outcome, Policy, PolicyStats, Request};
use std::collections::{HashSet, VecDeque};

/// Per-object bookkeeping every reference keeps, mirroring the fields the
/// production policies report in [`Eviction`] records.
#[derive(Debug, Clone, Copy)]
struct RefMeta {
    size: u32,
    insert_time: u64,
    hits: u32,
}

impl RefMeta {
    fn new(size: u32, now: u64) -> Self {
        RefMeta {
            size,
            insert_time: now,
            hits: 0,
        }
    }

    fn touch(&mut self) {
        self.hits += 1;
    }

    fn eviction(&self, id: ObjId, from_probationary: bool) -> Eviction {
        Eviction {
            id,
            size: self.size,
            insert_time: self.insert_time,
            freq: self.hits,
            from_probationary,
        }
    }
}

/// Byte-bounded FIFO ghost with tombstone semantics: `remove` clears only
/// the membership mark, the FIFO slot stays charged until it ages out.
#[derive(Debug, Default)]
struct RefGhost {
    fifo: VecDeque<(ObjId, u32)>,
    set: HashSet<ObjId>,
    capacity: u64,
}

impl RefGhost {
    fn new(capacity: u64) -> Self {
        RefGhost {
            capacity,
            ..RefGhost::default()
        }
    }

    fn used(&self) -> u64 {
        self.fifo.iter().map(|&(_, s)| u64::from(s)).sum()
    }

    fn contains(&self, id: ObjId) -> bool {
        self.set.contains(&id)
    }

    fn insert(&mut self, id: ObjId, size: u32) {
        if self.capacity == 0 {
            return;
        }
        if self.set.insert(id) {
            self.fifo.push_back((id, size));
        }
        self.trim_to(self.capacity);
    }

    /// Drops the oldest FIFO slots, tombstones included, until at most
    /// `cap` bytes are charged.
    fn trim_to(&mut self, cap: u64) {
        while self.used() > cap {
            match self.fifo.pop_front() {
                Some((old, _)) => {
                    self.set.remove(&old);
                }
                None => break,
            }
        }
    }

    fn remove(&mut self, id: ObjId) -> bool {
        self.set.remove(&id)
    }
}

/// B-LRU's admission filter, exact: the ids recorded in the current
/// generation of `rotate_at` records and in the one before it.
#[derive(Debug)]
struct RefFilter {
    active: HashSet<ObjId>,
    previous: HashSet<ObjId>,
    records: u64,
    rotate_at: u64,
}

impl RefFilter {
    fn new(capacity: u64) -> Self {
        RefFilter {
            active: HashSet::new(),
            previous: HashSet::new(),
            records: 0,
            rotate_at: capacity.clamp(1024, 1 << 24),
        }
    }

    fn seen(&self, id: ObjId) -> bool {
        self.active.contains(&id) || self.previous.contains(&id)
    }

    fn record(&mut self, id: ObjId) {
        self.active.insert(id);
        self.records += 1;
        if self.records >= self.rotate_at {
            self.previous = std::mem::take(&mut self.active);
            self.records = 0;
        }
    }
}

/// S3-FIFO-D's adaptation (§6.2.2), over the S3-FIFO interpreter: two
/// monitor ghosts of 5 % of the cache remember what `S` and `M` evicted,
/// and every 100 monitor hits the small queue grows or shrinks by 0.1 % of
/// the cache when one side has at least twice the other's hits.
#[derive(Debug)]
struct RefAdapt {
    /// The small queue's current size in bytes.
    small: u64,
    /// Objects evicted from `S`.
    mon_small: RefGhost,
    /// Objects evicted from `M`.
    mon_main: RefGhost,
    hits_small: u64,
    hits_main: u64,
}

impl RefAdapt {
    fn new(capacity: u64) -> Self {
        let fraction = |r: f64| (capacity as f64 * r).round() as u64;
        RefAdapt {
            small: fraction(0.1).max(1),
            mon_small: RefGhost::new(fraction(0.05).max(1)),
            mon_main: RefGhost::new(fraction(0.05).max(1)),
            hits_small: 0,
            hits_main: 0,
        }
    }

    /// After 100 monitor hits, moves 0.1 % of the cache toward the queue
    /// whose evictions were hit at least twice as often, within 0.5 %–50 %
    /// of the cache, and starts counting afresh.
    fn decide(&mut self, capacity: u64) {
        if self.hits_small + self.hits_main < 100 {
            return;
        }
        let fraction = |r: f64| (capacity as f64 * r).round() as u64;
        let step = fraction(0.001).max(1);
        let min = fraction(0.005).max(1);
        let max = fraction(0.5).max(min);
        let (hs, hm) = (self.hits_small as f64, self.hits_main as f64);
        if hs >= hm * 2.0 {
            self.small = (self.small + step).min(max);
        } else if hm >= hs * 2.0 {
            self.small = self.small.saturating_sub(step).max(min);
        }
        self.hits_small = 0;
        self.hits_main = 0;
    }
}

/// One entry of a reference queue: id, per-policy counter/flag, metadata.
#[derive(Debug, Clone, Copy)]
struct Node {
    id: ObjId,
    /// CLOCK/S3-FIFO capped frequency, SIEVE visited bit (0/1). Unused by
    /// the other algorithms.
    freq: u8,
    /// LRU-2's last access and, from the second access on, the one before.
    last: u64,
    penult: Option<u64>,
    meta: RefMeta,
}

impl Node {
    /// `req`'s object, just inserted.
    fn new(req: &Request) -> Self {
        Node {
            id: req.id,
            freq: 0,
            last: req.time,
            penult: None,
            meta: RefMeta::new(req.size, req.time),
        }
    }
}

fn bytes_of(q: &[Node]) -> u64 {
    q.iter().map(|n| u64::from(n.meta.size)).sum()
}

fn find(q: &[Node], id: ObjId) -> Option<usize> {
    q.iter().position(|n| n.id == id)
}

/// How one of S3-FIFO's two queues orders its entries: the paper's FIFO
/// (with two-bit reinsertion in `M`), §6.3's LRU, or §7's SIEVE (`M` only).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Queue {
    Fifo,
    Lru,
    Sieve,
}

/// Which of the ten reference algorithms an interpreter runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Algo {
    Fifo,
    Lru,
    /// CLOCK with the given saturation cap (`2^bits - 1`).
    Clock(u8),
    Sieve,
    Slru,
    TwoQ,
    /// S3-FIFO with the given small-queue ratio and queue disciplines.
    S3Fifo { ratio: f64, small: Queue, main: Queue },
    /// ARC: `q0` is T1, `q1` T2, `ghost` B1 and `ghost2` B2.
    Arc,
    /// LRU-2 over `q0`, kept in insertion order.
    LruK,
    /// LRU over `q0` behind B-LRU's admission filter.
    BloomLru,
}

/// An LRU queue's hit: the entry at `p` moves to the head (MRU).
fn move_to_head(q: &mut Vec<Node>, p: usize) {
    let n = q.remove(p);
    q.push(n);
}

/// One FIFO-reinsertion eviction from `q` (CLOCK; S3-FIFO's `EVICTM`): the
/// tail goes back to the head with `freq - 1` while its `freq > 0`; the
/// first tail with `freq == 0` is removed and returned.
fn reinsertion_evict(q: &mut Vec<Node>) -> Node {
    while q[0].freq > 0 {
        let mut n = q.remove(0);
        n.freq -= 1;
        q.push(n);
    }
    q.remove(0)
}

/// One SIEVE eviction from `q`: resume from the hand when it still points at
/// a live node, otherwise from the tail; unmark in place toward the head,
/// wrapping past the newest entry; remove and return the first unmarked
/// node, leaving the hand on its neighbour toward the head (which then sits
/// at the same index), or cleared when the head was evicted.
fn sieve_evict(q: &mut Vec<Node>, hand: &mut Option<ObjId>) -> Node {
    let mut i = hand.and_then(|h| find(q, h)).unwrap_or(0);
    while q[i].freq != 0 {
        q[i].freq = 0;
        i = if i + 1 < q.len() { i + 1 } else { 0 };
    }
    let n = q.remove(i);
    *hand = q.get(i).map(|m| m.id);
    n
}

/// One LRU-2 eviction from `q` (in insertion order): the oldest page seen
/// only once, whose backward 2-distance is infinite, else the page whose
/// penultimate access is oldest, ties to the smaller id. The flag says
/// which kind went.
fn lruk_evict(q: &mut Vec<Node>) -> (Node, bool) {
    if let Some(p) = q.iter().position(|n| n.penult.is_none()) {
        return (q.remove(p), true);
    }
    // Invariant: callers evict only from a non-empty queue.
    let p = (0..q.len())
        .min_by_key(|&i| (q[i].penult, q[i].id))
        .expect("a page to evict");
    (q.remove(p), false)
}

/// A naive executable specification of one queue policy.
///
/// All ten algorithms share this struct; unused queues stay empty. The
/// per-request logic lives in small per-algorithm methods written to follow
/// the production implementations statement for statement, but over plain
/// `Vec`s so each step is obviously what the algorithm prescribes.
#[derive(Debug)]
pub struct ReferencePolicy {
    algo: Algo,
    capacity: u64,
    /// FIFO/LRU/CLOCK/SIEVE/LRU-2/B-LRU: the only queue. S3-FIFO: the small
    /// queue. 2Q: A1in. ARC: T1.
    q0: Vec<Node>,
    /// S3-FIFO: the main queue. 2Q: Am. ARC: T2.
    q1: Vec<Node>,
    /// SLRU's four segments (index 0 probationary).
    segs: [Vec<Node>; 4],
    /// S3-FIFO's G, 2Q's A1out, ARC's B1.
    ghost: RefGhost,
    /// ARC's B2.
    ghost2: RefGhost,
    /// ARC's target size for T1, in bytes.
    p: u64,
    /// B-LRU's admission filter.
    filter: Option<RefFilter>,
    /// The hand of a SIEVE queue (`q0`, or S3-FIFO-Sieve's `q1`), stored as
    /// the id it points at (`None` = start at tail).
    hand: Option<ObjId>,
    /// S3-FIFO-D's monitors and small-queue size; the S3-FIFO interpreter
    /// underneath reads its `S` size from here.
    adapt: Option<RefAdapt>,
    stats: PolicyStats,
}

impl ReferencePolicy {
    fn new(algo: Algo, capacity: u64) -> Self {
        let ghost = match algo {
            Algo::TwoQ => RefGhost::new((capacity as f64 * 0.5).round() as u64),
            Algo::S3Fifo { ratio, .. } => {
                let s_cap = ((capacity as f64 * ratio).round() as u64).max(1);
                let m_cap = capacity.saturating_sub(s_cap).max(1);
                RefGhost::new(m_cap) // ghost_ratio 1.0 of main capacity
            }
            Algo::Arc => RefGhost::new(capacity),
            _ => RefGhost::new(0),
        };
        ReferencePolicy {
            algo,
            capacity,
            q0: Vec::new(),
            q1: Vec::new(),
            segs: std::array::from_fn(|_| Vec::new()),
            ghost,
            ghost2: RefGhost::new(if algo == Algo::Arc { capacity } else { 0 }),
            p: 0,
            filter: (algo == Algo::BloomLru).then(|| RefFilter::new(capacity)),
            hand: None,
            adapt: None,
            stats: PolicyStats::default(),
        }
    }

    // ---- shared residency helpers -------------------------------------

    fn all_queues(&self) -> impl Iterator<Item = &Node> {
        self.q0
            .iter()
            .chain(self.q1.iter())
            .chain(self.segs.iter().flatten())
    }

    fn resident(&self, id: ObjId) -> bool {
        self.all_queues().any(|n| n.id == id)
    }

    fn used_bytes(&self) -> u64 {
        self.all_queues().map(|n| u64::from(n.meta.size)).sum()
    }

    fn count(&self) -> usize {
        self.all_queues().count()
    }

    /// B-LRU's admission: a first sighting is recorded and refused. Every
    /// other policy admits what it misses on.
    fn admit(&mut self, id: ObjId) -> bool {
        match &mut self.filter {
            Some(f) if !f.seen(id) => {
                f.record(id);
                false
            }
            _ => true,
        }
    }

    // ---- S3-FIFO (mirrors s3fifo::S3Fifo / Algorithm 1) ----------------

    fn s3_small_capacity(&self) -> u64 {
        let Algo::S3Fifo { ratio, .. } = self.algo else {
            unreachable!("s3 helper on non-S3 reference");
        };
        match &self.adapt {
            Some(a) => a.small,
            None => ((self.capacity as f64 * ratio).round() as u64).max(1),
        }
    }

    fn s3_main_capacity(&self) -> u64 {
        self.capacity.saturating_sub(self.s3_small_capacity()).max(1)
    }

    /// `EVICTS`: promote small-tail entries with freq above the threshold
    /// (clearing the counter), ghost the first one at or below it.
    fn s3_evict_small(&mut self, evicted: &mut Vec<Eviction>) {
        while !self.q0.is_empty() {
            let tail = self.q0[0];
            if tail.freq > 1 {
                self.q0.remove(0);
                self.q1.push(Node { freq: 0, ..tail });
                if bytes_of(&self.q1) > self.s3_main_capacity() {
                    self.s3_evict_main(evicted);
                }
            } else {
                self.q0.remove(0);
                self.ghost.insert(tail.id, tail.meta.size);
                self.stats.evictions += 1;
                evicted.push(tail.meta.eviction(tail.id, true));
                return;
            }
        }
        if !self.q1.is_empty() {
            self.s3_evict_main(evicted);
        }
    }

    /// `EVICTM`: two-bit FIFO-reinsertion; an LRU `M` evicts its tail
    /// outright, a SIEVE `M` wherever its hand stops.
    fn s3_evict_main(&mut self, evicted: &mut Vec<Eviction>) {
        let Algo::S3Fifo { main, .. } = self.algo else {
            unreachable!("s3 helper on non-S3 reference");
        };
        if self.q1.is_empty() {
            return;
        }
        let n = match main {
            Queue::Fifo => reinsertion_evict(&mut self.q1),
            Queue::Lru => self.q1.remove(0),
            Queue::Sieve => sieve_evict(&mut self.q1, &mut self.hand),
        };
        self.stats.evictions += 1;
        evicted.push(n.meta.eviction(n.id, false));
    }

    fn s3_insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        // Ghost membership is decided before making room, because the
        // eviction loop inserts into the ghost itself.
        let in_ghost = self.ghost.contains(req.id);
        while self.used_bytes() + u64::from(req.size) > self.capacity {
            if bytes_of(&self.q0) >= self.s3_small_capacity() || self.q1.is_empty() {
                self.s3_evict_small(evicted);
            } else {
                self.s3_evict_main(evicted);
            }
            if self.q0.is_empty() && self.q1.is_empty() {
                break;
            }
        }
        if in_ghost {
            self.ghost.remove(req.id);
            self.q1.push(Node::new(req));
            if bytes_of(&self.q1) > self.s3_main_capacity() {
                self.s3_evict_main(evicted);
            }
        } else {
            self.q0.push(Node::new(req));
        }
    }

    // ---- S3-FIFO-D (mirrors s3fifo::S3FifoD, §6.2.2) -------------------

    /// A read that misses counts a hit on each monitor that remembers it.
    fn s3d_before(&mut self, req: &Request) {
        let resident = self.resident(req.id);
        if let Some(a) = &mut self.adapt {
            if req.op == Op::Get && !resident {
                a.hits_small += u64::from(a.mon_small.remove(req.id));
                a.hits_main += u64::from(a.mon_main.remove(req.id));
            }
        }
    }

    /// The request's evictions enter the monitor of the queue they left;
    /// then the split may move, and `G` follows `M`'s new size.
    fn s3d_after(&mut self, evicted: &[Eviction]) {
        let Some(a) = &mut self.adapt else { return };
        for e in evicted {
            let monitor = if e.from_probationary {
                &mut a.mon_small
            } else {
                &mut a.mon_main
            };
            monitor.insert(e.id, e.size);
        }
        a.decide(self.capacity);
        self.ghost.capacity = self.s3_main_capacity();
    }

    // ---- 2Q (mirrors cache_policies::TwoQ) -----------------------------

    fn twoq_a1in_capacity(&self) -> u64 {
        ((self.capacity as f64 * 0.25).round() as u64).max(1)
    }

    /// RECLAIM: drop the A1in tail into A1out when A1in is at or over its
    /// share (or Am is empty); otherwise evict the Am LRU tail.
    fn twoq_evict_one(&mut self, evicted: &mut Vec<Eviction>) {
        let reclaim_a1in = bytes_of(&self.q0) >= self.twoq_a1in_capacity() || self.q1.is_empty();
        if reclaim_a1in && !self.q0.is_empty() {
            let n = self.q0.remove(0);
            self.ghost.insert(n.id, n.meta.size);
            self.stats.evictions += 1;
            evicted.push(n.meta.eviction(n.id, true));
            return;
        }
        if !self.q1.is_empty() {
            let n = self.q1.remove(0);
            self.stats.evictions += 1;
            evicted.push(n.meta.eviction(n.id, false));
        }
    }

    fn twoq_insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        let in_a1out = self.ghost.remove(req.id);
        while self.used_bytes() + u64::from(req.size) > self.capacity && self.count() > 0 {
            self.twoq_evict_one(evicted);
        }
        if in_a1out {
            self.q1.push(Node::new(req));
        } else {
            self.q0.push(Node::new(req));
        }
    }

    // ---- SLRU (mirrors cache_policies::Slru) ---------------------------

    fn slru_seg_capacity(&self) -> u64 {
        (self.capacity / 4).max(1)
    }

    /// Demote tails of over-share segments into the segment below, down to
    /// the probationary segment (which absorbs the cascade).
    fn slru_rebalance_from(&mut self, seg: usize) {
        for s in (1..=seg).rev() {
            while bytes_of(&self.segs[s]) > self.slru_seg_capacity() {
                if self.segs[s].is_empty() {
                    break;
                }
                let n = self.segs[s].remove(0);
                self.segs[s - 1].push(n);
            }
        }
    }

    fn slru_evict_one(&mut self, evicted: &mut Vec<Eviction>) {
        for s in 0..4 {
            if !self.segs[s].is_empty() {
                let n = self.segs[s].remove(0);
                self.stats.evictions += 1;
                evicted.push(n.meta.eviction(n.id, s == 0));
                return;
            }
        }
    }

    fn slru_insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        while self.used_bytes() + u64::from(req.size) > self.capacity && self.count() > 0 {
            self.slru_evict_one(evicted);
        }
        self.segs[0].push(Node::new(req));
    }

    fn slru_on_hit(&mut self, id: ObjId) {
        // Invariant: on_hit is only called for resident ids.
        let seg = (0..4)
            .find(|&s| find(&self.segs[s], id).is_some())
            .expect("hit id in some segment");
        let pos = find(&self.segs[seg], id).expect("position exists");
        let target = (seg + 1).min(3);
        let mut n = self.segs[seg].remove(pos);
        n.meta.touch();
        self.segs[target].push(n);
        if target != seg {
            self.slru_rebalance_from(target);
        }
    }

    // ---- ARC (mirrors cache_policies::Arc) -----------------------------

    /// REPLACE: T1's LRU tail drops into B1 when T1 is over the target `p`
    /// (or at it on a B2 hit, or T2 is empty); otherwise T2's into B2.
    fn arc_replace(&mut self, in_b2: bool, evicted: &mut Vec<Eviction>) {
        let t1 = bytes_of(&self.q0);
        let from_t1 = t1 > 0 && (t1 > self.p || (in_b2 && t1 == self.p) || self.q1.is_empty());
        let (q, ghost) = if from_t1 {
            (&mut self.q0, &mut self.ghost)
        } else {
            (&mut self.q1, &mut self.ghost2)
        };
        if !q.is_empty() {
            let n = q.remove(0);
            ghost.insert(n.id, n.meta.size);
            self.stats.evictions += 1;
            evicted.push(n.meta.eviction(n.id, from_t1));
        }
    }

    fn arc_insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        let (size, c) = (u64::from(req.size), self.capacity);
        let (in_b1, in_b2) = (self.ghost.contains(req.id), self.ghost2.contains(req.id));
        let (b1, b2) = (self.ghost.used(), self.ghost2.used());
        if in_b1 {
            // B1 hit: T1 was too small; p grows by max(1, |B2| / |B1|) sizes.
            self.p = (self.p + (b2 / b1.max(1)).max(1) * size).min(c);
            self.ghost.remove(req.id);
        } else if in_b2 {
            // B2 hit: T2 was too small; p shrinks by max(1, |B1| / |B2|) sizes.
            self.p = self.p.saturating_sub((b1 / b2.max(1)).max(1) * size);
            self.ghost2.remove(req.id);
        } else {
            // Case IV: T1 and B1 together stay under c bytes, the whole
            // directory under 2c.
            let (t1, used) = (bytes_of(&self.q0), self.used_bytes());
            if t1 + b1 >= c {
                if t1 < c {
                    self.ghost.trim_to(c.saturating_sub(t1 + size));
                }
            } else if used + b1 + b2 >= 2 * c {
                self.ghost2.trim_to((2 * c).saturating_sub(used + b1 + size));
            }
        }
        while self.used_bytes() + size > c && self.count() > 0 {
            self.arc_replace(in_b2, evicted);
        }
        // Ghost hits come back into T2, new objects into T1.
        if in_b1 || in_b2 {
            self.q1.push(Node::new(req));
        } else {
            self.q0.push(Node::new(req));
        }
    }

    // ---- single-queue shared insert/delete -----------------------------

    fn single_insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        while self.used_bytes() + u64::from(req.size) > self.capacity && !self.q0.is_empty() {
            let (n, probationary) = match self.algo {
                Algo::Fifo | Algo::Lru | Algo::BloomLru => (self.q0.remove(0), false),
                Algo::Clock(_) => (reinsertion_evict(&mut self.q0), false),
                Algo::Sieve => (sieve_evict(&mut self.q0, &mut self.hand), false),
                Algo::LruK => lruk_evict(&mut self.q0),
                _ => unreachable!("single-queue insert on multi-queue algo"),
            };
            self.stats.evictions += 1;
            evicted.push(n.meta.eviction(n.id, probationary));
        }
        self.q0.push(Node::new(req));
    }

    fn delete(&mut self, id: ObjId) {
        if self.hand == Some(id) {
            // The hand steps to the neighbour toward the head, like the
            // production policies' `toward_head`.
            let q = if self.algo == Algo::Sieve { &self.q0 } else { &self.q1 };
            let p = find(q, id).expect("hand id resident");
            self.hand = q.get(p + 1).map(|n| n.id);
        }
        if let Some(p) = find(&self.q0, id) {
            self.q0.remove(p);
        } else if let Some(p) = find(&self.q1, id) {
            self.q1.remove(p);
        } else {
            for s in 0..4 {
                if let Some(p) = find(&self.segs[s], id) {
                    self.segs[s].remove(p);
                    return;
                }
            }
        }
    }

    fn on_hit(&mut self, req: &Request) {
        match self.algo {
            Algo::Fifo => {
                // Invariant: on_hit is only called for resident ids.
                let p = find(&self.q0, req.id).expect("hit id resident");
                self.q0[p].meta.touch();
            }
            Algo::Lru | Algo::BloomLru => {
                // Invariant: on_hit is only called for resident ids.
                let p = find(&self.q0, req.id).expect("hit id resident");
                self.q0[p].meta.touch();
                move_to_head(&mut self.q0, p);
            }
            Algo::Clock(max_freq) => {
                // Invariant: on_hit is only called for resident ids.
                let p = find(&self.q0, req.id).expect("hit id resident");
                self.q0[p].freq = (self.q0[p].freq + 1).min(max_freq);
                self.q0[p].meta.touch();
            }
            Algo::Sieve => {
                // Invariant: on_hit is only called for resident ids.
                let p = find(&self.q0, req.id).expect("hit id resident");
                self.q0[p].freq = 1; // visited bit
                self.q0[p].meta.touch();
            }
            Algo::Slru => self.slru_on_hit(req.id),
            Algo::TwoQ => {
                // A1in hits touch only (FIFO); Am hits promote to MRU.
                if let Some(p) = find(&self.q0, req.id) {
                    self.q0[p].meta.touch();
                } else {
                    let p = find(&self.q1, req.id).expect("hit id resident");
                    let mut n = self.q1.remove(p);
                    n.meta.touch();
                    self.q1.push(n);
                }
            }
            Algo::S3Fifo { small, main, .. } => {
                let (q, kind) = if find(&self.q0, req.id).is_some() {
                    (&mut self.q0, small)
                } else {
                    (&mut self.q1, main)
                };
                // Invariant: on_hit is only called for resident ids.
                let p = find(q, req.id).expect("hit id resident");
                q[p].freq = (q[p].freq + 1).min(3);
                q[p].meta.touch();
                if kind == Queue::Lru {
                    move_to_head(q, p);
                }
            }
            Algo::Arc => {
                // A T1 hit moves to T2's MRU end, and so does a T2 hit.
                let mut n = match find(&self.q0, req.id) {
                    Some(p) => self.q0.remove(p),
                    // Invariant: on_hit is only called for resident ids.
                    None => self.q1.remove(find(&self.q1, req.id).expect("hit id resident")),
                };
                n.meta.touch();
                self.q1.push(n);
            }
            Algo::LruK => {
                // Invariant: on_hit is only called for resident ids.
                let p = find(&self.q0, req.id).expect("hit id resident");
                let n = &mut self.q0[p];
                n.meta.touch();
                n.penult = Some(n.last);
                n.last = req.time;
            }
        }
    }

    /// One request through the queues (everything but S3-FIFO-D's
    /// monitors).
    fn request_queues(&mut self, req: &Request, evicted: &mut Vec<Eviction>) -> Outcome {
        match req.op {
            Op::Get => {
                if self.resident(req.id) {
                    self.on_hit(req);
                    self.stats.record_get(req.size, false);
                    Outcome::Hit
                } else {
                    self.stats.record_get(req.size, true);
                    let admitted = self.admit(req.id);
                    if u64::from(req.size) > self.capacity {
                        Outcome::Uncacheable
                    } else {
                        if admitted {
                            self.insert(req, evicted);
                        }
                        Outcome::Miss
                    }
                }
            }
            Op::Set => {
                self.delete(req.id);
                if u64::from(req.size) <= self.capacity {
                    self.insert(req, evicted);
                }
                Outcome::NotRead
            }
            Op::Delete => {
                self.delete(req.id);
                Outcome::NotRead
            }
        }
    }

    fn insert(&mut self, req: &Request, evicted: &mut Vec<Eviction>) {
        match self.algo {
            Algo::Fifo
            | Algo::Lru
            | Algo::Clock(_)
            | Algo::Sieve
            | Algo::LruK
            | Algo::BloomLru => {
                self.single_insert(req, evicted);
            }
            Algo::Slru => self.slru_insert(req, evicted),
            Algo::TwoQ => self.twoq_insert(req, evicted),
            Algo::S3Fifo { .. } => self.s3_insert(req, evicted),
            Algo::Arc => self.arc_insert(req, evicted),
        }
    }
}

impl Policy for ReferencePolicy {
    fn name(&self) -> String {
        match self.algo {
            Algo::Fifo => "Ref<FIFO>".into(),
            Algo::Lru => "Ref<LRU>".into(),
            Algo::Clock(m) => format!("Ref<CLOCK max={m}>"),
            Algo::Sieve => "Ref<SIEVE>".into(),
            Algo::Slru => "Ref<SLRU>".into(),
            Algo::TwoQ => "Ref<2Q>".into(),
            Algo::S3Fifo { .. } if self.adapt.is_some() => "Ref<S3-FIFO-D>".into(),
            Algo::S3Fifo { ratio, small, main } => {
                format!("Ref<S3-FIFO({ratio:.2}) S={small:?} M={main:?}>")
            }
            Algo::Arc => "Ref<ARC>".into(),
            Algo::LruK => "Ref<LRU-2>".into(),
            Algo::BloomLru => "Ref<B-LRU>".into(),
        }
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used(&self) -> u64 {
        self.used_bytes()
    }

    fn len(&self) -> usize {
        self.count()
    }

    fn contains(&self, id: ObjId) -> bool {
        self.resident(id)
    }

    fn request(&mut self, req: &Request, evicted: &mut Vec<Eviction>) -> Outcome {
        self.s3d_before(req);
        let before = evicted.len();
        let outcome = self.request_queues(req, evicted);
        self.s3d_after(&evicted[before..]);
        outcome
    }

    fn validate(&self) -> Result<(), String> {
        if self.used_bytes() > self.capacity {
            return Err(format!(
                "{}: used {} > capacity {}",
                self.name(),
                self.used_bytes(),
                self.capacity
            ));
        }
        let mut seen = HashSet::new();
        for n in self.all_queues() {
            if !seen.insert(n.id) {
                return Err(format!("{}: id {} resident twice", self.name(), n.id));
            }
        }
        Ok(())
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

/// Builds the reference interpreter for a registry algorithm name, or
/// `None` when the algorithm has no reference model (the fuzzer then skips
/// the name). Accepts the same `"S3-FIFO(r)"` parameterized form as the
/// registry.
pub fn reference_for(name: &str, capacity: u64) -> Option<ReferencePolicy> {
    let s3fifo = |ratio, small, main| Algo::S3Fifo { ratio, small, main };
    let algo = match name {
        "FIFO" => Algo::Fifo,
        "LRU" => Algo::Lru,
        "CLOCK" => Algo::Clock(1),
        "CLOCK-2bit" => Algo::Clock(3),
        "SIEVE" => Algo::Sieve,
        "SLRU" => Algo::Slru,
        "2Q" => Algo::TwoQ,
        "S3-FIFO" => s3fifo(0.1, Queue::Fifo, Queue::Fifo),
        "QDLP-LRU-LRU" => s3fifo(0.1, Queue::Lru, Queue::Lru),
        "QDLP-LRU-FIFO" => s3fifo(0.1, Queue::Lru, Queue::Fifo),
        "QDLP-FIFO-LRU" => s3fifo(0.1, Queue::Fifo, Queue::Lru),
        "S3-FIFO-Sieve" => s3fifo(0.1, Queue::Fifo, Queue::Sieve),
        "ARC" => Algo::Arc,
        "LRU-2" => Algo::LruK,
        "B-LRU" => Algo::BloomLru,
        "S3-FIFO-D" => {
            let mut r = ReferencePolicy::new(s3fifo(0.1, Queue::Fifo, Queue::Fifo), capacity);
            r.adapt = Some(RefAdapt::new(capacity));
            return Some(r);
        }
        _ => {
            let ratio = name.strip_prefix("S3-FIFO(")?.strip_suffix(')')?;
            s3fifo(ratio.parse().ok()?, Queue::Fifo, Queue::Fifo)
        }
    };
    Some(ReferencePolicy::new(algo, capacity))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(p: &mut ReferencePolicy, id: ObjId, t: u64) -> Outcome {
        let mut evs = Vec::new();
        p.request(&Request::get(id, t), &mut evs)
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut p = reference_for("FIFO", 2).unwrap();
        get(&mut p, 1, 0);
        get(&mut p, 2, 1);
        get(&mut p, 1, 2); // hit, no reorder
        let mut evs = Vec::new();
        p.request(&Request::get(3, 3), &mut evs);
        assert_eq!(evs[0].id, 1);
        assert_eq!(evs[0].freq, 1);
    }

    #[test]
    fn lru_keeps_recent() {
        let mut p = reference_for("LRU", 2).unwrap();
        get(&mut p, 1, 0);
        get(&mut p, 2, 1);
        get(&mut p, 1, 2);
        let mut evs = Vec::new();
        p.request(&Request::get(3, 3), &mut evs);
        assert_eq!(evs[0].id, 2);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = reference_for("CLOCK", 2).unwrap();
        get(&mut p, 1, 0);
        get(&mut p, 2, 1);
        get(&mut p, 1, 2);
        let mut evs = Vec::new();
        p.request(&Request::get(3, 3), &mut evs);
        assert_eq!(evs[0].id, 2);
        assert!(p.contains(1));
    }

    #[test]
    fn sieve_keeps_visited_in_place() {
        let mut p = reference_for("SIEVE", 3).unwrap();
        for id in 1..=3 {
            get(&mut p, id, id);
        }
        get(&mut p, 1, 10); // visit tail
        let mut evs = Vec::new();
        p.request(&Request::get(4, 11), &mut evs);
        assert_eq!(evs[0].id, 2, "hand clears 1's bit then evicts 2");
        assert!(p.contains(1));
    }

    #[test]
    fn s3fifo_one_hit_wonders_ghost() {
        let mut p = reference_for("S3-FIFO", 100).unwrap();
        for i in 0..150 {
            get(&mut p, i, i);
        }
        assert!(p.q1.is_empty(), "a pure scan never populates M");
        assert!(!p.ghost.set.is_empty());
        // Ghost hit resurrects into main.
        let ghosted = (0..150).find(|&i| p.ghost.contains(i)).unwrap();
        assert_eq!(get(&mut p, ghosted, 1000), Outcome::Miss);
        assert!(find(&p.q1, ghosted).is_some());
    }

    #[test]
    fn twoq_ghost_hit_promotes() {
        let mut p = reference_for("2Q", 20).unwrap();
        for id in 0..40 {
            get(&mut p, id, id);
        }
        assert!(p.q1.is_empty(), "a scan never populates Am");
        let ghosted = (0..40).find(|&i| p.ghost.contains(i)).unwrap();
        get(&mut p, ghosted, 100);
        assert!(find(&p.q1, ghosted).is_some());
    }

    #[test]
    fn slru_hits_climb_segments() {
        let mut p = reference_for("SLRU", 40).unwrap();
        for t in 0..5 {
            get(&mut p, 1, t);
        }
        assert!(find(&p.segs[3], 1).is_some(), "caps at the top segment");
    }

    #[test]
    fn arc_b1_hit_grows_p_and_lands_in_t2() {
        let mut p = reference_for("ARC", 10).unwrap();
        for id in 0..20 {
            get(&mut p, id, id);
        }
        let ghosted = (0..20).rev().find(|&i| p.ghost.contains(i)).unwrap();
        get(&mut p, ghosted, 100);
        assert!(p.p > 0, "a B1 hit grows p");
        assert!(find(&p.q1, ghosted).is_some());
    }

    #[test]
    fn lru2_evicts_the_oldest_penultimate_access() {
        let mut p = reference_for("LRU-2", 2).unwrap();
        for (id, t) in [(1, 0), (2, 1), (2, 2), (1, 10)] {
            get(&mut p, id, t);
        }
        let mut evs = Vec::new();
        p.request(&Request::get(3, 11), &mut evs);
        assert_eq!(evs[0].id, 1, "page 1's penultimate access (0) is the oldest");
    }

    #[test]
    fn blru_admits_on_the_second_sighting() {
        let mut p = reference_for("B-LRU", 10).unwrap();
        assert_eq!(get(&mut p, 1, 0), Outcome::Miss);
        assert!(!p.contains(1));
        assert_eq!(get(&mut p, 1, 1), Outcome::Miss);
        assert_eq!(get(&mut p, 1, 2), Outcome::Hit);
    }

    /// A bug planted in a copy of the reference, to show that the
    /// differential run against the correct one has teeth.
    #[derive(Debug, Clone, Copy)]
    enum Plant {
        /// A QDLP-FIFO-LRU that forgot one of the three places the
        /// discipline is read: hits see an LRU `M`, `EVICTM` still
        /// reinserts. (Its engine is this module's interpreter with the
        /// discipline switched per request — evictions never happen on a
        /// hit.)
        LruMainStillReinserts,
        /// An ARC whose `p` does not keep what a B1 hit adds to it.
        ArcB1HitLeavesP,
        /// An LRU-2 that ranks warm pages by their last access, not their
        /// penultimate one.
        LruKRanksByLast,
        /// A B-LRU that admits an object on its first sighting.
        BLruAdmitsFirstSighting,
        /// An S3-FIFO-D that credits a monitor hit to the other queue.
        S3dCreditsTheOtherQueue,
    }

    /// The reference with a [`Plant`] in it, driven as the dense side of a
    /// differential run, its records numbered by the run's table.
    struct Planted<'a>(ReferencePolicy, Plant, &'a cache_ds::DenseIds);

    impl s3fifo::dense::DensePolicy for Planted<'_> {
        fn name(&self) -> String {
            self.0.name()
        }
        fn capacity(&self) -> u64 {
            self.0.capacity
        }
        fn used(&self) -> u64 {
            self.0.used_bytes()
        }
        fn len(&self) -> usize {
            self.0.count()
        }
        fn request_dense(
            &mut self,
            _: u32,
            req: &Request,
            evicted: &mut Vec<Eviction<u32>>,
        ) -> Outcome {
            let r = &mut self.0;
            let (p, b1_hit) = (r.p, r.ghost.contains(req.id) && !r.resident(req.id));
            match self.1 {
                Plant::LruMainStillReinserts => {
                    let hit = req.op == Op::Get && r.resident(req.id);
                    let main = if hit { Queue::Lru } else { Queue::Fifo }; // BUG: not Lru throughout
                    r.algo = Algo::S3Fifo { ratio: 0.1, small: Queue::Fifo, main };
                }
                Plant::BLruAdmitsFirstSighting => {
                    if let Some(f) = r.filter.as_mut().filter(|f| !f.seen(req.id)) {
                        f.record(req.id); // BUG: the first sighting counts as a second
                    }
                }
                Plant::S3dCreditsTheOtherQueue => {
                    let miss = req.op == Op::Get && !r.resident(req.id);
                    if let Some(a) = r.adapt.as_mut().filter(|_| miss) {
                        // BUG: each monitor's hit counts for the other queue.
                        a.hits_main += u64::from(a.mon_small.remove(req.id));
                        a.hits_small += u64::from(a.mon_main.remove(req.id));
                    }
                }
                Plant::ArcB1HitLeavesP | Plant::LruKRanksByLast => {}
            }
            let mut named = Vec::new();
            let out = r.request(req, &mut named);
            let slot = |id| self.2.slot_of(id).expect("the run interned every id");
            evicted.extend(named.iter().map(|e| e.named(slot(e.id))));
            match self.1 {
                Plant::ArcB1HitLeavesP if b1_hit => r.p = p, // BUG: the B1 hit's growth is lost
                Plant::LruKRanksByLast => {
                    for n in r.q0.iter_mut().filter(|n| n.penult.is_some()) {
                        n.penult = Some(n.last); // BUG: ranks by the last access
                    }
                }
                _ => {}
            }
            out
        }
        fn resident(&self, _: u32) -> bool {
            unreachable!("a plant is diffed, never observed")
        }
        fn validate(&self) -> Result<(), String> {
            Policy::validate(&self.0)
        }
        fn stats(&self) -> PolicyStats {
            self.0.stats
        }
    }

    /// `plant` in `name`'s reference is caught by the differential run
    /// against the correct reference and the registry's keyed policy, and
    /// the reproduction shrinks to at most `max_len` requests (same shape as
    /// `fuzz::tests::mutant_dense_is_caught_and_shrunk`). The run starts
    /// from the fuzzer's unit-size pure-`Get` stream.
    fn plant_is_caught_and_shrunk(name: &str, plant: Plant, capacity: u64, max_len: usize) {
        use crate::fuzz::{generate_trace, FuzzConfig};
        let requests = generate_trace(&FuzzConfig {
            max_size: 1,
            write_percent: 0,
            ..FuzzConfig::default()
        });
        plant_is_caught_on(name, plant, capacity, requests, max_len);
    }

    /// [`plant_is_caught_and_shrunk`] from the caller's `requests`.
    fn plant_is_caught_on(
        name: &str,
        plant: Plant,
        capacity: u64,
        requests: Vec<Request>,
        max_len: usize,
    ) {
        use crate::fuzz::{diff_run, shrink_with};
        let mut fails = |reqs: &[Request]| -> bool {
            let mut reference = reference_for(name, capacity).unwrap();
            let mut keyed = cache_policies::registry::build(name, capacity, None).unwrap();
            let (ids, slots) = cache_ds::DenseIds::intern(reqs.iter().map(|r| r.id));
            let mut planted = Planted(reference_for(name, capacity).unwrap(), plant, &ids);
            diff_run(&mut reference, keyed.as_mut(), &mut planted, &ids, &slots, reqs).is_some()
        };
        assert!(fails(&requests), "{plant:?}: the plant must diverge somewhere");
        let shrunk = shrink_with(&mut fails, requests);
        assert!(fails(&shrunk), "{plant:?}: the shrunk trace must still reproduce");
        assert!(
            shrunk.len() <= max_len,
            "{plant:?}: expected a minimal reproduction, got {shrunk:?}"
        );
    }

    /// The oracle for the queue-type variants has teeth.
    #[test]
    fn lru_main_that_still_reinserts_is_caught_and_shrunk() {
        // Fill S and G, get two objects into M, hit the older one, overflow M.
        plant_is_caught_and_shrunk("QDLP-FIFO-LRU", Plant::LruMainStillReinserts, 3, 12);
    }

    #[test]
    fn arc_b1_hit_that_leaves_p_is_caught_and_shrunk() {
        plant_is_caught_and_shrunk("ARC", Plant::ArcB1HitLeavesP, 4, 40);
    }

    #[test]
    fn lru2_ranking_by_last_access_is_caught_and_shrunk() {
        plant_is_caught_and_shrunk("LRU-2", Plant::LruKRanksByLast, 3, 40);
    }

    #[test]
    fn blru_admitting_a_first_sighting_is_caught_and_shrunk() {
        plant_is_caught_and_shrunk("B-LRU", Plant::BLruAdmitsFirstSighting, 3, 1);
    }

    /// §5.2's adversarial pattern, `len` requests long, as S3-FIFO-D at
    /// `capacity` sees it: every object's second (and last) request comes
    /// just after it fell out of `S`, so only `S`'s monitor is ever hit. The
    /// fuzzer's skewed streams move the split at none of its capacities;
    /// this one moves it every 100 objects.
    fn s3fifo_d_adversary(capacity: u64, len: usize) -> Vec<Request> {
        let mut p = reference_for("S3-FIFO-D", capacity).unwrap();
        let (mut next, mut oldest, mut evs) = (0u64, 0u64, Vec::new());
        (0..len as u64)
            .map(|t| {
                let id = if oldest < next && !p.resident(oldest) {
                    oldest += 1;
                    oldest - 1
                } else {
                    next += 1;
                    next - 1
                };
                let req = Request::get(id, t);
                p.request(&req, &mut evs);
                req
            })
            .collect()
    }

    #[test]
    fn s3fifo_d_grows_s_when_its_evictions_are_hit() {
        use crate::fuzz::diff_run;
        let requests = s3fifo_d_adversary(20, 800);
        let mut reference = reference_for("S3-FIFO-D", 20).unwrap();
        let mut keyed = cache_policies::registry::build("S3-FIFO-D", 20, None).unwrap();
        let (ids, slots) = cache_ds::DenseIds::intern(requests.iter().map(|r| r.id));
        let mut dense =
            cache_policies::registry::build_dense_domain("S3-FIFO-D", 20, None, ids.len()).unwrap();
        let diverged = diff_run(
            &mut reference,
            keyed.as_mut(),
            dense.as_mut(),
            &ids,
            &slots,
            &requests,
        );
        assert_eq!(diverged, None);
        let small = reference.adapt.as_ref().map(|a| a.small);
        assert!(small > Some(3), "S grew from 2 to {small:?}");
    }

    #[test]
    fn s3fifo_d_crediting_the_other_queue_is_caught_and_shrunk() {
        // A decision needs 100 monitor hits, each an object's second
        // request: no reproduction is shorter than 200 requests.
        let requests = s3fifo_d_adversary(20, 300);
        plant_is_caught_on("S3-FIFO-D", Plant::S3dCreditsTheOtherQueue, 20, requests, 210);
    }

    #[test]
    fn unknown_name_has_no_reference() {
        assert!(reference_for("LIRS", 10).is_none());
        assert!(reference_for("Belady", 10).is_none());
    }
}
