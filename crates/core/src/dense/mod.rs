//! The dense slab: the one place the FIFO-family policies keep their state,
//! and the two traits every policy here is driven through.
//!
//! A slab policy stores everything it knows about an object in one [`Slot`]
//! of a [`DenseSlab`], indexed by a `u32` slot, and threads its queues
//! through the slots: each a [`Queue`] with its tag, its bytes and one
//! eviction [`Rule`]; 2Q and S3-FIFO add a [`SlotGhost`].
//! Each policy implements one trait, [`SlabPolicy`]: its shape (name,
//! capacity, bytes and objects held, invariants, counters), its slab, and
//! its algorithm's steps — what a hit changes, how an object is admitted
//! and removed, optionally what a miss learns first, what to warm ahead of
//! a request. Everything else is written once, here:
//!
//! - [`serve`] decides each read's outcome, runs `Set` and `Delete` and
//!   keeps the counts, for every policy;
//! - [`DensePolicy`], the interface the simulator drives, is derived for
//!   every [`SlabPolicy`] by one blanket impl: `request_dense` is the
//!   policy's [`SlabPolicy::step`] (by default `serve`), and residency,
//!   domain growth, prefetching and the replay loop are the slab's.
//!
//! A request finds its slot one of two ways:
//!
//! - **pre-interned** — the simulator interns a whole trace once (or a
//!   `.ctr` stream chunk by chunk, growing the slab with
//!   [`DensePolicy::grow_domain`]) and drives [`DensePolicy::replay`]; a
//!   request costs a couple of array loads;
//! - **keyed** — [`Keyed`] interns `ObjId → slot` on the fly, reuses a
//!   [`SlabPolicy::GHOSTLESS`] policy's slots once their objects leave, and
//!   is the [`cache_types::Policy`] behind the public names (`S3Fifo` and
//!   `S3FifoD` here; `Fifo`, `Lru`, `Clock`, `Sieve`, `Slru`, `TwoQ`, `Arc`,
//!   `Lirs`, `TinyLfu`, `LruK`, `BloomLru`, `LeCar`, `Cacheus`, `Lhd`,
//!   `FifoMerge` in `cache-policies`).
//!
//! There is one implementation of each algorithm; the two doors differ only
//! in who hands out slots, and so who names the slots records report.
//! `cache_check`'s fuzzer drives both against its reference interpreters.
//!
//! The plumbing lives in this crate, not in `cache-ds`, because
//! [`DenseS3Fifo`](crate::DenseS3Fifo) and
//! [`DenseS3FifoD`](crate::DenseS3FifoD) are built on it below
//! `cache-policies` (whose registry builds them) and a `cache-ds →
//! cache-types` edge would rewrite the frozen `benchmark/Cargo.lock`.
//! [`DensePolicy`] lives here rather than in `cache-types` so that it can be
//! derived: a blanket impl must sit in the crate of the trait it implements.

mod ghost;
mod keyed;
mod queue;
mod slab;

pub use ghost::SlotGhost;
pub use keyed::Keyed;
pub use queue::{rule, validate_queues, Members, Queue, Rule};
pub use slab::{DenseSlab, PackedQueue, Slot};

use cache_types::{CacheError, Eviction, Op, Outcome, PolicyStats, Request};

/// How many requests ahead [`DensePolicy::replay`], the simulator's one
/// replay loop, warms slot state. Far enough to overlap a DRAM
/// round-trip with useful work, near enough that the warmed line is still
/// cached when its request executes.
pub const LOOKAHEAD: usize = 12;

/// A cache eviction policy that keeps its state per dense *slot*.
///
/// Dense policies receive each request together with a `u32` slot standing
/// for the object — assigned per trace by the simulator (first-appearance
/// order), or on the fly by [`Keyed`], which turns any [`SlabPolicy`] into a
/// keyed [`cache_types::Policy`] — and store all per-object state in `Vec`s
/// indexed by slot instead of per-key hash-map nodes. [`Eviction`] records
/// name slots too: only the door that numbered them knows their ids.
///
/// Every [`SlabPolicy`] has this trait derived; test doubles implement it by
/// hand.
pub trait DensePolicy {
    /// Human-readable algorithm name, as the registry spells it.
    fn name(&self) -> String;

    /// Total capacity in bytes (or objects, when sizes are all 1).
    fn capacity(&self) -> u64;

    /// Bytes currently used by cached objects.
    fn used(&self) -> u64;

    /// Number of objects currently cached.
    fn len(&self) -> usize;

    /// True when no objects are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Processes one request whose object was interned at `slot`, appending
    /// an [`Eviction`] record, naming its slot, for every object removed to
    /// make room.
    fn request_dense(
        &mut self,
        slot: u32,
        req: &Request,
        evicted: &mut Vec<Eviction<u32>>,
    ) -> Outcome;

    /// True when the object interned at `slot` is cached (ghost entries do
    /// not count): [`cache_types::Policy::contains`] by slot, for checkers.
    fn resident(&self, slot: u32) -> bool;

    /// Checks structural invariants, mirroring
    /// [`cache_types::Policy::validate`]; used by the invariant checker and
    /// the differential fuzzer to catch dense-path corruption even when the
    /// observable decisions still happen to agree. The default performs no
    /// checks.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }

    /// Extends the dense domain to at least `0..domain`, so that
    /// [`DensePolicy::request_dense`] may be handed any slot below it; never
    /// shrinks. `reserve` is the most slots the caller will ever ask for (0
    /// when it cannot say): the first growth makes room for that many, so
    /// later growth never moves the per-slot state.
    ///
    /// # Errors
    ///
    /// The default has no per-slot state to grow and refuses with
    /// [`CacheError::InvalidParameter`]; the slab policies grow their slab.
    fn grow_domain(&mut self, domain: usize, reserve: usize) -> Result<(), CacheError> {
        let _ = (domain, reserve);
        Err(CacheError::InvalidParameter(format!(
            "{} cannot grow its dense domain",
            self.name()
        )))
    }

    /// Warms the per-slot state for a request that will arrive shortly.
    ///
    /// The replay loop knows the whole slot sequence up front, so it calls
    /// this [`LOOKAHEAD`] requests ahead; implementations issue a
    /// non-retiring prefetch hint for the slot's state
    /// (`cache_ds::prefetch_read`) to pull the cache line in while earlier
    /// requests execute, turning the cold-tail misses of a skewed trace from
    /// serial into overlapped. Must not change any observable state.
    /// Default: no-op.
    fn prefetch(&self, _slot: u32) {}

    /// Replays a whole interned request stream, invoking `on_eviction` with
    /// the request index for every eviction, and warming each request's
    /// state [`LOOKAHEAD`] requests ahead of it.
    ///
    /// A default method is compiled once per implementing type, so the
    /// calls to [`DensePolicy::request_dense`] and
    /// [`DensePolicy::prefetch`] here are static and the per-request path
    /// inlines into one loop body; a caller holding a `dyn DensePolicy`
    /// pays one virtual call per replay. With `ignore_size`, requests are
    /// replayed at size 1 without materializing a copy of the trace.
    ///
    /// # Panics
    ///
    /// Panics when `slots` and `requests` have different lengths.
    fn replay(
        &mut self,
        slots: &[u32],
        requests: &[Request],
        ignore_size: bool,
        on_eviction: &mut dyn FnMut(usize, &Eviction<u32>),
    ) {
        assert_eq!(slots.len(), requests.len(), "slot/request length mismatch");
        let mut evs = Vec::with_capacity(16);
        for (i, (&slot, r)) in slots.iter().zip(requests.iter()).enumerate() {
            if let Some(&ahead) = slots.get(i + LOOKAHEAD) {
                self.prefetch(ahead);
            }
            let req = if ignore_size {
                Request { size: 1, ..(*r) }
            } else {
                *r
            };
            evs.clear();
            self.request_dense(slot, &req, &mut evs);
            for e in &evs {
                on_eviction(i, e);
            }
        }
    }

    /// Returns accumulated statistics.
    fn stats(&self) -> PolicyStats;
}

/// One eviction policy over a [`DenseSlab`]: everything a policy writes.
/// [`DensePolicy`] is derived from it, and [`Keyed`] turns it into a keyed
/// [`cache_types::Policy`].
///
/// The steps — [`hit`](SlabPolicy::hit), [`admit`](SlabPolicy::admit),
/// [`miss`](SlabPolicy::miss), [`remove`](SlabPolicy::remove) — are called
/// by [`serve`] alone, which owns everything the policies share: the
/// outcome, the counts, `Set` and `Delete`. A resident slot carries a
/// nonzero [`Slot::tag`], and every eviction pushes an [`Eviction`] record.
pub trait SlabPolicy: Sized {
    /// True when a slot's state ends with its object's residency: no ghost
    /// entry, history or stack entry names a slot whose object has left, so
    /// [`Keyed`] may give that slot to the next new id. A fact of the
    /// algorithm; a policy that remembers departed objects by slot keeps the
    /// default.
    const GHOSTLESS: bool = false;

    /// The policy at `capacity` with its default parameters over the empty
    /// dense domain — what [`Keyed::new`] wraps.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] when `capacity == 0`.
    fn with_capacity(capacity: u64) -> Result<Self, CacheError>;

    /// Human-readable algorithm name, as the registry spells it.
    fn name(&self) -> String;

    /// Total capacity in bytes (or objects, when sizes are all 1).
    fn capacity(&self) -> u64;

    /// Bytes currently used by cached objects.
    fn used(&self) -> u64;

    /// Number of objects currently cached.
    fn len(&self) -> usize;

    /// True when no objects are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The policy's structural invariants ([`DensePolicy::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    fn validate(&self) -> Result<(), String>;

    /// The slab holding the policy's per-object state, and the counters
    /// [`serve`] keeps.
    fn state(&self) -> (&DenseSlab, &PolicyStats);

    /// Mutable [`SlabPolicy::state`].
    fn state_mut(&mut self) -> (&mut DenseSlab, &mut PolicyStats);

    /// The slab holding the policy's per-object state.
    #[inline]
    fn slab(&self) -> &DenseSlab {
        self.state().0
    }

    /// Mutable access to the slab, for growing it.
    #[inline]
    fn slab_mut(&mut self) -> &mut DenseSlab {
        self.state_mut().0
    }

    /// The counters [`serve`] keeps.
    #[inline]
    fn stats(&self) -> PolicyStats {
        *self.state().1
    }

    /// Mutable access to the counters, for [`serve`].
    #[inline]
    fn stats_mut(&mut self) -> &mut PolicyStats {
        self.state_mut().1
    }

    /// A read of resident `slot`.
    fn hit(&mut self, slot: u32, req: &Request);

    /// Caches `req`'s object at non-resident `slot` (it fits the cache),
    /// pushing a record for every object evicted to make room.
    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>);

    /// A read of non-resident `slot` that fits the cache. Default: admit it.
    fn miss(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) {
        self.admit(slot, req, evicted);
    }

    /// Drops `slot` from the cache if it is resident.
    fn remove(&mut self, slot: u32);

    /// Warms what a request for `slot` will read besides the slot itself —
    /// eviction candidates, ghost marks — with prefetch hints only
    /// ([`DensePolicy::prefetch`] warms the slot first). Default: nothing.
    #[inline]
    fn warm(&self, _slot: u32) {}

    /// Serves one request: [`serve`], which a policy wraps when it takes a
    /// per-request step of its own (a clock, a sketch, a filter, an
    /// adaptation).
    #[inline]
    fn step(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction<u32>>) -> Outcome {
        serve(self, slot, req, evicted)
    }
}

impl<P: SlabPolicy> DensePolicy for P {
    fn name(&self) -> String {
        SlabPolicy::name(self)
    }

    fn capacity(&self) -> u64 {
        SlabPolicy::capacity(self)
    }

    fn used(&self) -> u64 {
        SlabPolicy::used(self)
    }

    fn len(&self) -> usize {
        SlabPolicy::len(self)
    }

    #[inline]
    fn request_dense(
        &mut self,
        slot: u32,
        req: &Request,
        evicted: &mut Vec<Eviction<u32>>,
    ) -> Outcome {
        self.step(slot, req, evicted)
    }

    #[inline]
    fn resident(&self, slot: u32) -> bool {
        self.slab().slots[slot as usize].tag != 0
    }

    fn validate(&self) -> Result<(), String> {
        SlabPolicy::validate(self)
    }

    /// Grows the slab; ghost marks need no growing, since
    /// [`SlotGhost::insert`] extends them.
    fn grow_domain(&mut self, domain: usize, reserve: usize) -> Result<(), CacheError> {
        self.slab_mut().grow_to(domain, reserve);
        Ok(())
    }

    /// Warms the slot's line, then whatever [`SlabPolicy::warm`] names.
    /// Non-retiring hardware hints; see `cache_ds::prefetch_read`.
    #[inline]
    fn prefetch(&self, slot: u32) {
        self.slab().warm_slot(slot);
        self.warm(slot);
    }

    fn stats(&self) -> PolicyStats {
        SlabPolicy::stats(self)
    }
}

/// The request protocol every slab policy serves, written once: a read of a
/// resident object is a `Hit`; of one larger than the whole cache,
/// `Uncacheable` (nothing changes); otherwise a `Miss` that the policy
/// handles. A `Set` removes the object, then admits the new one if it fits;
/// a `Delete` removes it. Reads are counted by outcome and evictions by the
/// records pushed. [`SlabPolicy::step`] is a call to this, wrapped where a
/// policy takes a per-request step of its own.
#[inline]
pub fn serve<P: SlabPolicy>(
    policy: &mut P,
    slot: u32,
    req: &Request,
    evicted: &mut Vec<Eviction<u32>>,
) -> Outcome {
    // A hit, most requests, evicts nothing. It is served here and the rest
    // out of line, so that the hit path saves no registers for the rest.
    if req.op == Op::Get && policy.resident(slot) {
        policy.hit(slot, req);
        policy.stats_mut().record_get(req.size, false);
        return Outcome::Hit;
    }
    serve_rest(policy, slot, req, evicted)
}

/// [`serve`] for everything but a hit.
#[inline(never)]
fn serve_rest<P: SlabPolicy>(
    policy: &mut P,
    slot: u32,
    req: &Request,
    evicted: &mut Vec<Eviction<u32>>,
) -> Outcome {
    let before = evicted.len();
    let fits = u64::from(req.size) <= policy.capacity();
    let outcome = match req.op {
        Op::Get if fits => {
            policy.miss(slot, req, evicted);
            Outcome::Miss
        }
        Op::Get => Outcome::Uncacheable,
        Op::Set => {
            policy.remove(slot);
            if fits {
                policy.admit(slot, req, evicted);
            }
            Outcome::NotRead
        }
        Op::Delete => {
            policy.remove(slot);
            Outcome::NotRead
        }
    };
    let stats = policy.stats_mut();
    if req.is_read() {
        stats.record_get(req.size, true);
    }
    stats.evictions += (evicted.len() - before) as u64;
    outcome
}
