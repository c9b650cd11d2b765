//! The dense slab: the one place the FIFO-family policies keep their state.
//!
//! A dense policy ([`cache_types::DensePolicy`]) stores everything it knows
//! about an object in one [`Slot`] of a [`DenseSlab`], indexed by a `u32`
//! slot, and threads its queues through the slots ([`PackedQueue`]); 2Q and
//! S3-FIFO add a [`SlotGhost`]. This module holds that shared plumbing and
//! the two ways a request finds its slot:
//!
//! - **pre-interned** — the simulator interns a whole trace once (or a
//!   `.ctr` stream chunk by chunk, growing the slab with
//!   [`DensePolicy::grow_domain`]) and drives
//!   [`DensePolicy::request_dense`] through [`replay_loop`]; a request costs
//!   a couple of array loads;
//! - **keyed** — [`Keyed`] interns `ObjId → slot` on the fly, recycles slots
//!   the policy reports idle, and is the [`cache_types::Policy`] behind the
//!   public names (`S3Fifo` and `S3FifoD` here; `Fifo`, `Lru`, `Clock`,
//!   `Sieve`, `Slru`, `TwoQ`, `Arc`, `Lirs`, `TinyLfu`, `LruK`, `BloomLru`,
//!   `LeCar`, `Cacheus`, `Lhd`, `FifoMerge` in `cache-policies`).
//!
//! There is one implementation of each algorithm; the two doors differ only
//! in who hands out slots. `cache_check`'s fuzzer drives both against its
//! reference interpreters. There is one request protocol too: every slab
//! policy's [`DensePolicy::request_dense`] is a call to [`serve`], the only
//! code that decides a read's outcome, runs `Set` and `Delete`, and keeps
//! the counts; the policy supplies its steps through [`Protocol`].
//!
//! The plumbing lives in this crate, not in `cache-ds`, because
//! [`DenseS3Fifo`](crate::DenseS3Fifo) and
//! [`DenseS3FifoD`](crate::DenseS3FifoD) are built on it below
//! `cache-policies` (whose registry builds them) and a `cache-ds →
//! cache-types` edge would rewrite the frozen `benchmark/Cargo.lock`.

mod ghost;
mod keyed;
mod slab;

pub use ghost::SlotGhost;
pub use keyed::{Keyed, SlabPolicy};
pub use slab::{validate_queues, DenseSlab, PackedQueue, Slot};

use cache_types::{DensePolicy, Eviction, Op, Outcome, PolicyStats, Request};

/// How many requests ahead a replay loop warms slot state — this one, and
/// the simulator's per-request loop. Far enough to overlap a DRAM
/// round-trip with useful work, near enough that the warmed line is still
/// cached when its request executes.
pub const LOOKAHEAD: usize = 12;

/// The replay loop every dense policy's [`DensePolicy::replay`] override
/// delegates to. Because `P` is a concrete type here, `request_dense`
/// resolves statically and the whole per-request path inlines into one loop
/// body — the trait's default `replay` runs the same loop but pays a virtual
/// call per request.
///
/// # Panics
///
/// Panics when `slots` and `requests` have different lengths.
#[inline]
pub fn replay_loop<P: DensePolicy>(
    policy: &mut P,
    slots: &[u32],
    requests: &[Request],
    ignore_size: bool,
    on_eviction: &mut dyn FnMut(usize, &Eviction),
) {
    assert_eq!(slots.len(), requests.len(), "slot/request length mismatch");
    let mut evs: Vec<Eviction> = Vec::with_capacity(16);
    for (i, (&slot, r)) in slots.iter().zip(requests.iter()).enumerate() {
        if let Some(&ahead) = slots.get(i + LOOKAHEAD) {
            policy.prefetch(ahead);
        }
        let req = if ignore_size {
            Request { size: 1, ..(*r) }
        } else {
            *r
        };
        evs.clear();
        policy.request_dense(slot, &req, &mut evs);
        for e in &evs {
            on_eviction(i, e);
        }
    }
}

/// The steps of one slab policy that [`serve`] sequences: what a hit
/// changes, how an object is admitted, how it is removed. Everything the
/// policies share — the outcome, the counts, `Set` and `Delete` — is
/// `serve`'s, so these are called by it alone.
pub trait Protocol: DensePolicy {
    /// The counters [`serve`] keeps; [`DensePolicy::stats`] reads them.
    fn stats_mut(&mut self) -> &mut PolicyStats;

    /// A read of resident `slot`.
    fn hit(&mut self, slot: u32, req: &Request);

    /// Caches `req`'s object at non-resident `slot` (it fits the cache),
    /// pushing a record for every object evicted to make room.
    fn admit(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction>);

    /// A read of non-resident `slot` that fits the cache. Default: admit it.
    fn miss(&mut self, slot: u32, req: &Request, evicted: &mut Vec<Eviction>) {
        self.admit(slot, req, evicted);
    }

    /// Drops `slot` from the cache if it is resident.
    fn remove(&mut self, slot: u32);
}

/// The request protocol every slab policy serves, written once: a read of a
/// resident object is a `Hit`; of one larger than the whole cache,
/// `Uncacheable` (nothing changes); otherwise a `Miss` that the policy
/// handles. A `Set` removes the object, then admits the new one if it fits;
/// a `Delete` removes it. Reads are counted by outcome and evictions by the
/// records pushed. Each policy's [`DensePolicy::request_dense`] is a call
/// to this, wrapped where it takes a per-request step of its own.
#[inline]
pub fn serve<P: Protocol>(
    policy: &mut P,
    slot: u32,
    req: &Request,
    evicted: &mut Vec<Eviction>,
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
fn serve_rest<P: Protocol>(
    policy: &mut P,
    slot: u32,
    req: &Request,
    evicted: &mut Vec<Eviction>,
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

/// Implements [`DensePolicy::replay`] as a monomorphized [`replay_loop`]
/// call, [`DensePolicy::prefetch`] as a slot-state warming read,
/// [`DensePolicy::grow_domain`] as [`DenseSlab::grow_to`] and
/// [`DensePolicy::resident`] as a nonzero tag; used inside each
/// dense policy's `impl DensePolicy` block (they all store their per-slot
/// state in a `slab` field and warm their eviction cursors in an inherent
/// `prefetch_extra`). Policies with a ghost list name it as the macro
/// argument so its presence mark is warmed too; the marks need no growing,
/// since [`SlotGhost::insert`] extends them.
#[macro_export]
macro_rules! impl_dense_replay {
    ($($ghost:ident),*) => {
        fn grow_domain(
            &mut self,
            domain: usize,
            reserve: usize,
        ) -> Result<(), cache_types::CacheError> {
            self.slab.grow_to(domain, reserve);
            Ok(())
        }

        fn resident(&self, slot: u32) -> bool {
            self.slab.slots[slot as usize].tag != 0
        }

        fn prefetch(&self, slot: u32) {
            // Non-retiring hardware hints; see `cache_ds::prefetch_read`.
            self.slab.warm_slot(slot);
            self.prefetch_extra();
            $(self.$ghost.warm(slot);)*
        }

        fn replay(
            &mut self,
            slots: &[u32],
            requests: &[cache_types::Request],
            ignore_size: bool,
            on_eviction: &mut dyn FnMut(usize, &cache_types::Eviction),
        ) {
            $crate::dense::replay_loop(self, slots, requests, ignore_size, on_eviction);
        }
    };
}

/// Implements [`SlabPolicy`] for a dense policy that keeps its slab in a
/// `slab` field; `$with_capacity` is its default-parameter constructor over
/// the empty domain (`|capacity| Dense…::with_domain(capacity, 0)`).
#[macro_export]
macro_rules! impl_slab_policy {
    ($policy:ty, $with_capacity:expr) => {
        impl $crate::dense::SlabPolicy for $policy {
            fn with_capacity(capacity: u64) -> Result<Self, cache_types::CacheError> {
                $with_capacity(capacity)
            }

            fn slab(&self) -> &$crate::dense::DenseSlab {
                &self.slab
            }

            fn slab_mut(&mut self) -> &mut $crate::dense::DenseSlab {
                &mut self.slab
            }
        }
    };
}
