//! Dense-ID policy implementations — the simulator's fast replay path.
//!
//! Each policy here is a line-for-line mirror of its keyed sibling
//! ([`crate::fifo::Fifo`], [`crate::lru::Lru`], …) with the per-key
//! `HashMap<ObjId, Entry>` replaced by plain `Vec`s indexed by the trace's
//! interned dense slot (the intrusive-array layout libCacheSim uses). A
//! request costs a couple of array loads instead of a hash probe, which is
//! where sweep replay time goes.
//!
//! Equivalence is a hard requirement, not an aspiration: slots and original
//! ids are in bijection, every structural decision (eviction scan order,
//! ghost tombstone semantics, promote thresholds) is copied verbatim from
//! the keyed implementation, and `crates/sim/tests/equivalence.rs` asserts
//! bit-identical miss ratios and eviction counts for every policy across
//! workload shapes.

mod ghost;
pub mod mrc;
mod multi;
mod s3fifo;
mod simple;
mod slab;

pub use mrc::{MrcExactFifo, MrcTurboClock, MrcTurboS3Fifo, MrcTurboSieve, MultiCapacityPolicy};
pub use multi::{DenseSlru, DenseTwoQ};
pub use s3fifo::DenseS3Fifo;
pub use simple::{DenseClock, DenseFifo, DenseLru, DenseSieve};

pub(crate) use ghost::SlotGhost;
pub(crate) use slab::{DenseSlab, PackedQueue};

use cache_types::{DensePolicy, Eviction, Request};

/// The replay loop every dense policy's [`DensePolicy::replay`] override
/// delegates to. Because `P` is a concrete type here, `request_dense`
/// resolves statically and the whole per-request path inlines into one loop
/// body — the trait's default `replay` runs the same loop but pays a virtual
/// call per request.
/// How many requests ahead the replay loop warms slot state. Far enough to
/// overlap a DRAM round-trip with useful work, near enough that the warmed
/// line is still cached when its request executes.
const LOOKAHEAD: usize = 12;

#[inline]
pub(crate) fn replay_loop<P: DensePolicy>(
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

/// Implements [`DensePolicy::replay`] as a monomorphized [`replay_loop`]
/// call and [`DensePolicy::prefetch`] as a slot-state warming read; used
/// inside each dense policy's `impl DensePolicy` block (they all store
/// their per-slot state in a `slab` field).
macro_rules! impl_dense_replay {
    ($($ghost:ident),*) => {
        fn prefetch(&self, slot: u32) {
            // Non-retiring hardware hints; see `cache_ds::prefetch_read`.
            // Besides the upcoming request's slot, each policy warms its
            // eviction cursor(s) via `prefetch_extra`, and policies with a
            // ghost list name it as a macro argument so its presence mark
            // is warmed too.
            cache_ds::prefetch_read(&self.slab.slots, slot as usize);
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
            crate::dense::replay_loop(self, slots, requests, ignore_size, on_eviction);
        }
    };
}
pub(crate) use impl_dense_replay;
