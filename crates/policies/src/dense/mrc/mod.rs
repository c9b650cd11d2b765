//! Multi-capacity dense engines: one trace pass, a whole miss-ratio curve.
//!
//! The per-capacity sweep replays the full trace once per cache size, so a
//! 32-point miss-ratio curve costs 32 trace traversals — and the traversal,
//! not the policy arithmetic, is where the time goes. The engines here
//! compute every point of the curve in a *single* pass, two ways:
//!
//! - [`MrcExactFifo`] exploits FIFO's insertion-index structure. A FIFO of
//!   capacity `C` over a pure-`Get` unit-size stream contains exactly the
//!   objects whose latest insertion index lies in the last `C` insertions,
//!   so one per-capacity insertion counter plus a per-object index row
//!   answers hit/miss at every capacity with two integer ops per lane — no
//!   queues at all (CIPARSim's cache-intersection observation, specialised
//!   to FIFO where it is exact).
//! - [`MrcTurboClock`], [`MrcTurboSieve`], and [`MrcTurboS3Fifo`] handle
//!   the pure-`Get` unit-size case (the common one for capacity planning)
//!   with a per-slot residency bitmap, a shared access counter from which
//!   reference/visited state is *derived* at scan time, and array-backed
//!   queues — hits touch one cache line for the whole grid (the `turbo`
//!   module docs carry the derivation argument).
//!
//! Both are specialisations to a restricted stream, and that is where their
//! speed comes from: a request carries nothing but its slot, so
//! [`MultiCapacityPolicy::replay`] takes the `u32` slot sequence alone.
//! There is no general single-pass engine for streams with writes, deletes
//! or honoured sizes — one was measured and did not beat the per-capacity
//! sweep once its per-(slot, lane) state fell out of cache (EXPERIMENTS.md,
//! "what the linked lanes earned").
//!
//! The simulator front door is `cache_sim::mrc::simulate_mrc`, the one
//! place that decides whether a stream qualifies (pure `Get`, unit sizes,
//! fewer than `u32::MAX` requests); it asks [`crate::registry::build_mrc`]
//! for the engine and replays everything else once per capacity.

mod exact;
mod turbo;

pub use exact::MrcExactFifo;
pub use turbo::{MrcTurboClock, MrcTurboS3Fifo, MrcTurboSieve};

use cache_types::{CacheError, PolicyStats};

/// A policy simulated at many capacities simultaneously, over a pure-`Get`
/// unit-size stream.
///
/// One instance owns a *lane* per entry of its capacity grid; every request
/// is applied to all lanes, and each lane must make exactly the decisions
/// the single-capacity dense policy of the same name would make at that
/// capacity. Lanes are fully independent — duplicate or unsorted grid
/// entries are legal and simply produce identical or unsorted lanes.
pub trait MultiCapacityPolicy {
    /// Human-readable algorithm name — matches the keyed/dense variant.
    fn name(&self) -> String;

    /// Replays a whole interned stream, given as its slot sequence, through
    /// every lane. The caller guarantees what the engines cannot see from
    /// slots alone: every request is a `Get` replayed at size 1, and there
    /// are fewer than `u32::MAX` of them (per-slot counters are `u32`).
    fn replay(&mut self, slots: &[u32]);

    /// Per-lane statistics, in grid order.
    fn lane_stats(&self) -> Vec<PolicyStats>;

    /// Checks structural invariants across all lanes (test/verification
    /// hook, may be O(slots × lanes)). The default performs no checks.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Shared capacity-grid validation for the multi-capacity constructors.
pub(crate) fn validate_grid(capacities: &[u64]) -> Result<(), CacheError> {
    if capacities.is_empty() {
        return Err(CacheError::InvalidParameter(
            "capacity grid must not be empty".into(),
        ));
    }
    if capacities.contains(&0) {
        return Err(CacheError::InvalidCapacity(
            "every grid capacity must be > 0".into(),
        ));
    }
    Ok(())
}

/// Implements [`MultiCapacityPolicy::replay`] over the engine's inherent
/// `step(slot)` and `prefetch(slot)`, so the per-request path inlines and
/// the hot loop streams `u32`s only.
macro_rules! impl_slot_replay {
    () => {
        fn replay(&mut self, slots: &[u32]) {
            for (i, &slot) in slots.iter().enumerate() {
                if let Some(&ahead) = slots.get(i + crate::dense::mrc::PURE_GET_LOOKAHEAD) {
                    self.prefetch(ahead);
                }
                self.step(slot);
            }
        }
    };
}
pub(crate) use impl_slot_replay;

/// Prefetch distance for the pure-`Get` replay loop. Deeper than the
/// general [`super::LOOKAHEAD`]: these engines' per-request work is a
/// handful of cycles once the slot row is resident, so the loop runs far
/// ahead of the memory system and the prefetches need a longer lead to
/// complete before use.
pub(crate) const PURE_GET_LOOKAHEAD: usize = 32;
