//! Two-tier DRAM + flash cache with pluggable admission (§5.4, Fig. 9).
//!
//! Flash endurance is the motivating constraint: every byte written to
//! flash costs lifetime, so production flash caches put an *admission
//! policy* between DRAM and flash. §5.4's finding: using S3-FIFO's small
//! FIFO queue as the DRAM tier — admitting only objects requested at least
//! twice in DRAM (or found in the ghost) — reduces *both* flash writes and
//! miss ratio, while probabilistic admission and Flashield's ML model trade
//! one for the other.
//!
//! - [`tier::FlashTier`] — the flash device model: FIFO eviction (what
//!   production flash caches use for sequential writes) by
//!   `cache_policies::Fifo`, and write accounting.
//! - [`device::FlashDevice`] — the fallible device abstraction;
//!   [`device::FaultyDevice`] wraps any device in deterministic fault
//!   injection (`cache-faults`).
//! - [`admission`] — the §5.4 admission policies: write-all, probabilistic
//!   (p = 0.2), Bloom-filter, Flashield-like online linear model, and the
//!   S3-FIFO small-queue rule.
//! - [`cache::FlashCache`] — the orchestrator that replays a trace through
//!   DRAM tier + admission + flash tier and reports Fig. 9's two metrics;
//!   generic over the device, with retry/backoff and an error-budget
//!   degradation ladder (see DESIGN.md's "Failure model").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod device;
pub mod tier;

pub use admission::{AdmissionKind, AdmissionPolicy};
pub use cache::{FlashCache, FlashCacheConfig, FlashStats, ResilienceConfig};
pub use device::{FaultyDevice, FlashDevice};
pub use tier::FlashTier;
