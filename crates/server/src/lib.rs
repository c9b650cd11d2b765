//! A resilient cache *server*: shard-per-core TCP front end over the
//! workspace's concurrent S3-FIFO, speaking a memcached-flavored text
//! protocol, with an overload-control spine wired through the existing
//! crates.
//!
//! The robustness ladder, outermost to innermost:
//!
//! 1. **Bounded accept** — the acceptor hands connections to per-shard
//!    bounded queues; when a queue is full the connection gets `SERVER_ERROR
//!    busy` and is closed (backpressure instead of collapse), and the
//!    overflow is charged to the load shedder's error budgets.
//! 2. **Per-request deadlines** — a request that cannot finish inside its
//!    deadline returns `SERVER_ERROR timeout`; the miss feeds the shedder.
//! 3. **Error-budget load shedding** ([`shed`]) — deadline misses and
//!    accept overflow trip sliding-window budgets ([`cache_faults::ErrorBudget`]
//!    semantics): writes shed first, then reads; canary probes recover.
//! 4. **Graceful degradation** ([`store`]) — the flash tier's
//!    retry → DRAM-only → recover ladder surfaces as *typed* protocol
//!    errors (`SERVER_ERROR device-failure:/corruption:/degraded:`).
//! 5. **Graceful shutdown** ([`drain`]) — an accept-gate + in-flight
//!    counter handshake (modeled in loom-lite) drains in-flight requests
//!    and emits a final observability snapshot.
//!
//! The `chaos` module (test-only) turns seeded [`cache_faults::FaultPlan`]s
//! into misbehaving clients — slow readers, malformed frames, connection
//! storms, injected device faults, kill-mid-load — and asserts the ladder
//! holds: no panics, no lost updates or resurrections (oplog +
//! `cache-check`), bounded p99 while shedding.
//!
//! Unix only: the server's threads block in `poll(2)` ([`cache_ds::poll`])
//! and wake each other over `std::os::unix::net::UnixStream` pairs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drain;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod shed;
pub mod store;

#[cfg(test)]
mod chaos;

pub use drain::DrainGate;
pub use proto::{parse_frame, Command, Limits, ParseOutcome};
pub use server::{Server, ServerConfig, ServerHandle};
pub use shed::{Admission, LoadShedder, ShedConfig, ShedLevel};
pub use store::{StoreConfig, TtlStore};
