//! `cache-lint` — repo-specific static analysis for the S3-FIFO
//! reproduction.
//!
//! The paper's headline claim is that lock-free FIFO queues beat lock-based
//! LRU under concurrency, which makes the correctness of the workspace's
//! `unsafe` ring and sharded cache code part of the reproduction itself.
//! Clippy and the statistical torture harness cannot prove the absence of
//! races, so this crate adds two complementary engines, both hard CI gates:
//!
//! 1. **Workspace lint pass** ([`walk::lint_workspace`]): a hand-rolled
//!    Rust scanner (no `syn`, same offline-shim philosophy as
//!    `crates/shims`) that walks `crates/*/src/**/*.rs` and enforces what
//!    clippy does not: `ORDERING:` on every function doing atomics (with
//!    SeqCst called out by name) and a real gate on `unwrap`/`expect` in
//!    non-test code ([`rules`]). On top of the per-file rules, [`locks`]
//!    runs a whole-workspace *interprocedural* lock-order analysis: guard
//!    live ranges from Rust 2021 temporary-lifetime rules, a call graph
//!    composing acquisition sequences across functions, and global
//!    deadlock-cycle detection (`L-DEADLOCK`, `L-GUARD-LIFETIME`).
//!
//! 2. **loom-lite** ([`loomlite`]): a minimal deterministic-scheduler model
//!    of threads + atomics + mutexes that exhaustively explores
//!    bounded-preemption interleavings (CHESS-style, default bound 2) of
//!    small models of the Vyukov MPMC ring and the concurrent S3-FIFO
//!    shard eviction path ([`models`]), with a vector-clock happens-before
//!    race detector so that *memory-ordering* mistakes — not just
//!    lost-update interleavings — are caught.
//!
//! The `cache_lint` binary wires both into `ci.sh`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod locks;
pub mod loomlite;
pub mod models;
pub mod rules;
pub mod walk;
