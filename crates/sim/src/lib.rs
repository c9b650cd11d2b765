//! Cache simulator and parameter-sweep engine (the workspace's libCacheSim
//! substitute).
//!
//! - [`engine`] is the replay driver: [`Replay`] feeds a request stream to
//!   one policy, through its bulk call, and collects the eviction-time
//!   metrics the paper's figures need (miss ratio, byte miss ratio,
//!   frequency at eviction for Fig. 4, eviction ages, a per-window
//!   miss-ratio series).
//!   Everything else here that runs a policy is a few lines over it:
//!   [`simulate_named`] (in memory), [`replay_ctr_path`] ([`stream`]: a
//!   `.ctr` file in bounded memory), [`run_sweep`], and the per-capacity
//!   fallback of [`simulate_mrc`]. DESIGN.md, "The replay surface".
//! - [`demotion`] computes the quick-demotion *speed* and *precision*
//!   metrics of §6.1 / Fig. 10 using an exact next-access oracle.
//! - [`sweep`] fans (trace × algorithm × size) combinations across a
//!   scoped-thread worker pool and aggregates the paper's
//!   miss-ratio-reduction percentiles (Figs. 6, 7, 11).
//! - [`mrc`] computes miss-ratio curves; [`simulate_mrc`] runs the whole
//!   capacity grid in ~one trace pass for the FIFO family on pure-`Get`
//!   unit-size streams (exact insertion-index FIFO, turbo lanes for the
//!   rest), bit-identical to the per-capacity sweep it uses otherwise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demotion;
pub mod engine;
pub mod mrc;
pub mod oracle;
pub mod stream;
pub mod sweep;

pub use demotion::{demotion_metrics, DemotionMetrics};
pub use engine::{simulate_named, CacheSizeSpec, Replay, Replayed, SimConfig, SimResult};
pub use mrc::{
    miss_ratio_curve, simulate_mrc, MissRatioCurve, MrcConfig, MrcEngine, MrcPoint, MrcResult,
    MrcSample,
};
pub use oracle::NextAccessOracle;
pub use stream::{replay_ctr_path, StreamReplay, DEFAULT_CHUNK_RECORDS};
pub use sweep::{
    miss_ratio_reduction, per_dataset_means, run_sweep, summarize_reductions, SweepRecord,
    SweepSpec,
};
