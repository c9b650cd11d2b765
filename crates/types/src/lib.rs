//! Shared request, eviction, and policy-trait definitions for the S3-FIFO
//! reproduction workspace.
//!
//! Every eviction algorithm in the workspace implements the [`Policy`] trait
//! defined here, and every workload generator produces streams of
//! [`Request`]s. Keeping these in a leaf crate lets the simulator, the
//! baseline algorithms, and the paper's contribution (the `s3fifo` crate)
//! evolve independently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod policy;
pub mod request;

pub use error::CacheError;
pub use policy::{Eviction, Outcome, Policy, PolicyStats};
pub use request::{ObjId, Op, Request};
