//! `cache-obs` — the workspace's observability substrate.
//!
//! The paper's entire evaluation is telemetry: per-window miss-ratio curves
//! (Fig. 6), frequency-at-eviction and eviction-age distributions (Fig. 4 /
//! Fig. 10), throughput and degradation behavior under faults (Fig. 8 /
//! Fig. 9). This crate makes that data a first-class layer instead of
//! ad-hoc scraping per binary:
//!
//! - [`metrics`] — an always-on registry of atomic counters/gauges and
//!   shared log2 histograms with dot-scoped names (`flash.ladder.retries`,
//!   `cc.shard-07.hits`). Handles are lock-free to use; the registry lock
//!   is only taken at registration and snapshot time.
//! - [`events`] — a lock-free ring-buffered structured tracer (the same
//!   Vyukov MPMC ring as `cache_ds::MpmcRing`) recording per-decision
//!   eviction/admission/fault/degrade/recover events with logical
//!   timestamps, drainable without stopping the workload. Full-ring events
//!   are dropped and *counted*, never blocked on.
//! - [`series`] — fixed-window miss-ratio timeseries ([`MissRatioSeries`])
//!   whose per-window sums must equal end-of-run totals.
//! - [`export`] — JSON-lines and Prometheus text renderers for all of the
//!   above.
//!
//! Consumers: `cache-sim` (windowed replay),
//! `cache-concurrent` (per-shard aggregation), `cache-flash` (degradation
//! ladder telemetry), `cache-trace` (lossy-read skip accounting), and the
//! `obs_dump` bench binary that exercises the whole pipeline in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod export;
pub mod metrics;
pub mod series;

pub use events::{Event, EventKind, EventTracer};
pub use export::{
    events_to_json_lines, metrics_to_json_lines, metrics_to_prometheus, registry_to_json_lines,
    registry_to_prometheus, series_to_json_lines,
};
pub use metrics::{Counter, Gauge, MetricSample, MetricsRegistry, SampleValue, Scope, SharedHistogram};
pub use series::{MissRatioSeries, WindowPoint};
