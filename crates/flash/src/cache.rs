//! The two-tier DRAM + flash cache orchestrator (Fig. 9's experiment),
//! generic over the flash device so the same pipeline runs against a
//! perfect device or one wrapped in fault injection.
//!
//! Failure handling (the "degradation ladder", see DESIGN.md):
//!
//! 1. **Retry** — retryable device faults (transient write, device-full)
//!    are retried with bounded decorrelated-jitter backoff.
//! 2. **Degrade** — post-retry failures feed a sliding-window
//!    [`ErrorBudget`]; when it trips, the cache stops touching the device
//!    and serves from DRAM only.
//! 3. **Probe & recover** — while degraded, every `probe_interval` ops one
//!    request is attempted against the device as a canary; a run of
//!    successful probes re-admits the flash tier.

use crate::admission::{AdmissionKind, AdmissionPolicy, Features};
use crate::device::{FaultyDevice, FlashDevice};
use crate::tier::{FlashEviction, FlashTier};
use cache_ds::{IdMap, SplitMix64};
use cache_faults::{
    Backoff, DegradationState, DeviceFault, ErrorBudget, ErrorBudgetConfig, FaultPlan, FaultStats,
    RetryPolicy,
};
use cache_obs::{Counter, EventKind, EventTracer, Scope, SharedHistogram};
use cache_policies::{Fifo, Lru};
use cache_types::{CacheError, Eviction, Op, Policy, Request};

/// Configuration of the two-tier cache.
#[derive(Debug, Clone, Copy)]
pub struct FlashCacheConfig {
    /// Total cache size in bytes (the paper: 10 % of trace footprint bytes).
    pub total_bytes: u64,
    /// DRAM fraction of the total (paper sweeps 0.001, 0.01, 0.1).
    pub dram_fraction: f64,
    /// Admission policy.
    pub admission: AdmissionKind,
}

/// How the cache responds to device faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResilienceConfig {
    /// Retry/backoff policy for retryable device faults.
    pub retry: RetryPolicy,
    /// Error budget governing the degrade/probe/recover ladder.
    pub budget: ErrorBudgetConfig,
}

/// Fig. 9's two metrics plus supporting and fault counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlashStats {
    /// Read requests.
    pub requests: u64,
    /// Requests served by neither tier.
    pub misses: u64,
    /// Requests served from DRAM.
    pub dram_hits: u64,
    /// Requests served from flash.
    pub flash_hits: u64,
    /// Bytes written to flash.
    pub flash_write_bytes: u64,
    /// Bytes requested.
    pub request_bytes: u64,
    /// Bytes missed.
    pub miss_bytes: u64,
    /// Device operations retried after a retryable fault.
    pub retries: u64,
    /// Simulated latency units spent in retry backoff.
    pub retry_latency_units: u64,
    /// Reads that failed after exhausting retries (corruption included).
    pub device_read_errors: u64,
    /// Writes that failed after exhausting retries.
    pub device_write_errors: u64,
    /// Objects discarded because a read failed its checksum.
    pub corruptions: u64,
    /// Requests processed while the flash tier was bypassed (degraded).
    /// Counted at most once per request, even when one request skips both a
    /// flash read and a flash write.
    pub degraded_ops: u64,
    /// Times the error budget tripped (flash taken offline).
    pub budget_trips: u64,
    /// Times the device recovered (flash re-admitted).
    pub budget_recoveries: u64,
}

impl FlashStats {
    /// Request miss ratio (both tiers count as hits).
    pub fn miss_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.misses as f64 / self.requests as f64
        }
    }

    /// Flash write bytes normalized by a reference byte count (Fig. 9
    /// normalizes by the unique bytes in the trace).
    pub fn normalized_write_bytes(&self, unique_bytes: u64) -> f64 {
        if unique_bytes == 0 {
            0.0
        } else {
            self.flash_write_bytes as f64 / unique_bytes as f64
        }
    }

    /// Post-retry device failures, both directions.
    pub fn device_errors(&self) -> u64 {
        self.device_read_errors + self.device_write_errors
    }
}

/// The DRAM tier + admission + flash tier pipeline.
pub struct FlashCache<D: FlashDevice = FlashTier> {
    /// DRAM tier; `None` for the write-all scheme (which bypasses DRAM).
    dram: Option<Box<dyn Policy>>,
    admission: AdmissionPolicy,
    flash: D,
    /// Ghost of rejected objects (S3-FIFO's G; also Flashield's feedback
    /// window), holding the features observed at rejection time.
    rejected: IdMap<(Features, u64)>,
    /// Features of admitted objects, for end-of-life feedback.
    admitted: IdMap<Features>,
    /// Bound on the rejected-ghost, in entries.
    ghost_entries: usize,
    /// Insertion order for ghost expiry.
    ghost_fifo: std::collections::VecDeque<u64>,
    stats: FlashStats,
    scratch: Vec<Eviction>,
    flash_scratch: Vec<FlashEviction>,
    now: u64,
    dram_bytes: u64,
    resilience: ResilienceConfig,
    budget: ErrorBudget,
    /// Seeds per-operation backoff jitter; deterministic per op sequence.
    backoff_rng: SplitMix64,
    /// First fault seen while serving the current request.
    pending_fault: Option<CacheError>,
    /// Whether the current request already counted toward `degraded_ops`;
    /// one request can bypass the device twice (read then write-back).
    degraded_this_request: bool,
    /// Optional ladder telemetry; `None` costs nothing on the hot path.
    obs: Option<FlashObs>,
}

/// Metric handles and event tracer for the degradation ladder, attached via
/// [`FlashCache::attach_obs`].
struct FlashObs {
    tracer: EventTracer,
    /// Simulated backoff latency per retry.
    retry_latency: SharedHistogram,
    device_errors: Counter,
    degraded_requests: Counter,
    trips: Counter,
    recoveries: Counter,
}

fn tier_sizes(cfg: &FlashCacheConfig) -> Result<(u64, u64), CacheError> {
    if cfg.total_bytes == 0 {
        return Err(CacheError::InvalidCapacity(
            "total_bytes must be > 0".into(),
        ));
    }
    if !(0.0..1.0).contains(&cfg.dram_fraction) {
        return Err(CacheError::InvalidParameter(format!(
            "dram_fraction must be in [0,1), got {}",
            cfg.dram_fraction
        )));
    }
    let dram_bytes = ((cfg.total_bytes as f64 * cfg.dram_fraction).round() as u64).max(1);
    let flash_bytes = cfg.total_bytes.saturating_sub(dram_bytes).max(1);
    Ok((dram_bytes, flash_bytes))
}

impl FlashCache<FlashTier> {
    /// Builds the two-tier cache over a perfect device.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] when sizes are degenerate (zero DRAM for a
    /// scheme that needs one, zero flash).
    pub fn new(cfg: FlashCacheConfig) -> Result<Self, CacheError> {
        let (_, flash_bytes) = tier_sizes(&cfg)?;
        // Invariant: tier_sizes clamps flash_bytes >= 1, so FlashTier::new
        // cannot panic.
        FlashCache::with_device(cfg, FlashTier::new(flash_bytes), ResilienceConfig::default())
    }
}

impl FlashCache<FaultyDevice<FlashTier>> {
    /// Builds the cache over a FIFO device wrapped in fault injection.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashCache::new`].
    pub fn faulty(
        cfg: FlashCacheConfig,
        plan: FaultPlan,
        resilience: ResilienceConfig,
    ) -> Result<Self, CacheError> {
        let (_, flash_bytes) = tier_sizes(&cfg)?;
        FlashCache::with_device(cfg, FaultyDevice::new(flash_bytes, plan), resilience)
    }
}

impl<D: FlashDevice> FlashCache<D> {
    /// Builds the cache over an arbitrary device (the device supplies its
    /// own capacity; `cfg` sizes the DRAM tier).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] on degenerate configuration.
    pub fn with_device(
        cfg: FlashCacheConfig,
        device: D,
        resilience: ResilienceConfig,
    ) -> Result<Self, CacheError> {
        let (dram_bytes, _) = tier_sizes(&cfg)?;
        let flash_bytes = device.capacity();
        let dram: Option<Box<dyn Policy>> = match cfg.admission {
            AdmissionKind::WriteAll => None,
            // The S3-FIFO scheme's DRAM *is* the small FIFO queue.
            AdmissionKind::SmallFifoTwoAccess => Some(Box::new(Fifo::new(dram_bytes)?)),
            // The other schemes use an LRU DRAM cache (§5.4).
            _ => Some(Box::new(Lru::new(dram_bytes)?)),
        };
        Ok(FlashCache {
            dram,
            admission: AdmissionPolicy::new(cfg.admission, dram_bytes as usize),
            flash: device,
            rejected: IdMap::default(),
            admitted: IdMap::default(),
            ghost_entries: (flash_bytes / 1024).clamp(1024, 1 << 20) as usize,
            ghost_fifo: std::collections::VecDeque::new(),
            stats: FlashStats::default(),
            scratch: Vec::new(),
            flash_scratch: Vec::new(),
            now: 0,
            dram_bytes,
            resilience,
            budget: ErrorBudget::new(resilience.budget),
            backoff_rng: SplitMix64::new(0xF1A5_CACE),
            pending_fault: None,
            degraded_this_request: false,
            obs: None,
        })
    }

    /// Attaches ladder telemetry: counters and a retry-latency histogram
    /// registered under `scope`, plus `tracer` for per-transition
    /// degrade/recover/fault events. Detached caches skip all of it.
    pub fn attach_obs(&mut self, scope: &Scope, tracer: EventTracer) {
        self.obs = Some(FlashObs {
            tracer,
            retry_latency: scope.histogram("retry_latency_units"),
            device_errors: scope.counter("device_errors"),
            degraded_requests: scope.counter("degraded_requests"),
            trips: scope.counter("budget_trips"),
            recoveries: scope.counter("budget_recoveries"),
        });
    }

    /// Name of the configured admission policy.
    pub fn admission_name(&self) -> &'static str {
        self.admission.name()
    }

    /// Accumulated statistics (flash write bytes are read from the tier).
    pub fn stats(&self) -> FlashStats {
        let mut s = self.stats;
        s.flash_write_bytes = self.flash.write_bytes();
        s
    }

    /// Where the flash tier sits on the degradation ladder.
    pub fn degradation(&self) -> DegradationState {
        self.budget.state()
    }

    /// Counters of faults the device injected (all-zero for perfect
    /// devices).
    pub fn device_fault_stats(&self) -> FaultStats {
        self.flash.fault_stats()
    }

    /// The underlying device.
    pub fn device(&self) -> &D {
        &self.flash
    }

    /// Runs the device's exhaustive byte-accounting self-check.
    pub fn verify_accounting(&self) -> bool {
        self.flash.verify_accounting()
    }

    fn note_fault(&mut self, e: CacheError) {
        if self.pending_fault.is_none() {
            self.pending_fault = Some(e);
        }
    }

    /// Feeds a post-retry failure to the error budget; notes the trip.
    fn record_device_error(&mut self, id: u64, fault: DeviceFault) {
        if fault.kind == cache_faults::FaultKind::Corruption {
            self.stats.corruptions += 1;
        }
        if let Some(obs) = &self.obs {
            obs.device_errors.inc();
            obs.tracer.record(EventKind::Fault, "flash", id, self.now);
        }
        if self.budget.record_error(self.now) {
            self.stats.budget_trips += 1;
            if let Some(obs) = &self.obs {
                obs.trips.inc();
                obs.tracer.record(EventKind::Degrade, "flash", id, self.now);
            }
            self.note_fault(CacheError::Degraded(format!(
                "error budget tripped at op {} ({})",
                self.now,
                fault.kind.label()
            )));
        } else {
            self.note_fault(fault.into());
        }
    }

    /// True when this op may touch the device: always while healthy, only
    /// on probe ticks while degraded.
    fn device_available(&mut self) -> bool {
        match self.budget.state() {
            DegradationState::Healthy => true,
            DegradationState::Degraded => self.budget.should_probe(self.now),
        }
    }

    /// Reports a device-op outcome to the budget when it was a probe.
    fn after_device_op(&mut self, ok: bool) {
        if self.budget.state() == DegradationState::Degraded
            && self.budget.record_probe(self.now, ok)
        {
            self.stats.budget_recoveries += 1;
            if let Some(obs) = &self.obs {
                obs.recoveries.inc();
                obs.tracer.record(EventKind::Recover, "flash", 0, self.now);
            }
        }
    }

    /// Counts a device bypass toward `degraded_ops`, once per request.
    fn note_degraded_bypass(&mut self) {
        if !self.degraded_this_request {
            self.degraded_this_request = true;
            self.stats.degraded_ops += 1;
            if let Some(obs) = &self.obs {
                obs.degraded_requests.inc();
            }
        }
    }

    /// Records one retry's simulated backoff delay.
    fn note_retry(&mut self, delay: u64) {
        self.stats.retries += 1;
        self.stats.retry_latency_units += delay;
        if let Some(obs) = &self.obs {
            obs.retry_latency.record(delay);
        }
    }

    /// A flash read with the full ladder applied.
    fn flash_read(&mut self, id: u64) -> bool {
        if !self.flash.contains(id) {
            return false;
        }
        if !self.device_available() {
            self.note_degraded_bypass();
            return false;
        }
        // While degraded, the budget authorized exactly one canary op; a
        // retry loop here would multiply that into a burst against a device
        // presumed down, so probes are single-shot.
        let probing = self.budget.state() == DegradationState::Degraded;
        // Read-side faults are non-retryable by convention (`DeviceFault::of`),
        // but honor `retryable` so custom devices can opt in.
        let mut backoff = Backoff::new(self.resilience.retry, self.backoff_rng.next_u64());
        loop {
            match self.flash.read(id) {
                Ok(hit) => {
                    self.after_device_op(true);
                    return hit;
                }
                Err(f) if f.retryable && !probing => {
                    if let Some(delay) = backoff.next_delay() {
                        self.note_retry(delay);
                        continue;
                    }
                    self.stats.device_read_errors += 1;
                    self.after_device_op(false);
                    self.record_device_error(id, f);
                    return false;
                }
                Err(f) => {
                    self.stats.device_read_errors += 1;
                    self.after_device_op(false);
                    self.record_device_error(id, f);
                    return false;
                }
            }
        }
    }

    /// A flash write with the full ladder applied. Returns true when the
    /// object landed on the device.
    fn flash_write_op(&mut self, id: u64, size: u32) -> bool {
        if !self.device_available() {
            self.note_degraded_bypass();
            return false;
        }
        // Single-shot while degraded, same as `flash_read`.
        let probing = self.budget.state() == DegradationState::Degraded;
        let mut backoff = Backoff::new(self.resilience.retry, self.backoff_rng.next_u64());
        loop {
            match self.flash.write(id, size, &mut self.flash_scratch) {
                Ok(()) => {
                    self.after_device_op(true);
                    return true;
                }
                Err(f) if f.retryable && !probing => {
                    if let Some(delay) = backoff.next_delay() {
                        self.note_retry(delay);
                        continue;
                    }
                    self.stats.device_write_errors += 1;
                    self.after_device_op(false);
                    self.record_device_error(id, f);
                    return false;
                }
                Err(f) => {
                    self.stats.device_write_errors += 1;
                    self.after_device_op(false);
                    self.record_device_error(id, f);
                    return false;
                }
            }
        }
    }

    fn remember_rejection(&mut self, id: u64, features: Features) {
        if self.rejected.insert(id, (features, self.now)).is_none() {
            self.ghost_fifo.push_back(id);
        }
        while self.ghost_fifo.len() > self.ghost_entries {
            if let Some(old) = self.ghost_fifo.pop_front() {
                if let Some((feat, _)) = self.rejected.remove(&old) {
                    // Expired unreferenced rejection: the rejection was
                    // correct.
                    self.admission.feedback(feat, false, false);
                }
            }
        }
    }

    fn write_to_flash(&mut self, id: u64, size: u32, features: Features) {
        self.flash_scratch.clear();
        if self.flash_write_op(id, size) {
            self.admitted.insert(id, features);
        }
        // End-of-life feedback for admitted objects.
        let evictions: Vec<FlashEviction> = self.flash_scratch.drain(..).collect();
        for ev in evictions {
            if let Some(feat) = self.admitted.remove(&ev.id) {
                self.admission.feedback(feat, true, ev.hits > 0);
            }
        }
    }

    /// Handles one DRAM eviction: consult admission, write or remember.
    fn on_dram_eviction(&mut self, ev: Eviction) {
        let features = Features {
            dram_hits: f64::from(ev.freq),
            residence: (self.now.saturating_sub(ev.insert_time)) as f64
                / self.dram_bytes.max(1) as f64,
        };
        if self.admission.admit(ev.id, features) {
            self.write_to_flash(ev.id, ev.size, features);
        } else {
            self.remember_rejection(ev.id, features);
        }
    }

    /// Processes one read request; returns true on a hit in either tier.
    /// Device faults degrade to misses; use [`FlashCache::request_checked`]
    /// to observe them.
    pub fn request(&mut self, id: u64, size: u32) -> bool {
        // The checked path always fully serves the request (degradation is
        // graceful); a fault report implies the result was a miss.
        self.request_checked(id, size).unwrap_or(false)
    }

    /// Processes one read request, surfacing any device fault encountered
    /// while serving it.
    ///
    /// The request is *always* fully served (cache state stays consistent;
    /// a faulting flash tier just means a backend fetch).
    ///
    /// # Errors
    ///
    /// - [`CacheError::DeviceFailure`] — a device op failed after
    ///   exhausting retries.
    /// - [`CacheError::Corruption`] — a read failed its checksum; the
    ///   object was discarded.
    /// - [`CacheError::Degraded`] — this request's failure tripped the
    ///   error budget; the cache is now DRAM-only until recovery.
    ///
    /// All three imply the request missed.
    pub fn request_checked(&mut self, id: u64, size: u32) -> Result<bool, CacheError> {
        self.pending_fault = None;
        self.degraded_this_request = false;
        self.now += 1;
        self.stats.requests += 1;
        self.stats.request_bytes += u64::from(size);
        // DRAM first.
        if let Some(dram) = self.dram.as_mut() {
            if dram.contains(id) {
                self.scratch.clear();
                let req = Request::get_sized(id, size, self.now);
                dram.request(&req, &mut self.scratch);
                self.stats.dram_hits += 1;
                return Ok(true);
            }
        }
        // Then flash.
        if self.flash_read(id) {
            self.stats.flash_hits += 1;
            return Ok(true);
        }
        // Miss: fetch from the backend.
        self.stats.misses += 1;
        self.stats.miss_bytes += u64::from(size);
        if let Some((features, _)) = self.rejected.remove(&id) {
            // A rejected object proved useful: learn, and (for the S3-FIFO
            // scheme) this is the ghost hit that earns direct flash
            // admission ("only objects requested in S and G are written").
            self.admission.feedback(features, false, true);
            if matches!(self.admission, AdmissionPolicy::SmallFifo) {
                self.flash_scratch.clear();
                if self.flash_write_op(id, size) {
                    self.admitted.insert(id, features);
                }
                let evictions: Vec<FlashEviction> = self.flash_scratch.drain(..).collect();
                for ev in evictions {
                    if let Some(feat) = self.admitted.remove(&ev.id) {
                        self.admission.feedback(feat, true, ev.hits > 0);
                    }
                }
                return match self.pending_fault.take() {
                    Some(e) => Err(e),
                    None => Ok(false),
                };
            }
        }
        match self.dram.as_mut() {
            None => {
                // Write-all: straight to flash.
                self.flash_scratch.clear();
                self.flash_write_op(id, size);
            }
            Some(dram) => {
                self.scratch.clear();
                let req = Request::get_sized(id, size, self.now);
                dram.request(&req, &mut self.scratch);
                let evictions: Vec<Eviction> = self.scratch.drain(..).collect();
                for ev in evictions {
                    self.on_dram_eviction(ev);
                }
            }
        }
        match self.pending_fault.take() {
            Some(e) => Err(e),
            None => Ok(false),
        }
    }

    /// Replays a full trace (read requests only), returning the stats.
    /// Device faults are absorbed (counted in the stats), never panics.
    pub fn run(&mut self, reqs: impl IntoIterator<Item = Request>) -> FlashStats {
        for r in reqs {
            if r.op == Op::Get {
                self.request(r.id, r.size);
            }
        }
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_faults::{FaultKind, Schedule};
    use cache_trace::gen::{SizeModel, WorkloadSpec};

    fn cdn_trace(seed: u64) -> cache_trace::Trace {
        let mut spec = WorkloadSpec::zipf("cdn", 60_000, 6000, 0.8, seed);
        spec.one_hit_fraction = 0.3;
        spec.size_model = SizeModel::Uniform {
            min: 100,
            max: 2000,
        };
        spec.generate()
    }

    fn run(kind: AdmissionKind, dram_fraction: f64, trace: &cache_trace::Trace) -> FlashStats {
        let cfg = FlashCacheConfig {
            total_bytes: trace.footprint_bytes() / 10,
            dram_fraction,
            admission: kind,
        };
        let mut c = FlashCache::new(cfg).unwrap();
        c.run(trace.iter())
    }

    #[test]
    fn write_all_writes_every_missed_byte_once() {
        let trace = cdn_trace(1);
        let s = run(AdmissionKind::WriteAll, 0.01, &trace);
        assert!(s.flash_write_bytes > 0);
        assert!(s.miss_ratio() > 0.0 && s.miss_ratio() < 1.0);
    }

    #[test]
    fn admission_reduces_write_bytes() {
        let trace = cdn_trace(2);
        let all = run(AdmissionKind::WriteAll, 0.01, &trace);
        for kind in [
            AdmissionKind::Probabilistic(0.2),
            AdmissionKind::SmallFifoTwoAccess,
            AdmissionKind::BloomSecondAccess,
        ] {
            let s = run(kind, 0.01, &trace);
            assert!(
                s.flash_write_bytes < all.flash_write_bytes,
                "{kind:?}: {} vs write-all {}",
                s.flash_write_bytes,
                all.flash_write_bytes
            );
        }
    }

    #[test]
    fn s3fifo_admission_beats_probabilistic_on_both_axes() {
        // Fig. 9's headline: the small-FIFO filter reduces both writes and
        // miss ratio relative to probabilistic admission.
        let trace = cdn_trace(3);
        let prob = run(AdmissionKind::Probabilistic(0.2), 0.01, &trace);
        let s3 = run(AdmissionKind::SmallFifoTwoAccess, 0.01, &trace);
        assert!(
            s3.miss_ratio() <= prob.miss_ratio() + 0.02,
            "S3 MR {:.4} vs prob MR {:.4}",
            s3.miss_ratio(),
            prob.miss_ratio()
        );
    }

    #[test]
    fn tiny_dram_does_not_break_anything() {
        let trace = cdn_trace(4);
        for kind in [
            AdmissionKind::SmallFifoTwoAccess,
            AdmissionKind::FlashieldLike,
        ] {
            let s = run(kind, 0.001, &trace);
            assert!(s.requests == 60_000);
            assert!(s.miss_ratio() <= 1.0);
        }
    }

    #[test]
    fn flashield_with_large_dram_filters_writes() {
        let trace = cdn_trace(5);
        let all = run(AdmissionKind::WriteAll, 0.1, &trace);
        let fl = run(AdmissionKind::FlashieldLike, 0.1, &trace);
        assert!(
            fl.flash_write_bytes < all.flash_write_bytes,
            "Flashield {} vs write-all {}",
            fl.flash_write_bytes,
            all.flash_write_bytes
        );
    }

    #[test]
    fn rejects_bad_config() {
        assert!(FlashCache::new(FlashCacheConfig {
            total_bytes: 0,
            dram_fraction: 0.1,
            admission: AdmissionKind::WriteAll,
        })
        .is_err());
        assert!(FlashCache::new(FlashCacheConfig {
            total_bytes: 100,
            dram_fraction: 1.5,
            admission: AdmissionKind::WriteAll,
        })
        .is_err());
    }

    #[test]
    fn stats_normalization() {
        let s = FlashStats {
            flash_write_bytes: 500,
            ..FlashStats::default()
        };
        assert!((s.normalized_write_bytes(1000) - 0.5).abs() < 1e-12);
        assert_eq!(s.normalized_write_bytes(0), 0.0);
    }

    fn faulty_cfg(trace: &cache_trace::Trace) -> FlashCacheConfig {
        FlashCacheConfig {
            total_bytes: trace.footprint_bytes() / 10,
            dram_fraction: 0.01,
            admission: AdmissionKind::SmallFifoTwoAccess,
        }
    }

    #[test]
    fn perfect_plan_matches_perfect_device() {
        let trace = cdn_trace(6);
        let base = run(AdmissionKind::SmallFifoTwoAccess, 0.01, &trace);
        let mut c = FlashCache::faulty(
            faulty_cfg(&trace),
            FaultPlan::none(),
            ResilienceConfig::default(),
        )
        .unwrap();
        let s = c.run(trace.iter());
        assert_eq!(s.misses, base.misses);
        assert_eq!(s.flash_write_bytes, base.flash_write_bytes);
        assert_eq!(s.device_errors(), 0);
        assert_eq!(s.budget_trips, 0);
    }

    #[test]
    fn retries_absorb_sparse_transient_faults() {
        let trace = cdn_trace(7);
        let base = run(AdmissionKind::SmallFifoTwoAccess, 0.01, &trace);
        let mut c = FlashCache::faulty(
            faulty_cfg(&trace),
            FaultPlan::new(11).with_transient_writes(0.01),
            ResilienceConfig::default(),
        )
        .unwrap();
        let s = c.run(trace.iter());
        assert!(s.retries > 0, "1% faults must trigger retries");
        assert_eq!(s.budget_trips, 0, "default budget absorbs 1% transients");
        assert!(
            (s.miss_ratio() - base.miss_ratio()).abs() < 0.02,
            "faulty MR {:.4} vs clean {:.4}",
            s.miss_ratio(),
            base.miss_ratio()
        );
    }

    #[test]
    fn persistent_faults_trip_budget_then_recover() {
        let trace = cdn_trace(8);
        // Writes always fail for the first 60 *device* ops, then are clean.
        // The burst is short because a degraded cache only touches the
        // device once per probe interval — probes are what traverse it.
        let plan = FaultPlan::new(13).with(
            FaultKind::TransientWrite,
            Schedule::Burst {
                period: u64::MAX,
                burst_len: 60,
                inside: 1.0,
                outside: 0.0,
            },
        );
        let resilience = ResilienceConfig {
            retry: RetryPolicy::no_retries(),
            budget: ErrorBudgetConfig {
                window_ops: 500,
                max_errors: 5,
                probe_interval: 200,
                recovery_probes: 2,
            },
        };
        let mut c = FlashCache::faulty(faulty_cfg(&trace), plan, resilience).unwrap();
        let s = c.run(trace.iter());
        assert!(s.budget_trips >= 1, "dead device must trip the budget");
        assert!(s.degraded_ops > 0, "degraded mode must have engaged");
        assert!(
            s.budget_recoveries >= 1,
            "device heals after the burst; probes must recover it"
        );
        assert_eq!(c.degradation(), DegradationState::Healthy);
        assert!(s.flash_hits > 0, "flash serves hits after recovery");
    }

    #[test]
    fn corruption_discards_and_is_counted() {
        let trace = cdn_trace(9);
        let mut c = FlashCache::faulty(
            faulty_cfg(&trace),
            FaultPlan::new(17).with_corruption(0.05),
            ResilienceConfig::default(),
        )
        .unwrap();
        let s = c.run(trace.iter());
        assert!(s.corruptions > 0);
        assert_eq!(s.corruptions, c.device_fault_stats().corruptions);
    }

    /// A device plan that serves the first `clean_ops` device operations
    /// and then fails every write attempt, deterministically.
    fn dies_after(clean_ops: u64) -> FaultPlan {
        FaultPlan::new(23).with(
            FaultKind::TransientWrite,
            Schedule::Burst {
                period: u64::MAX,
                burst_len: clean_ops,
                inside: 0.0,
                outside: 1.0,
            },
        )
    }

    /// Satellite regression: `degraded_ops` counts *requests*, not device
    /// bypasses. A degraded write-all request that skips both the flash
    /// read and the write-back used to count twice.
    #[test]
    fn degraded_request_bypassing_read_and_write_counts_once() {
        let cfg = FlashCacheConfig {
            total_bytes: 100_000,
            dram_fraction: 0.01,
            admission: AdmissionKind::WriteAll,
        };
        let resilience = ResilienceConfig {
            retry: RetryPolicy::no_retries(),
            budget: ErrorBudgetConfig {
                window_ops: 1000,
                max_errors: 0,
                // No probes during this test: every degraded op bypasses.
                probe_interval: u64::MAX,
                recovery_probes: 1,
            },
        };
        // Device op 1 (the write of id 1) succeeds, everything after fails.
        let mut c = FlashCache::faulty(cfg, dies_after(1), resilience).unwrap();

        assert!(!c.request(1, 100), "cold miss, admitted to flash");
        assert!(c.request(1, 100), "served from flash while healthy");
        assert_eq!(c.stats().degraded_ops, 0);

        // This write fails and trips the zero-tolerance budget.
        let err = c.request_checked(2, 100).unwrap_err();
        assert!(matches!(err, CacheError::Degraded(_)), "{err}");
        assert_eq!(c.degradation(), DegradationState::Degraded);
        assert_eq!(c.stats().budget_trips, 1);
        assert_eq!(
            c.stats().degraded_ops,
            0,
            "the tripping request itself reached the device, no bypass"
        );

        // id 1 is resident on flash, so this request bypasses the flash
        // *read*, misses, and then bypasses the write-back too: two device
        // bypasses, one request.
        assert!(!c.request(1, 100));
        assert_eq!(
            c.stats().degraded_ops,
            1,
            "one degraded request must count exactly once"
        );

        // Ten more degraded requests (each bypassing read-or-write paths)
        // add exactly ten.
        for id in 10..20u64 {
            c.request(id, 100);
        }
        assert_eq!(c.stats().degraded_ops, 11);
        assert_eq!(c.stats().budget_trips, 1, "no re-trip while degraded");
        assert_eq!(c.stats().budget_recoveries, 0);
    }

    /// Satellite regression: a probe is one canary op. The retry/backoff
    /// loop used to run while degraded, hammering a down device with
    /// `max_retries` extra attempts per authorized probe.
    #[test]
    fn probes_are_single_shot_no_retry_storm() {
        let cfg = FlashCacheConfig {
            total_bytes: 100_000,
            dram_fraction: 0.01,
            admission: AdmissionKind::WriteAll,
        };
        let retry = RetryPolicy {
            max_retries: 3,
            base_delay: 10,
            max_delay: 1000,
        };
        let resilience = ResilienceConfig {
            retry,
            budget: ErrorBudgetConfig {
                window_ops: 10_000,
                max_errors: 0,
                probe_interval: 5,
                recovery_probes: 3,
            },
        };
        // Every device write fails: the first one trips the budget (after a
        // full healthy retry sequence), then probes keep failing forever.
        let mut c = FlashCache::faulty(cfg, dies_after(0), resilience).unwrap();
        for id in 0..200u64 {
            c.request(id, 100);
        }
        let s = c.stats();
        assert_eq!(c.degradation(), DegradationState::Degraded);
        assert_eq!(s.budget_trips, 1);
        assert_eq!(
            s.retries,
            u64::from(retry.max_retries),
            "only the healthy pre-trip op may retry; probes are single-shot"
        );
        // Probes did run (and fail) — they're counted as device errors, one
        // per probe, not max_retries+1 per probe.
        assert!(
            s.device_write_errors > 1,
            "probes must have been attempted: {s:?}"
        );
        assert_eq!(s.budget_recoveries, 0);
    }

    /// Recovery still works with single-shot probes, and the ladder's obs
    /// telemetry mirrors the stats counters exactly (no double-counting).
    #[test]
    fn ladder_telemetry_matches_stats() {
        use cache_obs::{registry_to_json_lines, MetricsRegistry};
        let trace = cdn_trace(8);
        let plan = FaultPlan::new(13).with(
            FaultKind::TransientWrite,
            Schedule::Burst {
                period: u64::MAX,
                burst_len: 60,
                inside: 1.0,
                outside: 0.0,
            },
        );
        let resilience = ResilienceConfig {
            retry: RetryPolicy::no_retries(),
            budget: ErrorBudgetConfig {
                window_ops: 500,
                max_errors: 5,
                probe_interval: 200,
                recovery_probes: 2,
            },
        };
        let registry = MetricsRegistry::new();
        let tracer = cache_obs::EventTracer::new(1 << 12);
        let mut c = FlashCache::faulty(faulty_cfg(&trace), plan, resilience).unwrap();
        c.attach_obs(&registry.scope("flash.ladder"), tracer.clone());
        let s = c.run(trace.iter());

        assert!(s.budget_trips >= 1 && s.budget_recoveries >= 1);
        let find = |name: &str| {
            registry
                .snapshot()
                .into_iter()
                .find(|m| m.name == format!("flash.ladder.{name}"))
                .unwrap_or_else(|| panic!("metric {name} missing"))
        };
        let counter = |name: &str| match find(name).value {
            cache_obs::SampleValue::Counter(v) => v,
            other => panic!("{name}: expected counter, got {other:?}"),
        };
        assert_eq!(counter("budget_trips"), s.budget_trips);
        assert_eq!(counter("budget_recoveries"), s.budget_recoveries);
        assert_eq!(counter("device_errors"), s.device_errors());
        assert_eq!(counter("degraded_requests"), s.degraded_ops);

        // The tracer saw matching transition events, in logical-time order.
        let events = tracer.drain();
        let degrades = events
            .iter()
            .filter(|e| e.kind == cache_obs::EventKind::Degrade)
            .count() as u64;
        let recovers = events
            .iter()
            .filter(|e| e.kind == cache_obs::EventKind::Recover)
            .count() as u64;
        assert_eq!(degrades, s.budget_trips);
        assert_eq!(recovers, s.budget_recoveries);
        assert!(events.windows(2).all(|w| w[0].ts < w[1].ts));

        // And the whole thing exports as valid JSON lines.
        let dump = registry_to_json_lines(&registry);
        assert!(dump.contains("flash.ladder.budget_trips"));
    }

    #[test]
    fn request_checked_surfaces_fault_variants() {
        let cfg = FlashCacheConfig {
            total_bytes: 100_000,
            dram_fraction: 0.01,
            admission: AdmissionKind::WriteAll,
        };
        let mut c = FlashCache::faulty(
            cfg,
            FaultPlan::new(19).with_transient_writes(1.0),
            ResilienceConfig {
                retry: RetryPolicy::no_retries(),
                budget: ErrorBudgetConfig::default(),
            },
        )
        .unwrap();
        let mut saw_failure = false;
        let mut saw_degraded = false;
        for id in 0..100u64 {
            match c.request_checked(id, 100) {
                Ok(_) => {}
                Err(CacheError::DeviceFailure(_)) => saw_failure = true,
                Err(CacheError::Degraded(_)) => saw_degraded = true,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_failure, "write-all against a dead device must report");
        assert!(saw_degraded, "budget trip must surface Degraded once");
        assert_eq!(c.degradation(), DegradationState::Degraded);
    }

    /// Every [`FlashStats`] field, in declaration order.
    fn fields(s: &FlashStats) -> [u64; 15] {
        let FlashStats {
            requests,
            misses,
            dram_hits,
            flash_hits,
            flash_write_bytes,
            request_bytes,
            miss_bytes,
            retries,
            retry_latency_units,
            device_read_errors,
            device_write_errors,
            corruptions,
            degraded_ops,
            budget_trips,
            budget_recoveries,
        } = *s;
        [
            requests,
            misses,
            dram_hits,
            flash_hits,
            flash_write_bytes,
            request_bytes,
            miss_bytes,
            retries,
            retry_latency_units,
            device_read_errors,
            device_write_errors,
            corruptions,
            degraded_ops,
            budget_trips,
            budget_recoveries,
        ]
    }

    /// [`fields`] of each run of `flash_stats_are_pinned`, captured when the
    /// flash tier was still a hand-written FIFO.
    #[rustfmt::skip]
    const PINNED: [[u64; 15]; 10] = [
        // write-all, perfect
        [60000, 38497, 0, 21503, 40439817, 63505763, 40439817, 0, 0, 0, 0, 0, 0, 0, 0],
        // write-all, faulty
        [60000, 43650, 0, 16350, 31732888, 63505763, 45994882, 603, 12030, 538, 0, 169, 13113, 42, 42],
        // probabilistic, perfect
        [60000, 39150, 240, 20610, 8162055, 63505763, 41076724, 0, 0, 0, 0, 0, 0, 0, 0],
        // probabilistic, faulty
        [60000, 43271, 862, 15867, 6898995, 63505763, 45528301, 140, 2937, 473, 1, 173, 4410, 32, 32],
        // bloom, perfect
        [60000, 32929, 98, 26973, 9691726, 63505763, 34664451, 0, 0, 0, 0, 0, 0, 0, 0],
        // bloom, faulty
        [60000, 40393, 933, 18674, 7179061, 63505763, 42496184, 139, 2642, 573, 1, 185, 10543, 48, 48],
        // flashield, perfect
        [60000, 38109, 212, 21679, 11339831, 63505763, 40168007, 0, 0, 0, 0, 0, 0, 0, 0],
        // flashield, faulty
        [60000, 42967, 728, 16305, 10459830, 63505763, 45123339, 177, 3309, 508, 2, 183, 9400, 37, 36],
        // small FIFO, perfect
        [60000, 32938, 65, 26997, 3587345, 63505763, 34676410, 0, 0, 0, 0, 0, 0, 0, 0],
        // small FIFO, faulty
        [60000, 40367, 530, 19103, 2746448, 63505763, 42413079, 51, 1036, 560, 0, 201, 7176, 46, 46],
    ];

    /// The pipeline's every count, for each admission policy on the perfect
    /// device and on a seeded faulty one, pinned: a change to how a tier is
    /// written must not change one decision.
    #[test]
    fn flash_stats_are_pinned() {
        let trace = cdn_trace(10);
        let plan = FaultPlan::new(29)
            .with_transient_writes(0.02)
            .with_read_errors(0.02)
            .with_corruption(0.01);
        let mut got = Vec::new();
        for kind in [
            AdmissionKind::WriteAll,
            AdmissionKind::Probabilistic(0.2),
            AdmissionKind::BloomSecondAccess,
            AdmissionKind::FlashieldLike,
            AdmissionKind::SmallFifoTwoAccess,
        ] {
            let cfg = FlashCacheConfig {
                total_bytes: trace.footprint_bytes() / 10,
                dram_fraction: 0.01,
                admission: kind,
            };
            let mut perfect = FlashCache::new(cfg).unwrap();
            let mut faulty =
                FlashCache::faulty(cfg, plan.clone(), ResilienceConfig::default()).unwrap();
            got.push(fields(&perfect.run(trace.iter())));
            got.push(fields(&faulty.run(trace.iter())));
            assert!(perfect.verify_accounting() && faulty.verify_accounting());
        }
        assert_eq!(got, PINNED);
    }
}
