//! Seeded multi-threaded torture harness: concurrent gets, inserts and
//! removes over shared and thread-owned keys, with invariant counters on
//! every hit and a quiescent full-table audit at the end.

use crate::ConcurrentCache;
use bytes::Bytes;
use cache_ds::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Parameters of a torture run.
///
/// Each thread owns a private key range (for invariants that need exclusive
/// writers: version monotonicity, remove-visibility) and shares a contended
/// range with every other thread (for raw interleaving pressure). Inserts
/// pass through a seeded fault injector; a faulted insert is *dropped*,
/// modelling a tier that refused the write — correctness must be unaffected.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Worker threads (>= 4 for a concurrent run; 1 for an exact audit).
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Keys in the shared, contended range.
    pub shared_keys: u64,
    /// Keys in each thread's private range.
    pub owned_keys: u64,
    /// Payload size in bytes (min 16; payloads encode key + version).
    pub value_size: usize,
    /// Seed for all per-thread RNG and fault streams.
    pub seed: u64,
    /// Fault plan applied to inserts (write-class faults drop the insert).
    pub fault_plan: cache_faults::FaultPlan,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            threads: 4,
            ops_per_thread: 25_000,
            shared_keys: 512,
            owned_keys: 256,
            value_size: 32,
            seed: 0x7011_7011,
            fault_plan: cache_faults::FaultPlan::none(),
        }
    }
}

/// Outcome of a torture run. All `*_violations` counters must be zero for
/// a correct cache; [`TortureReport::assert_clean`] checks them.
#[derive(Debug, Clone, Default)]
pub struct TortureReport {
    /// Total operations executed.
    pub ops: u64,
    /// Get operations.
    pub gets: u64,
    /// Hits among the gets.
    pub hits: u64,
    /// Inserts that reached the cache.
    pub inserts: u64,
    /// Inserts dropped by the fault injector.
    pub dropped_inserts: u64,
    /// Remove operations.
    pub removes: u64,
    /// Hits whose payload did not decode to the requested key (lost or
    /// torn update, or cross-key aliasing).
    pub integrity_violations: u64,
    /// Hits on an owned key that returned a superseded version (duplicate
    /// residency: a stale copy resurfaced after an overwrite).
    pub stale_version_violations: u64,
    /// Owned keys visible again right after their exclusive owner removed
    /// them.
    pub resurrection_violations: u64,
    /// Keys the quiescent audit found both live and ghosted (informational;
    /// see [`crate::AuditReport::live_ghosted`]).
    pub live_ghosted: u64,
    /// Set when the quiescent full-table audit run after joining the
    /// workers found more violations than the per-thread race budget
    /// allows. Unlike the statistical mid-run thresholds this check is
    /// deterministic: at quiescence every structure is walked exactly.
    pub audit_error: Option<String>,
}

impl TortureReport {
    /// Panics if any invariant was violated.
    pub fn assert_clean(&self) {
        assert_eq!(
            self.integrity_violations, 0,
            "payload integrity violated: {self:?}"
        );
        assert_eq!(
            self.stale_version_violations, 0,
            "duplicate residency (stale version) observed: {self:?}"
        );
        assert_eq!(
            self.resurrection_violations, 0,
            "removed keys resurfaced: {self:?}"
        );
        assert!(
            self.audit_error.is_none(),
            "quiescent audit failed: {self:?}"
        );
    }
}

/// Payloads encode `(key, version)` so every hit can be verified.
fn encode_payload(key: u64, version: u64, size: usize) -> Bytes {
    let size = size.max(16);
    let mut v = vec![0u8; size];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    Bytes::from(v)
}

fn decode_payload(b: &Bytes) -> Option<(u64, u64)> {
    if b.len() < 16 {
        return None;
    }
    let key = u64::from_le_bytes(b[..8].try_into().ok()?);
    let version = u64::from_le_bytes(b[8..16].try_into().ok()?);
    Some((key, version))
}

/// Runs the seeded torture interleaving: concurrent gets, inserts (through
/// the fault injector), and removes across shared and thread-owned key
/// ranges, with invariant counters collected on every hit.
///
/// Determinism note: each thread's *operation stream* is a pure function of
/// `(cfg.seed, thread index)`; the cross-thread interleaving is whatever
/// the scheduler produces, which is exactly the point.
// ORDERING: Relaxed counters only — the scope join orders them before the
// snapshot; no counter gates any control decision mid-run.
pub fn run_torture(cache: Arc<dyn ConcurrentCache>, cfg: &TortureConfig) -> TortureReport {
    use cache_faults::{FaultInjector, FaultKind, OpClass};

    let report = Arc::new(TortureCounters::default());
    let capacity = cache.capacity();
    std::thread::scope(|scope| {
        for t in 0..cfg.threads {
            let cache = Arc::clone(&cache);
            let report = Arc::clone(&report);
            let cfg = cfg.clone();
            scope.spawn(move || {
                let mut rng =
                    SplitMix64::new(cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut plan = cfg.fault_plan.clone();
                plan.seed ^= t as u64;
                let mut injector = FaultInjector::new(plan);
                // The owner's source of truth for its private keys:
                // version inserted last, or None when removed/never inserted.
                let mut owned_state: Vec<Option<u64>> = vec![None; cfg.owned_keys as usize];
                let mut next_version = 1u64;
                let owned_base = cfg.shared_keys + t as u64 * cfg.owned_keys;
                for _ in 0..cfg.ops_per_thread {
                    report.ops.fetch_add(1, Ordering::Relaxed);
                    match rng.next_below(10) {
                        // 0-4: get a random key (shared or owned).
                        0..=4 => {
                            let (key, owned_idx) = if rng.next_below(2) == 0 {
                                (rng.next_below(cfg.shared_keys.max(1)), None)
                            } else {
                                let i = rng.next_below(cfg.owned_keys.max(1));
                                (owned_base + i, Some(i as usize))
                            };
                            report.gets.fetch_add(1, Ordering::Relaxed);
                            if let Some(value) = cache.get(key) {
                                report.hits.fetch_add(1, Ordering::Relaxed);
                                match decode_payload(&value) {
                                    Some((k, ver)) if k == key => {
                                        if let Some(i) = owned_idx {
                                            // Only this thread writes this key,
                                            // so a hit must be the live version.
                                            match owned_state[i] {
                                                Some(live) if ver == live => {}
                                                Some(_) => {
                                                    report
                                                        .stale
                                                        .fetch_add(1, Ordering::Relaxed);
                                                }
                                                None => {
                                                    report
                                                        .resurrections
                                                        .fetch_add(1, Ordering::Relaxed);
                                                }
                                            }
                                        }
                                    }
                                    _ => {
                                        report.integrity.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        // 5-7: insert (through the fault injector).
                        5..=7 => {
                            let (key, owned_idx) = if rng.next_below(2) == 0 {
                                (rng.next_below(cfg.shared_keys.max(1)), None)
                            } else {
                                let i = rng.next_below(cfg.owned_keys.max(1));
                                (owned_base + i, Some(i as usize))
                            };
                            let version = next_version;
                            next_version += 1;
                            let dropped = matches!(
                                injector.next_fault(OpClass::Write),
                                Some(f) if f.kind != FaultKind::LatencySpike
                            );
                            if dropped {
                                report.dropped.fetch_add(1, Ordering::Relaxed);
                                // The tier refused the write: for an owned key
                                // the previous version (if any) is still live.
                            } else {
                                cache.insert(
                                    key,
                                    encode_payload(key, version, cfg.value_size),
                                );
                                report.inserts.fetch_add(1, Ordering::Relaxed);
                                if let Some(i) = owned_idx {
                                    owned_state[i] = Some(version);
                                }
                            }
                        }
                        // 8: remove an owned key and check it stays gone.
                        8 => {
                            let i = rng.next_below(cfg.owned_keys.max(1)) as usize;
                            let key = owned_base + i as u64;
                            cache.remove(key);
                            owned_state[i] = None;
                            report.removes.fetch_add(1, Ordering::Relaxed);
                            if cache.get(key).is_some() {
                                report.resurrections.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // 9: occupancy must stay bounded at all times.
                        _ => {
                            let len = cache.len();
                            // Small slack: sharded implementations may be
                            // momentarily over while an eviction is in flight.
                            if len > capacity + cfg.threads * 8 {
                                report.integrity.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    let mut report = report.snapshot();
    // Quiescent full-table audit: the scope join above guarantees no
    // mutator is live, so every structure can be walked exactly. The
    // budget for what a lock-free design may legally leave
    // ([`AuditReport::is_clean`](crate::AuditReport::is_clean)) is
    // per-thread, never proportional to the op count.
    let audit = cache.audit_quiescent();
    report.live_ghosted = audit.live_ghosted as u64;
    let slack = cfg.threads * 8;
    if !audit.is_clean(slack) {
        report.audit_error = Some(format!(
            "{}: {audit:?} exceeds slack {slack}",
            cache.name()
        ));
    }
    report
}

#[derive(Default)]
struct TortureCounters {
    ops: AtomicU64,
    gets: AtomicU64,
    hits: AtomicU64,
    inserts: AtomicU64,
    dropped: AtomicU64,
    removes: AtomicU64,
    integrity: AtomicU64,
    stale: AtomicU64,
    resurrections: AtomicU64,
}

impl TortureCounters {
    // ORDERING: Relaxed — called after the thread scope exits, so all
    // worker increments happen-before these loads via the joins.
    fn snapshot(&self) -> TortureReport {
        TortureReport {
            ops: self.ops.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            dropped_inserts: self.dropped.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            integrity_violations: self.integrity.load(Ordering::Relaxed),
            stale_version_violations: self.stale.load(Ordering::Relaxed),
            resurrection_violations: self.resurrections.load(Ordering::Relaxed),
            live_ghosted: 0,
            audit_error: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s3fifo::ConcurrentS3Fifo;

    #[test]
    fn payload_roundtrip() {
        let p = encode_payload(0xDEAD_BEEF, 42, 32);
        assert_eq!(p.len(), 32);
        assert_eq!(decode_payload(&p), Some((0xDEAD_BEEF, 42)));
        assert_eq!(decode_payload(&Bytes::from_static(b"short")), None);
    }

    #[test]
    fn torture_all_caches_fault_free() {
        // 4 threads x 25k ops = 100k ops per implementation. Then one
        // thread, at a capacity of half the key set and at a tiny one:
        // with no race to excuse an artifact, the audit must be exactly
        // clean.
        let one_thread = TortureConfig {
            threads: 1,
            ..TortureConfig::default()
        };
        for (capacity, cfg) in [
            (1024, TortureConfig::default()),
            (400, one_thread.clone()),
            (10, one_thread),
        ] {
            for cache in crate::test_caches(capacity) {
                let name = format!("{} at {capacity} x {}", cache.name(), cfg.threads);
                let r = run_torture(Arc::clone(&cache), &cfg);
                assert_eq!(r.ops, (cfg.threads * cfg.ops_per_thread) as u64, "{name}");
                assert!(r.hits > 0, "{name}: no hits in torture run");
                assert!(r.hits <= r.gets, "{name}: {r:?}");
                r.assert_clean();
                if cfg.threads == 1 {
                    let audit = cache.audit_quiescent();
                    assert_eq!(audit.violations(), 0, "{name}: {audit:?}");
                }
            }
        }
    }

    #[test]
    fn torture_s3fifo_under_bursty_insert_faults() {
        // Ramping write faults up to 20%, with bursts: dropped inserts must
        // never corrupt what *is* cached.
        let cfg = TortureConfig {
            fault_plan: cache_faults::FaultPlan::new(33)
                .with(
                    cache_faults::FaultKind::TransientWrite,
                    cache_faults::Schedule::Ramp {
                        start: 0.0,
                        end: 0.2,
                        over_ops: 5_000,
                    },
                )
                .with(
                    cache_faults::FaultKind::DeviceFull,
                    cache_faults::Schedule::Burst {
                        period: 1000,
                        burst_len: 100,
                        inside: 0.5,
                        outside: 0.0,
                    },
                ),
            ..TortureConfig::default()
        };
        let cache: Arc<dyn ConcurrentCache> = Arc::new(ConcurrentS3Fifo::new(1024));
        let r = run_torture(Arc::clone(&cache), &cfg);
        assert_eq!(r.ops, 100_000);
        assert!(r.dropped_inserts > 0, "faults must actually drop inserts");
        assert!(r.hits > 0);
        r.assert_clean();
        assert!(cache.len() <= cache.capacity() + 32);
    }

    #[test]
    fn torture_streams_are_seed_deterministic() {
        // Same seed => same per-thread op streams => identical drop counts
        // (interleaving varies, but injector decisions do not).
        let cfg = TortureConfig {
            threads: 2,
            ops_per_thread: 10_000,
            fault_plan: cache_faults::FaultPlan::new(7).with_transient_writes(0.1),
            ..TortureConfig::default()
        };
        let run = || {
            let cache: Arc<dyn ConcurrentCache> = Arc::new(ConcurrentS3Fifo::new(256));
            run_torture(cache, &cfg)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.dropped_inserts, b.dropped_inserts);
        assert_eq!(a.removes, b.removes);
        assert_eq!(a.gets, b.gets);
    }
}
