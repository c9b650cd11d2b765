//! Operation-log recording for the linearizability-lite checker.
//!
//! [`crate::harness::run_torture`] verifies *heuristic* invariants on line
//! (version monotonicity on exclusively-owned keys). This module records a
//! complete timed history instead — every get/insert/remove with a global
//! logical interval `[start, end]` and globally-unique insert values — so
//! `cache-check`'s sequential-witness search can verify after the fact that
//! the observed history admits a legal ordering, shared keys included.
//!
//! Timestamps come from one global atomic counter: `start` is drawn
//! immediately before the cache call and `end` immediately after, so if
//! `a.end < b.start` then operation `a` really completed before `b` began
//! (single-process real-time order). Insert values are unique across the
//! whole run (thread index in the high bits), which is what lets the checker
//! match a get to the exact insert that produced its payload.

use crate::ConcurrentCache;
use bytes::Bytes;
use cache_ds::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What one logged operation did and what it observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A lookup; `Some(v)` is the decoded unique value of the payload it
    /// returned, `None` a miss. A hit whose payload decoded to the wrong key
    /// (or did not decode) is recorded as `Some(u64::MAX)`, a value no insert
    /// ever writes, so the checker flags it unconditionally.
    Get(Option<u64>),
    /// An insert of the globally-unique value.
    Insert(u64),
    /// A remove; the flag is the cache's "was present" return.
    Remove(bool),
}

/// One operation in the recorded history.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Worker thread that issued the operation.
    pub thread: u32,
    /// Key operated on.
    pub key: u64,
    /// Operation and observed result.
    pub kind: OpKind,
    /// Global logical time drawn immediately before the cache call.
    pub start: u64,
    /// Global logical time drawn immediately after the cache call returned.
    pub end: u64,
}

/// Parameters of a logged torture run. Smaller than
/// [`crate::harness::TortureConfig`] by design: the witness search is
/// super-linear in per-key history length.
#[derive(Debug, Clone, Copy)]
pub struct LoggedTortureConfig {
    /// Worker threads.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Distinct keys, all shared by all threads.
    pub keys: u64,
    /// Payload size in bytes (min 16; payloads encode key + unique value).
    pub value_size: usize,
    /// Seed for the per-thread op streams.
    pub seed: u64,
    /// Zipf skew of the key popularity (0.0 = uniform). The ledger's
    /// `lib-mt-zipf` workload replays a skewed key stream, so the checker
    /// gate exercises the same shape: hot keys maximize cross-thread
    /// interleaving on one key, which is where stale reads would surface.
    pub alpha: f64,
    /// When set, insert values are per-key *versions* drawn from shared
    /// atomic counters (1, 2, 3, … per key, across all threads) instead of
    /// thread-tagged unique values. Per-key histories then carry enough
    /// order for `cache-check`'s monotonic rule: once a version's insert
    /// provably completed before another's began, a later get may never
    /// step back across that pair.
    pub monotonic_versions: bool,
}

impl Default for LoggedTortureConfig {
    fn default() -> Self {
        LoggedTortureConfig {
            threads: 4,
            ops_per_thread: 2_000,
            keys: 64,
            value_size: 32,
            seed: 0x10C4_10C4,
            alpha: 0.0,
            monotonic_versions: false,
        }
    }
}

/// Payloads encode `(key, unique value)` exactly like the torture harness
/// encodes `(key, version)`.
fn encode(key: u64, value: u64, size: usize) -> Bytes {
    let size = size.max(16);
    let mut v = vec![0u8; size];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&value.to_le_bytes());
    Bytes::from(v)
}

fn decode(b: &Bytes) -> Option<(u64, u64)> {
    if b.len() < 16 {
        return None;
    }
    let key = u64::from_le_bytes(b[..8].try_into().ok()?);
    let value = u64::from_le_bytes(b[8..16].try_into().ok()?);
    Some((key, value))
}

/// The CDF of Zipf(`alpha`) over ranks `1..=n` (cache-trace is not a
/// dependency of this crate, which keeps the prototype layer freestanding).
fn zipf_cdf(n: u64, alpha: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n as usize);
    let mut acc = 0.0;
    for i in 1..=n {
        acc += 1.0 / (i as f64).powf(alpha);
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn sample_zipf(cdf: &[f64], rng: &mut SplitMix64) -> u64 {
    let u = rng.next_f64();
    let idx = cdf.partition_point(|&c| c < u);
    (idx.min(cdf.len() - 1) + 1) as u64
}

/// Runs a logged torture interleaving and returns the merged history,
/// sorted by `start` time.
///
/// Operation mix: 50 % gets, 40 % inserts, 10 % removes, all on keys shared
/// by every thread. Each thread's op stream is a pure function of
/// `(cfg.seed, thread index)`; the interleaving — and therefore the recorded
/// intervals — is whatever the scheduler produces.
// ORDERING: the interval clock ticks are SeqCst *on purpose* — the
// linearizability checker (cache-check) relies on the recorded start/end
// stamps forming one total order consistent with real time across all
// threads; Acquire/Release alone would not give unrelated ticks a single
// global order. Do not downgrade.
// ORDERING: the per-key version counters (monotonic mode) are Relaxed —
// the checker only needs each key's versions to be distinct and to reflect
// *some* total draw order per key, which a single atomic fetch_add gives
// regardless of fences; real-time reasoning comes from the SeqCst clock.
pub fn run_logged_torture(
    cache: Arc<dyn ConcurrentCache>,
    cfg: &LoggedTortureConfig,
) -> Vec<OpRecord> {
    let clock = AtomicU64::new(0);
    // Zipf CDF over ranks 1..=keys; alpha 0.0 degenerates to uniform.
    let zipf = zipf_cdf(cfg.keys.max(1), cfg.alpha);
    // Per-key version counters for monotonic mode (allocated either way;
    // `keys` is small by design — the witness search is super-linear).
    let versions: Vec<AtomicU64> = (0..cfg.keys.max(1) as usize + 1)
        .map(|_| AtomicU64::new(0))
        .collect();
    let mut logs: Vec<Vec<OpRecord>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let cache = Arc::clone(&cache);
            let clock = &clock;
            let zipf = &zipf;
            let versions = &versions;
            let cfg = *cfg;
            handles.push(scope.spawn(move || {
                let mut rng =
                    SplitMix64::new(cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut log = Vec::with_capacity(cfg.ops_per_thread);
                // Globally-unique values: thread index in the high bits. The
                // torture harness's per-thread versions collide across
                // threads; a witness search needs to know exactly which
                // insert produced a payload. (Monotonic mode draws per-key
                // versions from the shared counters instead.)
                let mut next_value = (t as u64) << 48;
                for _ in 0..cfg.ops_per_thread {
                    let key = sample_zipf(zipf, &mut rng);
                    let roll = rng.next_below(10);
                    let start = clock.fetch_add(1, Ordering::SeqCst);
                    let kind = match roll {
                        0..=4 => {
                            let observed = cache.get(key).map(|payload| match decode(&payload) {
                                Some((k, v)) if k == key => v,
                                // Wrong-key or torn payload: a value no
                                // insert ever wrote, flagged unconditionally.
                                _ => u64::MAX,
                            });
                            OpKind::Get(observed)
                        }
                        5..=8 => {
                            let value = if cfg.monotonic_versions {
                                versions[key as usize].fetch_add(1, Ordering::Relaxed) + 1
                            } else {
                                next_value += 1;
                                next_value
                            };
                            cache.insert(key, encode(key, value, cfg.value_size));
                            OpKind::Insert(value)
                        }
                        _ => OpKind::Remove(cache.remove(key)),
                    };
                    let end = clock.fetch_add(1, Ordering::SeqCst);
                    log.push(OpRecord {
                        thread: t as u32,
                        key,
                        kind,
                        start,
                        end,
                    });
                }
                log
            }));
        }
        for h in handles {
            // Invariant: workers only touch the cache and their own log; a
            // panic means the cache under test blew up — propagate loudly.
            logs.push(h.join().expect("logged torture worker panicked"));
        }
    });
    let mut merged: Vec<OpRecord> = logs.into_iter().flatten().collect();
    merged.sort_by_key(|r| r.start);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s3fifo::ConcurrentS3Fifo;

    #[test]
    fn payload_roundtrip() {
        let p = encode(7, (3u64 << 48) | 9, 32);
        assert_eq!(decode(&p), Some((7, (3 << 48) | 9)));
        assert_eq!(decode(&Bytes::from_static(b"tiny")), None);
    }

    #[test]
    fn history_is_complete_and_interval_ordered() {
        let cfg = LoggedTortureConfig {
            threads: 3,
            ops_per_thread: 500,
            ..LoggedTortureConfig::default()
        };
        let cache: Arc<dyn ConcurrentCache> = Arc::new(ConcurrentS3Fifo::new(128));
        let log = run_logged_torture(cache, &cfg);
        assert_eq!(log.len(), 3 * 500);
        // Timestamps are unique and every interval is well-formed.
        let mut seen = std::collections::HashSet::new();
        for r in &log {
            assert!(r.start < r.end, "inverted interval {r:?}");
            assert!(seen.insert(r.start) && seen.insert(r.end));
        }
        // Merged log is sorted by start.
        assert!(log.windows(2).all(|w| w[0].start < w[1].start));
    }

    #[test]
    fn monotonic_mode_versions_are_per_key_unique() {
        let cfg = LoggedTortureConfig {
            threads: 4,
            ops_per_thread: 1000,
            monotonic_versions: true,
            ..LoggedTortureConfig::default()
        };
        let cache: Arc<dyn ConcurrentCache> = Arc::new(ConcurrentS3Fifo::new(128));
        let log = run_logged_torture(cache, &cfg);
        // Versions are unique per key and densely drawn from 1..=count.
        let mut per_key: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        for r in &log {
            if let OpKind::Insert(v) = r.kind {
                per_key.entry(r.key).or_default().push(v);
            }
        }
        assert!(!per_key.is_empty());
        for (key, mut versions) in per_key {
            versions.sort_unstable();
            let n = versions.len() as u64;
            versions.dedup();
            assert_eq!(versions.len() as u64, n, "key {key}: duplicate versions");
            assert_eq!(versions.first(), Some(&1), "key {key}: versions not dense");
            assert_eq!(versions.last(), Some(&n), "key {key}: versions not dense");
        }
    }

    #[test]
    fn zipf_alpha_skews_key_popularity() {
        let run = |alpha: f64| {
            let cfg = LoggedTortureConfig {
                threads: 2,
                ops_per_thread: 2000,
                alpha,
                ..LoggedTortureConfig::default()
            };
            let cache: Arc<dyn ConcurrentCache> = Arc::new(ConcurrentS3Fifo::new(128));
            run_logged_torture(cache, &cfg)
        };
        let count_rank1 = |log: &[OpRecord]| log.iter().filter(|r| r.key == 1).count();
        let uniform = count_rank1(&run(0.0));
        let skewed = count_rank1(&run(1.0));
        // Under Zipf(1.0) over 64 keys, rank 1 draws ~21% of requests vs
        // ~1.6% uniform.
        assert!(
            skewed > uniform * 4,
            "alpha had no effect: skewed {skewed} vs uniform {uniform}"
        );
    }

    #[test]
    fn insert_values_are_globally_unique() {
        let cfg = LoggedTortureConfig {
            threads: 4,
            ops_per_thread: 1000,
            ..LoggedTortureConfig::default()
        };
        let cache: Arc<dyn ConcurrentCache> = Arc::new(ConcurrentS3Fifo::new(128));
        let log = run_logged_torture(cache, &cfg);
        let mut values = std::collections::HashSet::new();
        for r in &log {
            if let OpKind::Insert(v) = r.kind {
                assert!(values.insert(v), "duplicate insert value {v}");
            }
        }
        assert!(!values.is_empty());
    }
}
