//! Seeded concurrent property test: random multi-threaded op streams must
//! leave both concurrent caches structurally consistent.
//!
//! The oracle is [`ConcurrentCache::audit_quiescent`] — a full-table walk at
//! quiescence checking no duplicate residency, no stale index handles, no
//! live∩ghost keys, and occupancy within capacity plus a bounded in-flight
//! allowance. Unlike the mid-run statistical checks in the torture harness,
//! the audit is exact: at quiescence every structure is walked completely.
//!
//! On failure the offending request stream shrinks through the same ddmin
//! used by the differential fuzzer ([`cache_check::fuzz::shrink_with`]), so
//! a violation prints as a minimal op sequence, not a 20 000-request blob.

use bytes::Bytes;
use cache_check::fuzz::{generate_trace, shrink_with, FuzzConfig};
use cache_concurrent::s3fifo::ConcurrentS3Fifo;
use cache_concurrent::ConcurrentCache;
use cache_types::{Op, Request};
use std::sync::Arc;

const THREADS: usize = 4;
const CAPACITY: usize = 256;
/// Per-thread audit budget for the lock-free S3-FIFO (see
/// `AuditReport::is_clean`) — the same budget the torture harness uses.
const SLACK_PER_THREAD: usize = 8;

type Builder = (&'static str, fn() -> Arc<dyn ConcurrentCache>);

fn builders() -> Vec<Builder> {
    vec![
        ("S3-FIFO", || Arc::new(ConcurrentS3Fifo::new(CAPACITY))),
        ("LRU-strict", || {
            Arc::new(cache_concurrent::lru::MutexLru::strict(CAPACITY))
        }),
    ]
}

/// Replays `requests` round-robin across [`THREADS`] workers, then audits
/// the cache at quiescence. `Err` carries a human-readable violation.
fn replay_and_audit(
    build: fn() -> Arc<dyn ConcurrentCache>,
    requests: &[Request],
) -> Result<(), String> {
    let cache = build();
    let payload = Bytes::from_static(b"prop");
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            let payload = payload.clone();
            let slice: Vec<Request> = requests
                .iter()
                .skip(t)
                .step_by(THREADS)
                .copied()
                .collect();
            scope.spawn(move || {
                for r in slice {
                    match r.op {
                        Op::Get => {
                            if cache.get(r.id).is_none() {
                                cache.insert(r.id, payload.clone());
                            }
                        }
                        Op::Set => cache.insert(r.id, payload.clone()),
                        Op::Delete => {
                            cache.remove(r.id);
                        }
                    }
                }
            });
        }
    });
    let slack = THREADS * SLACK_PER_THREAD;
    let audit = cache.audit_quiescent();
    if !audit.is_clean(slack) {
        return Err(format!("audit over slack {slack}: {audit:?}"));
    }
    if cache.len() > CAPACITY + slack {
        return Err(format!(
            "occupancy {} exceeds capacity {CAPACITY} + slack {slack}",
            cache.len()
        ));
    }
    Ok(())
}

#[test]
fn random_concurrent_ops_leave_every_variant_consistent() {
    let trace = generate_trace(&FuzzConfig {
        seed: 0xC0DE_50B7,
        requests: 20_000,
        universe: 600,
        max_size: 1,
        write_percent: 15, // 15% Set, 15% Delete, 70% Get
        ..FuzzConfig::default()
    });
    for (name, build) in builders() {
        // Three repeats: the op streams are fixed, the interleavings are
        // not — a violation in any schedule is a real violation.
        let failure = (0..3).find_map(|_| replay_and_audit(build, &trace).err());
        let Some(msg) = failure else { continue };
        // Shrink before reporting: keep any request set on which some
        // schedule (of three attempts) still fails the audit.
        let mut fails =
            |reqs: &[Request]| (0..3).any(|_| replay_and_audit(build, reqs).is_err());
        let minimal = shrink_with(&mut fails, trace.clone());
        panic!(
            "{name}: {msg}\nshrunk to {} requests: {:#?}",
            minimal.len(),
            minimal
        );
    }
}

/// The shrinker itself, driven through a concurrent-cache replay: a planted
/// insert-then-get pair is the only failure cause, so ddmin must strip the
/// 2 000 surrounding requests and return exactly that pair.
#[test]
fn ddmin_reduces_concurrent_repro_to_planted_pair() {
    const PLANTED: u64 = 1 << 40; // outside the generator's universe
    let mut trace = generate_trace(&FuzzConfig {
        seed: 0xDD_317,
        requests: 2_000,
        universe: 300,
        max_size: 1,
        write_percent: 10,
        ..FuzzConfig::default()
    });
    let at = trace.len() / 3;
    trace.insert(
        at,
        Request {
            id: PLANTED,
            size: 1,
            time: 0,
            op: Op::Set,
        },
    );
    trace.insert(at + 1, Request::get(PLANTED, 0));
    // "Fails" when the planted key is observed as a hit — which needs both
    // planted requests, in order, and nothing else.
    let mut fails = |reqs: &[Request]| {
        let cache = ConcurrentS3Fifo::new(64);
        let payload = Bytes::from_static(b"prop");
        let mut planted_hit = false;
        for r in reqs {
            match r.op {
                Op::Get => {
                    if cache.get(r.id).is_some() {
                        planted_hit |= r.id == PLANTED;
                    } else {
                        cache.insert(r.id, payload.clone());
                    }
                }
                Op::Set => cache.insert(r.id, payload.clone()),
                Op::Delete => {
                    cache.remove(r.id);
                }
            }
        }
        planted_hit
    };
    assert!(fails(&trace), "planted pair must reproduce on the full trace");
    let minimal = shrink_with(&mut fails, trace);
    assert_eq!(
        minimal.len(),
        2,
        "expected the planted pair, got {minimal:#?}"
    );
    assert!(minimal.iter().all(|r| r.id == PLANTED));
    assert_eq!(minimal[0].op, Op::Set);
    assert_eq!(minimal[1].op, Op::Get);
}
