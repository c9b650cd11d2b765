//! Miss-ratio fidelity of the concurrent S3-FIFO vs the serial policy.
//!
//! The batched hit path defers frequency increments (up to
//! `FLUSH_THRESHOLD` per buffer slot), so an entry's capped counter can lag
//! the serial algorithm at the moment an eviction scan reads it. The claim
//! backing that design is that the lag is behaviorally negligible: on the
//! same Zipf trace the concurrent cache must stay within 1 % *absolute*
//! miss ratio of the simulation-grade serial S3-FIFO.
//!
//! The replay is single-threaded so both sides see the identical request
//! order; that isolates the *algorithmic* delta (sharded ghosts, ring
//! queues, deferred increments) from scheduler nondeterminism. A
//! multi-threaded companion run asserts the batched path stays in the same
//! ballpark under real interleaving.
//!
//! The last test makes the same comparison for a workload that writes:
//! sets, gets and deletes in `srv-set-large`'s proportions.

use bytes::Bytes;
use cache_concurrent::s3fifo::ConcurrentS3Fifo;
use cache_concurrent::ConcurrentCache;
use cache_ds::SplitMix64;
use cache_types::{Op, Policy, Request};
use std::sync::Arc;

const CAPACITY: usize = 1_000;
const OBJECTS: u64 = 10_000;
const ALPHA: f64 = 1.0;
const REQUESTS: usize = 200_000;
const SEED: u64 = 0x5EED_1559;

fn zipf_trace() -> Vec<u64> {
    zipf_keys(OBJECTS, REQUESTS, &mut SplitMix64::new(SEED))
}

/// `n` keys drawn Zipf(`ALPHA`) from `1..=objects`.
fn zipf_keys(objects: u64, n: usize, rng: &mut SplitMix64) -> Vec<u64> {
    let mut cdf = Vec::with_capacity(objects as usize);
    let mut acc = 0.0;
    for i in 1..=objects {
        acc += 1.0 / (i as f64).powf(ALPHA);
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    (0..n)
        .map(|_| {
            let u = rng.next_f64();
            let idx = cdf.partition_point(|&c| c < u);
            (idx.min(cdf.len() - 1) + 1) as u64
        })
        .collect()
}

fn serial_miss_ratio(trace: &[u64]) -> f64 {
    let mut policy = s3fifo::S3Fifo::new(CAPACITY as u64).expect("capacity > 0");
    let mut evs = Vec::new();
    let mut misses = 0usize;
    for (t, &key) in trace.iter().enumerate() {
        if policy.request(&Request::get(key, t as u64), &mut evs).is_miss() {
            misses += 1;
        }
    }
    misses as f64 / trace.len() as f64
}

fn concurrent_miss_ratio(cache: &dyn ConcurrentCache, trace: &[u64]) -> f64 {
    let payload = Bytes::from_static(b"miss-ratio-probe");
    let mut misses = 0usize;
    for &key in trace {
        if cache.get(key).is_none() {
            misses += 1;
            cache.insert(key, payload.clone());
        }
    }
    misses as f64 / trace.len() as f64
}

#[test]
fn concurrent_tracks_serial_within_one_percent() {
    let trace = zipf_trace();
    let serial = serial_miss_ratio(&trace);
    // Sanity: Zipf(1.0) at 10% capacity must land in a plausible band, or
    // the comparison below is vacuous.
    assert!(
        (0.05..0.60).contains(&serial),
        "serial miss ratio {serial:.4} implausible"
    );
    let concurrent = concurrent_miss_ratio(&ConcurrentS3Fifo::new(CAPACITY), &trace);
    let delta = (concurrent - serial).abs();
    assert!(
        delta < 0.01,
        "miss ratio {concurrent:.4} vs serial {serial:.4} \
         (delta {delta:.4} >= 1% absolute)"
    );
}

#[test]
fn batched_stays_close_under_real_threads() {
    let trace = zipf_trace();
    let serial = serial_miss_ratio(&trace);
    let cache = Arc::new(ConcurrentS3Fifo::new(CAPACITY));
    let threads = 4;
    let chunk = trace.len() / threads;
    let misses = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            let slice = &trace[t * chunk..(t + 1) * chunk];
            handles.push(scope.spawn(move || {
                let payload = Bytes::from_static(b"miss-ratio-probe");
                let mut misses = 0usize;
                for &key in slice {
                    if cache.get(key).is_none() {
                        misses += 1;
                        cache.insert(key, payload.clone());
                    }
                }
                misses
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("replayer panicked"))
            .sum::<usize>()
    });
    let concurrent = misses as f64 / (chunk * threads) as f64;
    // Interleaving (and each thread seeing only a slice) shifts the ratio
    // more than a deterministic replay can, so the band is wider — but a
    // broken batched path (increments lost wholesale, evictions blind to
    // frequency) lands far outside 3%.
    let delta = (concurrent - serial).abs();
    assert!(
        delta < 0.03,
        "threaded batched miss ratio {concurrent:.4} vs serial {serial:.4} \
         (delta {delta:.4} >= 3% absolute)"
    );
}

/// Get-miss ratio of each quarter of `ops` as `apply` answers them: it
/// performs one operation and says whether it was a get that missed.
fn quarter_miss_ratios(
    ops: &[(Op, u64)],
    mut apply: impl FnMut(usize, Op, u64) -> bool,
) -> [f64; 4] {
    let mut out = [0.0; 4];
    let quarter = ops.len() / 4;
    for (q, chunk) in ops.chunks(quarter).enumerate() {
        let (mut gets, mut misses) = (0usize, 0usize);
        for (i, &(op, key)) in chunk.iter().enumerate() {
            gets += usize::from(op == Op::Get);
            misses += usize::from(apply(q * quarter + i, op, key));
        }
        out[q] = misses as f64 / gets as f64;
    }
    out
}

/// The serial policy driven the way the server drives a cache: a get only
/// looks (a miss stores nothing), a set stores, a delete deletes. With
/// `overwrite_in_place`, a set of a resident key changes nothing (unit
/// sizes: that is an overwrite that keeps queue position and frequency);
/// without it the policy does what it does on its own, delete then insert
/// at the tail of `S` with frequency 0.
fn serial_quarters(capacity: usize, ops: &[(Op, u64)], overwrite_in_place: bool) -> [f64; 4] {
    let mut policy = s3fifo::S3Fifo::new(capacity as u64).expect("capacity > 0");
    let mut evs = Vec::new();
    quarter_miss_ratios(ops, |t, op, id| {
        let resident = policy.contains(id);
        match op {
            Op::Get if !resident => return true,
            Op::Set if resident && overwrite_in_place => return false,
            _ => {}
        }
        let req = Request {
            id,
            size: 1,
            time: t as u64,
            op,
        };
        policy.request(&req, &mut evs);
        false
    })
}

/// §5.3's check — the prototype is judged by the serial algorithm's miss
/// ratio — for a workload that writes: `srv-set-large`'s mix (50 % set,
/// 45 % get, 5 % delete; gets only look), Zipf(1.0), once over ten times as
/// many keys as fit and once over a quarter as many. Three claims, one
/// bound, each made of the second and of the fourth quarter of the run:
///
/// - *close*: the get-miss ratio is within `BOUND` (absolute) of the serial
///   policy's when that overwrites in place as this cache does. Measured,
///   five seeds: equal to the last digit when the keys fit (neither side
///   evicts; 0.09, the 5 ⁄ 55 of gets that find their key deleted), and
///   0.007 – 0.015 *lower* here when they do not. What is left after the
///   overwrite rule is made the same: a deleted key set again comes back
///   where it stood (in `M`, if that is where it was) and not at the tail
///   of `S`, plus the sharded ghost and deferred increments the pure-get
///   test above bounds at 1 %.
/// - *no worse*: it is not above the serial policy's as that stands,
///   re-queueing every overwrite, by more than `BOUND`. That side is not
///   close and is not meant to be: a hot key that is overwritten every
///   other access never gathers two hits in `S` and is sent back there from
///   `M` by its next set, so the serial policy reads 0.38 – 0.41 where this
///   cache reads 0.33 – 0.34.
/// - *flat*: the two quarters agree with each other within `BOUND`. Key
///   popularity is fixed, so once the first quarter has filled the cache a
///   ratio that still moves is the cache losing space to something.
///
/// At the parent of the commit that added this test every overwrite and
/// delete left a dead handle in a ring that still counted as occupancy.
/// Same file, that cache: 0.143 → 0.173 over keys that fit (serial: 0.091
/// → 0.085) — not flat, not close — and 0.564 → 0.574 over keys that do
/// not, against the serial 0.383 → 0.401: flat, and worse than the policy
/// it implements.
#[test]
fn writes_track_the_serial_policy_and_stay_flat() {
    const BOUND: f64 = 0.02;
    for (case, capacity, objects, n) in [
        ("keys >> capacity", CAPACITY, 10 * CAPACITY as u64, 200_000),
        ("keys fit", 4_096, 1_024, 160_000),
    ] {
        let mut rng = SplitMix64::new(SEED);
        let ops: Vec<(Op, u64)> = zipf_keys(objects, n, &mut rng)
            .into_iter()
            .map(|key| match rng.next_u64() % 100 {
                0..50 => (Op::Set, key),
                50..95 => (Op::Get, key),
                _ => (Op::Delete, key),
            })
            .collect();
        let requeued = serial_quarters(capacity, &ops, false);
        let in_place = serial_quarters(capacity, &ops, true);
        let cache = ConcurrentS3Fifo::new(capacity);
        let payload = Bytes::from_static(b"miss-ratio-probe");
        let concurrent = quarter_miss_ratios(&ops, |_, op, key| match op {
            Op::Get => cache.get(key).is_none(),
            Op::Set => {
                cache.insert(key, payload.clone());
                false
            }
            Op::Delete => {
                cache.remove(key);
                false
            }
        });
        let context = format!(
            "{case}: concurrent {concurrent:.4?}, serial in place {in_place:.4?}, serial {requeued:.4?}"
        );
        println!("{context}");
        for q in [1, 3] {
            assert!(
                (concurrent[q] - in_place[q]).abs() < BOUND,
                "not close in quarter {q} — {context}"
            );
            assert!(
                concurrent[q] < requeued[q] + BOUND,
                "worse in quarter {q} — {context}"
            );
        }
        assert!(
            (concurrent[3] - concurrent[1]).abs() < BOUND,
            "not flat — {context}"
        );
    }
}
