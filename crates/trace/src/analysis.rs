//! One-hit-wonder and frequency analysis (§3.1, Figs. 1–3).
//!
//! The paper's motivating observation: the fraction of objects requested
//! exactly once (the *one-hit-wonder ratio*) is much higher in a short
//! request window than over the full trace, because unpopular objects rarely
//! get a second request within the window. These functions reproduce that
//! analysis on any trace.

use crate::Trace;
use cache_ds::SplitMix64;
use cache_types::Op;

/// The index and slot of every read request (a [`Op::Get`]) from request
/// `start` on.
fn reads(trace: &Trace, start: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
    let start = start.min(trace.len());
    let ops = trace.ops();
    (start..)
        .zip(&trace.slots()[start..])
        .filter(move |&(i, _)| ops.is_none_or(|o| o[i] == Op::Get))
        .map(|(i, &slot)| (i, slot))
}

/// Fraction of the objects counted (a non-zero count) counted exactly once;
/// 0 when none is.
fn ohw_of(counts: impl Iterator<Item = u32>) -> f64 {
    let (mut objects, mut ones) = (0usize, 0usize);
    for c in counts {
        objects += usize::from(c > 0);
        ones += usize::from(c == 1);
    }
    if objects == 0 {
        return 0.0;
    }
    ones as f64 / objects as f64
}

/// Fraction of distinct objects with exactly one read in `trace`.
///
/// Returns 0 for an empty trace.
pub fn one_hit_wonder_ratio(trace: &Trace) -> f64 {
    ohw_of(frequency_map(trace).into_iter())
}

/// One-hit-wonder ratio of the window starting at `start` and extending
/// until `unique_objects` distinct objects have been seen (or the trace
/// ends). This is the paper's "sequence length measured in the number of
/// unique objects".
pub fn window_one_hit_wonder_ratio(trace: &Trace, start: usize, unique_objects: usize) -> f64 {
    let mut counts = vec![0; trace.footprint()];
    window_ohw(trace, start, unique_objects, &mut counts, &mut Vec::new())
}

/// [`window_one_hit_wonder_ratio`] counting in `counts` (one zero per
/// slot), which it leaves zeroed, and naming the window's objects in
/// `seen`, so that many windows share one allocation.
fn window_ohw(
    trace: &Trace,
    start: usize,
    unique_objects: usize,
    counts: &mut [u32],
    seen: &mut Vec<u32>,
) -> f64 {
    seen.clear();
    for (_, slot) in reads(trace, start) {
        let count = &mut counts[slot as usize];
        if *count == 0 {
            if seen.len() >= unique_objects {
                break;
            }
            seen.push(slot);
        }
        *count += 1;
    }
    let ratio = ohw_of(seen.iter().map(|&s| counts[s as usize]));
    for &slot in seen.iter() {
        counts[slot as usize] = 0;
    }
    ratio
}

/// Mean one-hit-wonder ratio over `samples` random windows each containing
/// `fraction` of the trace's unique objects (Fig. 2's measurement: "take
/// random sub-sequences and measure the one-hit-wonder ratios; we repeat 100
/// times and report the mean").
pub fn sampled_window_ohw(trace: &Trace, fraction: f64, samples: usize, seed: u64) -> f64 {
    assert!(fraction > 0.0 && fraction <= 1.0, "fraction in (0,1]");
    assert!(samples > 0, "need at least one sample");
    let mut counts = frequency_map(trace);
    let footprint = counts.iter().filter(|&&c| c > 0).count();
    if footprint == 0 {
        return 0.0;
    }
    let target = ((footprint as f64 * fraction).round() as usize).max(1);
    if target >= footprint {
        return ohw_of(counts.into_iter());
    }
    counts.fill(0);
    let mut seen = Vec::with_capacity(target);
    let mut rng = SplitMix64::new(seed);
    let mut acc = 0.0;
    for _ in 0..samples {
        // Windows anchored uniformly over the first 3/4 of the trace so they
        // have room to collect `target` unique objects.
        let limit = (trace.len() * 3 / 4).max(1);
        let start = rng.next_below(limit as u64) as usize;
        acc += window_ohw(trace, start, target, &mut counts, &mut seen);
    }
    acc / samples as f64
}

/// Per-object read counts, indexed by slot (`trace.dense().ids.orig(slot)`
/// is the object's id); an object only ever written or deleted counts 0.
pub fn frequency_map(trace: &Trace) -> Vec<u32> {
    let mut counts = vec![0; trace.footprint()];
    for (_, slot) in reads(trace, 0) {
        counts[slot as usize] += 1;
    }
    counts
}

/// Summary statistics of a trace, as reported per dataset in Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of read requests.
    pub requests: usize,
    /// Distinct objects.
    pub objects: usize,
    /// Total requested bytes.
    pub request_bytes: u64,
    /// Sum of distinct objects' sizes.
    pub object_bytes: u64,
    /// Full-trace one-hit-wonder ratio.
    pub ohw_full: f64,
    /// Mean OHW over windows holding 10 % of the objects.
    pub ohw_10pct: f64,
    /// Mean OHW over windows holding 1 % of the objects.
    pub ohw_1pct: f64,
}

/// Computes [`TraceStats`] over the read requests (window OHW uses
/// `samples` random windows).
pub fn trace_stats(trace: &Trace, samples: usize, seed: u64) -> TraceStats {
    let mut counts = vec![0u32; trace.footprint()];
    let (mut requests, mut request_bytes, mut object_bytes) = (0usize, 0u64, 0u64);
    for (i, slot) in reads(trace, 0) {
        let size = u64::from(trace.sizes().map_or(1, |s| s[i]));
        let count = &mut counts[slot as usize];
        requests += 1;
        request_bytes += size;
        if *count == 0 {
            object_bytes += size;
        }
        *count += 1;
    }
    TraceStats {
        requests,
        objects: counts.iter().filter(|&&c| c > 0).count(),
        request_bytes,
        object_bytes,
        ohw_full: ohw_of(counts.into_iter()),
        ohw_10pct: sampled_window_ohw(trace, 0.10, samples, seed),
        ohw_1pct: sampled_window_ohw(trace, 0.01, samples, seed ^ 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkloadSpec;
    use cache_types::Request;

    fn trace_of(ids: &[u64]) -> Trace {
        let reqs = ids
            .iter()
            .enumerate()
            .map(|(t, &id)| Request::get(id, t as u64))
            .collect();
        Trace::new("t", reqs)
    }

    /// Fig. 1's toy example: seventeen requests to five objects, with E the
    /// only one-hit wonder → full-trace OHW = 20 %; the 1..7 prefix has two
    /// of four unique objects requested once → 50 %; the 1..4 prefix → 67 %.
    #[test]
    fn fig1_toy_example() {
        // A B A C B A D A B C B A E C A B D  (1-indexed in the paper)
        let (a, b, c, d, e) = (1u64, 2, 3, 4, 5);
        let ids = [a, b, a, c, b, a, d, a, b, c, b, a, e, c, a, b, d];
        assert!((one_hit_wonder_ratio(&trace_of(&ids)) - 0.2).abs() < 1e-12);
        // Requests 1..=7 contain A,B,C,D; C and D appear once → 50 %.
        let w = window_one_hit_wonder_ratio(&trace_of(&ids[..7]), 0, 4);
        assert!((w - 0.5).abs() < 1e-12);
        // Requests 1..=4 contain A,B,C; B and C appear once → 67 %.
        let w = window_one_hit_wonder_ratio(&trace_of(&ids[..4]), 0, 3);
        assert!((w - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_zero() {
        assert_eq!(one_hit_wonder_ratio(&trace_of(&[])), 0.0);
    }

    #[test]
    fn all_unique_is_one() {
        let t = trace_of(&[1, 2, 3, 4, 5]);
        assert!((one_hit_wonder_ratio(&t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_repeated_is_zero() {
        let t = trace_of(&[1, 2, 1, 2]);
        assert_eq!(one_hit_wonder_ratio(&t), 0.0);
    }

    #[test]
    fn window_respects_unique_limit() {
        let t = trace_of(&[1, 1, 2, 3, 4, 5]);
        // Window of 2 uniques starting at 0: sees 1,1,2 → OHW 1/2.
        let w = window_one_hit_wonder_ratio(&t, 0, 2);
        assert!((w - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shorter_windows_have_higher_ohw_on_zipf() {
        // The paper's core observation (Fig. 2): OHW rises as the window
        // shrinks.
        let t = WorkloadSpec::zipf("z", 200_000, 20_000, 1.0, 9).generate();
        let full = one_hit_wonder_ratio(&t);
        let w50 = sampled_window_ohw(&t, 0.5, 20, 1);
        let w10 = sampled_window_ohw(&t, 0.1, 20, 2);
        let w01 = sampled_window_ohw(&t, 0.01, 20, 3);
        assert!(
            full < w50 && w50 < w10 && w10 < w01,
            "OHW must rise as windows shrink: full {full:.3}, 50% {w50:.3}, 10% {w10:.3}, 1% {w01:.3}"
        );
    }

    #[test]
    fn more_skew_lower_window_ohw() {
        // Fig. 2: more skewed workloads have lower OHW at the same window
        // length (popular objects repeat even in short windows).
        let mild = WorkloadSpec::zipf("z", 100_000, 10_000, 0.6, 11).generate();
        let steep = WorkloadSpec::zipf("z", 100_000, 10_000, 1.2, 11).generate();
        let ohw_mild = sampled_window_ohw(&mild, 0.1, 20, 5);
        let ohw_steep = sampled_window_ohw(&steep, 0.1, 20, 5);
        assert!(
            ohw_steep < ohw_mild,
            "alpha=1.2 OHW {ohw_steep:.3} should be below alpha=0.6 OHW {ohw_mild:.3}"
        );
    }

    #[test]
    fn frequency_map_counts() {
        let t = trace_of(&[1, 1, 1, 2]);
        let m = frequency_map(&t);
        assert_eq!(m, [3, 1], "slot 0 is id 1, slot 1 id 2");
    }

    #[test]
    fn trace_stats_consistency() {
        let t = WorkloadSpec::zipf("z", 50_000, 5000, 0.9, 13).generate();
        let s = trace_stats(&t, 10, 1);
        assert_eq!(s.requests, 50_000);
        assert_eq!(s.objects, t.footprint());
        assert!(s.ohw_full <= s.ohw_10pct);
        assert!(s.ohw_10pct <= s.ohw_1pct + 0.05);
        assert_eq!(s.request_bytes, t.total_bytes());
        assert_eq!(s.object_bytes, t.footprint_bytes());
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_panics() {
        sampled_window_ohw(&trace_of(&[]), 0.0, 1, 1);
    }
}
