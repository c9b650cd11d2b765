//! Spans and the arithmetic on them: self time, percentiles, windowed
//! percentiles. A traced run keeps its spans in memory and writes them out
//! when it ends; an untraced run records none.

use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval at a layer boundary. Times are nanoseconds since the
/// run's origin. `id` is the request or pass the span belongs to, shared by
/// every span of that request; `calls` is how many calls into the layer the
/// interval covers (a probe times short calls in batches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub id: u64,
    pub calls: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span log. Each thread fills its own and the logs are merged when the
/// threads have joined, so recording takes no lock.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index, for children to name
    /// as their parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        id: u64,
        calls: u32,
    ) -> u32 {
        self.push_ns(name, self.ns(start), self.ns(end), parent, id, calls)
    }

    /// `push` for times already in nanoseconds since the origin.
    pub fn push_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        id: u64,
        calls: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            id,
            calls,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(name, start, end, parent, id, 1);
        (out, (end - start).as_secs_f64())
    }

    /// Appends another log, keeping its parent links valid.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (pipelined
/// requests), so the covered part is the union of their intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            if end > start {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Where a run's windows and passes are read: a tenth of the way in from
/// the good end. The host is a shared machine; a neighbour takes time away
/// for seconds or for most of a run, and never gives any back. The median
/// of the windows then says how busy the neighbour was, and flips between
/// two values when it was busy about half of the time. The quiet end says
/// what the program does when left alone, as long as a tenth of the run was,
/// and a change to the program moves every window, the quiet ones too. Not
/// the extreme itself: a window that takes in replies held up in the one
/// before it counts too many.
const QUIET: f64 = 0.10;

/// The q-th quantile (0..=1) of `values`, interpolated between neighbours; 0
/// for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let at = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Of times, one per pass or window: the 10th percentile.
pub fn quiet_time(values: &[f64]) -> f64 {
    quantile(values, QUIET)
}

/// Of rates, one per window: the 90th percentile.
pub fn quiet_rate(values: &[f64]) -> f64 {
    quantile(values, 1.0 - QUIET)
}

/// The p-th percentile of each full window of `window_ns`, in time order.
/// Samples are `(time_ns, value)`. A statistic over the windows (their
/// median, their quiet end) is a figure that one stall cannot move, and it
/// repeats far better than the same percentile of the whole run.
pub fn window_percentiles(samples: &[(u64, f64)], window_ns: u64, p: f64) -> Vec<f64> {
    let Some(first) = samples.iter().map(|s| s.0).min() else {
        return Vec::new();
    };
    let last = samples.iter().map(|s| s.0).max().unwrap_or(first);
    // Shorter than a window: the whole of it is the one window.
    let full_windows = (((last - first) / window_ns) as usize).max(1);
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); full_windows];
    for &(t, v) in samples {
        let w = ((t - first) / window_ns) as usize;
        if w < full_windows {
            windows[w].push(v);
        }
    }
    windows
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| {
            w.sort_by(f64::total_cmp);
            percentile(w, p)
        })
        .collect()
}

/// Cost of reading the clock twice, which every individually timed call
/// includes; subtracted from per-call figures.
pub fn timer_overhead_ns() -> f64 {
    let mut d: Vec<f64> = (0..20_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    d.sort_by(f64::total_cmp);
    percentile(&d, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, NO_PARENT),
            span("send", 10, 30, 0),
            span("wait", 20, 50, 0),  // overlaps send: union is 10..50
            span("recv", 70, 120, 0), // clipped to the parent: 70..100
            span("parse", 75, 80, 3), // grandchild: only recv's self time
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 30, 20, 30, 50 - 5, 5]);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v[..6], 99.0), 6.0, "few samples: the slowest");
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), [0.0, 3.0, 6.0]);
    }

    #[test]
    fn the_quiet_end_ignores_a_neighbour_busy_most_of_the_run() {
        // Twenty passes of 100 ms; a neighbour slows fourteen of them by half.
        let times: Vec<f64> = (0..20)
            .map(|i| {
                if i % 10 < 7 {
                    150.0 + f64::from(i)
                } else {
                    100.0 + f64::from(i) / 10.0
                }
            })
            .collect();
        assert!((quiet_time(&times) - 101.0).abs() <= 1.0);
        assert!(median(&times) > 150.0);
        let rates: Vec<f64> = times.iter().map(|t| 1e3 / t).collect();
        assert!((quiet_rate(&rates) - 9.9).abs() <= 0.1);
        // Interpolated, and the ends are the extremes.
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_p99_is_the_median_window_not_the_worst() {
        // Three full 100 ns windows of 100 samples each; the second holds a
        // stall. The whole-run p99 would report the stall; the windowed one
        // reports the typical window.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..100u64 {
                let v = if w == 1 && i >= 90 { 1000.0 } else { i as f64 };
                samples.push((w * 100 + i, v));
            }
        }
        samples.push((300, 0.0)); // marks the end of the third window
        let p99 = window_percentiles(&samples, 100, 99.0);
        assert_eq!(p99, [98.0, 1000.0, 98.0]);
        assert_eq!(median(&p99), 98.0);
        assert_eq!(
            window_percentiles(&samples[..50], 100, 50.0),
            [24.0],
            "shorter than a window: one window"
        );
        assert!(window_percentiles(&[], 100, 50.0).is_empty());
    }
}
