//! Windowed miss-ratio timeseries.
//!
//! The paper's Fig. 6 reports *per-window* miss ratios, not just end-of-run
//! totals — that is what exposes phase changes (a scan arriving, a working
//! set rotating) that a single number averages away. [`MissRatioSeries`]
//! accumulates exactly that: fixed-size request windows, each with its own
//! request and miss count, whose sums are required (and tested) to equal
//! the end-of-run totals.

/// One window of a [`MissRatioSeries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowPoint {
    /// Window index (0-based).
    pub window: u64,
    /// Index of the first request in this window.
    pub start_index: u64,
    /// Requests observed in this window.
    pub requests: u64,
    /// Misses among them.
    pub misses: u64,
}

impl WindowPoint {
    /// The window's miss ratio (0 when empty).
    pub fn miss_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.misses as f64 / self.requests as f64
        }
    }
}

/// Fixed-window miss-ratio accumulator.
///
/// Feed it one `record` per request; call [`MissRatioSeries::finish`] after
/// the last request to flush the trailing partial window.
#[derive(Debug, Clone)]
pub struct MissRatioSeries {
    window_size: u64,
    points: Vec<WindowPoint>,
    cur_requests: u64,
    cur_misses: u64,
    total_requests: u64,
}

impl MissRatioSeries {
    /// Creates a series with `window_size` requests per window (clamped to
    /// at least 1).
    pub fn new(window_size: u64) -> Self {
        MissRatioSeries {
            window_size: window_size.max(1),
            points: Vec::new(),
            cur_requests: 0,
            cur_misses: 0,
            total_requests: 0,
        }
    }

    /// Requests per window.
    pub fn window_size(&self) -> u64 {
        self.window_size
    }

    /// Records one request outcome.
    #[inline]
    pub fn record(&mut self, miss: bool) {
        self.cur_requests += 1;
        self.total_requests += 1;
        self.cur_misses += u64::from(miss);
        if self.cur_requests == self.window_size {
            self.flush();
        }
    }

    /// Records a whole window's worth of outcomes at once (the dense
    /// chunked-replay path computes these from stats deltas).
    pub fn record_window(&mut self, requests: u64, misses: u64) {
        debug_assert!(misses <= requests, "window misses exceed requests");
        // Split across window boundaries so mixed record()/record_window()
        // use keeps windows exactly `window_size` long.
        let mut requests = requests;
        let mut misses = misses;
        while requests > 0 {
            let room = self.window_size - self.cur_requests;
            let take = requests.min(room);
            // Attribute misses proportionally only when forced to split;
            // aligned callers (take == requests) keep exact counts.
            let take_misses = if take == requests {
                misses
            } else {
                ((misses as u128 * take as u128) / requests as u128) as u64
            };
            self.cur_requests += take;
            self.total_requests += take;
            self.cur_misses += take_misses;
            requests -= take;
            misses -= take_misses;
            if self.cur_requests == self.window_size {
                self.flush();
            }
        }
    }

    fn flush(&mut self) {
        let start_index = self.total_requests - self.cur_requests;
        self.points.push(WindowPoint {
            window: self.points.len() as u64,
            start_index,
            requests: self.cur_requests,
            misses: self.cur_misses,
        });
        self.cur_requests = 0;
        self.cur_misses = 0;
    }

    /// Flushes the trailing partial window, if any.
    pub fn finish(&mut self) {
        if self.cur_requests > 0 {
            self.flush();
        }
    }

    /// The completed windows.
    pub fn points(&self) -> &[WindowPoint] {
        &self.points
    }

    /// Sum of misses over all completed windows plus the open one.
    pub fn total_misses(&self) -> u64 {
        self.points.iter().map(|p| p.misses).sum::<u64>() + self.cur_misses
    }

    /// Total requests recorded.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_the_stream() {
        let mut s = MissRatioSeries::new(10);
        for i in 0..35u64 {
            s.record(i % 3 == 0);
        }
        s.finish();
        let pts = s.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].requests, 10);
        assert_eq!(pts[3].requests, 5, "trailing partial window");
        assert_eq!(pts.iter().map(|p| p.requests).sum::<u64>(), 35);
        assert_eq!(s.total_misses(), (0..35).filter(|i| i % 3 == 0).count() as u64);
        assert_eq!(pts[1].start_index, 10);
        assert_eq!(pts[1].window, 1);
    }

    #[test]
    fn window_sums_equal_totals() {
        let mut s = MissRatioSeries::new(7);
        let mut misses = 0u64;
        for i in 0..1000u64 {
            let m = (i * 2654435761) % 5 == 0;
            misses += u64::from(m);
            s.record(m);
        }
        s.finish();
        assert_eq!(s.total_misses(), misses);
        assert_eq!(s.total_requests(), 1000);
        assert_eq!(
            s.points().iter().map(|p| p.misses).sum::<u64>(),
            misses,
            "per-window misses must sum to the run total"
        );
    }

    #[test]
    fn record_window_aligned_is_exact() {
        let mut a = MissRatioSeries::new(100);
        let mut b = MissRatioSeries::new(100);
        for chunk in 0..10u64 {
            let misses = chunk * 3;
            a.record_window(100, misses);
            for i in 0..100 {
                b.record(i < misses);
            }
        }
        a.finish();
        b.finish();
        assert_eq!(a.total_misses(), b.total_misses());
        for (pa, pb) in a.points().iter().zip(b.points()) {
            assert_eq!(pa.misses, pb.misses);
            assert_eq!(pa.requests, pb.requests);
        }
    }

    #[test]
    fn record_window_split_preserves_totals() {
        let mut s = MissRatioSeries::new(10);
        s.record_window(25, 13);
        s.record_window(15, 2);
        s.finish();
        assert_eq!(s.total_requests(), 40);
        assert_eq!(s.total_misses(), 15, "totals survive window splitting");
        assert_eq!(s.points().len(), 4);
    }

    #[test]
    fn empty_series_is_empty() {
        let mut s = MissRatioSeries::new(10);
        s.finish();
        assert!(s.points().is_empty());
        assert_eq!(s.total_misses(), 0);
    }

    #[test]
    fn miss_ratio_per_window() {
        let p = WindowPoint {
            window: 0,
            start_index: 0,
            requests: 4,
            misses: 1,
        };
        assert!((p.miss_ratio() - 0.25).abs() < 1e-12);
        let empty = WindowPoint {
            window: 0,
            start_index: 0,
            requests: 0,
            misses: 0,
        };
        assert_eq!(empty.miss_ratio(), 0.0);
    }
}
