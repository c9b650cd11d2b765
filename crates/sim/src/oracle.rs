//! Exact next-access oracle over a trace.
//!
//! The Fig. 10 precision metric asks, for every object evicted at time `t`,
//! how far in the future its next request lies. [`NextAccessOracle`]
//! answers that in O(log k) per query from per-object sorted position lists.

use cache_ds::IdMap;
use cache_types::{ObjId, Request};

/// Per-object request positions, queryable for "next access after t".
#[derive(Debug)]
pub struct NextAccessOracle {
    positions: IdMap<Vec<u64>>,
    trace_len: u64,
}

impl NextAccessOracle {
    /// Builds the oracle from a trace's requests (read requests only).
    pub fn new(reqs: impl IntoIterator<Item = Request>) -> Self {
        let mut positions: IdMap<Vec<u64>> = IdMap::default();
        let mut trace_len = 0;
        for r in reqs {
            if r.is_read() {
                positions.entry(r.id).or_default().push(trace_len);
            }
            trace_len += 1;
        }
        NextAccessOracle {
            positions,
            trace_len,
        }
    }

    /// Position of the first request to `id` strictly after position `t`,
    /// or `None` if the object is never requested again.
    pub fn next_access_after(&self, id: ObjId, t: u64) -> Option<u64> {
        let ps = self.positions.get(&id)?;
        let idx = ps.partition_point(|&p| p <= t);
        ps.get(idx).copied()
    }

    /// Forward distance (in requests) from `t` to the next request of `id`;
    /// `None` when there is none.
    pub fn reuse_distance(&self, id: ObjId, t: u64) -> Option<u64> {
        self.next_access_after(id, t).map(|n| n - t)
    }

    /// Number of requests in the trace the oracle was built from.
    pub fn trace_len(&self) -> u64 {
        self.trace_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs_of(ids: &[u64]) -> Vec<Request> {
        ids.iter()
            .enumerate()
            .map(|(t, &id)| Request::get(id, t as u64))
            .collect()
    }

    #[test]
    fn finds_next_access() {
        let reqs = reqs_of(&[1, 2, 1, 3, 1]);
        let o = NextAccessOracle::new(reqs);
        assert_eq!(o.next_access_after(1, 0), Some(2));
        assert_eq!(o.next_access_after(1, 2), Some(4));
        assert_eq!(o.next_access_after(1, 4), None);
        assert_eq!(o.next_access_after(2, 1), None);
        assert_eq!(o.next_access_after(99, 0), None);
    }

    #[test]
    fn reuse_distance_is_forward() {
        let reqs = reqs_of(&[5, 0, 0, 5]);
        let o = NextAccessOracle::new(reqs);
        assert_eq!(o.reuse_distance(5, 0), Some(3));
        assert_eq!(o.reuse_distance(0, 1), Some(1));
    }

    #[test]
    fn query_before_first_access() {
        let reqs = reqs_of(&[9, 9]);
        let o = NextAccessOracle::new(reqs);
        // t earlier than any position: strictly-after semantics.
        assert_eq!(o.next_access_after(9, 0), Some(1));
    }

    #[test]
    fn trace_len_reported() {
        let o = NextAccessOracle::new(reqs_of(&[1, 2, 3]));
        assert_eq!(o.trace_len(), 3);
    }
}
