//! Segcache-like log-structured concurrent cache.
//!
//! §5.3: Segcache reaches close-to-linear scalability through *macro
//! management* — hits only bump an atomic frequency, and synchronization
//! happens at segment granularity (orders of magnitude rarer than per
//! object). This simplified reproduction keeps the two properties Fig. 8
//! measures: an atomic-only hit path, and merge-based (FIFO-Merge) eviction
//! that copies surviving objects, which costs it single-thread throughput
//! relative to S3-FIFO.

use crate::{shard_of, AuditReport, ConcurrentCache, SHARDS};
use bytes::Bytes;
use parking_lot::Mutex;
use cache_ds::{IdMap, ShardLocks};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

struct Entry {
    value: Bytes,
    freq: AtomicU32,
    /// Segment the entry currently lives in.
    seg: AtomicUsize,
}

struct Segment {
    id: usize,
    keys: Vec<u64>,
}

/// Simplified Segcache (log-structured, FIFO-merge eviction).
pub struct SegcacheLike {
    index: ShardLocks<IdMap<Arc<Entry>>>,
    /// Sealed segments, oldest first, plus the active segment at the back.
    segments: Mutex<VecDeque<Segment>>,
    next_seg: AtomicUsize,
    len: AtomicUsize,
    capacity: usize,
    seg_size: usize,
}

impl SegcacheLike {
    /// Creates a cache of `capacity` entries with ten segments.
    ///
    /// # Panics
    ///
    /// Panics when `capacity < 10`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 10, "capacity must be at least 10 entries");
        let seg_size = (capacity / 10).max(1);
        let mut segments = VecDeque::new();
        segments.push_back(Segment {
            id: 0,
            keys: Vec::with_capacity(seg_size),
        });
        SegcacheLike {
            index: (0..SHARDS).map(|_| IdMap::default()).collect(),
            segments: Mutex::new(segments),
            next_seg: AtomicUsize::new(1),
            len: AtomicUsize::new(0),
            capacity,
            seg_size,
        }
    }

    /// Merge-evicts the four oldest segments, retaining the top quarter by
    /// frequency (copying them into a fresh segment — the copy cost §5.3
    /// mentions).
    // ORDERING: Relaxed freq/seg/len — freq is a retention heuristic and
    // seg a tag checked under the index lock; the segment mutex (held by
    // the caller) serializes whole merges against each other.
    // Index shard guards are taken one at a time, under the segment mutex
    // the caller holds.
    fn merge_evict(&self, segments: &mut VecDeque<Segment>) {
        let take = 4.min(segments.len().saturating_sub(1));
        if take == 0 {
            return;
        }
        let mut candidates: Vec<(u64, u32, Arc<Entry>)> = Vec::new();
        let mut seg_ids = Vec::new();
        for _ in 0..take {
            // Invariant: `take <= segments.len() - 1` by construction above,
            // so a front segment always exists.
            let seg = segments.pop_front().expect("segment available");
            seg_ids.push(seg.id);
            for key in seg.keys {
                let guard = self.index[shard_of(key)].read();
                if let Some(e) = guard.get(&key) {
                    if seg_ids.contains(&e.seg.load(Ordering::Relaxed)) {
                        candidates.push((key, e.freq.load(Ordering::Relaxed), e.clone()));
                    }
                }
            }
        }
        candidates.sort_by_key(|c| std::cmp::Reverse(c.1));
        let keep = candidates.len() / 4;
        let new_id = self.next_seg.fetch_add(1, Ordering::Relaxed);
        let mut merged = Segment {
            id: new_id,
            keys: Vec::with_capacity(keep),
        };
        for (i, (key, _f, entry)) in candidates.into_iter().enumerate() {
            if i < keep {
                // "Copy" the survivor into the merged segment.
                entry.seg.store(new_id, Ordering::Relaxed);
                entry.freq.store(0, Ordering::Relaxed);
                merged.keys.push(key);
            } else {
                let mut guard = self.index[shard_of(key)].write();
                if let Some(cur) = guard.get(&key) {
                    if Arc::ptr_eq(cur, &entry) {
                        guard.remove(&key);
                        self.len.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
        }
        segments.push_front(merged);
    }
}

impl ConcurrentCache for SegcacheLike {
    fn name(&self) -> String {
        "Segcache".into()
    }

    // ORDERING: Relaxed freq bump — the atomic-only hit path is the whole
    // point (§5.3); losing increments under contention is acceptable.
    fn get(&self, key: u64) -> Option<Bytes> {
        let guard = self.index[shard_of(key)].read();
        let e = guard.get(&key)?;
        e.freq.fetch_add(1, Ordering::Relaxed);
        Some(e.value.clone())
    }

    // ORDERING: Relaxed len/seg-id — len gates eviction heuristically;
    // the segment mutex orders all segment structure mutation.
    // Locks nest segments -> index, as everywhere in this file. The index
    // entry is written under the segment mutex: written after it, the
    // entry could name a segment a merge had already retired, which no
    // later merge visits — a stale handle for good.
    fn insert(&self, key: u64, value: Bytes) {
        let mut segments = self.segments.lock();
        if self.len.load(Ordering::Relaxed) >= self.capacity {
            self.merge_evict(&mut segments);
        }
        let seg_id = {
            let active_full = segments
                .back()
                .map(|s| s.keys.len() >= self.seg_size)
                .unwrap_or(true);
            if active_full {
                let id = self.next_seg.fetch_add(1, Ordering::Relaxed);
                segments.push_back(Segment {
                    id,
                    keys: Vec::with_capacity(self.seg_size),
                });
            }
            // Invariant: the branch above pushed a segment when the deque
            // was empty or the active one was full, so back_mut succeeds.
            let active = segments.back_mut().expect("active segment exists");
            active.keys.push(key);
            active.id
        };
        let entry = Arc::new(Entry {
            value,
            freq: AtomicU32::new(0),
            seg: AtomicUsize::new(seg_id),
        });
        let mut guard = self.index[shard_of(key)].write();
        if guard.insert(key, entry).is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
    }

    // ORDERING: Relaxed len — advisory occupancy, see `insert`.
    fn remove(&self, key: u64) -> bool {
        let existed = self.index[shard_of(key)].write().remove(&key).is_some();
        if existed {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        existed
    }

    // ORDERING: Relaxed — advisory count, exact only at quiescence.
    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    // ORDERING: Relaxed segment-id loads — the audit runs at quiescence,
    // where every writer has joined and the lock acquisitions above already
    // ordered their stores.
    fn audit_quiescent(&self) -> AuditReport {
        let mut report = AuditReport::default();
        let segments = self.segments.lock();
        // A current index entry must live in a segment that still exists
        // and lists its key (else merge-evict leaked it: unreachable from
        // any future merge, it would pin memory forever). Membership only:
        // a re-set key legally appears twice in the log (the older slot is
        // garbage until a merge drops it), and the index map already rules
        // out true duplicate residency.
        let mut listed = cache_ds::IdSet::default();
        for seg in segments.iter() {
            for key in &seg.keys {
                let guard = self.index[shard_of(*key)].read();
                if let Some(e) = guard.get(key) {
                    if e.seg.load(Ordering::Relaxed) == seg.id {
                        listed.insert(*key);
                    }
                }
            }
        }
        for shard in self.index.iter() {
            let guard = shard.read();
            report.resident += guard.len();
            for key in guard.keys() {
                if !listed.contains(key) {
                    report.stale_handles += 1;
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v() -> Bytes {
        Bytes::from_static(b"x")
    }

    #[test]
    fn get_after_insert() {
        let c = SegcacheLike::new(100);
        c.insert(1, v());
        assert_eq!(c.get(1), Some(v()));
        assert_eq!(c.get(2), None);
    }

    #[test]
    fn capacity_roughly_bounded() {
        let c = SegcacheLike::new(100);
        for k in 0..5000u64 {
            c.insert(k, v());
        }
        assert!(c.len() <= 110, "len {}", c.len());
    }

    #[test]
    fn frequent_objects_survive_merges() {
        let c = SegcacheLike::new(100);
        for k in 0..5u64 {
            c.insert(k, v());
        }
        for round in 0..50 {
            for k in 0..5u64 {
                c.get(k);
            }
            for j in 0..20u64 {
                c.insert(1000 + round * 20 + j, v());
            }
        }
        let survivors = (0..5u64).filter(|&k| c.get(k).is_some()).count();
        assert!(survivors >= 3, "hot keys lost: {survivors}/5");
    }

    /// Eight threads of get-or-insert, at 500 entries over 2000 keys and at
    /// 10 over 64. Ten entries make one-key segments, retired a few inserts
    /// after they stop being the active one, so a thread preempted
    /// mid-insert meets a merge there often: when the index entry was
    /// written after the segment mutex dropped, every such run left stale
    /// entries.
    #[test]
    fn concurrent_use_is_safe() {
        for (capacity, keys) in [(500, 2000), (10, 64)] {
            let c = SegcacheLike::new(capacity);
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    let c = &c;
                    scope.spawn(move || {
                        let mut state = t + 3;
                        for _ in 0..20_000 {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let key = (state >> 33) % keys;
                            if c.get(key).is_none() {
                                c.insert(key, Bytes::from_static(b"v"));
                            }
                        }
                    });
                }
            });
            assert!(c.len() <= capacity + 100, "len {}", c.len());
            // No residue is legal: an index entry is written under the same
            // mutex as its key's append, and a merge, under it too, either
            // carries a key into the merged segment (retagging its entry) or
            // unmaps it. Every entry names a live segment that lists its key.
            let audit = c.audit_quiescent();
            assert!(audit.is_clean(0), "{capacity} entries: {audit:?}");
        }
    }

    #[test]
    fn audit_clean_single_threaded() {
        let c = SegcacheLike::new(100);
        for k in 0..2000u64 {
            c.insert(k % 300, v());
            c.get(k % 150);
        }
        let audit = c.audit_quiescent();
        assert!(audit.is_clean(0), "audit failed: {audit:?}");
        assert_eq!(audit.resident, c.len());
    }
}
