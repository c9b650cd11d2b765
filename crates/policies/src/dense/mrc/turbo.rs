//! Timestamp-derived multi-capacity lanes for pure-`Get` unit-size streams.
//!
//! A lane that kept one single-capacity policy's state per (slot, lane)
//! would be `k`× the footprint of that policy, so on large traces its hit
//! path falls out of cache exactly where the per-capacity sweep stays
//! resident, and a `Get` that hits still pays one state write per lane.
//! The engines here specialise to the restricted streams `simulate_mrc`
//! sees in practice (pure `Get`, size 1, fewer than `u32::MAX` requests,
//! ≤ 32 lanes per engine) and collapse the per-request cost to near the
//! exact-FIFO engine's. `simulate_mrc` builds them four lanes wide, one
//! after another over the same slots (`registry::mrc_engine_lanes`): four
//! lanes' queues and ghost bitsets stay in a core's caches beside the
//! headers, where sixteen did not.
//!
//! - **Residency is one bitmap word.** `hdr[slot].res` holds one bit per
//!   lane, so a `Get` answers hit/miss for the *whole grid* from a single
//!   load, and a hit writes nothing per lane.
//! - **Reference state is derived, not stored.** `hdr[slot].acc` counts the
//!   slot's accesses; each queue entry remembers a `base`: the counter value
//!   when the policy last touched it, less the capped count it folded then.
//!   Under pure `Get`s an object's residency in a lane is one continuous
//!   interval, every access inside it is a hit, and CLOCK / S3-FIFO
//!   frequencies only *increase* between policy touch-points — so the
//!   capped counter at scan time is exactly `min(acc - base, max)`, and
//!   SIEVE's visited bit is exactly `acc > base`. Hits never touch per-lane
//!   state; scans re-fold. The fold never underflows: an insert sets
//!   `base = acc ≥ 1`, and a survivor's `acc - (freq - 1)` is above its old
//!   base and at most `acc`.
//! - **Queues are arrays, not linked lists, allocated once.** CLOCK's
//!   move-to-front cycle is a fixed circular buffer with a hand (survivors
//!   stay put, the victim is replaced in place); SIEVE is a grow-only vector
//!   with tombstones, a hand index, and amortised compaction; S3-FIFO's
//!   queues are `VecDeque`s, ring buffers (every operation is a tail pop or
//!   head push). Every queue holds one 8 B [`Entry`] and is built at the
//!   most entries it can ever hold, so none is copied into a doubled buffer
//!   mid-replay, and the pages a small lane never writes stay unmapped.
//!   `validate` checks each still has the room it was built with. Eviction
//!   scans walk sequential memory.
//!
//! Per object, an engine keeps one 8 B [`SlotHdr`] shared by all its lanes
//! (one cache line covers eight slots), and an S3-FIFO engine one ghost bit
//! per lane besides, in a bitset the lane owns: ghost marks are read only
//! on that lane's misses, so they stay out of the header every hit loads.
//!
//! Each lane still makes byte-for-byte the decisions of the single-capacity
//! dense policy of the same name; `crates/sim/tests/mrc_equivalence.rs` and
//! `cache-check`'s MRC differential (pure-Get unit mode) pin the
//! equivalence. FIFO needs no lane here: the insertion-index engine in
//! [`super::exact`] already covers it under the same preconditions.

use super::{impl_slot_replay, validate_grid, MultiCapacityPolicy};
use cache_ds::{prefetch_read, DenseIds};
use s3fifo::policy::{MAX_FREQ, PROMOTE_THRESHOLD};
use s3fifo::S3FifoConfig;
use cache_types::{CacheError, PolicyStats};
use std::collections::VecDeque;
use std::sync::Arc;

/// Lane-count ceiling: residency is one `u32` per slot.
pub(crate) const MAX_TURBO_LANES: usize = 32;

/// Per-slot header shared by all lanes: residency bitmap + access counter,
/// 8 B, so one cache line covers eight slots.
#[derive(Clone, Copy, Default)]
struct SlotHdr {
    /// Bit `lane` set ⇔ the slot is resident in that lane.
    res: u32,
    /// Accesses to this slot so far (monotone; the trace-length gate keeps
    /// it below `u32::MAX`).
    acc: u32,
}

/// Bitmask selecting all `k` lanes, `1 ≤ k ≤ 32` (no shift by 32).
fn lane_mask(k: usize) -> u32 {
    u32::MAX >> (MAX_TURBO_LANES - k)
}

/// One queue entry, the same 8 B in every turbo queue: the slot, and the
/// counter value its reference count is measured from (see
/// [`derived_freq`]).
#[derive(Clone, Copy)]
struct Entry {
    slot: u32,
    base: u32,
}

/// The capped reference counter an entry would hold had every access been
/// applied eagerly: the last policy touch (insert or scan) left it at
/// `acc - base` for the counter value `acc` of that moment; everything
/// since is a hit, and capping commutes with pure increments.
#[inline]
fn derived_freq(acc_now: u32, base: u32, max_freq: u8) -> u8 {
    debug_assert!(acc_now >= base, "access counter moved backwards");
    (acc_now - base).min(u32::from(max_freq)) as u8
}

/// The base a survivor of a scan is reinserted with: its count `freq`, one
/// use spent, folded at counter value `acc`. It is above the entry's old
/// `base`, or a scan whose survivors all kept their count would not end.
#[inline]
fn survivor_base(acc: u32, base: u32, freq: u8) -> u32 {
    let folded = acc - u32::from(freq - 1);
    debug_assert!(folded > base, "a survivor's count did not fall");
    folded
}

/// The most entries a queue bounded by `n` holds, over `ids` slots: no
/// queue holds a slot twice except the ghost FIFO, which holds nothing
/// unless the cache is smaller than the slot count (see [`S3Lane::bounds`]).
fn bound(n: u64, ids: usize) -> usize {
    n.min(ids as u64) as usize
}

/// Checks that a queue still has the room it was built with: a queue that
/// outgrew its bound was reallocated mid-replay.
fn check_room(
    policy: &str,
    lane: usize,
    queue: &str,
    room: usize,
    built: usize,
) -> Result<(), String> {
    if room != built {
        return Err(format!(
            "turbo {policy} lane {lane}: {queue} was built for {built} entries and has room for {room}"
        ));
    }
    Ok(())
}

/// Checks an entry's base against its slot's counter: `1 ≤ base ≤ acc`.
fn check_base(policy: &str, lane: usize, e: Entry, acc: u32) -> Result<(), String> {
    if e.base == 0 || e.base > acc {
        return Err(format!(
            "turbo {policy} lane {lane}: slot {} has base {} outside 1..={acc}",
            e.slot, e.base
        ));
    }
    Ok(())
}

/// Grid + lane-count validation shared by the turbo constructors.
fn validate_turbo_grid(capacities: &[u64]) -> Result<(), CacheError> {
    validate_grid(capacities)?;
    if capacities.len() > MAX_TURBO_LANES {
        return Err(CacheError::InvalidParameter(format!(
            "turbo MRC lanes hold residency in one u32: grid has {} points, max {}",
            capacities.len(),
            MAX_TURBO_LANES
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// CLOCK
// ---------------------------------------------------------------------------

struct ClockLane {
    capacity: u64,
    /// Circular buffer once full (`ring.len() == capacity`); before that, a
    /// plain vector in insertion order with the hand parked at 0. Built for
    /// `min(capacity, ids)` entries.
    ring: Vec<Entry>,
    hand: usize,
    misses: u64,
    evictions: u64,
}

/// Multi-capacity CLOCK over pure-`Get` unit-size streams, lane-for-lane
/// decision-identical to [`crate::dense::DenseClock`].
///
/// The linked queue's eviction cycle — decrement and move survivors to the
/// head, evict the first zero-count tail, insert the new object at the head
/// — is a fixed circular buffer in disguise: survivors keep their cell (the
/// hand walks past them), the victim's cell is overwritten by the new
/// object, and the hand ends up just past it, which is exactly the queue
/// order the linked form produces.
pub struct MrcTurboClock {
    max_freq: u8,
    mask: u32,
    hdr: Vec<SlotHdr>,
    lanes: Vec<ClockLane>,
    gets: u64,
}

impl MrcTurboClock {
    /// Creates one CLOCK lane per grid capacity with a `bits`-bit counter.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] when the grid is empty, contains a zero, has
    /// more than 32 points, or `bits` is outside `1..=7`.
    pub fn new(capacities: &[u64], bits: u8, ids: &Arc<DenseIds>) -> Result<Self, CacheError> {
        validate_turbo_grid(capacities)?;
        if !(1..=7).contains(&bits) {
            return Err(CacheError::InvalidParameter(format!(
                "CLOCK bits must be in 1..=7, got {bits}"
            )));
        }
        Ok(MrcTurboClock {
            max_freq: (1u8 << bits) - 1,
            mask: lane_mask(capacities.len()),
            hdr: cache_ds::huge::filled(ids.len(), SlotHdr::default()),
            lanes: capacities
                .iter()
                .map(|&capacity| ClockLane {
                    capacity,
                    ring: Vec::with_capacity(bound(capacity, ids.len())),
                    hand: 0,
                    misses: 0,
                    evictions: 0,
                })
                .collect(),
            gets: 0,
        })
    }

    /// Warms the slot's header for a request arriving shortly.
    #[inline]
    fn prefetch(&self, slot: u32) {
        prefetch_read(&self.hdr, slot as usize);
    }

    /// One request's worth of work — the slot is all a pure-`Get`
    /// unit-size request carries.
    #[inline]
    fn step(&mut self, slot: u32) {
        self.gets += 1;
        let h = &mut self.hdr[slot as usize];
        h.acc += 1;
        let a = h.acc;
        // A hit is over here: frequency is implied by the counter bump.
        let mut miss = !h.res & self.mask;
        while miss != 0 {
            let lane = miss.trailing_zeros() as usize;
            miss &= miss - 1;
            self.insert(lane, slot, a);
        }
    }

    /// Miss path for one lane: fill until the ring reaches capacity, then
    /// run the hand until a zero-frequency victim is replaced in place.
    fn insert(&mut self, lane: usize, slot: u32, a: u32) {
        let max_freq = self.max_freq;
        let hdr = &mut self.hdr;
        let l = &mut self.lanes[lane];
        let bit = 1u32 << lane;
        l.misses += 1;
        if (l.ring.len() as u64) < l.capacity {
            l.ring.push(Entry { slot, base: a });
            hdr[slot as usize].res |= bit;
            return;
        }
        let len = l.ring.len();
        loop {
            let e = l.ring[l.hand];
            let ea = hdr[e.slot as usize].acc;
            let freq = derived_freq(ea, e.base, max_freq);
            if freq > 0 {
                // Survivor: fold the decremented count, advance the hand.
                l.ring[l.hand].base = survivor_base(ea, e.base, freq);
                l.hand += 1;
                if l.hand == len {
                    l.hand = 0;
                }
            } else {
                hdr[e.slot as usize].res &= !bit;
                l.ring[l.hand] = Entry { slot, base: a };
                l.hand += 1;
                if l.hand == len {
                    l.hand = 0;
                }
                l.evictions += 1;
                hdr[slot as usize].res |= bit;
                // Warm the likely victim of this lane's next miss.
                prefetch_read(hdr, l.ring[l.hand].slot as usize);
                return;
            }
        }
    }
}

impl MultiCapacityPolicy for MrcTurboClock {
    fn name(&self) -> String {
        if self.max_freq == 1 {
            "CLOCK".into()
        } else {
            format!("CLOCK-{}bit", (self.max_freq + 1).trailing_zeros())
        }
    }

    fn lane_stats(&self) -> Vec<PolicyStats> {
        self.lanes
            .iter()
            .map(|l| PolicyStats {
                gets: self.gets,
                misses: l.misses,
                evictions: l.evictions,
                get_bytes: self.gets,
                miss_bytes: l.misses,
            })
            .collect()
    }

    fn validate(&self) -> Result<(), String> {
        for (lane, l) in self.lanes.iter().enumerate() {
            let bit = 1u32 << lane;
            if l.ring.len() as u64 > l.capacity {
                return Err(format!(
                    "turbo CLOCK lane {lane}: ring {} exceeds capacity {}",
                    l.ring.len(),
                    l.capacity
                ));
            }
            if !l.ring.is_empty() && l.hand >= l.ring.len() {
                return Err(format!("turbo CLOCK lane {lane}: hand out of range"));
            }
            let built = bound(l.capacity, self.hdr.len());
            check_room("CLOCK", lane, "ring", l.ring.capacity(), built)?;
            let mut seen = vec![false; self.hdr.len()];
            for e in &l.ring {
                let s = e.slot as usize;
                if seen[s] {
                    return Err(format!("turbo CLOCK lane {lane}: slot {s} ringed twice"));
                }
                seen[s] = true;
                if self.hdr[s].res & bit == 0 {
                    return Err(format!(
                        "turbo CLOCK lane {lane}: slot {s} ringed but not marked resident"
                    ));
                }
                check_base("CLOCK", lane, *e, self.hdr[s].acc)?;
            }
            let marked = self.hdr.iter().filter(|h| h.res & bit != 0).count();
            if marked != l.ring.len() {
                return Err(format!(
                    "turbo CLOCK lane {lane}: {marked} resident marks vs {} ring entries",
                    l.ring.len()
                ));
            }
        }
        Ok(())
    }

    impl_slot_replay!();
}

// ---------------------------------------------------------------------------
// SIEVE
// ---------------------------------------------------------------------------

/// Tombstone marker in a SIEVE lane's buffer.
const TOMB: u32 = u32::MAX;

struct SieveLane {
    capacity: u64,
    /// Entries in insertion order, tail (oldest) at the lowest live index,
    /// head at the end; evictions leave [`TOMB`] holes that compaction
    /// squeezes out once they outnumber live entries. Visited ⇔
    /// `hdr[slot].acc > base`. Built for [`SieveLane::bound`] entries.
    buf: Vec<Entry>,
    live: u64,
    /// Lower bound on the tail's index; advanced lazily over tombstones.
    tail: usize,
    /// Resume point of the eviction scan (`None` = start at the tail),
    /// always a live index.
    hand: Option<usize>,
    misses: u64,
    evictions: u64,
}

impl SieveLane {
    /// The longest the buffer gets, which is what it is built with: a push
    /// that leaves it under 64 entries, or under twice the live ones, does
    /// not compact, and the live ones are at most `min(capacity, ids)`.
    fn bound(capacity: u64, ids: usize) -> usize {
        (2 * bound(capacity, ids)).max(64)
    }

    /// Index of the oldest live entry, advancing the cached lower bound.
    /// Callers guarantee at least one live entry.
    fn tail_idx(&mut self) -> usize {
        while self.buf[self.tail].slot == TOMB {
            self.tail += 1;
        }
        self.tail
    }

    /// Next live index strictly above `cur` (toward the head), if any.
    fn next_live(&self, cur: usize) -> Option<usize> {
        self.buf[cur + 1..]
            .iter()
            .position(|e| e.slot != TOMB)
            .map(|off| cur + 1 + off)
    }
}

/// Multi-capacity SIEVE over pure-`Get` unit-size streams, lane-for-lane
/// decision-identical to [`crate::dense::DenseSieve`].
///
/// SIEVE never reorders its queue — the hand does the aging in place — so
/// the queue is a grow-only vector: inserts append at the head end,
/// evictions tombstone at the hand, and the scan is a forward walk over
/// contiguous entries instead of a pointer chase.
pub struct MrcTurboSieve {
    mask: u32,
    hdr: Vec<SlotHdr>,
    lanes: Vec<SieveLane>,
    gets: u64,
}

impl MrcTurboSieve {
    /// Creates one SIEVE lane per grid capacity over the interned domain.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] when the grid is empty, contains a zero, or
    /// has more than 32 points.
    pub fn new(capacities: &[u64], ids: &Arc<DenseIds>) -> Result<Self, CacheError> {
        validate_turbo_grid(capacities)?;
        Ok(MrcTurboSieve {
            mask: lane_mask(capacities.len()),
            hdr: cache_ds::huge::filled(ids.len(), SlotHdr::default()),
            lanes: capacities
                .iter()
                .map(|&capacity| SieveLane {
                    capacity,
                    buf: Vec::with_capacity(SieveLane::bound(capacity, ids.len())),
                    live: 0,
                    tail: 0,
                    hand: None,
                    misses: 0,
                    evictions: 0,
                })
                .collect(),
            gets: 0,
        })
    }

    /// Eviction scan: resume at the hand (else the tail), clear visited
    /// survivors in place, tombstone the first unvisited entry.
    fn evict(&mut self, lane: usize) {
        let hdr = &mut self.hdr;
        let l = &mut self.lanes[lane];
        let bit = 1u32 << lane;
        let mut cur = match l.hand {
            Some(h) => h,
            None => l.tail_idx(),
        };
        loop {
            let e = l.buf[cur];
            let ea = hdr[e.slot as usize].acc;
            if ea > e.base {
                // Visited: clear (fold the counter) and move toward the
                // head, wrapping to the tail like the linked scan.
                l.buf[cur].base = ea;
                cur = match l.next_live(cur) {
                    Some(n) => n,
                    None => l.tail_idx(),
                };
            } else {
                l.buf[cur].slot = TOMB;
                l.live -= 1;
                hdr[e.slot as usize].res &= !bit;
                l.evictions += 1;
                l.hand = l.next_live(cur);
                if let Some(h) = l.hand {
                    prefetch_read(hdr, l.buf[h].slot as usize);
                }
                return;
            }
        }
    }

    /// Warms the slot's header for a request arriving shortly.
    #[inline]
    fn prefetch(&self, slot: u32) {
        prefetch_read(&self.hdr, slot as usize);
    }

    /// One request's worth of work — the slot is all a pure-`Get`
    /// unit-size request carries.
    #[inline]
    fn step(&mut self, slot: u32) {
        self.gets += 1;
        let h = &mut self.hdr[slot as usize];
        h.acc += 1;
        let a = h.acc;
        let mut miss = !h.res & self.mask;
        while miss != 0 {
            let lane = miss.trailing_zeros() as usize;
            miss &= miss - 1;
            self.insert(lane, slot, a);
        }
    }

    /// Miss path for one lane: evict once when full (unit sizes free
    /// exactly one object), append at the head, compact when tombstones
    /// outnumber live entries.
    fn insert(&mut self, lane: usize, slot: u32, a: u32) {
        if self.lanes[lane].live == self.lanes[lane].capacity {
            self.evict(lane);
        }
        let l = &mut self.lanes[lane];
        l.misses += 1;
        l.buf.push(Entry { slot, base: a });
        l.live += 1;
        self.hdr[slot as usize].res |= 1u32 << lane;
        if l.buf.len() >= 64 && l.buf.len() as u64 >= 2 * l.live {
            // Squeeze out tombstones in place, remapping the hand.
            let mut new_hand = None;
            let mut w = 0usize;
            for r in 0..l.buf.len() {
                let e = l.buf[r];
                if e.slot != TOMB {
                    if l.hand == Some(r) {
                        new_hand = Some(w);
                    }
                    l.buf[w] = e;
                    w += 1;
                }
            }
            l.buf.truncate(w);
            l.hand = new_hand;
            l.tail = 0;
        }
    }
}

impl MultiCapacityPolicy for MrcTurboSieve {
    fn name(&self) -> String {
        "SIEVE".into()
    }

    fn lane_stats(&self) -> Vec<PolicyStats> {
        self.lanes
            .iter()
            .map(|l| PolicyStats {
                gets: self.gets,
                misses: l.misses,
                evictions: l.evictions,
                get_bytes: self.gets,
                miss_bytes: l.misses,
            })
            .collect()
    }

    fn validate(&self) -> Result<(), String> {
        for (lane, l) in self.lanes.iter().enumerate() {
            let bit = 1u32 << lane;
            if l.live > l.capacity {
                return Err(format!(
                    "turbo SIEVE lane {lane}: {} live entries exceed capacity {}",
                    l.live, l.capacity
                ));
            }
            let built = SieveLane::bound(l.capacity, self.hdr.len());
            check_room("SIEVE", lane, "buffer", l.buf.capacity(), built)?;
            let mut live = 0u64;
            let mut seen = vec![false; self.hdr.len()];
            for e in &l.buf {
                if e.slot == TOMB {
                    continue;
                }
                live += 1;
                let s = e.slot as usize;
                if seen[s] {
                    return Err(format!("turbo SIEVE lane {lane}: slot {s} queued twice"));
                }
                seen[s] = true;
                if self.hdr[s].res & bit == 0 {
                    return Err(format!(
                        "turbo SIEVE lane {lane}: slot {s} queued but not marked resident"
                    ));
                }
                check_base("SIEVE", lane, *e, self.hdr[s].acc)?;
            }
            if live != l.live {
                return Err(format!(
                    "turbo SIEVE lane {lane}: counted {live} live entries, cached {}",
                    l.live
                ));
            }
            let marked = self.hdr.iter().filter(|h| h.res & bit != 0).count() as u64;
            if marked != l.live {
                return Err(format!(
                    "turbo SIEVE lane {lane}: {marked} resident marks vs {} live entries",
                    l.live
                ));
            }
            if let Some(h) = l.hand {
                if h >= l.buf.len() || l.buf[h].slot == TOMB {
                    return Err(format!("turbo SIEVE lane {lane}: hand on a dead entry"));
                }
            }
        }
        Ok(())
    }

    impl_slot_replay!();
}

// ---------------------------------------------------------------------------
// S3-FIFO
// ---------------------------------------------------------------------------

struct S3Lane {
    capacity: u64,
    s_capacity: u64,
    m_capacity: u64,
    ghost_cap: u64,
    /// Small and main FIFO queues: tail at the front, head at the back, so
    /// every queue operation — including main's lazy-promotion
    /// move-to-front — is a `pop_front`/`push_back` pair. Frequencies
    /// derive like CLOCK's, capped at 3; an S entry's base is where it
    /// entered (S is never scanned in place).
    small: VecDeque<Entry>,
    main: VecDeque<Entry>,
    /// This lane's ghost marks, one bit per slot: bit `slot % 64` of word
    /// `slot / 64` set ⇔ the slot is ghost-marked here.
    ghost: Vec<u64>,
    /// Ghost entry order; membership lives in `ghost`, and stale entries
    /// whose mark was re-cleared stay charged, exactly like the keyed
    /// [`cache_core`] ghost and the dense policy's `SlotGhost` replica.
    ghost_fifo: VecDeque<u32>,
    ghost_used: u64,
    ghost_hits: u64,
    misses: u64,
    evictions: u64,
}

impl S3Lane {
    /// The most entries S, M and the ghost FIFO ever hold at once over
    /// `ids` slots, which is what each is built with. S: the whole cache (it
    /// holds every object during warm-up). M: one over its share, between a
    /// promotion or a ghost-hit insert and the trim that follows. Ghost: one
    /// over its charge, between a push and its trim; nothing is ghosted
    /// unless the cache is smaller than the slot count, and then that is
    /// below the slot count already.
    fn bounds(capacity: u64, m_capacity: u64, ghost_cap: u64, ids: usize) -> [usize; 3] {
        [
            bound(capacity, ids),
            bound(m_capacity + 1, ids),
            bound(ghost_cap + 1, ids),
        ]
    }

    fn ghost_marked(&self, slot: u32) -> bool {
        self.ghost[slot as usize / 64] & (1 << (slot % 64)) != 0
    }

    fn ghost_unmark(&mut self, slot: u32) {
        self.ghost[slot as usize / 64] &= !(1 << (slot % 64));
    }

    fn ghost_insert(&mut self, slot: u32) {
        if self.ghost_cap == 0 {
            return;
        }
        if !self.ghost_marked(slot) {
            self.ghost[slot as usize / 64] |= 1 << (slot % 64);
            self.ghost_fifo.push_back(slot);
            self.ghost_used += 1;
        }
        while self.ghost_used > self.ghost_cap {
            if let Some(old) = self.ghost_fifo.pop_front() {
                // Tombstones stay charged; popping one clears the mark of a
                // re-inserted slot's newer entry — the keyed ghost's quirk.
                self.ghost_used -= 1;
                self.ghost_unmark(old);
            } else {
                break;
            }
        }
    }

    fn evict_main(&mut self, hdr: &mut [SlotHdr], bit: u32) {
        while let Some(&e) = self.main.front() {
            let ea = hdr[e.slot as usize].acc;
            let freq = derived_freq(ea, e.base, MAX_FREQ);
            if freq > 0 {
                // Reinsert at the head with frequency decreased by one.
                self.main.pop_front();
                self.main.push_back(Entry {
                    slot: e.slot,
                    base: survivor_base(ea, e.base, freq),
                });
            } else {
                self.main.pop_front();
                hdr[e.slot as usize].res &= !bit;
                self.evictions += 1;
                return;
            }
        }
    }

    fn evict_small(&mut self, hdr: &mut [SlotHdr], bit: u32) {
        while let Some(&e) = self.small.front() {
            let ea = hdr[e.slot as usize].acc;
            let freq = derived_freq(ea, e.base, MAX_FREQ);
            if freq > PROMOTE_THRESHOLD {
                // Promote to M; access counts are cleared during the move.
                self.small.pop_front();
                self.main.push_back(Entry {
                    slot: e.slot,
                    base: ea,
                });
                if self.main.len() as u64 > self.m_capacity {
                    self.evict_main(hdr, bit);
                }
            } else {
                self.small.pop_front();
                hdr[e.slot as usize].res &= !bit;
                self.ghost_insert(e.slot);
                self.evictions += 1;
                return;
            }
        }
        // S drained without evicting anything: fall back to M.
        if !self.main.is_empty() {
            self.evict_main(hdr, bit);
        }
    }

    fn make_room(&mut self, hdr: &mut [SlotHdr], bit: u32) {
        while (self.small.len() + self.main.len()) as u64 + 1 > self.capacity {
            if self.small.len() as u64 >= self.s_capacity || self.main.is_empty() {
                self.evict_small(hdr, bit);
            } else {
                self.evict_main(hdr, bit);
            }
            if self.small.is_empty() && self.main.is_empty() {
                break;
            }
        }
    }

    fn insert(&mut self, hdr: &mut [SlotHdr], bit: u32, slot: u32, a: u32) {
        self.misses += 1;
        // Ghost membership is decided before making room: the eviction loop
        // inserts into the ghost itself and could otherwise displace exactly
        // the entry being looked up.
        let in_ghost = self.ghost_marked(slot);
        self.make_room(hdr, bit);
        if in_ghost {
            self.ghost_unmark(slot);
            self.ghost_hits += 1;
            self.main.push_back(Entry { slot, base: a });
            hdr[slot as usize].res |= bit;
            // A ghost-hit insert into M can overflow M; trim one object now,
            // exactly like `DenseS3Fifo::insert`.
            if self.main.len() as u64 > self.m_capacity {
                self.evict_main(hdr, bit);
            }
        } else {
            self.small.push_back(Entry { slot, base: a });
            hdr[slot as usize].res |= bit;
        }
        // Warm the likely victim of this lane's next miss.
        if let Some(e) = self.small.front() {
            prefetch_read(hdr, e.slot as usize);
        }
    }
}

/// Multi-capacity S3-FIFO over pure-`Get` unit-size streams, lane-for-lane
/// decision-identical to [`crate::dense::DenseS3Fifo`].
pub struct MrcTurboS3Fifo {
    cfg: S3FifoConfig,
    mask: u32,
    hdr: Vec<SlotHdr>,
    lanes: Vec<S3Lane>,
    gets: u64,
}

impl MrcTurboS3Fifo {
    /// Creates paper-default lanes (S = 10 % of capacity, ghost sized to M).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] when the grid is empty, contains a zero, or
    /// has more than 32 points.
    pub fn new(capacities: &[u64], ids: &Arc<DenseIds>) -> Result<Self, CacheError> {
        Self::with_config(capacities, S3FifoConfig::default(), ids)
    }

    /// Creates one S3-FIFO lane per grid capacity with explicit queue
    /// ratios, deriving each lane's S/M/ghost split exactly like the
    /// single-capacity dense policy.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] for an invalid grid (see [`Self::new`]) or a
    /// `small_ratio` outside `(0, 1)`.
    pub fn with_config(
        capacities: &[u64],
        cfg: S3FifoConfig,
        ids: &Arc<DenseIds>,
    ) -> Result<Self, CacheError> {
        validate_turbo_grid(capacities)?;
        if !(cfg.small_ratio > 0.0 && cfg.small_ratio < 1.0) {
            return Err(CacheError::InvalidParameter(format!(
                "small_ratio must be in (0,1), got {}",
                cfg.small_ratio
            )));
        }
        Ok(MrcTurboS3Fifo {
            mask: lane_mask(capacities.len()),
            hdr: cache_ds::huge::filled(ids.len(), SlotHdr::default()),
            lanes: capacities
                .iter()
                .map(|&capacity| {
                    let s_capacity =
                        ((capacity as f64 * cfg.small_ratio).round() as u64).max(1);
                    let m_capacity = capacity.saturating_sub(s_capacity).max(1);
                    // As many ghost entries as M holds (§4.1).
                    let ghost_cap = m_capacity;
                    let [small, main, ghost] =
                        S3Lane::bounds(capacity, m_capacity, ghost_cap, ids.len());
                    S3Lane {
                        capacity,
                        s_capacity,
                        m_capacity,
                        ghost_cap,
                        small: VecDeque::with_capacity(small),
                        main: VecDeque::with_capacity(main),
                        ghost: cache_ds::huge::filled(ids.len().div_ceil(64), 0),
                        ghost_fifo: VecDeque::with_capacity(ghost),
                        ghost_used: 0,
                        ghost_hits: 0,
                        misses: 0,
                        evictions: 0,
                    }
                })
                .collect(),
            cfg,
            gets: 0,
        })
    }

    /// Warms the slot's header for a request arriving shortly.
    #[inline]
    fn prefetch(&self, slot: u32) {
        prefetch_read(&self.hdr, slot as usize);
    }

    /// One request's worth of work — the slot is all a pure-`Get`
    /// unit-size request carries. Kept out of line: with the three-queue
    /// miss path inlined into the replay loop a 32-point curve measured
    /// ~3 % slower (2 M and 4 M request Zipf traces, alternating runs).
    #[inline(never)]
    fn step(&mut self, slot: u32) {
        self.gets += 1;
        let h = &mut self.hdr[slot as usize];
        h.acc += 1;
        let a = h.acc;
        let mut miss = !h.res & self.mask;
        let (hdr, lanes) = (&mut self.hdr, &mut self.lanes);
        while miss != 0 {
            let lane = miss.trailing_zeros() as usize;
            miss &= miss - 1;
            lanes[lane].insert(hdr, 1u32 << lane, slot, a);
        }
    }
}

impl MultiCapacityPolicy for MrcTurboS3Fifo {
    fn name(&self) -> String {
        format!("S3-FIFO({:.2})", self.cfg.small_ratio)
    }

    fn lane_stats(&self) -> Vec<PolicyStats> {
        self.lanes
            .iter()
            .map(|l| PolicyStats {
                gets: self.gets,
                misses: l.misses,
                evictions: l.evictions,
                get_bytes: self.gets,
                miss_bytes: l.misses,
            })
            .collect()
    }

    fn validate(&self) -> Result<(), String> {
        for (lane, l) in self.lanes.iter().enumerate() {
            let bit = 1u32 << lane;
            // No small/main-capacity assertions — single-object trims can
            // overshoot transiently, matching the dense policy.
            if (l.small.len() + l.main.len()) as u64 > l.capacity {
                return Err(format!(
                    "turbo S3-FIFO lane {lane}: {} queued entries exceed capacity {}",
                    l.small.len() + l.main.len(),
                    l.capacity
                ));
            }
            let built = S3Lane::bounds(l.capacity, l.m_capacity, l.ghost_cap, self.hdr.len());
            let rooms = [
                l.small.capacity(),
                l.main.capacity(),
                l.ghost_fifo.capacity(),
            ];
            for ((queue, room), built) in ["S", "M", "ghost FIFO"].into_iter().zip(rooms).zip(built)
            {
                check_room("S3-FIFO", lane, queue, room, built)?;
            }
            let mut seen = vec![false; self.hdr.len()];
            for &e in l.small.iter().chain(&l.main) {
                let (slot, s) = (e.slot, e.slot as usize);
                if seen[s] {
                    return Err(format!("turbo S3-FIFO lane {lane}: slot {s} queued twice"));
                }
                seen[s] = true;
                if self.hdr[s].res & bit == 0 {
                    return Err(format!(
                        "turbo S3-FIFO lane {lane}: slot {s} queued but not marked resident"
                    ));
                }
                if l.ghost_marked(slot) {
                    return Err(format!(
                        "turbo S3-FIFO lane {lane}: slot {s} both resident and ghost-marked"
                    ));
                }
                check_base("S3-FIFO", lane, e, self.hdr[s].acc)?;
            }
            let marked = self.hdr.iter().filter(|h| h.res & bit != 0).count();
            if marked != l.small.len() + l.main.len() {
                return Err(format!(
                    "turbo S3-FIFO lane {lane}: {marked} resident marks vs {} queued",
                    l.small.len() + l.main.len()
                ));
            }
            if l.ghost_used != l.ghost_fifo.len() as u64 {
                return Err(format!(
                    "turbo S3-FIFO lane {lane}: ghost_used {} vs {} ghost entries",
                    l.ghost_used,
                    l.ghost_fifo.len()
                ));
            }
            if l.ghost_used > l.ghost_cap {
                return Err(format!(
                    "turbo S3-FIFO lane {lane}: ghost charge {} exceeds cap {}",
                    l.ghost_used, l.ghost_cap
                ));
            }
            let ghost_marked: u32 = l.ghost.iter().map(|w| w.count_ones()).sum();
            if ghost_marked as usize > l.ghost_fifo.len() {
                return Err(format!(
                    "turbo S3-FIFO lane {lane}: {ghost_marked} ghost marks vs {} entries",
                    l.ghost_fifo.len()
                ));
            }
        }
        Ok(())
    }

    impl_slot_replay!();
}

#[cfg(test)]
mod tests {
    use super::super::super::{DenseClock, DenseS3Fifo, DenseSieve};
    use super::*;
    use cache_types::{Op, Request};
    use s3fifo::dense::DensePolicy;

    const GRID: [u64; 8] = [1, 2, 3, 5, 9, 9, 17, 40];

    /// A skewed pure-`Get` unit-size stream with its interned slot sequence.
    fn workload(len: usize, universe: u64) -> (Vec<Request>, Vec<u32>, Arc<DenseIds>) {
        let mut state = 0xB5E1_77A9_21C4_D30Fu64;
        let mut reqs = Vec::with_capacity(len);
        for t in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let roll = state >> 33;
            let id = if roll.is_multiple_of(2) {
                roll % (universe / 8).max(1)
            } else {
                roll % universe
            };
            reqs.push(Request {
                time: t as u64,
                id,
                size: 1,
                op: Op::Get,
            });
        }
        let (ids, slots) = DenseIds::intern(reqs.iter().map(|r| r.id));
        (reqs, slots, Arc::new(ids))
    }

    /// Replays `turbo` and, per grid point, a fresh single-capacity dense
    /// policy, asserting identical statistics and the same name.
    fn assert_matches_dense<P, F>(turbo: &mut dyn MultiCapacityPolicy, grid: &[u64], build: F)
    where
        P: DensePolicy,
        F: Fn(u64) -> P,
    {
        let (reqs, slots, _) = workload(6_000, 120);
        turbo.replay(&slots);
        turbo.validate().expect("turbo invariants hold");
        // Invariant: validate only fails on an engine bug this test exists
        // to catch.
        let lanes = turbo.lane_stats();
        for (lane, &cap) in grid.iter().enumerate() {
            let mut dense = build(cap);
            dense.replay(&slots, &reqs, true, &mut |_, _| {});
            assert_eq!(lanes[lane], dense.stats(), "capacity {cap}");
            assert_eq!(turbo.name(), dense.name());
        }
    }

    #[test]
    fn turbo_clock_matches_per_capacity_dense() {
        for bits in [1u8, 2] {
            let (_, _, ids) = workload(6_000, 120);
            let mut turbo = MrcTurboClock::new(&GRID, bits, &ids).expect("valid grid");
            // Invariant: GRID is non-empty, zero-free, and at most 32 points.
            assert_matches_dense(&mut turbo, &GRID, |cap| {
                DenseClock::with_domain(cap, bits, ids.len()).expect("capacity > 0")
                // Invariant: every GRID capacity is positive.
            });
        }
    }

    #[test]
    fn turbo_sieve_matches_per_capacity_dense() {
        let (_, _, ids) = workload(6_000, 120);
        let mut turbo = MrcTurboSieve::new(&GRID, &ids).expect("valid grid");
        // Invariant: GRID is non-empty, zero-free, and at most 32 points.
        assert_matches_dense(&mut turbo, &GRID, |cap| {
            DenseSieve::with_domain(cap, ids.len()).expect("capacity > 0")
            // Invariant: every GRID capacity is positive.
        });
    }

    #[test]
    fn turbo_s3fifo_matches_per_capacity_dense() {
        for ratio in [0.1f64, 0.25] {
            let cfg = S3FifoConfig { small_ratio: ratio };
            let (_, _, ids) = workload(6_000, 120);
            let mut turbo =
                MrcTurboS3Fifo::with_config(&GRID, cfg, &ids).expect("valid grid");
            // Invariant: GRID is non-empty, zero-free, and at most 32 points.
            assert_matches_dense(&mut turbo, &GRID, |cap| {
                DenseS3Fifo::with_config_domain(cap, cfg, ids.len()).expect("capacity > 0")
                // Invariant: every GRID capacity is positive.
            });
        }
    }

    /// A full grid sets every bit of the residency word: no lane's mask is
    /// computed as `1 << 32`, and the top lane is as exact as the bottom.
    #[test]
    fn a_full_word_of_lanes_matches_per_capacity_dense() {
        let grid: Vec<u64> = (1..=MAX_TURBO_LANES as u64).map(|i| i * 3).collect();
        let (_, _, ids) = workload(6_000, 120);
        // Invariant (all six): the grid is 32 positive points.
        let mut clock = MrcTurboClock::new(&grid, 2, &ids).expect("valid grid");
        assert_matches_dense(&mut clock, &grid, |cap| {
            DenseClock::with_domain(cap, 2, ids.len()).expect("capacity > 0")
        });
        let mut sieve = MrcTurboSieve::new(&grid, &ids).expect("valid grid");
        assert_matches_dense(&mut sieve, &grid, |cap| {
            DenseSieve::with_domain(cap, ids.len()).expect("capacity > 0")
        });
        let mut s3 = MrcTurboS3Fifo::new(&grid, &ids).expect("valid grid");
        assert_matches_dense(&mut s3, &grid, |cap| {
            DenseS3Fifo::with_domain(cap, ids.len()).expect("capacity > 0")
        });
    }

    /// The ghost's quirk, pinned by hand at capacity 4 (S 1, M 3, ghost 3):
    /// a ghost hit leaves its entry charged, and when that stale entry is
    /// popped it clears the mark of the slot's newer entry, so the slot's
    /// next miss goes to S, not M — as in `DenseS3Fifo`.
    #[test]
    fn a_stale_ghost_entry_clears_the_newer_mark() {
        const X: u32 = 0;
        let ids: Vec<u64> = "x a b c d x b b c c d d e x f g x h i x"
            .split(' ')
            .map(|n| u64::from(n.as_bytes()[0]))
            .collect();
        let reqs: Vec<Request> = (0..).zip(&ids).map(|(t, &id)| Request::get(id, t)).collect();
        let (dense_ids, slots) = DenseIds::intern(ids.iter().copied());
        let dense_ids = Arc::new(dense_ids);
        let mut turbo = MrcTurboS3Fifo::new(&[4], &dense_ids).expect("valid grid");
        // Invariant: a one-point grid of a positive capacity is valid.
        let run = |turbo: &mut MrcTurboS3Fifo, from: usize, to: usize| {
            turbo.replay(&slots[from..to]);
            turbo.validate().expect("turbo invariants hold");
            // Invariant: validate only fails on an engine bug.
        };
        let in_small = |t: &MrcTurboS3Fifo| t.lanes[0].small.iter().any(|e| e.slot == X);
        let in_main = |t: &MrcTurboS3Fifo| t.lanes[0].main.iter().any(|e| e.slot == X);
        let entries = |t: &MrcTurboS3Fifo| {
            t.lanes[0].ghost_fifo.iter().filter(|&&s| s == X).count()
        };

        // x a b c d: x is evicted from S into the ghost.
        run(&mut turbo, 0, 5);
        assert!(turbo.lanes[0].ghost_marked(X) && !in_small(&turbo));
        // x: a ghost hit takes it to M; its ghost entry stays charged.
        run(&mut turbo, 5, 6);
        assert!(in_main(&turbo) && !turbo.lanes[0].ghost_marked(X));
        assert_eq!((entries(&turbo), turbo.lanes[0].ghost_hits), (1, 1));
        // b b c c d d e: three promotions overflow M, and x leaves it.
        run(&mut turbo, 6, 13);
        assert!(!in_main(&turbo) && !in_small(&turbo));
        // x: unmarked, so it re-enters S.
        run(&mut turbo, 13, 14);
        assert!(in_small(&turbo));
        // f g: x is evicted from S again; the newer entry pushes the stale
        // one out, and popping it clears the newer entry's mark.
        run(&mut turbo, 14, 16);
        assert_eq!(entries(&turbo), 1);
        assert!(!turbo.lanes[0].ghost_marked(X));
        // x: no ghost hit, so its next miss goes to S...
        run(&mut turbo, 16, 17);
        assert!(in_small(&turbo) && !in_main(&turbo));
        assert_eq!(turbo.lanes[0].ghost_hits, 1);
        // h i x: ...where two misses evict it, so x misses once more (in M
        // it would have hit), and the counters below tell the two apart.
        run(&mut turbo, 17, 20);
        assert!(in_small(&turbo));
        assert_eq!(turbo.lane_stats()[0].misses, 14);

        let mut dense = DenseS3Fifo::with_domain(4, dense_ids.len()).expect("capacity > 0");
        // Invariant: capacity 4 is positive.
        dense.replay(&slots, &reqs, true, &mut |_, _| {});
        assert_eq!(turbo.lane_stats()[0], dense.stats());
    }

    #[test]
    fn rejects_degenerate_grids_and_configs() {
        let (_, _, ids) = workload(10, 4);
        assert!(MrcTurboClock::new(&[], 1, &ids).is_err());
        assert!(MrcTurboClock::new(&[4, 0], 1, &ids).is_err());
        assert!(MrcTurboClock::new(&[4], 0, &ids).is_err());
        assert!(MrcTurboSieve::new(&vec![1u64; 65], &ids).is_err());
        assert!(MrcTurboS3Fifo::new(&vec![1u64; 33], &ids).is_err());
        assert!(
            MrcTurboS3Fifo::with_config(&[4], S3FifoConfig { small_ratio: 1.5 }, &ids).is_err()
        );
    }

    /// Every queue is built at the most it can hold and never reallocated:
    /// a stream that warms past capacity and churns S, M and the ghost, at
    /// capacities below, at and above the slot count.
    #[test]
    fn queues_keep_the_room_they_were_built_with() {
        let (_, slots, ids) = workload(6_000, 120);
        let grid = [1, 2, 7, 30, 119, ids.len() as u64, 500];
        // Invariant (all three): the grid is seven positive points.
        let mut s3 = MrcTurboS3Fifo::new(&grid, &ids).expect("valid grid");
        let mut clock = MrcTurboClock::new(&grid, 2, &ids).expect("valid grid");
        let mut sieve = MrcTurboSieve::new(&grid, &ids).expect("valid grid");
        let s3_rooms = |t: &MrcTurboS3Fifo| -> Vec<[usize; 3]> {
            let rooms = |l: &S3Lane| {
                [l.small.capacity(), l.main.capacity(), l.ghost_fifo.capacity()]
            };
            t.lanes.iter().map(rooms).collect()
        };
        let clock_rooms = |t: &MrcTurboClock| -> Vec<usize> {
            t.lanes.iter().map(|l| l.ring.capacity()).collect()
        };
        let sieve_rooms = |t: &MrcTurboSieve| -> Vec<usize> {
            t.lanes.iter().map(|l| l.buf.capacity()).collect()
        };
        let built = (s3_rooms(&s3), clock_rooms(&clock), sieve_rooms(&sieve));
        for engine in [&mut s3 as &mut dyn MultiCapacityPolicy, &mut clock, &mut sieve] {
            engine.replay(&slots);
            engine.validate().expect("turbo invariants hold");
            // Invariant: validate only fails on an engine bug.
        }
        assert_eq!(built, (s3_rooms(&s3), clock_rooms(&clock), sieve_rooms(&sieve)));
        for (l, &cap) in s3.lanes.iter().zip(&grid) {
            if cap < ids.len() as u64 {
                // Ghost hits enter M, and M ends full: it has been trimmed.
                assert!(l.evictions > 0 && l.ghost_hits > 0, "capacity {cap} churns");
                assert!(cap == 1 || l.main.len() as u64 == l.m_capacity, "capacity {cap}");
            } else {
                assert_eq!((l.evictions, l.ghost_fifo.len()), (0, 0), "capacity {cap}");
            }
        }
    }

    /// Duplicate and unsorted grid entries stay independent lanes.
    #[test]
    fn duplicate_lanes_agree() {
        let (_, slots, ids) = workload(2_000, 64);
        let mut turbo = MrcTurboSieve::new(&[9, 3, 9, 1], &ids).expect("valid grid");
        // Invariant: the grid above is non-empty, zero-free, and small.
        turbo.replay(&slots);
        let lanes = turbo.lane_stats();
        assert_eq!(lanes[0], lanes[2], "duplicate capacities agree");
        assert!(lanes[3].misses >= lanes[1].misses);
    }
}
