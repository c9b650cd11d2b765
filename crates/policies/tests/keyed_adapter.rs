//! What the `Keyed` adapter owes its long-lived callers (the server's flash
//! cache: its LRU or FIFO DRAM tier and its FIFO device,
//! `cache_flash::FlashTier`): a ghostless policy's table bounded by what is
//! resident, and requests that cannot admit anything leaving nothing
//! behind.

use cache_policies::{
    DenseArc, DenseBelady, DenseBloomLru, DenseCacheus, DenseClock, DenseFifo, DenseFifoMerge,
    DenseLeCar, DenseLhd, DenseLirs, DenseLru, DenseLruK, DenseS3Fifo, DenseS3FifoD, DenseSieve,
    DenseSlru, DenseTinyLfu, DenseTwoQ,
};
use cache_types::{Op, Outcome, Policy, Request};
use s3fifo::dense::{Keyed, SlabPolicy};

/// (interned ids, free slots, slab slots).
fn footprint<P: SlabPolicy>(p: &Keyed<P>) -> (usize, usize, usize) {
    (p.interned(), p.free_slots(), p.slab().domain())
}

/// A million distinct keys through a ghostless cache of 1 000 leave at most
/// `capacity` ids interned, plus two slots: the scratch slot and the one
/// the request in flight holds while it evicts.
fn table_stays_bounded<P: SlabPolicy + Send>() {
    const CAPACITY: usize = 1_000;
    assert!(P::GHOSTLESS);
    let mut p = Keyed::<P>::new(CAPACITY as u64).expect("capacity > 0");
    let mut evs = Vec::new();
    for id in 0..1_000_000u64 {
        evs.clear();
        p.request(&Request::get(id, id), &mut evs);
    }
    let (interned, free, slots) = footprint(&p);
    assert!(interned <= CAPACITY, "{}: {interned} ids interned", p.name());
    assert!(slots <= CAPACITY + 2, "{}: slab grew to {slots} slots", p.name());
    assert_eq!(interned + free + 1, slots);
    p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name()));
}

#[test]
fn a_million_distinct_keys_leave_a_bounded_table() {
    table_stays_bounded::<DenseFifo>();
    table_stays_bounded::<DenseLru>();
    table_stays_bounded::<DenseClock>();
    table_stays_bounded::<DenseSieve>();
    table_stays_bounded::<DenseSlru>();
    table_stays_bounded::<DenseTinyLfu>();
    table_stays_bounded::<DenseLruK>();
    table_stays_bounded::<DenseBloomLru>();
    table_stays_bounded::<DenseLhd>();
    table_stays_bounded::<DenseBelady>();
}

/// A `Delete` of a never-seen id, an uncacheable `Get` and a `Set` larger
/// than the cache change neither the map, the free list nor the slab — on a
/// fresh cache (empty free list) and on a warm one.
fn noops_leave_nothing_behind<P: SlabPolicy + Send>() {
    let mut p = Keyed::<P>::new(10).expect("capacity > 0");
    let mut evs = Vec::new();
    for warm in [false, true] {
        if warm {
            for id in 0..50u64 {
                p.request(&Request::get(id, id), &mut evs);
            }
        }
        let before = footprint(&p);
        let stats = p.stats();
        let oversized = |op| Request {
            id: 7_777,
            size: 11,
            time: 100,
            op,
        };
        assert_eq!(p.request(&Request::delete(7_777, 100), &mut evs), Outcome::NotRead);
        assert_eq!(p.request(&oversized(Op::Get), &mut evs), Outcome::Uncacheable);
        assert_eq!(p.request(&oversized(Op::Set), &mut evs), Outcome::NotRead);
        assert_eq!(footprint(&p), before, "{} (warm: {warm})", p.name());
        assert!(!p.contains(7_777));
        // The uncacheable read is still a counted miss.
        assert_eq!(p.stats().misses, stats.misses + 1);
        p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name()));
    }
}

#[test]
fn requests_that_admit_nothing_leave_nothing_behind() {
    noops_leave_nothing_behind::<DenseS3Fifo>();
    noops_leave_nothing_behind::<DenseTwoQ>();
    noops_leave_nothing_behind::<DenseFifo>();
    noops_leave_nothing_behind::<DenseArc>();
    noops_leave_nothing_behind::<DenseLirs>();
    noops_leave_nothing_behind::<DenseTinyLfu>();
    noops_leave_nothing_behind::<DenseLruK>();
    noops_leave_nothing_behind::<DenseBloomLru>();
    noops_leave_nothing_behind::<DenseLeCar>();
    noops_leave_nothing_behind::<DenseCacheus>();
    noops_leave_nothing_behind::<DenseLhd>();
    noops_leave_nothing_behind::<DenseFifoMerge>();
    noops_leave_nothing_behind::<DenseS3FifoD>();
    noops_leave_nothing_behind::<DenseLru>();
    noops_leave_nothing_behind::<DenseClock>();
    noops_leave_nothing_behind::<DenseSieve>();
    noops_leave_nothing_behind::<DenseSlru>();
    noops_leave_nothing_behind::<DenseBelady>();
}
