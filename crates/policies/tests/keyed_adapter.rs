//! What the `Keyed` adapter owes its long-lived callers (the flash cache's
//! DRAM tier and its FIFO device, `cache_flash::FlashTier`): a table bounded
//! by what the policy can still look at, and requests that cannot admit
//! anything leaving nothing behind.

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

/// A million distinct keys through a cache of 1 000 leave at most
/// `capacity + ghost` ids interned, plus two slots: the scratch slot and the
/// one the request in flight holds while it evicts.
fn table_stays_bounded<P: SlabPolicy + Send>(ghost_entries: usize) {
    const CAPACITY: usize = 1_000;
    let mut p = Keyed::<P>::new(CAPACITY as u64).expect("capacity > 0");
    let mut evs = Vec::new();
    for id in 0..1_000_000u64 {
        evs.clear();
        p.request(&Request::get(id, id), &mut evs);
    }
    let (interned, free, slots) = footprint(&p);
    let bound = CAPACITY + ghost_entries;
    assert!(interned <= bound, "{}: {interned} ids interned", p.name());
    assert!(slots <= bound + 2, "{}: slab grew to {slots} slots", p.name());
    assert_eq!(interned + free + 1, slots);
    p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name()));
}

#[test]
fn a_million_distinct_keys_leave_a_bounded_table() {
    table_stays_bounded::<DenseS3Fifo>(900); // G holds as many entries as M
    table_stays_bounded::<DenseTwoQ>(500); // A1out: half the cache
    table_stays_bounded::<DenseFifo>(0);
    table_stays_bounded::<DenseArc>(2_000); // B1 and B2: the cache's bytes each
    table_stays_bounded::<DenseLirs>(3_000); // S's non-resident blocks: 3× the cache
    table_stays_bounded::<DenseTinyLfu>(0);
    table_stays_bounded::<DenseLruK>(0);
    table_stays_bounded::<DenseBloomLru>(0);
    table_stays_bounded::<DenseLeCar>(2_000); // two histories: the cache's bytes each
    table_stays_bounded::<DenseCacheus>(1_000); // two histories: half the cache each
    table_stays_bounded::<DenseLhd>(0);
    table_stays_bounded::<DenseFifoMerge>(0); // no delete leaves a segment entry behind
    table_stays_bounded::<DenseS3FifoD>(900); // as S3-FIFO: no key returns, the split stays
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
