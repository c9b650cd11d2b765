//! Ghost tombstones, walked by hand through all three doors.
//!
//! A ghost hit leaves its FIFO entry behind as a tombstone; when the
//! tombstone reaches the front it clears whatever mark its slot carries
//! *then*. These hand-written sequences ghost-hit an id, evict it while its
//! tombstone is still queued, admit new ids, let the tombstone pop, and then
//! ask for every new id the ghost holds — one of which would lose its mark
//! if a slot named by the tombstone had gone to it. The keyed adapter, the
//! pre-interned dense policy and the reference interpreter are compared
//! after every request, and a ghost-keeping policy's keyed table must still
//! hold the ghost-hit id's slot once its object is gone.
//!
use cache_check::{diff_run, reference_for};
use cache_ds::DenseIds;
use cache_policies::registry::build_dense_domain;
use cache_policies::TwoQ;
use cache_types::{Op, Policy, Request};
use s3fifo::dense::{Keyed, SlabPolicy};
use s3fifo::S3Fifo;

/// Builds requests with consecutive timestamps.
#[derive(Default)]
struct Script(Vec<Request>);

impl Script {
    fn push(&mut self, id: u64, size: u32, op: Op) {
        let time = self.0.len() as u64;
        self.0.push(Request { id, size, time, op });
    }

    fn get(&mut self, ids: impl IntoIterator<Item = u64>) {
        for id in ids {
            self.push(id, 1, Op::Get);
        }
    }

    fn delete(&mut self, ids: impl IntoIterator<Item = u64>) {
        for id in ids {
            self.push(id, 1, Op::Delete);
        }
    }

    /// The number of requests so far: a checkpoint to replay up to.
    fn mark(&self) -> usize {
        self.0.len()
    }
}

/// Replays `script` through reference, `keyed` and pre-interned dense in
/// lockstep, stopping at each checkpoint to let `inspect` look at the
/// adapter (`inspect(checkpoint index, &keyed)`).
fn lockstep<P: SlabPolicy + Send>(
    name: &str,
    capacity: u64,
    mut keyed: Keyed<P>,
    script: &Script,
    checkpoints: &[usize],
    mut inspect: impl FnMut(usize, &Keyed<P>),
) {
    let requests = &script.0;
    let mut reference = reference_for(name, capacity).expect("reference exists");
    let (ids, slots) = DenseIds::intern(requests.iter().map(|r| r.id));
    let mut dense = build_dense_domain(name, capacity, None, ids.len()).expect("valid capacity");
    let mut from = 0;
    for (i, &to) in checkpoints.iter().chain([requests.len()].iter()).enumerate() {
        let diverged = diff_run(
            &mut reference,
            &mut keyed,
            dense.as_mut(),
            &ids,
            &slots[from..to],
            &requests[from..to],
        );
        assert_eq!(diverged, None, "{name}: requests {from}..{to}");
        if i < checkpoints.len() {
            inspect(i, &keyed);
        }
        from = to;
    }
}

#[test]
fn s3fifo_keeps_a_slot_until_its_tombstone_pops() {
    // Capacity 10: |S| = 1, |M| = 9, G holds 9 bytes. `A` is id 1.
    let mut s = Script::default();
    s.get(1..=10); // S holds 1..=10
    s.get([11]); // evicts 1: G = [1]
    s.get([1]); // ghost hit: 1 → M, G = [†1, 2], S = 11, 10..=3
    s.delete(3..=11); // S empty, M = [1]
    s.push(20, 10, Op::Get); // needs the whole cache: evicts 1 from M
    let a_evicted = s.mark();
    s.delete([20]);
    s.get([30]);
    s.get(40..=48); // S = 48..=40, 30; the cache is full
    s.get([50]); // evicts 30: G = [†1, 2, 30]
    s.get(51..=56); // evicts 40..=45: G is full, †1 at the front
    let tombstone_queued = s.mark();
    s.get([57]); // evicts 46; †1 pops: G = [2, 30, 40..=46]
    let tombstone_popped = s.mark();
    s.get([30]); // every new id in G is a ghost hit, whichever slot it
    s.get(40..=46); // was given: straight into M
    s.get(60..=75); // a scan flushes S; M is untouched
    let scanned = s.mark();
    s.get([30]); // all hits — one a miss, had †1's pop cleared the mark
    s.get(40..=46); // of the id that took its slot

    let keyed = S3Fifo::new(10).expect("capacity > 0");
    lockstep(
        "S3-FIFO",
        10,
        keyed,
        &s,
        &[a_evicted, tombstone_queued, tombstone_popped, scanned],
        |at, keyed| match at {
            0..=2 => assert!(
                !keyed.contains(1) && keyed.slot_of(1).is_some(),
                "id 1 is gone, and no other id may take its slot"
            ),
            _ => assert!(
                [30, 40, 46].iter().all(|&id| keyed.contains(id)),
                "the ghost hits sit out the scan in M"
            ),
        },
    );
}

#[test]
fn twoq_keeps_a_slot_until_its_a1out_tombstone_pops() {
    // Capacity 8: Kin = 2, A1out holds 4 bytes. `A` is id 1.
    let mut s = Script::default();
    s.get(1..=8); // A1in holds 1..=8
    s.get([11]); // evicts 1: A1out = [1]
    s.get([1]); // A1out hit: 1 → Am, A1out = [†1, 2], A1in = 11, 8..=3
    s.delete(3..=8); // A1in = [11], under Kin: the next eviction takes Am
    s.push(20, 7, Op::Get); // evicts 1 from Am
    let a_evicted = s.mark();
    s.delete([20]);
    s.get([30]);
    s.get(40..=45); // A1in = 45..=40, 30, 11; the cache is full
    s.get([50]); // evicts 11: A1out = [†1, 2, 11]
    s.get([51]); // evicts 30: A1out is full, †1 at the front
    let tombstone_queued = s.mark();
    s.get([52]); // evicts 40; †1 pops: A1out = [2, 11, 30, 40]
    let tombstone_popped = s.mark();
    s.get([30, 40]); // both new ids in A1out hit it, whichever slot they
    s.get(60..=75); // were given: straight into Am, which a scan leaves be
    let scanned = s.mark();
    s.get([30, 40]); // hits — one a miss, had †1's pop cleared its mark

    let keyed = TwoQ::new(8).expect("capacity > 0");
    lockstep(
        "2Q",
        8,
        keyed,
        &s,
        &[a_evicted, tombstone_queued, tombstone_popped, scanned],
        |at, keyed| match at {
            0..=2 => assert!(
                !keyed.contains(1) && keyed.slot_of(1).is_some(),
                "id 1 is gone, and no other id may take its slot"
            ),
            _ => assert!(
                keyed.contains(30) && keyed.contains(40),
                "the A1out hits sit out the scan in Am"
            ),
        },
    );
}
