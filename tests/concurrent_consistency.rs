//! §5.3: "we verified that the miss ratio results from the prototype are
//! consistent with the simulator" — the same check, in miniature: drive the
//! concurrent S3-FIFO single-threaded with the simulation policy's workload
//! and compare hit counts.

use bytes::Bytes;
use cache_concurrent::s3fifo::ConcurrentS3Fifo;
use cache_concurrent::ConcurrentCache;
use cache_trace::gen::WorkloadSpec;
use cache_types::{Policy, Request};

#[test]
fn prototype_miss_ratio_tracks_simulator() {
    let trace = WorkloadSpec::zipf("consistency", 200_000, 10_000, 1.0, 77).generate();
    let capacity = 1000u64;

    let mut sim = s3fifo::S3Fifo::new(capacity).expect("capacity > 0");
    let mut evs = Vec::new();
    for r in trace.iter() {
        evs.clear();
        sim.request(&Request::get(r.id, r.time), &mut evs);
    }
    let sim_mr = sim.stats().miss_ratio();

    let proto = ConcurrentS3Fifo::new(capacity as usize);
    let mut hits = 0u64;
    for r in trace.iter() {
        if proto.get(r.id).is_some() {
            hits += 1;
        } else {
            proto.insert(r.id, Bytes::from_static(b"x"));
        }
    }
    let proto_mr = 1.0 - hits as f64 / trace.len() as f64;

    // The prototype uses a fingerprint ghost and count-based accounting, so
    // small deviations are expected; gross divergence is a bug.
    assert!(
        (proto_mr - sim_mr).abs() < 0.03,
        "prototype MR {proto_mr:.4} vs simulator MR {sim_mr:.4}"
    );
}

#[test]
fn prototype_hit_ratio_improves_with_capacity() {
    let trace = WorkloadSpec::zipf("cap-sweep", 100_000, 10_000, 1.0, 78).generate();
    let mut last_mr = 1.1;
    for capacity in [100usize, 1000, 5000] {
        let proto = ConcurrentS3Fifo::new(capacity);
        let mut hits = 0u64;
        for r in trace.iter() {
            if proto.get(r.id).is_some() {
                hits += 1;
            } else {
                proto.insert(r.id, Bytes::from_static(b"x"));
            }
        }
        let mr = 1.0 - hits as f64 / trace.len() as f64;
        assert!(
            mr < last_mr,
            "MR must fall with capacity: {mr:.4} at {capacity}"
        );
        last_mr = mr;
    }
}
