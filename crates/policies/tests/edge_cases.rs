//! Edge-case battery run against every algorithm in the registry: tiny
//! capacities, oversized objects, deletes, overwrites, and empty traces
//! must never panic or violate capacity.

use cache_policies::registry::{build, ALL_ALGORITHMS};
use cache_types::{Eviction, Op, Request};

/// Every eviction record names a real object, which has a size: a record
/// of size 0 would undercount a byte miss ratio or a flash write.
fn sized_evictions(name: &str, evs: &[Eviction]) {
    for e in evs {
        assert!(e.size > 0, "{name}: evicted id {} with size 0", e.id);
    }
}

fn drive(name: &str, capacity: u64, reqs: &[Request]) {
    let mut p = build(name, capacity, Some(reqs)).expect("buildable");
    let mut evs = Vec::new();
    for r in reqs {
        evs.clear();
        p.request(r, &mut evs);
        assert!(
            p.used() <= capacity,
            "{name}: used {} > capacity {capacity}",
            p.used()
        );
        sized_evictions(name, &evs);
        for e in &evs {
            assert!(
                !p.contains(e.id),
                "{name}: evicted id {} still present",
                e.id
            );
        }
    }
}

#[test]
fn capacity_one() {
    let reqs: Vec<Request> = (0..200u64).map(|i| Request::get(i % 7, i)).collect();
    for name in ALL_ALGORITHMS {
        drive(name, 1, &reqs);
    }
}

#[test]
fn capacity_two_with_repeats() {
    let reqs: Vec<Request> = (0..300u64).map(|i| Request::get(i % 3, i)).collect();
    for name in ALL_ALGORITHMS {
        drive(name, 2, &reqs);
    }
}

#[test]
fn oversized_objects_are_rejected_not_fatal() {
    let mut reqs = Vec::new();
    for i in 0..100u64 {
        // Alternate cacheable and oversized objects.
        let size = if i % 2 == 0 { 2 } else { 100 };
        reqs.push(Request::get_sized(i, size, i));
    }
    for name in ALL_ALGORITHMS {
        let mut p = build(name, 10, Some(&reqs)).expect("buildable");
        let mut evs = Vec::new();
        for r in &reqs {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.used() <= 10, "{name}: oversized object admitted");
            sized_evictions(name, &evs);
        }
    }
}

#[test]
fn deletes_interleaved_with_gets() {
    let mut reqs = Vec::new();
    let mut t = 0u64;
    for round in 0..50u64 {
        for i in 0..10u64 {
            reqs.push(Request::get(round * 10 + i, t));
            t += 1;
        }
        for i in 0..5u64 {
            reqs.push(Request::delete(round * 10 + i, t));
            t += 1;
        }
    }
    for name in ALL_ALGORITHMS {
        let mut p = build(name, 20, Some(&reqs)).expect("buildable");
        let mut evs = Vec::new();
        for r in &reqs {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.used() <= 20, "{name}: over capacity with deletes");
            sized_evictions(name, &evs);
        }
    }
}

#[test]
fn sets_overwrite_with_new_sizes() {
    let mut reqs = Vec::new();
    for i in 0..200u64 {
        let id = i % 9;
        let size = 1 + (i % 4) as u32;
        reqs.push(Request {
            id,
            size,
            time: i,
            op: Op::Set,
        });
    }
    for name in ALL_ALGORITHMS {
        let mut p = build(name, 12, Some(&reqs)).expect("buildable");
        let mut evs = Vec::new();
        for r in &reqs {
            evs.clear();
            p.request(r, &mut evs);
            assert!(p.used() <= 12, "{name}: over capacity with sets");
            sized_evictions(name, &evs);
        }
    }
}

#[test]
fn empty_trace_is_fine() {
    for name in ALL_ALGORITHMS {
        let p = build(name, 10, Some(&[])).expect("buildable");
        assert_eq!(p.len(), 0);
        assert_eq!(p.used(), 0);
        assert!(p.is_empty());
    }
}

#[test]
fn stats_are_consistent_for_every_algorithm() {
    let reqs: Vec<Request> = (0..5000u64)
        .map(|i| Request::get((i * i) % 400, i))
        .collect();
    for name in ALL_ALGORITHMS {
        let mut p = build(name, 50, Some(&reqs)).expect("buildable");
        let stats = cache_types::policy::run_trace(p.as_mut(), &reqs);
        assert_eq!(stats.gets, 5000, "{name}");
        assert!(stats.misses <= stats.gets, "{name}");
        assert!(
            stats.miss_ratio() > 0.0 && stats.miss_ratio() <= 1.0,
            "{name}"
        );
        assert_eq!(stats.get_bytes, 5000, "{name}");
    }
}
