//! The relabelling law: a policy that decides on what happened to objects,
//! not on what they are called, replays a trace whose ids went through a
//! bijection exactly as it replays the original — equal stats, and the same
//! evictions under the mapping.
//!
//! Every registry name is checked on the pre-interned door, which numbers
//! ids by first appearance, so the relabelled trace replays over the very
//! same slot sequence: only a policy that reads the id itself can tell the
//! two traces apart. A policy that ties by slot number is caught by keyed
//! ≡ dense in `crates/sim/tests/equivalence.rs`, not here.

use cache_check::fuzz::{generate_trace, FuzzConfig};
use cache_ds::{DenseIds, SplitMix64};
use cache_policies::registry::{self, ALL_ALGORITHMS};
use cache_types::{Eviction, PolicyStats, Request};
use std::collections::HashMap;

/// Names whose decisions legitimately depend on the id, with the reason.
const EXCEPTIONS: &[(&str, &str)] = &[
    ("TinyLFU", "the count-min sketch and doorkeeper hash the id"),
    (
        "TinyLFU-0.1",
        "the count-min sketch and doorkeeper hash the id",
    ),
    ("B-LRU", "the Bloom filters hash the id"),
    ("LRU-2", "equal penultimate accesses go to the smaller id"),
    (
        "Belady",
        "objects never requested again go largest id first",
    ),
];

/// What one replay leaves behind: final stats and every eviction, in order.
type Run = (PolicyStats, Vec<Eviction>);

fn dense(name: &str, capacity: u64, requests: &[Request]) -> Run {
    let (ids, slots) = DenseIds::intern(requests.iter().map(|r| r.id));
    let mut policy = registry::build_dense_domain(name, capacity, Some(&slots), ids.len())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut all = Vec::new();
    policy.replay(&slots, requests, false, &mut |_, e| {
        all.push(e.named(ids.orig(e.id)));
    });
    (policy.stats(), all)
}

/// A random bijection of the trace's ids onto a range they do not use.
fn relabelling(requests: &[Request], seed: u64) -> HashMap<u64, u64> {
    let mut ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut labels: Vec<u64> = (0..ids.len() as u64).map(|i| 1_000_000 + i).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..labels.len()).rev() {
        labels.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    ids.into_iter().zip(labels).collect()
}

/// True when `relabelled` is `original` with every evicted id mapped.
fn same_under(map: &HashMap<u64, u64>, original: &Run, relabelled: &Run) -> bool {
    let mapped: Vec<Eviction> = original
        .1
        .iter()
        .map(|e| Eviction {
            id: map[&e.id],
            ..*e
        })
        .collect();
    original.0 == relabelled.0 && mapped == relabelled.1
}

/// Every registry name, on its pre-interned door, over three fuzzed
/// traces: unit-size reads, mixed ops with sizes, and a longer one of those
/// on a clock that ticks every 32nd request (so that timestamps tie, as a
/// real trace's seconds do, and LRU-2 meets equal penultimate accesses).
/// Only the [`EXCEPTIONS`] may tell a trace from its relabelling, and each
/// of them must, so that the list stays exact.
#[test]
fn decisions_do_not_depend_on_what_ids_are_called() {
    let mut differ: Vec<(&str, u64)> = Vec::new();
    for (seed, requests, max_size, write_percent, tick) in [
        (0x7E1A_BE11, 6_000, 1, 0, 1),
        (0x7E1A_BE12, 6_000, 4, 10, 1),
        (0x7E1A_BE13, 20_000, 4, 10, 32),
    ] {
        let requests = generate_trace(&FuzzConfig {
            seed,
            requests,
            universe: 3_000,
            max_size,
            write_percent,
            requests_per_tick: tick,
        });
        let map = relabelling(&requests, seed ^ 0xB17E);
        let renamed: Vec<Request> = requests
            .iter()
            .map(|r| Request {
                id: map[&r.id],
                ..*r
            })
            .collect();
        for &name in ALL_ALGORITHMS {
            for capacity in [7u64, 300] {
                let original = dense(name, capacity, &requests);
                let relabelled = dense(name, capacity, &renamed);
                assert!(
                    !original.1.is_empty(),
                    "{name} at {capacity}: nothing evicted"
                );
                if !same_under(&map, &original, &relabelled) {
                    differ.push((name, capacity));
                }
            }
        }
    }
    for &(name, capacity) in &differ {
        assert!(
            EXCEPTIONS.iter().any(|&(n, _)| n == name),
            "{name} (capacity {capacity}) decides by id"
        );
    }
    for &(name, why) in EXCEPTIONS {
        assert!(
            differ.iter().any(|&(n, _)| n == name),
            "{name} is listed as deciding by id ({why}) but never did"
        );
    }
}
