//! Seeded differential fuzzer: reference vs keyed vs dense, with shrinking.
//!
//! For every policy that has a reference interpreter
//! ([`crate::reference::reference_for`]) the fuzzer replays a generated
//! request stream simultaneously through the reference, the registry's
//! keyed policy (the slab policy behind the interning `Keyed` adapter,
//! which reuses a ghostless policy's slots — the universe is far larger
//! than the capacities, so they do get reused) and the same slab policy
//! driven with pre-interned slots, comparing after **every** request:
//!
//! - the [`Outcome`](cache_types::Outcome),
//! - the exact sequence of [`Eviction`] records (ids, sizes, timestamps,
//!   hit counts, probationary flags),
//! - `used()` and `len()`,
//! - each implementation's own [`Policy::validate`] /
//!   [`DensePolicy::validate`] structural invariants.
//!
//! Any divergence is shrunk with a ddmin-style pass to a minimal request
//! sequence that still reproduces it, and reported as a [`Divergence`]
//! carrying everything needed to replay the failure (`TESTING.md` explains
//! how).

use crate::reference::reference_for;
use cache_ds::{DenseIds, SplitMix64};
use cache_policies::registry;
use cache_types::{Eviction, Op, Policy, Request};
use s3fifo::dense::DensePolicy;

/// Parameters of one generated workload.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Seed for the request generator; a `(seed, config)` pair fully
    /// determines the trace.
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// Distinct object ids, drawn skewed (half the requests go to a hot
    /// eighth of the universe).
    pub universe: u64,
    /// Maximum object size; 1 replays the unit-size (object-count) mode.
    /// Sizes are drawn per request, not per object, deliberately exercising
    /// the hits-don't-resize convention.
    pub max_size: u32,
    /// Fraction (percent) of requests that are `Set`s; an equal share
    /// becomes `Delete`s. 0 generates a pure `Get` stream.
    pub write_percent: u64,
    /// Requests per clock tick: request `t` is stamped `t / requests_per_tick`.
    /// 1 gives every request its own time; 32 makes timestamps tie, as a
    /// real trace's seconds do, so LRU-2 meets equal penultimate accesses.
    pub requests_per_tick: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xD1FF_5EED,
            requests: 2_500,
            universe: 64,
            max_size: 4,
            write_percent: 10,
            requests_per_tick: 1,
        }
    }
}

/// A minimal reproduction of one reference/implementation disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Registry algorithm name.
    pub algorithm: String,
    /// Cache capacity the divergence occurred at.
    pub capacity: u64,
    /// The generator seed that produced the original failing trace.
    pub seed: u64,
    /// Index (into `trace`) of the request where behaviours fork.
    pub step: usize,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// The shrunk request sequence; replaying it through
    /// [`diff_run`] reproduces the divergence at `step`.
    pub trace: Vec<Request>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} @ capacity {} diverged at step {} (seed {:#x}): {}",
            self.algorithm, self.capacity, self.step, self.seed, self.detail
        )?;
        writeln!(f, "shrunk to {} requests:", self.trace.len())?;
        for (i, r) in self.trace.iter().enumerate() {
            writeln!(
                f,
                "  [{i}] {:?} id={} size={} t={}",
                r.op, r.id, r.size, r.time
            )?;
        }
        Ok(())
    }
}

/// Generates the seeded skewed request stream for `cfg`.
pub fn generate_trace(cfg: &FuzzConfig) -> Vec<Request> {
    let mut rng = SplitMix64::new(cfg.seed);
    let universe = cfg.universe.max(1);
    let hot = (universe / 8).max(1);
    let tick = cfg.requests_per_tick.max(1);
    (0..cfg.requests)
        .map(|t| {
            let id = if rng.next_below(2) == 0 {
                rng.next_below(hot)
            } else {
                rng.next_below(universe)
            };
            let size = 1 + rng.next_below(u64::from(cfg.max_size.max(1))) as u32;
            let roll = rng.next_below(100);
            let op = if roll < cfg.write_percent {
                Op::Set
            } else if roll < cfg.write_percent * 2 {
                Op::Delete
            } else {
                Op::Get
            };
            Request {
                id,
                size,
                time: t as u64 / tick,
                op,
            }
        })
        .collect()
}

fn fmt_evictions(evs: &[Eviction]) -> String {
    let items: Vec<String> = evs
        .iter()
        .map(|e| {
            format!(
                "(id={} size={} ins={} freq={} prob={})",
                e.id, e.size, e.insert_time, e.freq, e.from_probationary
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// Replays `requests` through a reference, a keyed implementation, and a
/// dense implementation, returning the first step at which any observable
/// disagrees (or any implementation fails its own `validate`).
///
/// `slots[i]` must be the dense slot of `requests[i]` in `ids`, through
/// which the dense side's records are named.
pub fn diff_run<D: DensePolicy + ?Sized>(
    reference: &mut dyn Policy,
    keyed: &mut dyn Policy,
    dense: &mut D,
    ids: &DenseIds,
    slots: &[u32],
    requests: &[Request],
) -> Option<(usize, String)> {
    let mut evs_ref: Vec<Eviction> = Vec::new();
    let mut evs_key: Vec<Eviction> = Vec::new();
    let mut by_slot: Vec<Eviction<u32>> = Vec::new();
    let mut evs_den: Vec<Eviction> = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        evs_ref.clear();
        evs_key.clear();
        by_slot.clear();
        let out_ref = reference.request(req, &mut evs_ref);
        let out_key = keyed.request(req, &mut evs_key);
        if out_key != out_ref {
            return Some((i, format!("keyed outcome {out_key:?} != reference {out_ref:?}")));
        }
        if evs_key != evs_ref {
            return Some((
                i,
                format!(
                    "keyed evictions {} != reference {}",
                    fmt_evictions(&evs_key),
                    fmt_evictions(&evs_ref)
                ),
            ));
        }
        if keyed.used() != reference.used() || keyed.len() != reference.len() {
            return Some((
                i,
                format!(
                    "keyed used/len {}/{} != reference {}/{}",
                    keyed.used(),
                    keyed.len(),
                    reference.used(),
                    reference.len()
                ),
            ));
        }
        if keyed.stats() != reference.stats() {
            return Some((
                i,
                format!(
                    "keyed stats {:?} != reference {:?}",
                    keyed.stats(),
                    reference.stats()
                ),
            ));
        }
        if let Err(e) = keyed.validate() {
            return Some((i, format!("keyed invariant violated: {e}")));
        }
        let out_den = dense.request_dense(slots[i], req, &mut by_slot);
        evs_den.clear();
        evs_den.extend(by_slot.iter().map(|e| e.named(ids.orig(e.id))));
        if out_den != out_ref {
            return Some((i, format!("dense outcome {out_den:?} != reference {out_ref:?}")));
        }
        if evs_den != evs_ref {
            return Some((
                i,
                format!(
                    "dense evictions {} != reference {}",
                    fmt_evictions(&evs_den),
                    fmt_evictions(&evs_ref)
                ),
            ));
        }
        if dense.used() != reference.used() || dense.len() != reference.len() {
            return Some((
                i,
                format!(
                    "dense used/len {}/{} != reference {}/{}",
                    dense.used(),
                    dense.len(),
                    reference.used(),
                    reference.len()
                ),
            ));
        }
        if let Err(e) = dense.validate() {
            return Some((i, format!("dense invariant violated: {e}")));
        }
        if let Err(e) = reference.validate() {
            return Some((i, format!("reference invariant violated: {e}")));
        }
    }
    None
}

/// Builds fresh reference/keyed/dense instances for `name` and runs
/// [`diff_run`] over `requests`. Panics if `name` has no reference model or
/// fails to build — the fuzzer's name list is validated by its callers.
fn run_fresh(name: &str, capacity: u64, requests: &[Request]) -> Option<(usize, String)> {
    let mut reference =
        reference_for(name, capacity).unwrap_or_else(|| panic!("no reference model for {name}"));
    let mut keyed = registry::build(name, capacity, Some(requests))
        .unwrap_or_else(|e| panic!("cannot build keyed {name}: {e}"));
    let (ids, slots) = DenseIds::intern(requests.iter().map(|r| r.id));
    let mut dense = registry::build_dense_domain(name, capacity, Some(&slots), ids.len())
        .unwrap_or_else(|e| panic!("cannot build dense {name}: {e}"));
    diff_run(
        &mut reference,
        keyed.as_mut(),
        dense.as_mut(),
        &ids,
        &slots,
        requests,
    )
}

/// ddmin-style shrinking: starting from a failing request sequence, greedily
/// removes chunks (halving the chunk size down to single requests) while the
/// failure — re-judged from scratch by `fails` — persists. Deterministic,
/// quadratic in the worst case, and good enough to cut thousands of requests
/// down to a handful.
pub fn shrink_with(fails: &mut dyn FnMut(&[Request]) -> bool, initial: Vec<Request>) -> Vec<Request> {
    let mut cur = initial;
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < cur.len() {
            let mut cand = cur.clone();
            cand.drain(i..(i + chunk).min(cand.len()));
            if !cand.is_empty() && fails(&cand) {
                cur = cand; // keep the removal; retry the same offset
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    cur
}

/// Fuzzes one `(algorithm, capacity)` pair with the given config. Returns
/// the number of requests replayed on success, or a shrunk [`Divergence`].
///
/// # Errors
///
/// Returns the divergence when any per-request observable disagrees between
/// the reference, keyed, and dense implementations.
pub fn fuzz_policy(name: &str, capacity: u64, cfg: &FuzzConfig) -> Result<usize, Box<Divergence>> {
    let requests = generate_trace(cfg);
    match run_fresh(name, capacity, &requests) {
        None => Ok(requests.len()),
        Some((step, _)) => {
            let failing = requests[..=step].to_vec();
            let shrunk = shrink_with(
                &mut |cand| run_fresh(name, capacity, cand).is_some(),
                failing,
            );
            // Invariant: the shrinker only returns candidates that still fail.
            let (step, detail) = run_fresh(name, capacity, &shrunk)
                .expect("shrunk trace still fails by construction");
            Err(Box::new(Divergence {
                algorithm: name.to_string(),
                capacity,
                seed: cfg.seed,
                step,
                detail,
                trace: shrunk,
            }))
        }
    }
}

/// The registry algorithms the differential fuzzer covers: every name with
/// a reference interpreter, diffed against its keyed policy and, where it
/// has one, its dense policy.
pub const FUZZED_ALGORITHMS: &[&str] = &[
    "FIFO",
    "LRU",
    "CLOCK",
    "CLOCK-2bit",
    "SIEVE",
    "SLRU",
    "2Q",
    "S3-FIFO",
    "S3-FIFO(0.25)",
    "QDLP-LRU-LRU",
    "QDLP-LRU-FIFO",
    "QDLP-FIFO-LRU",
    "S3-FIFO-Sieve",
    "ARC",
    "LRU-2",
    "B-LRU",
    "S3-FIFO-D",
];

#[cfg(test)]
mod tests {
    use super::*;
    use cache_types::{Outcome, PolicyStats};

    /// Every covered algorithm, fuzzed at adversarially tiny and moderate
    /// capacities, sized and unit-size. This is the in-tree mirror of the CI
    /// gate (`check_gate` runs a larger budget).
    #[test]
    fn reference_keyed_dense_agree() {
        for name in FUZZED_ALGORITHMS {
            for capacity in [1u64, 2, 3, 7, 50] {
                for max_size in [1u32, 4] {
                    let cfg = FuzzConfig {
                        seed: 0xABCD ^ capacity ^ u64::from(max_size) << 8,
                        requests: 800,
                        max_size,
                        ..FuzzConfig::default()
                    };
                    if let Err(d) = fuzz_policy(name, capacity, &cfg) {
                        panic!("divergence:\n{d}");
                    }
                }
            }
        }
    }

    /// The generator's rows split into a trace's columns and built back are
    /// the rows, on mixed Set/Delete streams with sizes up to 4 and on pure
    /// `Get` unit-size ones; a column exists only where some row needs it,
    /// and the byte totals equal the row sums.
    #[test]
    fn generated_rows_survive_the_columns() {
        for (write_percent, max_size) in [(10, 4), (0, 1)] {
            for seed in 0..8 {
                let cfg = FuzzConfig {
                    seed,
                    write_percent,
                    max_size,
                    ..FuzzConfig::default()
                };
                let rows = generate_trace(&cfg);
                let trace = cache_trace::Trace::new("fuzz", rows.clone());
                assert_eq!(trace.to_requests(), rows, "seed {seed}");
                let shape = trace.shape();
                assert_eq!(shape.pure_get, write_percent == 0, "seed {seed}");
                assert_eq!(shape.unit_size, max_size == 1, "seed {seed}");
                let total: u64 = rows.iter().map(|r| u64::from(r.size)).sum();
                assert_eq!(trace.total_bytes(), total, "seed {seed}");
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = FuzzConfig::default();
        assert_eq!(generate_trace(&cfg), generate_trace(&cfg));
        let other = FuzzConfig {
            seed: 1,
            ..FuzzConfig::default()
        };
        assert_ne!(generate_trace(&cfg), generate_trace(&other));
    }

    /// A dense "implementation" that ignores Delete requests — a classic
    /// forgotten-code-path mutation. The fuzzer must catch it and shrink the
    /// reproduction to the minimal Get/Delete/Get pattern.
    struct MutantDense {
        inner: Box<dyn DensePolicy>,
    }

    impl DensePolicy for MutantDense {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn capacity(&self) -> u64 {
            self.inner.capacity()
        }
        fn used(&self) -> u64 {
            self.inner.used()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn request_dense(
            &mut self,
            slot: u32,
            req: &Request,
            evicted: &mut Vec<Eviction<u32>>,
        ) -> Outcome {
            if req.op == Op::Delete {
                return Outcome::NotRead; // BUG: delete silently dropped
            }
            self.inner.request_dense(slot, req, evicted)
        }
        fn resident(&self, slot: u32) -> bool {
            self.inner.resident(slot)
        }
        fn validate(&self) -> Result<(), String> {
            self.inner.validate()
        }
        fn stats(&self) -> PolicyStats {
            self.inner.stats()
        }
    }

    /// Mutation smoke test (documented in TESTING.md): a deliberately broken
    /// dense policy must produce a divergence, and shrinking must cut the
    /// reproduction down to a handful of requests.
    #[test]
    fn mutant_dense_is_caught_and_shrunk() {
        let capacity = 8u64;
        let cfg = FuzzConfig {
            requests: 2_000,
            write_percent: 15,
            ..FuzzConfig::default()
        };
        let requests = generate_trace(&cfg);

        let mut fails = |reqs: &[Request]| -> bool {
            let mut reference = reference_for("LRU", capacity).expect("LRU reference exists");
            let (ids, slots) = DenseIds::intern(reqs.iter().map(|r| r.id));
            let inner = registry::build_dense_domain("LRU", capacity, None, ids.len())
                .expect("dense LRU builds");
            let mut mutant = MutantDense { inner };
            let mut keyed =
                registry::build("LRU", capacity, None).expect("keyed LRU builds");
            diff_run(
                &mut reference,
                keyed.as_mut(),
                &mut mutant,
                &ids,
                &slots,
                reqs,
            )
            .is_some()
        };

        assert!(fails(&requests), "the mutant must diverge somewhere");
        let shrunk = shrink_with(&mut fails, requests);
        assert!(fails(&shrunk), "shrunk trace must still reproduce");
        assert!(
            shrunk.len() <= 4,
            "expected a minimal reproduction, got {} requests",
            shrunk.len()
        );
        // The minimal pattern must involve the dropped Delete.
        assert!(
            shrunk.iter().any(|r| r.op == Op::Delete),
            "reproduction should exercise the broken Delete path: {shrunk:?}"
        );
    }

    /// The §6.3 queue-type variants on a mixed Get/Set/Delete stream (sizes
    /// 1..=4): `(misses, evictions, FNV-1a of the evicted-id sequence)` at
    /// capacities 7 and 50, captured at d05e39d — the last commit where they
    /// were a hand-written policy of their own — so the reference arm above
    /// is not the only thing the one remaining implementation answers to.
    #[test]
    fn queue_type_variants_are_unchanged_on_mixed_ops() {
        let requests = generate_trace(&FuzzConfig::default());
        type Golden = (&'static str, [(u64, u64, u64); 2]);
        let golden: [Golden; 4] = [
            (
                "QDLP-LRU-LRU",
                [(1764, 1936, 11911349466827973222), (965, 935, 13239709866924516975)],
            ),
            (
                "QDLP-LRU-FIFO",
                [(1710, 1879, 12368122694651702711), (939, 907, 152751969315893349)],
            ),
            (
                "QDLP-FIFO-LRU",
                [(1770, 1944, 15607860707829878029), (952, 926, 5216951874830800254)],
            ),
            (
                "S3-FIFO-Sieve",
                [(1755, 1931, 15853978434883642756), (960, 928, 688565915900236452)],
            ),
        ];
        for (name, want) in golden {
            let got = [7u64, 50].map(|capacity| {
                let mut policy = registry::build(name, capacity, None).expect("registry name");
                let mut evicted = Vec::new();
                let mut hash = 0xcbf2_9ce4_8422_2325u64;
                for r in &requests {
                    evicted.clear();
                    policy.request(r, &mut evicted);
                    for byte in evicted.iter().flat_map(|e| e.id.to_le_bytes()) {
                        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
                (policy.stats().misses, policy.stats().evictions, hash)
            });
            assert_eq!(got, want, "{name}");
        }
    }

    /// The shrinker itself: removing any request from its output must make
    /// the failure disappear (1-minimality on a crafted failure).
    #[test]
    fn shrinker_is_one_minimal_on_crafted_failure() {
        // Fail whenever the trace contains a Get of id 7 after a Get of id 3.
        let mut fails = |reqs: &[Request]| -> bool {
            let mut seen3 = false;
            for r in reqs {
                if r.id == 3 {
                    seen3 = true;
                } else if r.id == 7 && seen3 {
                    return true;
                }
            }
            false
        };
        let noise: Vec<Request> = (0..100u64)
            .map(|t| Request::get(t % 13, t))
            .collect();
        assert!(fails(&noise));
        let shrunk = shrink_with(&mut fails, noise);
        assert_eq!(shrunk.len(), 2, "exactly the 3-then-7 pair: {shrunk:?}");
        assert_eq!(shrunk[0].id, 3);
        assert_eq!(shrunk[1].id, 7);
    }
}
