//! Shared helpers for the policies' tests.

/// Returns a stable per-test skewed trace for differential tests.
pub(crate) fn test_trace(n: usize, universe: u64, seed: u64) -> Vec<cache_types::Request> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|t| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 33;
            let id = if r.is_multiple_of(3) { r % 10 } else { r % universe };
            cache_types::Request::get(id, t as u64)
        })
        .collect()
}

/// Drives a policy over a trace and returns its miss ratio.
pub(crate) fn miss_ratio_of(
    policy: &mut dyn cache_types::Policy,
    reqs: &[cache_types::Request],
) -> f64 {
    cache_types::policy::run_trace(policy, reqs).miss_ratio()
}

/// Checks the baseline invariants every policy must satisfy after a run.
pub(crate) fn check_policy_basics(policy: &mut dyn cache_types::Policy, cap: u64) {
    use cache_types::Request;
    let mut evs = Vec::new();
    let trace = test_trace(5000, 400, 0xBA5E);
    for r in &trace {
        evs.clear();
        policy.request(r, &mut evs);
        assert!(
            policy.used() <= cap,
            "{} exceeded capacity: {} > {}",
            policy.name(),
            policy.used(),
            cap
        );
        for e in &evs {
            assert!(
                !policy.contains(e.id),
                "{} reported evicting {} but still contains it",
                policy.name(),
                e.id
            );
        }
    }
    // A hit after an insert must be reported as a hit.
    evs.clear();
    policy.request(&Request::get(0xFFFF_0001, 1_000_000), &mut evs);
    evs.clear();
    let out = policy.request(&Request::get(0xFFFF_0001, 1_000_001), &mut evs);
    assert!(
        out.is_hit(),
        "{} missed a just-inserted object",
        policy.name()
    );
    let s = policy.stats();
    assert!(s.gets >= 5000);
    assert!(s.misses <= s.gets);
}
