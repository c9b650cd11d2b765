//! Small deterministic RNG and hashing helpers.
//!
//! Policies that need randomness (LHD's eviction sampling, probabilistic
//! admission) use [`SplitMix64`] so simulation runs are reproducible from a
//! single `u64` seed without pulling `rand` into every crate.

/// SplitMix64 pseudo-random generator (Steele et al., "Fast Splittable
/// Pseudorandom Number Generators").
///
/// Passes BigCrush when used as a stream; more than adequate for eviction
/// sampling and synthetic workload shuffling.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Distinct seeds produce independent
    /// streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics when `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Lemire's multiply-shift rejection-free mapping; the modulo bias is
        // below 2^-64 * bound which is negligible for simulation purposes.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Mixes a 64-bit value into a well-distributed hash (the SplitMix64
/// finalizer). Used for object-id hashing in sketches and ghost tables.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fast `Hasher` for 64-bit object ids, based on the SplitMix64 finalizer.
///
/// `HashMap<ObjId, _, IdHashBuilder>` avoids SipHash overhead on the
/// simulator's hot path while still spreading sequential ids well (see
/// [`mix64`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    state: u64,
}

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (rare): fold bytes in 8-byte chunks.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.state = mix64(self.state ^ u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = mix64(self.state ^ v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`IdHasher`].
pub type IdHashBuilder = std::hash::BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by object ids, using the fast [`crate::fx::FxHasher`]
/// (one multiply per key vs two for [`IdHasher`]; the aliases moved to Fx in
/// the dense-ID fast-path PR — simulation results don't depend on hasher
/// choice, only replay speed does).
pub type IdMap<V> = std::collections::HashMap<u64, V, crate::fx::FxBuildHasher>;

/// A `HashSet` of object ids using the fast [`crate::fx::FxHasher`].
pub type IdSet = std::collections::HashSet<u64, crate::fx::FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(42);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = SplitMix64::new(3);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn below_covers_range() {
        let mut r = SplitMix64::new(11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn id_map_basic_ops() {
        let mut m: IdMap<u32> = IdMap::default();
        for i in 0..1000u64 {
            m.insert(i, (i * 2) as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&7), Some(&14));
        m.remove(&7);
        assert!(!m.contains_key(&7));
    }

    #[test]
    fn id_hasher_differs_across_keys() {
        use std::hash::BuildHasher;
        let b = IdHashBuilder::default();
        let hash = |v: u64| b.hash_one(v);
        assert_ne!(hash(1), hash(2));
        assert_ne!(hash(0), hash(u64::MAX));
    }

    #[test]
    fn mix64_spreads_sequential_ids() {
        // Sequential inputs must not collide in the low bits (bucket index).
        let mut buckets = std::collections::HashSet::new();
        for i in 0..1000u64 {
            buckets.insert(mix64(i) & 0xFFF);
        }
        assert!(
            buckets.len() > 800,
            "got {} distinct buckets",
            buckets.len()
        );
    }
}
