//! Zipf popularity sampling under the independent reference model.
//!
//! §3.1 analyzes request sequences whose object popularity follows a Zipf
//! distribution: the object of rank `i` is requested with probability
//! proportional to `1 / i^α`. [`ZipfSampler`] draws ranks from that
//! distribution by inverting a precomputed CDF (exact, O(M) setup, fully
//! deterministic given the RNG stream). A guide table makes a sample O(1)
//! in expectation: it narrows the search to the ranks whose CDF entries
//! straddle one of `2^b` equal slices of `[0, 1)`.
//!
//! At a million ranks the table (2 MB) and the CDF (8 MB) live in DRAM, so
//! a draw costs two dependent cache misses, not arithmetic.
//! [`ZipfSampler::ranks_of`] inverts a batch instead: it reads every guide
//! slice and prefetches the CDF line each search starts at before it
//! searches any, so the batch's misses overlap rather than queue.

use cache_ds::{prefetch_read, SplitMix64};

/// Widest guide table: `2^20` slices, 4 MB of `u32`.
const MAX_GUIDE_BITS: u32 = 20;

/// Samples ranks `1..=n` with probability ∝ `1 / rank^alpha`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative probabilities; `cdf[i]` = P(rank <= i + 1).
    cdf: Vec<f64>,
    /// `guide[k]` is the first index whose CDF entry is `>= k / 2^bits`, for
    /// `k` in `0..=2^bits` (`cdf.len()` where none is). A `u` in slice `k`
    /// inverts to an index in `guide[k]..=guide[k + 1]`.
    guide: Vec<u32>,
    /// `2^bits`, as the factor that takes `u` to its slice: multiplying by
    /// a power of two is exact, so the slice of `u` is exactly the `k` with
    /// `k / 2^bits <= u < (k + 1) / 2^bits`.
    slices: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `n` ranks with skew `alpha >= 0`
    /// (`alpha == 0` is the uniform distribution).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `alpha` is negative or not finite.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "alpha must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        // `x.powf(1.0)` is exactly `x`, so at α = 1 the bare reciprocal
        // builds the same bits without a `powf` per rank.
        let unit = alpha == 1.0;
        for i in 1..=n {
            let x = i as f64;
            acc += if unit { 1.0 / x } else { 1.0 / x.powf(alpha) };
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // About one slice per rank: `2^bits <= n`.
        let bits = n.ilog2().min(MAX_GUIDE_BITS);
        let slices = 1u32 << bits;
        let mut guide = Vec::with_capacity(slices as usize + 1);
        let mut i = 0usize;
        for k in 0..=slices {
            let edge = f64::from(k) / f64::from(slices);
            while i < cdf.len() && cdf[i] < edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        ZipfSampler {
            cdf,
            guide,
            slices: f64::from(slices),
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Draws a rank in `1..=n` (rank 1 is the most popular).
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        self.rank_of(rng.next_f64())
    }

    /// Replaces `ranks` with the rank each `u` in `[0, 1)` inverts to, the
    /// same as one [`ZipfSampler::sample`] per `u` would return. All guide
    /// slices are read, and the CDF line each search starts at prefetched,
    /// before the first search.
    pub fn ranks_of(&self, us: &[f64], ranks: &mut Vec<u64>) {
        ranks.clear();
        // `ranks` holds each slice's bounds, packed, until its search.
        ranks.extend(us.iter().map(|&u| {
            let (lo, hi) = self.slice_of(u);
            // A slice's search probes its midpoint first.
            prefetch_read(&self.cdf, (lo + hi) / 2);
            (lo as u64) << 32 | hi as u64
        }));
        for (r, &u) in ranks.iter_mut().zip(us) {
            *r = self.search(u, (*r >> 32) as usize, *r as u32 as usize);
        }
    }

    /// Prefetches the guide entries of `u`'s slice, for a
    /// [`ZipfSampler::ranks_of`] to come.
    #[inline]
    pub(crate) fn prefetch(&self, u: f64) {
        prefetch_read(&self.guide, (u * self.slices) as usize);
    }

    /// The rank `u` in `[0, 1)` inverts to.
    #[inline]
    fn rank_of(&self, u: f64) -> u64 {
        let (lo, hi) = self.slice_of(u);
        self.search(u, lo, hi)
    }

    /// The CDF indices `lo..=hi` that hold the first entry `>= u`.
    #[inline]
    fn slice_of(&self, u: f64) -> (usize, usize) {
        let k = (u * self.slices) as usize;
        (self.guide[k] as usize, self.guide[k + 1] as usize)
    }

    /// One past the index of the first CDF entry `>= u` in `lo..=hi`, the
    /// last rank where rounding left none.
    #[inline]
    fn search(&self, u: f64, lo: usize, hi: usize) -> u64 {
        // The CDF is non-decreasing, so partition_point returns the count
        // of entries < u.
        let idx = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        (idx.min(self.cdf.len() - 1) + 1) as u64
    }

    /// Probability of the given rank (1-based).
    pub fn probability(&self, rank: u64) -> f64 {
        assert!(rank >= 1 && rank <= self.n(), "rank out of range");
        let i = (rank - 1) as usize;
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_in_range() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!((1..=100).contains(&r));
        }
    }

    #[test]
    fn rank_one_is_most_popular() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = SplitMix64::new(2);
        let mut counts = vec![0u64; 1001];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[1] > counts[10]);
        assert!(counts[1] > counts[100]);
    }

    #[test]
    fn frequencies_match_probabilities() {
        let z = ZipfSampler::new(50, 0.8);
        let mut rng = SplitMix64::new(3);
        let n = 200_000;
        let mut counts = vec![0u64; 51];
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for rank in [1u64, 2, 5, 10] {
            let expected = z.probability(rank) * n as f64;
            let got = counts[rank as usize] as f64;
            assert!(
                (got - expected).abs() < expected * 0.1 + 30.0,
                "rank {rank}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for rank in 1..=10 {
            assert!((z.probability(rank) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_alpha_more_skewed() {
        let flat = ZipfSampler::new(1000, 0.6);
        let steep = ZipfSampler::new(1000, 1.2);
        assert!(steep.probability(1) > flat.probability(1));
        assert!(steep.probability(1000) < flat.probability(1000));
    }

    #[test]
    fn probabilities_sum_to_one() {
        let z = ZipfSampler::new(200, 1.0);
        let sum: f64 = (1..=200).map(|r| z.probability(r)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let z = ZipfSampler::new(100, 1.0);
        let a: Vec<u64> = {
            let mut rng = SplitMix64::new(7);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = SplitMix64::new(7);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    /// Golden sequence: pins the exact sample stream across refactors.
    /// `deterministic_given_seed` only proves run-to-run stability; this
    /// proves *version-to-version* stability, which seeded trace generation
    /// (and every BENCH baseline derived from it) depends on.
    #[test]
    fn golden_sample_sequence() {
        let z = ZipfSampler::new(10, 1.0);
        let mut rng = SplitMix64::new(42);
        let got: Vec<u64> = (0..16).map(|_| z.sample(&mut rng)).collect();
        assert_eq!(got, GOLDEN_ZIPF_10_1_SEED42);
    }

    const GOLDEN_ZIPF_10_1_SEED42: [u64; 16] =
        [5, 1, 1, 2, 1, 7, 1, 6, 1, 3, 1, 2, 3, 3, 4, 1];

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        ZipfSampler::new(0, 1.0);
    }

    #[test]
    fn single_rank_always_one() {
        let z = ZipfSampler::new(1, 1.0);
        let mut rng = SplitMix64::new(5);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1);
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// The inversion before the guide table: a search of the whole CDF.
    fn full_search(z: &ZipfSampler, u: f64) -> u64 {
        let idx = z.cdf.partition_point(|&c| c < u);
        (idx.min(z.cdf.len() - 1) + 1) as u64
    }

    /// The guided search agrees with the full one at every slice edge, one
    /// ulp either side of it, and at random points, across rank counts that
    /// straddle the table's width and the skews the corpus draws; and the
    /// batched inversion agrees with both at all those points, in batches
    /// of 0, 1, 4095, 4096 and 4097.
    #[test]
    fn guided_rank_equals_the_full_search() {
        let mut rng = SplitMix64::new(0x2F1B);
        let mut ranks = Vec::new();
        for n in [1u64, 2, 3, 1000, (1 << 20) + 3] {
            for alpha in [0.0, 0.6, 1.0, 1.4] {
                let z = ZipfSampler::new(n, alpha);
                let slices = z.guide.len() as u32 - 1;
                let step = (slices / 4096).max(1);
                let edges = (0..slices).step_by(step as usize).chain([slices - 1]);
                let mut points = Vec::new();
                for k in edges {
                    let edge = f64::from(k) / f64::from(slices);
                    let up = f64::from_bits(edge.to_bits() + 1);
                    let below = (k > 0).then(|| f64::from_bits(edge.to_bits() - 1));
                    points.extend([Some(edge), Some(up), below].into_iter().flatten());
                }
                // The largest `u` `next_f64` can return.
                points.push(1.0 - f64::EPSILON / 2.0);
                points.extend((0..20_000).map(|_| rng.next_f64()));
                let want: Vec<u64> = points.iter().map(|&u| full_search(&z, u)).collect();
                for (&u, &rank) in points.iter().zip(&want) {
                    assert_eq!(z.rank_of(u), rank, "n {n} alpha {alpha} u {u:e}");
                }
                z.ranks_of(&points, &mut ranks);
                assert_eq!(ranks, want, "n {n} alpha {alpha}: one batch");
                for len in [1, 4095, 4096, 4097] {
                    for (us, want) in points.chunks(len).zip(want.chunks(len)) {
                        z.ranks_of(us, &mut ranks);
                        assert_eq!(ranks, want, "n {n} alpha {alpha} batch {len}");
                    }
                }
                z.ranks_of(&[], &mut ranks);
                assert!(ranks.is_empty(), "n {n} alpha {alpha}: empty batch");
            }
        }
    }

    /// At α = 1 the CDF is built without `powf`, to the same bits.
    #[test]
    fn unit_alpha_cdf_equals_the_powf_form() {
        let n = (1u64 << 20) + 3;
        let mut acc = 0.0f64;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                acc += 1.0 / (i as f64).powf(1.0);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let z = ZipfSampler::new(n, 1.0);
        assert!(
            z.cdf.iter().zip(&cdf).all(|(a, b)| a.to_bits() == b.to_bits()),
            "α = 1 CDF differs from the powf form"
        );
        assert_eq!(z.cdf.len(), cdf.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        // Structural soundness for any (n, alpha): the CDF is
        // non-decreasing and ends at exactly 1 — the two properties the
        // partition_point inversion relies on.
        #[test]
        fn cdf_is_sound(n in 1u64..256, alpha_centi in 0u64..=250) {
            let alpha = alpha_centi as f64 / 100.0;
            let z = ZipfSampler::new(n, alpha);
            let sum: f64 = (1..=n).map(|r| z.probability(r)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "probabilities sum to {sum}");
            for r in 1..=n {
                prop_assert!(z.probability(r) > 0.0, "rank {r} unreachable");
            }
            for pair in (1..=n).collect::<Vec<_>>().windows(2) {
                prop_assert!(
                    z.probability(pair[0]) >= z.probability(pair[1]),
                    "popularity must fall with rank"
                );
            }
        }

        // Small-universe frequency check: with few ranks every rank is hit
        // and rank 1 dominates, for any seed.
        #[test]
        fn small_universe_hits_every_rank(n in 1u64..=8, seed in 0u64..u64::MAX) {
            let z = ZipfSampler::new(n, 1.0);
            let mut rng = SplitMix64::new(seed);
            let mut counts = vec![0u64; n as usize + 1];
            for _ in 0..4000 {
                let r = z.sample(&mut rng);
                prop_assert!((1..=n).contains(&r));
                counts[r as usize] += 1;
            }
            for (r, &count) in counts.iter().enumerate().skip(1) {
                prop_assert!(count > 0, "rank {r} never sampled in 4000 draws");
            }
            prop_assert_eq!(counts[1..].iter().max(), Some(&counts[1]));
        }
    }
}
