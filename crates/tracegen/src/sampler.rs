//! Discrete samplers used by the workload generator.

use rand::Rng;

/// Zipf-like sampler over `0..n` via inverse-CDF table lookup.
///
/// Item `i` gets weight `1 / (i+1)^theta`; `theta = 0` degenerates to
/// uniform, larger values concentrate probability on low indices. A caller
/// wanting skew over *arbitrary* items applies its own permutation of the
/// index space (hot items should not always be item 0).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "empty support");
        assert!(theta >= 0.0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top end (the table
        // is never empty: `n > 0` is asserted above).
        if let Some(top) = cdf.last_mut() {
            *top = 1.0;
        }
        Zipf { cdf }
    }

    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draw one index.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the count of entries < u, i.e. the first
        // index whose cumulative mass reaches u.
        self.cdf.partition_point(|&c| c < u)
    }

    /// Probability mass of index `i` (for calibration tests).
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

/// Exponential interarrival sampler returning integer nanoseconds.
#[inline]
pub fn exp_ns<R: Rng>(rng: &mut R, mean_ns: f64) -> u64 {
    debug_assert!(mean_ns > 0.0);
    // Inverse transform; clamp u away from 0 to avoid ln(0).
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    (-mean_ns * u.ln()).round().min(u64::MAX as f64) as u64
}

/// Geometric sampler over `1..=max` (number of trials until first success),
/// truncated; used for multiblock request lengths and LRU stack distances.
///
/// Each trial fails when a standard uniform `u` satisfies `u >= p`, tested
/// on integers. The uniform is `u = m · 2^-53` with `m = next_u64() >> 11`
/// an integer below `2^53`, and `p · 2^53` is exact (scaling by a power of
/// two), so `u >= p` ⟺ `m >= p · 2^53` ⟺ `m >= ⌈p · 2^53⌉ = t`. The loop
/// therefore draws the same words and returns the same `k` as the float
/// test `rng.gen::<f64>() >= p`, for every `p`: `p = 1` gives `t = 2^53`
/// (no trial fails), `p <= 0` gives `t = 0` (every trial fails), and
/// `p > 1` or NaN, which no uniform reaches, give `t = u64::MAX`.
#[inline]
pub fn geometric_trunc<R: Rng>(rng: &mut R, p: f64, max: u32) -> u32 {
    debug_assert!(p > 0.0 && p <= 1.0);
    let t = if p <= 1.0 {
        // ⌈x⌉ by truncation (`f64::ceil` is a libm call on baseline
        // x86-64): `x <= 2^53`, so `x as u64` is ⌊x⌋ exactly, and 0 when
        // `x < 0`.
        let x = p * (1u64 << 53) as f64;
        let floor = x as u64;
        floor + u64::from((floor as f64) < x)
    } else {
        u64::MAX
    };
    let mut k = 1;
    while k < max && (rng.next_u64() >> 11) >= t {
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, RngCore, SeedableRng};

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(4, 0.0);
        for i in 0..4 {
            assert!((z.pmf(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_concentrates_on_low_indices() {
        let z = Zipf::new(100, 1.0);
        assert!(z.pmf(0) > 10.0 * z.pmf(99));
        let flat = Zipf::new(100, 0.2);
        assert!(z.pmf(0) > flat.pmf(0), "higher theta ⇒ hotter head");
    }

    #[test]
    fn sample_frequencies_match_pmf() {
        let z = Zipf::new(10, 0.8);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0u64; 10];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let emp = c as f64 / n as f64;
            assert!(
                (emp - z.pmf(i)).abs() < 0.01,
                "index {i}: empirical {emp} vs pmf {}",
                z.pmf(i)
            );
        }
    }

    #[test]
    fn exp_ns_mean_close() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mean = 1_000_000.0;
        let n = 100_000;
        let total: u64 = (0..n).map(|_| exp_ns(&mut rng, mean)).sum();
        let emp = total as f64 / n as f64;
        assert!((emp - mean).abs() < mean * 0.02, "empirical mean {emp}");
    }

    #[test]
    fn geometric_respects_truncation() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let k = geometric_trunc(&mut rng, 0.1, 32);
            assert!((1..=32).contains(&k));
        }
        // p=1 always returns 1.
        assert_eq!(geometric_trunc(&mut rng, 1.0, 32), 1);
    }

    /// The float loop `geometric_trunc` replaced, kept as the reference.
    fn geometric_trunc_f64<R: Rng>(rng: &mut R, p: f64, max: u32) -> u32 {
        let mut k = 1;
        while k < max && rng.gen::<f64>() >= p {
            k += 1;
        }
        k
    }

    /// Both samplers from the same seed: same `k`, and the same next word
    /// afterwards (so the same number of words consumed).
    fn assert_matches_f64(seed: u64, p: f64, max: u32) -> Result<(), TestCaseError> {
        let mut a = SmallRng::seed_from_u64(seed);
        let mut b = SmallRng::seed_from_u64(seed);
        for _ in 0..4 {
            prop_assert_eq!(
                geometric_trunc(&mut a, p, max),
                geometric_trunc_f64(&mut b, p, max),
                "p={} max={}",
                p,
                max
            );
            prop_assert_eq!(a.next_u64(), b.next_u64(), "p={} max={}", p, max);
        }
        Ok(())
    }

    /// Replays a fixed word sequence, so a test can draw the words either
    /// side of a threshold that a random draw hits with chance `2^-53`.
    struct Words(std::vec::IntoIter<u64>);

    impl RngCore for Words {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next().unwrap_or(0)
        }
    }

    #[test]
    fn geometric_matches_f64_at_the_threshold() {
        for p in [1.0, 0.5, 0.000125, 0.0017, 1.0 / (18.71 - 1.0), 1e-300] {
            let t = (p * (1u64 << 53) as f64).ceil() as u64;
            for m in [t.saturating_sub(1), t, t + 1, (1 << 53) - 1] {
                let words = vec![m << 11 | 0x7ff; 3];
                let int = geometric_trunc(&mut Words(words.clone().into_iter()), p, 3);
                let float = geometric_trunc_f64(&mut Words(words.into_iter()), p, 3);
                assert_eq!(int, float, "p={p} m={m}");
            }
        }
    }

    proptest! {
        /// The integer-threshold sampler is the float sampler, word for
        /// word: random `p` in (0, 1] plus the generator's own parameters.
        #[test]
        fn prop_geometric_matches_f64_reference(
            seed in any::<u64>(),
            p in 0.0f64..1.0,
            max in 1u32..=70_000,
        ) {
            // (0, 1]: map the half-open draw onto the other end.
            assert_matches_f64(seed, 1.0 - p, max)?;
            for fixed in [1.0, 0.000125, 0.0017, 1.0 / (18.71 - 1.0), 1.0 / (16.43 - 1.0)] {
                assert_matches_f64(seed, fixed, max)?;
            }
        }

        /// The sampler always returns a valid index.
        #[test]
        fn prop_zipf_in_range(n in 1usize..500, theta in 0.0f64..2.0, seed in any::<u64>()) {
            let z = Zipf::new(n, theta);
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..100 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }

        /// PMF sums to one.
        #[test]
        fn prop_pmf_normalized(n in 1usize..200, theta in 0.0f64..2.0) {
            let z = Zipf::new(n, theta);
            let total: f64 = (0..n).map(|i| z.pmf(i)).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }
    }
}
