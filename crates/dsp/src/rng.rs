//! Seeded, dependency-free pseudo-random number generation.
//!
//! The build environment pins no external crates, so the workspace carries
//! its own generator: a [xoshiro256**](https://prng.di.unimi.it/) core
//! seeded through SplitMix64. Every consumer (the synthetic channels in
//! [`crate::noise`], the engine's workload generators, the property-test
//! shim) seeds explicitly, keeping all experiments reproducible.

/// A xoshiro256** generator seeded via SplitMix64.
///
/// Deterministic per seed, `Send`, and fast enough to be irrelevant next to
/// the array simulation it feeds.
///
/// # Example
///
/// ```
/// use sdr_dsp::rng::Rng64;
///
/// let mut a = Rng64::seed_from_u64(7);
/// let mut b = Rng64::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: [u64; 4],
}

/// Advances a SplitMix64 state and returns the next output word.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u64; 4];
        for s in &mut state {
            *s = splitmix64(&mut sm);
        }
        // xoshiro256** is only degenerate on the all-zero state, which
        // SplitMix64 cannot produce from any seed; guard anyway.
        if state == [0; 4] {
            state[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng64 { state }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The next 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform value in `[0, bound)`; `bound` must be nonzero.
    ///
    /// Uses the widening-multiply technique, whose bias is < 2⁻⁶⁴ —
    /// immaterial for simulation workloads.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: zero bound");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A pair of independent standard-normal variates (Box–Muller).
    pub(crate) fn next_gaussian_pair(&mut self) -> (f64, f64) {
        let u1: f64 = loop {
            let u = self.next_f64();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        (r * theta.cos(), r * theta.sin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng64::seed_from_u64(5);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = Rng64::seed_from_u64(7);
        for bound in [1u64, 2, 3, 17, 1000] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Rng64::seed_from_u64(11);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let (a, b) = r.next_gaussian_pair();
            sum += a + b;
            sq += a * a + b * b;
        }
        let mean = sum / (2 * n) as f64;
        let var = sq / (2 * n) as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
