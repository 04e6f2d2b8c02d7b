//! Deterministic additive white Gaussian noise.
//!
//! The paper's receivers were exercised on an evaluation board fed by an RF
//! front end; we substitute synthetic channels (see DESIGN.md §2): fixed
//! complex path gains plus the noise generated here. Every generator is
//! seeded explicitly so every experiment is reproducible.

use crate::complex::Cplx;
use crate::rng::Rng64;

/// A complex additive-white-Gaussian-noise source.
///
/// Samples are drawn with the Box–Muller transform from a seeded [`Rng64`],
/// so a given seed always produces the same noise realisation.
///
/// # Example
///
/// ```
/// use sdr_dsp::noise::Awgn;
///
/// let mut n1 = Awgn::new(42, 1.0);
/// let mut n2 = Awgn::new(42, 1.0);
/// assert_eq!(n1.sample().re, n2.sample().re); // deterministic
/// ```
#[derive(Debug)]
pub struct Awgn {
    rng: Rng64,
    /// Standard deviation per real dimension.
    sigma: f64,
}

impl Awgn {
    /// Creates a generator with per-dimension standard deviation `sigma`.
    pub fn new(seed: u64, sigma: f64) -> Self {
        Awgn {
            rng: Rng64::seed_from_u64(seed),
            sigma,
        }
    }

    /// Draws one complex Gaussian sample with variance `2σ²` total.
    pub fn sample(&mut self) -> Cplx<f64> {
        let (a, b) = self.gaussian_pair();
        Cplx::new(a * self.sigma, b * self.sigma)
    }

    /// Draws a pair of independent standard normal variates.
    fn gaussian_pair(&mut self) -> (f64, f64) {
        self.rng.next_gaussian_pair()
    }

    /// Adds noise to a float sample stream in place.
    pub fn add_to(&mut self, x: &mut [Cplx<f64>]) {
        for v in x {
            *v += self.sample();
        }
    }
}

/// Converts an Eb/N0 (dB) target into the per-dimension noise sigma for unit
/// average symbol energy `es`, `bits_per_symbol` bits/symbol and a spreading
/// gain (1 for OFDM; the spreading factor for CDMA chips).
///
/// `sigma² = Es / (2 · bits · spreading · 10^(EbN0/10))` per real dimension.
pub fn sigma_for_ebn0(es: f64, bits_per_symbol: f64, spreading: f64, ebn0_db: f64) -> f64 {
    let ebn0 = 10f64.powf(ebn0_db / 10.0);
    (es / (2.0 * bits_per_symbol * spreading * ebn0)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn awgn_is_deterministic_per_seed() {
        let mut a = Awgn::new(7, 0.5);
        let mut b = Awgn::new(7, 0.5);
        for _ in 0..100 {
            let (x, y) = (a.sample(), b.sample());
            assert_eq!(x.re, y.re);
            assert_eq!(x.im, y.im);
        }
    }

    #[test]
    fn awgn_seeds_differ() {
        let mut a = Awgn::new(1, 1.0);
        let mut b = Awgn::new(2, 1.0);
        assert!(a.sample().re != b.sample().re);
    }

    #[test]
    fn awgn_variance_close_to_sigma_squared() {
        let mut g = Awgn::new(11, 2.0);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let s = g.sample();
            sum += s.sqmag();
        }
        let measured = sum / n as f64; // expect 2σ² = 8
        assert!((measured - 8.0).abs() < 0.4, "measured {measured}");
    }

    #[test]
    fn awgn_mean_close_to_zero() {
        let mut g = Awgn::new(5, 1.0);
        let n = 20_000;
        let mut acc = Cplx::<f64>::ZERO;
        for _ in 0..n {
            acc += g.sample();
        }
        assert!(acc.mag() / (n as f64) < 0.05);
    }

    #[test]
    fn sigma_for_ebn0_monotone_decreasing() {
        let s0 = sigma_for_ebn0(1.0, 2.0, 1.0, 0.0);
        let s10 = sigma_for_ebn0(1.0, 2.0, 1.0, 10.0);
        assert!(s10 < s0);
        // At Eb/N0 = 0 dB, QPSK (2 bits), sigma² = 1/4.
        assert!((s0 * s0 - 0.25).abs() < 1e-12);
    }
}
