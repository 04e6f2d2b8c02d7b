//! The 802.11a PLCP preamble: short and long training sequences
//! (§17.3.3), used for frame detection, timing synchronisation and channel
//! estimation.

use crate::params::{subcarrier_to_bin, FFT_LEN};
use sdr_dsp::fft::ifft;
use sdr_dsp::Cplx;

/// Length of the short training field in samples (10 × 16).
pub(crate) const SHORT_LEN: usize = 160;

/// Length of the long training field in samples (32 CP + 2 × 64).
pub(crate) const LONG_LEN: usize = 160;

/// The frequency-domain short training sequence on subcarriers −26..26
/// (non-zero every 4th subcarrier), including the √(13/6) power scaling.
pub(crate) fn short_sequence() -> Vec<(i32, Cplx<f64>)> {
    let s = (13.0f64 / 6.0).sqrt();
    let p = Cplx::new(s, s);
    let m = Cplx::new(-s, -s);
    vec![
        (-24, p),
        (-20, m),
        (-16, p),
        (-12, m),
        (-8, m),
        (-4, p),
        (4, m),
        (8, m),
        (12, p),
        (16, p),
        (20, p),
        (24, p),
    ]
}

/// The frequency-domain long training sequence `L_{−26..26}` (±1, 0 at DC).
pub(crate) fn long_sequence() -> [i32; 53] {
    [
        1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1,
        1, //
        0, //
        1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1,
    ]
}

/// Time-domain scaling: the IFFT's 1/N is rescaled by √N so that 52 unit
/// subcarriers give unit average sample power (Parseval).
pub(crate) const TIME_SCALE: f64 = 8.0;

fn time_symbol_from_bins(bins: &[Cplx<f64>; FFT_LEN]) -> Vec<Cplx<f64>> {
    ifft(bins)
        .iter()
        .map(|v| Cplx::new(v.re * TIME_SCALE, v.im * TIME_SCALE))
        .collect()
}

/// The 64-sample IDFT of the short sequence (16-periodic in time).
pub(crate) fn short_symbol_64() -> Vec<Cplx<f64>> {
    let mut bins = [Cplx::<f64>::ZERO; FFT_LEN];
    for (k, v) in short_sequence() {
        bins[subcarrier_to_bin(k)] = v;
    }
    time_symbol_from_bins(&bins)
}

/// The 64-sample long training symbol.
pub(crate) fn long_symbol_64() -> Vec<Cplx<f64>> {
    let mut bins = [Cplx::<f64>::ZERO; FFT_LEN];
    let l = long_sequence();
    for (idx, k) in (-26..=26).enumerate() {
        if k != 0 {
            bins[subcarrier_to_bin(k)] = Cplx::new(l[idx] as f64, 0.0);
        }
    }
    time_symbol_from_bins(&bins)
}

/// The complete 160-sample short training field.
pub(crate) fn short_training_field() -> Vec<Cplx<f64>> {
    let sym = short_symbol_64();
    (0..SHORT_LEN).map(|n| sym[n % FFT_LEN]).collect()
}

/// The complete 160-sample long training field (32-sample cyclic prefix
/// followed by two repetitions of the long symbol).
pub(crate) fn long_training_field() -> Vec<Cplx<f64>> {
    let sym = long_symbol_64();
    let mut out = Vec::with_capacity(LONG_LEN);
    out.extend_from_slice(&sym[32..]);
    out.extend_from_slice(&sym);
    out.extend_from_slice(&sym);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Period of the short training symbol in samples.
    const SHORT_PERIOD: usize = 16;

    #[test]
    fn short_field_is_16_periodic() {
        let s = short_training_field();
        assert_eq!(s.len(), SHORT_LEN);
        for n in 0..SHORT_LEN - SHORT_PERIOD {
            assert!(
                (s[n] - s[n + SHORT_PERIOD]).mag() < 1e-9,
                "period break at {n}"
            );
        }
    }

    #[test]
    fn long_field_repeats_the_symbol() {
        let l = long_training_field();
        let sym = long_symbol_64();
        assert_eq!(l.len(), LONG_LEN);
        assert_eq!(&l[32..96].len(), &64);
        for n in 0..64 {
            assert!((l[32 + n] - sym[n]).mag() < 1e-12);
            assert!((l[96 + n] - sym[n]).mag() < 1e-12);
        }
        // CP is the tail of the symbol.
        for n in 0..32 {
            assert!((l[n] - sym[32 + n]).mag() < 1e-12);
        }
    }

    #[test]
    fn long_sequence_has_52_active_carriers() {
        let l = long_sequence();
        assert_eq!(l.len(), 53);
        assert_eq!(l[26], 0); // DC
        assert_eq!(l.iter().filter(|&&v| v != 0).count(), 52);
        assert!(l.iter().all(|&v| v.abs() <= 1));
    }

    #[test]
    fn short_sequence_uses_every_fourth_carrier() {
        for (k, _) in short_sequence() {
            assert_eq!(k % 4, 0);
            assert!(k != 0);
        }
        assert_eq!(short_sequence().len(), 12);
    }

    #[test]
    fn preamble_power_is_comparable_to_unit_symbols() {
        // Average sample power of both fields should be near 1 (the data
        // symbols have unit average subcarrier energy on 52 carriers).
        let sp: f64 = short_training_field()
            .iter()
            .map(|v| v.sqmag())
            .sum::<f64>()
            / 160.0;
        let lp: f64 = long_training_field().iter().map(|v| v.sqmag()).sum::<f64>() / 160.0;
        assert!(sp > 0.3 && sp < 3.0, "short power {sp}");
        assert!(lp > 0.3 && lp < 3.0, "long power {lp}");
    }

    #[test]
    fn long_symbol_autocorrelation_is_sharp() {
        // The long symbol must give a distinct matched-filter peak.
        let sym = long_symbol_64();
        let peak: f64 = sym.iter().map(|v| v.sqmag()).sum();
        let mut max_off = 0.0f64;
        for lag in 1..32 {
            let mut acc = Cplx::<f64>::ZERO;
            for n in 0..64 - lag {
                acc += sym[n + lag] * sym[n].conj();
            }
            max_off = max_off.max(acc.mag());
        }
        assert!(peak > 3.0 * max_off, "peak {peak} vs sidelobe {max_off}");
    }
}
