//! Channel estimation from the common pilot channel (a DSP task in the
//! paper's partitioning, Fig. 4).
//!
//! The estimator despreads the CPICH (SF 256, OVSF code 0) at a finger's
//! delay, correlates with the known pilot symbol, and averages. With
//! transmit diversity the antenna-2 pilot pattern alternates sign each
//! symbol, so the two channels separate by averaging with and without the
//! alternation.

use crate::rake::finger::{ChipMasks, WEIGHT_MAX};
use crate::scrambling::ScramblingCode;
use crate::symbols::{cpich_antenna2, CPICH_SYMBOL};
use crate::tx::CPICH_SF;
use sdr_dsp::Cplx;

/// Estimates the (scaled) complex channel gain of one path from `n_symbols`
/// CPICH symbols starting at the beginning of the receive buffer.
///
/// The returned value is proportional to `adc_gain · cpich_amplitude ·
/// path_gain`; the rake only needs consistent relative weights, so no
/// absolute normalisation is attempted (exactly like a fixed-point DSP
/// implementation would behave).
///
/// # Panics
///
/// Panics if the buffer is too short for `n_symbols` pilot symbols at the
/// given delay.
pub fn estimate_channel(
    rx: &[Cplx<i32>],
    code: &ScramblingCode,
    delay: usize,
    n_symbols: usize,
) -> Cplx<f64> {
    let n_chips = n_symbols * CPICH_SF;
    assert!(
        delay + n_chips <= rx.len(),
        "estimate_channel: buffer too short"
    );
    let mut acc = Cplx::<f64>::ZERO;
    for p in pilots(rx, code, delay, n_symbols) {
        acc += p.to_f64() * CPICH_SYMBOL.to_f64().conj();
    }
    // |pilot|² = 2 and the descrambler gain is 2.
    let scale = 1.0 / (n_symbols as f64 * 2.0 * 2.0);
    Cplx::new(acc.re * scale, acc.im * scale)
}

/// The `n_symbols` despread CPICH symbols at `delay`, one sign-flip sum
/// each: `despread(&descramble(rx, code, delay, 0, ..), 256, 0)` without
/// either buffer.
fn pilots<'a>(
    rx: &'a [Cplx<i32>],
    code: &'a ScramblingCode,
    delay: usize,
    n_symbols: usize,
) -> impl Iterator<Item = Cplx<i32>> + 'a {
    (0..n_symbols).map(move |symbol| {
        let phase = symbol * CPICH_SF;
        ChipMasks::at(code, phase).despread_pilot(&rx[delay + phase..])
    })
}

/// Estimates both antennas' channels for an STTD link. `n_symbols` must be
/// even so the alternating pattern cancels.
///
/// # Panics
///
/// Panics if `n_symbols` is odd or the buffer is too short.
pub(crate) fn estimate_channel_sttd(
    rx: &[Cplx<i32>],
    code: &ScramblingCode,
    delay: usize,
    n_symbols: usize,
) -> (Cplx<f64>, Cplx<f64>) {
    assert!(
        n_symbols.is_multiple_of(2),
        "STTD estimation needs an even symbol count"
    );
    let n_chips = n_symbols * CPICH_SF;
    assert!(
        delay + n_chips <= rx.len(),
        "estimate_channel_sttd: buffer too short"
    );
    let mut h1 = Cplx::<f64>::ZERO;
    let mut h2 = Cplx::<f64>::ZERO;
    for (k, p) in pilots(rx, code, delay, n_symbols).enumerate() {
        let pf = p.to_f64();
        h1 += pf * CPICH_SYMBOL.to_f64().conj();
        h2 += pf * cpich_antenna2(k).to_f64().conj();
    }
    let scale = 1.0 / (n_symbols as f64 * 2.0 * 2.0);
    (
        Cplx::new(h1.re * scale, h1.im * scale),
        Cplx::new(h2.re * scale, h2.im * scale),
    )
}

/// Quantises a set of channel estimates to Q9 integer weights with a common
/// scale, saturating none: the scale is chosen so the largest component
/// maps to `WEIGHT_MAX`. Relative finger weighting (what MRC needs) is
/// preserved exactly.
///
/// Returns all-zero weights if every estimate is zero.
pub fn quantize_weights(estimates: &[Cplx<f64>]) -> Vec<Cplx<i32>> {
    quantize_weights_with_max(estimates, WEIGHT_MAX)
}

/// Largest weight magnitude for the STTD corrector: the four-product sums of
/// the STTD decode need one extra headroom bit inside 24-bit words.
pub(crate) const WEIGHT_MAX_STTD: i32 = 511;

/// [`quantize_weights`] with an explicit peak magnitude (used by the STTD
/// path, which needs [`WEIGHT_MAX_STTD`]).
pub(crate) fn quantize_weights_with_max(estimates: &[Cplx<f64>], max_abs: i32) -> Vec<Cplx<i32>> {
    let peak = estimates
        .iter()
        .map(|h| h.re.abs().max(h.im.abs()))
        .fold(0.0f64, f64::max);
    if peak == 0.0 {
        return vec![Cplx::new(0, 0); estimates.len()];
    }
    let scale = max_abs as f64 / peak;
    estimates
        .iter()
        .map(|h| Cplx::new((h.re * scale).round() as i32, (h.im * scale).round() as i32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{propagate, AdcConfig, CellLink, Path};
    use crate::tx::{CellConfig, CellTransmitter};
    use proptest::prelude::*;

    fn pilot_frame(
        cfg: CellConfig,
        link: CellLink,
        sigma: f64,
    ) -> (Vec<Cplx<i32>>, ScramblingCode) {
        let mut tx = CellTransmitter::new(cfg);
        // 8 CPICH symbols worth of chips: 2048 chips → DPCH bits as needed.
        let bits_needed = 2 * 2048 / cfg.dpch.sf;
        let bits: Vec<u8> = (0..bits_needed).map(|i| (i % 2) as u8).collect();
        let signal = tx.transmit(&bits);
        let code = tx.scrambling_code().clone();
        (
            propagate(&[(signal, link)], sigma, 99, AdcConfig::default()),
            code,
        )
    }

    /// Both estimators as the complex-multiply kernels formed them: the
    /// descrambled buffer, the despread pilots, then the same `f64` sums.
    fn estimate_oracle(
        rx: &[Cplx<i32>],
        code: &ScramblingCode,
        delay: usize,
        n_symbols: usize,
    ) -> (Cplx<f64>, Cplx<f64>) {
        use crate::rake::finger::oracle::{descramble, despread};
        let descrambled = descramble(rx, code, delay, 0, n_symbols * CPICH_SF);
        let pilots = despread(&descrambled, CPICH_SF, 0);
        let (mut h1, mut h2) = (Cplx::<f64>::ZERO, Cplx::<f64>::ZERO);
        for (k, p) in pilots.iter().enumerate() {
            h1 += p.to_f64() * CPICH_SYMBOL.to_f64().conj();
            h2 += p.to_f64() * cpich_antenna2(k).to_f64().conj();
        }
        let scale = 1.0 / (pilots.len() as f64 * 2.0 * 2.0);
        let scaled = |h: Cplx<f64>| Cplx::new(h.re * scale, h.im * scale);
        (scaled(h1), scaled(h2))
    }

    fn bits(h: Cplx<f64>) -> (u64, u64) {
        (h.re.to_bits(), h.im.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn estimates_match_the_complex_multiply_bit_for_bit(
            limit in prop_oneof![Just(2047), Just(1 << 20), Just((1 << 30) - 1)],
            number in 0u32..512,
            delay in 0usize..200,
            half in 0usize..=5,
            seed in any::<u64>(),
        ) {
            let n_symbols = 2 * half;
            let mut rng = sdr_dsp::rng::Rng64::seed_from_u64(seed);
            let mut word = || (rng.next_u32() as i32) % (limit + 1);
            let len = delay + n_symbols * CPICH_SF + 17;
            let rx: Vec<Cplx<i32>> = (0..len).map(|_| Cplx::new(word(), word())).collect();
            let code = ScramblingCode::downlink(number);
            let (h1, h2) = estimate_oracle(&rx, &code, delay, n_symbols);
            prop_assert_eq!(bits(estimate_channel(&rx, &code, delay, n_symbols)), bits(h1));
            let (s1, s2) = estimate_channel_sttd(&rx, &code, delay, n_symbols);
            prop_assert_eq!((bits(s1), bits(s2)), (bits(h1), bits(h2)));
        }
    }

    #[test]
    fn estimates_track_path_gain_direction() {
        let gain = Cplx::new(0.6, -0.8);
        let link = CellLink::new(vec![Path::new(0, gain)]);
        let (rx, code) = pilot_frame(CellConfig::default(), link, 0.0);
        let h = estimate_channel(&rx, &code, 0, 8);
        // h should be parallel to gain: normalised dot product ≈ 1.
        let dot = (h * gain.conj()).re / (h.mag() * gain.mag());
        assert!(
            dot > 0.99,
            "direction mismatch: {h:?} vs {gain:?} (dot {dot})"
        );
    }

    #[test]
    fn estimates_scale_linearly_with_gain() {
        let l1 = CellLink::new(vec![Path::new(0, Cplx::new(1.0, 0.0))]);
        let l2 = CellLink::new(vec![Path::new(0, Cplx::new(0.5, 0.0))]);
        let (rx1, code) = pilot_frame(CellConfig::default(), l1, 0.0);
        let (rx2, _) = pilot_frame(CellConfig::default(), l2, 0.0);
        let h1 = estimate_channel(&rx1, &code, 0, 8);
        let h2 = estimate_channel(&rx2, &code, 0, 8);
        assert!(
            (h1.mag() / h2.mag() - 2.0).abs() < 0.1,
            "{} vs {}",
            h1.mag(),
            h2.mag()
        );
    }

    #[test]
    fn delayed_path_estimated_at_its_delay() {
        let gain = Cplx::new(0.0, 1.0);
        let link = CellLink::new(vec![Path::new(7, gain)]);
        let (rx, code) = pilot_frame(CellConfig::default(), link, 0.0);
        let h_at_7 = estimate_channel(&rx, &code, 7, 7);
        let h_at_0 = estimate_channel(&rx, &code, 0, 7);
        assert!(h_at_7.mag() > 5.0 * h_at_0.mag());
    }

    #[test]
    fn sttd_estimator_separates_antennas() {
        let g1 = Cplx::new(0.9, 0.1);
        let g2 = Cplx::new(-0.3, 0.7);
        let mut cfg = CellConfig::default();
        cfg.dpch.sttd = true;
        let link = CellLink {
            paths_ant1: vec![Path::new(0, g1)],
            paths_ant2: vec![Path::new(0, g2)],
        };
        let (rx, code) = pilot_frame(cfg, link, 0.0);
        let (h1, h2) = estimate_channel_sttd(&rx, &code, 0, 8);
        let d1 = (h1 * g1.conj()).re / (h1.mag() * g1.mag());
        let d2 = (h2 * g2.conj()).re / (h2.mag() * g2.mag());
        assert!(d1 > 0.98, "h1 {h1:?} vs {g1:?}");
        assert!(d2 > 0.98, "h2 {h2:?} vs {g2:?}");
    }

    #[test]
    fn quantized_weights_preserve_ratios() {
        let hs = vec![
            Cplx::new(10.0, 0.0),
            Cplx::new(5.0, 0.0),
            Cplx::new(0.0, -2.5),
        ];
        let ws = quantize_weights(&hs);
        assert_eq!(ws[0].re, WEIGHT_MAX);
        assert_eq!(ws[1].re, (WEIGHT_MAX + 1) / 2);
        assert!((ws[2].im + WEIGHT_MAX / 4).abs() <= 1);
    }

    #[test]
    fn zero_estimates_quantize_to_zero() {
        let ws = quantize_weights(&[Cplx::<f64>::ZERO; 3]);
        assert!(ws.iter().all(|w| *w == Cplx::new(0, 0)));
    }

    #[test]
    fn estimation_robust_to_moderate_noise() {
        let gain = Cplx::new(0.7, 0.7);
        let link = CellLink::new(vec![Path::new(0, gain)]);
        let (rx, code) = pilot_frame(CellConfig::default(), link, 0.05);
        let h = estimate_channel(&rx, &code, 0, 8);
        let dot = (h * gain.conj()).re / (h.mag() * gain.mag());
        assert!(dot > 0.95);
    }
}
