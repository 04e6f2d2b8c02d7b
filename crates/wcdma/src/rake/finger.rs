//! Golden model of one rake finger: descrambling, despreading and channel
//! correction — the word-level data path the paper maps onto the
//! reconfigurable array (Figs. 5–7).
//!
//! The arithmetic here is the bit-exact contract for the netlists in
//! [`crate::xpp_map`]: 12-bit samples, `±1±j` descrambling, OVSF
//! multiply-accumulate with a truncating `>> log2(SF)` normalisation, and
//! Q-format weight multiplication with a truncating shift.

use crate::ovsf::ovsf;
use crate::scrambling::ScramblingCode;
use sdr_dsp::Cplx;

/// Fractional bits of the channel-correction weights (Q9: products of a
/// 13-bit despread symbol and an 11-bit weight stay inside 24-bit words).
pub const WEIGHT_FRAC_BITS: u32 = 9;

/// Largest weight magnitude that keeps the correction product within a
/// 24-bit word.
pub(crate) const WEIGHT_MAX: i32 = 1023;

/// Descrambles `n` received chips: `y[i] = rx[delay+i] · conj(S(phase+i))`.
///
/// `delay` aligns the finger to its multipath component; `phase` is the
/// scrambling-code phase (0 when the receive buffer starts a frame).
/// The multiply is by `±1∓j`, so the output grows by at most one bit.
///
/// # Panics
///
/// Panics if `delay + n` exceeds the receive buffer.
pub fn descramble(
    rx: &[Cplx<i32>],
    code: &ScramblingCode,
    delay: usize,
    phase: usize,
    n: usize,
) -> Vec<Cplx<i32>> {
    assert!(delay + n <= rx.len(), "descramble: window exceeds buffer");
    (0..n)
        .map(|i| rx[delay + i] * code.chip(phase + i).conj())
        .collect()
}

/// Despreads a descrambled chip stream with OVSF code `C(sf, k)`:
/// one output symbol per `sf` chips, normalised by a truncating
/// `>> log2(sf)`. Trailing chips that do not fill a symbol are dropped.
///
/// # Panics
///
/// Panics on an invalid OVSF parameter pair.
pub fn despread(chips: &[Cplx<i32>], sf: usize, code_index: usize) -> Vec<Cplx<i32>> {
    let code = ovsf(sf, code_index);
    chips
        .chunks_exact(sf)
        .map(|sym| despread_symbol(sym.iter().copied(), &code))
        .collect()
}

/// One despread symbol: the chips multiply-accumulated against a whole
/// OVSF code, normalised by the truncating `>> log2(SF)`.
pub(crate) fn despread_symbol(chips: impl Iterator<Item = Cplx<i32>>, code: &[i32]) -> Cplx<i32> {
    let mut acc = Cplx::<i64>::ZERO;
    for (chip, &c) in chips.zip(code) {
        acc += Cplx::new(chip.re as i64 * c as i64, chip.im as i64 * c as i64);
    }
    acc.shr(code.len().trailing_zeros()).narrow()
}

/// Applies channel correction to a symbol stream: `(s · conj(w)) >> 9`
/// (truncating), with `w` a Q9 weight.
pub fn correct(symbols: &[Cplx<i32>], weight: Cplx<i32>) -> Vec<Cplx<i32>> {
    symbols
        .iter()
        .map(|&s| s.cmul_shr(weight.conj(), WEIGHT_FRAC_BITS))
        .collect()
}

/// Full golden finger: descramble at `delay`, despread at `(sf, code)`,
/// correct with `weight`.
pub fn finger(
    rx: &[Cplx<i32>],
    code: &ScramblingCode,
    delay: usize,
    sf: usize,
    code_index: usize,
    weight: Cplx<i32>,
) -> Vec<Cplx<i32>> {
    let n = ((rx.len() - delay) / sf) * sf;
    let descrambled = descramble(rx, code, delay, 0, n);
    let symbols = despread(&descrambled, sf, code_index);
    correct(&symbols, weight)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descramble_inverts_scrambling_up_to_factor_two() {
        let code = ScramblingCode::downlink(4);
        // rx = d · S; descramble → d · S·conj(S) = 2d.
        let d = Cplx::new(100, -50);
        let rx: Vec<Cplx<i32>> = (0..16).map(|i| d * code.chip(i)).collect();
        let y = descramble(&rx, &code, 0, 0, 16);
        for v in y {
            assert_eq!(v, d.scale(2));
        }
    }

    #[test]
    fn descramble_with_delay_and_phase() {
        let code = ScramblingCode::downlink(4);
        let d = Cplx::new(7, 7);
        // Signal delayed by 5 chips; code phase stays frame-aligned.
        let mut rx = vec![Cplx::new(0, 0); 5];
        rx.extend((0..8).map(|i| d * code.chip(i)));
        let y = descramble(&rx, &code, 5, 0, 8);
        for v in y {
            assert_eq!(v, d.scale(2));
        }
    }

    #[test]
    #[should_panic]
    fn descramble_rejects_overrun() {
        let code = ScramblingCode::downlink(0);
        descramble(&[Cplx::new(0, 0); 4], &code, 2, 0, 4);
    }

    #[test]
    fn despread_recovers_spread_symbol() {
        let sf = 16;
        let k = 3;
        let code = ovsf(sf, k);
        let sym = Cplx::new(80, -48);
        let chips: Vec<Cplx<i32>> = code.iter().map(|&c| sym.scale(c)).collect();
        let out = despread(&chips, sf, k);
        assert_eq!(out, vec![sym]); // sum = sf·sym, >>log2(sf) = sym
    }

    #[test]
    fn despread_rejects_other_codes() {
        let sf = 16;
        let code = ovsf(sf, 3);
        let sym = Cplx::new(400, 0);
        let chips: Vec<Cplx<i32>> = code.iter().map(|&c| sym.scale(c)).collect();
        // Despread with a different orthogonal code → zero.
        let out = despread(&chips, sf, 7);
        assert_eq!(out, vec![Cplx::new(0, 0)]);
    }

    #[test]
    fn despread_drops_partial_symbols() {
        let chips = vec![Cplx::new(1, 1); 20];
        assert_eq!(despread(&chips, 16, 0).len(), 1);
    }

    #[test]
    fn correct_rotates_by_conjugate_weight() {
        // weight = j·512 (Q9): s·conj(w) = s·(−j)·512 >> 9 = s·(−j).
        let w = Cplx::new(0, 512);
        let s = Cplx::new(100, 60);
        let out = correct(&[s], w);
        assert_eq!(out, vec![s.mul_neg_j()]);
    }

    #[test]
    fn correct_unit_weight_is_identity() {
        let w = Cplx::new(512, 0);
        let s = Cplx::new(-1234, 987);
        assert_eq!(correct(&[s], w), vec![s]);
    }

    #[test]
    fn full_finger_pipeline_on_clean_signal() {
        let code = ScramblingCode::downlink(2);
        let sf = 8;
        let k = 2;
        let ov = ovsf(sf, k);
        let sym = Cplx::new(64, -64);
        // Build rx = spread+scrambled chips, delayed by 3.
        let mut rx = vec![Cplx::new(0, 0); 3];
        for i in 0..sf * 4 {
            let chip = sym.scale(ov[i % sf]);
            rx.push(chip * code.chip(i));
        }
        let out = finger(&rx, &code, 3, sf, k, Cplx::new(512, 0));
        assert_eq!(out.len(), 4);
        for v in out {
            assert_eq!(v, sym.scale(2)); // descramble ×2
        }
    }
}
