//! Golden model of one rake finger: descrambling, despreading and channel
//! correction — the word-level data path the paper maps onto the
//! reconfigurable array (Figs. 5–7).
//!
//! The arithmetic here is the bit-exact contract for the netlists in
//! [`crate::xpp_map`]: 12-bit samples, `±1±j` descrambling, OVSF
//! multiply-accumulate with a truncating `>> log2(SF)` normalisation, and
//! Q-format weight multiplication with a truncating shift.

use crate::ovsf::ovsf;
use crate::scrambling::{flip, ScramblingCode};
use crate::tx::CPICH_SF;
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
/// It is formed as sign flips of the received components, from the code's
/// packed bits 256 chips at a time.
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
    let mut out = Vec::with_capacity(n);
    for (k, chips) in rx[delay..delay + n].chunks(CPICH_SF).enumerate() {
        out.extend(ChipMasks::at(code, phase + k * CPICH_SF).descramble(chips));
    }
    out
}

/// Despreads a descrambled chip stream with OVSF code `C(sf, k)`:
/// one output symbol per `sf` chips, normalised by a truncating
/// `>> log2(sf)`. Trailing chips that do not fill a symbol are dropped.
/// Each chip is added or subtracted by the code's sign, in `i64`.
///
/// # Panics
///
/// Panics on an invalid OVSF parameter pair.
pub fn despread(chips: &[Cplx<i32>], sf: usize, code_index: usize) -> Vec<Cplx<i32>> {
    let signs: Vec<i64> = ovsf(sf, code_index)
        .into_iter()
        .map(|c| -i64::from(c < 0))
        .collect();
    chips
        .chunks_exact(sf)
        .map(|symbol| {
            let (mut re, mut im) = (0i64, 0i64);
            for (c, &m) in symbol.iter().zip(&signs) {
                re += (i64::from(c.re) ^ m) - m;
                im += (i64::from(c.im) ^ m) - m;
            }
            Cplx::new(re, im).shr(sf.trailing_zeros()).narrow()
        })
        .collect()
}

/// The sign masks of 256 consecutive code chips — one CPICH symbol's
/// worth — held on the stack.
pub(crate) struct ChipMasks {
    i: [i32; CPICH_SF],
    q: [i32; CPICH_SF],
}

impl ChipMasks {
    /// The masks of frame chips `phase ..` (wrapping at the frame end).
    pub(crate) fn at(code: &ScramblingCode, phase: usize) -> Self {
        let mut masks = ChipMasks {
            i: [0; CPICH_SF],
            q: [0; CPICH_SF],
        };
        code.sign_masks(phase, &mut masks.i, &mut masks.q);
        masks
    }

    /// `chips[k] · conj(S(phase + k))` for up to 256 received chips: with
    /// `S = a + jb`, `(a·re + b·im) + j(a·im − b·re)`, each sum wrapping in
    /// `i32` as the complex multiply does.
    fn descramble<'a>(&'a self, chips: &'a [Cplx<i32>]) -> impl Iterator<Item = Cplx<i32>> + 'a {
        let masks = self.i.iter().zip(&self.q);
        chips.iter().zip(masks).map(|(&c, (&si, &sq))| {
            Cplx::new(
                flip(c.re, si).wrapping_add(flip(c.im, sq)),
                flip(c.im, si).wrapping_sub(flip(c.re, sq)),
            )
        })
    }

    /// One despread pilot symbol of the first 256 chips of `rx`, at the
    /// masks' phase: the CPICH is OVSF code 0, all `+1`, so its replica is
    /// `conj(S(i))` itself, and this is `despread(&descramble(..), 256, 0)`
    /// for one symbol without either buffer — the descrambled chips summed
    /// exactly, then the despreader's truncating `>> 8`.
    ///
    /// The exact sum `S` of 256 words is kept in two `i32` lanes, so the
    /// loop vectorises four chips wide: the wrapping sum `W = S mod 2³²`
    /// and `H = Σ (v >> 16)`, which cannot overflow (256 · 2¹⁵). The low
    /// halves sum to `L = S − 2¹⁶·H`, which lies in `[0, 2²⁴)`, so
    /// `L = (W − 2¹⁶·H) mod 2³²` and `S = 2¹⁶·H + L`.
    ///
    /// # Panics
    ///
    /// Panics if `rx` holds fewer than 256 chips.
    pub(crate) fn despread_pilot(&self, rx: &[Cplx<i32>]) -> Cplx<i32> {
        let chips: &[Cplx<i32>; CPICH_SF] = rx[..CPICH_SF].try_into().expect("256 chips");
        let (mut wrapped, mut high) = (Cplx::<i32>::ZERO, Cplx::<i32>::ZERO);
        for chip in self.descramble(chips) {
            wrapped = Cplx::new(
                wrapped.re.wrapping_add(chip.re),
                wrapped.im.wrapping_add(chip.im),
            );
            high = Cplx::new(high.re + (chip.re >> 16), high.im + (chip.im >> 16));
        }
        let exact = |w: i32, h: i32| {
            (i64::from(h) << 16) + i64::from(w.wrapping_sub(h.wrapping_shl(16)) as u32)
        };
        Cplx::new(exact(wrapped.re, high.re), exact(wrapped.im, high.im))
            .shr(CPICH_SF.trailing_zeros())
            .narrow()
    }
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

/// The complex-multiply forms the sign-flip kernels replaced, kept as
/// their oracles.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// [`descramble`] as one complex multiply by `conj(S(phase+i))` per
    /// chip.
    pub(crate) fn descramble(
        rx: &[Cplx<i32>],
        code: &ScramblingCode,
        delay: usize,
        phase: usize,
        n: usize,
    ) -> Vec<Cplx<i32>> {
        (0..n)
            .map(|i| rx[delay + i] * code.chip(phase + i).conj())
            .collect()
    }

    /// [`despread`] as one multiply by the OVSF chip per chip.
    pub(crate) fn despread(chips: &[Cplx<i32>], sf: usize, code_index: usize) -> Vec<Cplx<i32>> {
        let code = ovsf(sf, code_index);
        chips
            .chunks_exact(sf)
            .map(|sym| despread_symbol(sym.iter().copied(), &code))
            .collect()
    }

    /// One despread symbol: the chips multiply-accumulated against a
    /// whole OVSF code, normalised by the truncating `>> log2(SF)`.
    pub(crate) fn despread_symbol(
        chips: impl Iterator<Item = Cplx<i32>>,
        code: &[i32],
    ) -> Cplx<i32> {
        let mut acc = Cplx::<i64>::ZERO;
        for (chip, &c) in chips.zip(code) {
            acc += Cplx::new(chip.re as i64 * c as i64, chip.im as i64 * c as i64);
        }
        acc.shr(code.len().trailing_zeros()).narrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Received words up to the widest that keeps the oracle's
    /// descrambling sums (`|re| + |im|`) inside `i32`.
    fn arb_rx(len: usize, limit: i32, seed: u64) -> Vec<Cplx<i32>> {
        let mut rng = sdr_dsp::rng::Rng64::seed_from_u64(seed);
        let mut word = || (rng.next_u32() as i32) % (limit + 1);
        (0..len).map(|_| Cplx::new(word(), word())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn descramble_matches_the_complex_multiply(
            limit in prop_oneof![Just(2047), Just(1 << 20), Just((1 << 30) - 1)],
            number in 0u32..512,
            delay in 0usize..300,
            // Either side of the frame boundary, and well past it.
            phase in prop_oneof![0usize..1000, 38_000usize..38_400, 70_000usize..80_000],
            n in 0usize..1100,
            seed in any::<u64>(),
        ) {
            let rx = arb_rx(delay + n, limit, seed);
            let code = ScramblingCode::downlink(number);
            prop_assert_eq!(
                descramble(&rx, &code, delay, phase, n),
                oracle::descramble(&rx, &code, delay, phase, n)
            );
        }

        #[test]
        fn despread_matches_the_ovsf_multiply(
            log_sf in 2u32..=9,
            index in any::<usize>(),
            len in 0usize..2100,
            seed in any::<u64>(),
        ) {
            let sf = 1 << log_sf;
            let mut rng = sdr_dsp::rng::Rng64::seed_from_u64(seed);
            let mut word = || rng.next_u32() as i32;
            // Full-range words: the sums are `i64`, the narrowing wraps.
            let chips: Vec<Cplx<i32>> = (0..len).map(|_| Cplx::new(word(), word())).collect();
            prop_assert_eq!(
                despread(&chips, sf, index % sf),
                oracle::despread(&chips, sf, index % sf)
            );
        }
    }

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
