//! Symbol mapping, pilot sequences and Space-Time Transmit Diversity (STTD).
//!
//! Downlink DPCH data is QPSK; the common pilot (CPICH) transmits a known
//! symbol sequence used for channel estimation; STTD (TS 25.211 §5.3.1.1.1)
//! is the open-loop transmit-diversity scheme whose decoding the paper maps
//! onto the array's channel-correction unit (Fig. 7).

use sdr_dsp::Cplx;

/// Maps a bit pair to a QPSK symbol: `0 → +1`, `1 → −1` per component.
#[inline]
pub(crate) fn qpsk_map(b0: u8, b1: u8) -> Cplx<i32> {
    Cplx::new(1 - 2 * (b0 as i32 & 1), 1 - 2 * (b1 as i32 & 1))
}

/// Hard QPSK decision back to bits `(b0, b1)`.
#[inline]
pub fn qpsk_demap(s: Cplx<i64>) -> (u8, u8) {
    ((s.re < 0) as u8, (s.im < 0) as u8)
}

/// Maps a bit slice (even length) to QPSK symbols.
///
/// # Example
///
/// ```
/// use sdr_wcdma::symbols::qpsk_map_bits;
/// assert_eq!(qpsk_map_bits(&[0, 1]), vec![sdr_dsp::Cplx::new(1, -1)]);
/// ```
///
/// # Panics
///
/// Panics if the bit count is odd.
pub fn qpsk_map_bits(bits: &[u8]) -> Vec<Cplx<i32>> {
    assert!(
        bits.len().is_multiple_of(2),
        "QPSK needs an even number of bits"
    );
    bits.chunks(2).map(|p| qpsk_map(p[0], p[1])).collect()
}

/// The CPICH pilot symbol on antenna 1: always `1 + j` (pre-scaling).
pub(crate) const CPICH_SYMBOL: Cplx<i32> = Cplx::new(1, 1);

/// The CPICH symbol on antenna 2 at symbol index `n`: the diversity pilot
/// pattern alternates sign every symbol so the receiver can separate the two
/// antennas' channels.
#[inline]
pub(crate) fn cpich_antenna2(n: usize) -> Cplx<i32> {
    if n.is_multiple_of(2) {
        CPICH_SYMBOL
    } else {
        -CPICH_SYMBOL
    }
}

/// STTD-encodes a symbol stream: pairs `(s1, s2)` become
/// antenna 1: `s1, s2` and antenna 2: `−s2*, s1*`.
///
/// A trailing unpaired symbol is transmitted without diversity (antenna 2
/// sends zero).
pub fn sttd_encode(symbols: &[Cplx<i32>]) -> (Vec<Cplx<i32>>, Vec<Cplx<i32>>) {
    let mut ant1 = Vec::with_capacity(symbols.len());
    let mut ant2 = Vec::with_capacity(symbols.len());
    let mut chunks = symbols.chunks_exact(2);
    for pair in &mut chunks {
        let (s1, s2) = (pair[0], pair[1]);
        ant1.push(s1);
        ant1.push(s2);
        ant2.push(-s2.conj());
        ant2.push(s1.conj());
    }
    if let [s] = chunks.remainder() {
        ant1.push(*s);
        ant2.push(Cplx::new(0, 0));
    }
    (ant1, ant2)
}

/// STTD decode of one received pair with channel estimates `h1`, `h2`
/// (floating point, used by the golden combiner):
/// `ŝ1 = h1*·r1 + h2·r2*`, `ŝ2 = h1*·r2 − h2·r1*`.
///
/// The output is scaled by `|h1|² + |h2|²` relative to the transmitted
/// symbols (pure maximum-ratio gain — sign decisions are unaffected).
pub fn sttd_decode(
    r1: Cplx<f64>,
    r2: Cplx<f64>,
    h1: Cplx<f64>,
    h2: Cplx<f64>,
) -> (Cplx<f64>, Cplx<f64>) {
    let s1 = h1.conj() * r1 + h2 * r2.conj();
    let s2 = h1.conj() * r2 - h2 * r1.conj();
    (s1, s2)
}

/// Integer STTD decode with Q-format weights (the array datapath of Fig. 7):
/// `ŝ1 = (w1*·r1 + w2·r2*) >> frac`, `ŝ2 = (w1*·r2 − w2·r1*) >> frac`,
/// truncating arithmetic shift, 64-bit intermediates.
pub fn sttd_decode_fixed(
    r1: Cplx<i32>,
    r2: Cplx<i32>,
    w1: Cplx<i32>,
    w2: Cplx<i32>,
    frac: u32,
) -> (Cplx<i32>, Cplx<i32>) {
    let a = r1.widen() * w1.conj().widen() + r2.conj().widen() * w2.widen();
    let b = r2.widen() * w1.conj().widen() - r1.conj().widen() * w2.widen();
    (a.shr(frac).narrow(), b.shr(frac).narrow())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qpsk_roundtrip() {
        for b0 in 0..2u8 {
            for b1 in 0..2u8 {
                let s = qpsk_map(b0, b1);
                assert_eq!(qpsk_demap(s.widen()), (b0, b1));
            }
        }
    }

    #[test]
    fn qpsk_map_bits_pairs() {
        let syms = qpsk_map_bits(&[0, 0, 1, 1, 0, 1]);
        assert_eq!(
            syms,
            vec![Cplx::new(1, 1), Cplx::new(-1, -1), Cplx::new(1, -1)]
        );
    }

    #[test]
    #[should_panic]
    fn qpsk_rejects_odd_bits() {
        qpsk_map_bits(&[0, 1, 0]);
    }

    #[test]
    fn sttd_encode_structure() {
        let s1 = Cplx::new(1, 1);
        let s2 = Cplx::new(-1, 1);
        let (a1, a2) = sttd_encode(&[s1, s2]);
        assert_eq!(a1, vec![s1, s2]);
        assert_eq!(a2, vec![-s2.conj(), s1.conj()]);
    }

    #[test]
    fn sttd_encode_odd_tail() {
        let (a1, a2) = sttd_encode(&[Cplx::new(1, -1)]);
        assert_eq!(a1.len(), 1);
        assert_eq!(a2, vec![Cplx::new(0, 0)]);
    }

    #[test]
    fn sttd_decode_recovers_symbols_exactly() {
        // r1 = h1 s1 - h2 s2*, r2 = h1 s2 + h2 s1*.
        let h1 = Cplx::new(0.8, -0.3);
        let h2 = Cplx::new(-0.2, 0.6);
        for &(s1, s2) in &[
            (Cplx::new(1.0, 1.0), Cplx::new(-1.0, 1.0)),
            (Cplx::new(-1.0, -1.0), Cplx::new(1.0, -1.0)),
        ] {
            let r1 = h1 * s1 - h2 * s2.conj();
            let r2 = h1 * s2 + h2 * s1.conj();
            let (d1, d2) = sttd_decode(r1, r2, h1, h2);
            let gain = h1.sqmag() + h2.sqmag();
            assert!((d1.re - gain * s1.re).abs() < 1e-12);
            assert!((d1.im - gain * s1.im).abs() < 1e-12);
            assert!((d2.re - gain * s2.re).abs() < 1e-12);
            assert!((d2.im - gain * s2.im).abs() < 1e-12);
        }
    }

    #[test]
    fn sttd_decode_fixed_tracks_float() {
        let w1 = Cplx::new(400, -150); // Q9-ish weights
        let w2 = Cplx::new(-100, 300);
        let r1 = Cplx::new(1200, -800);
        let r2 = Cplx::new(-500, 950);
        let (d1, d2) = sttd_decode_fixed(r1, r2, w1, w2, 9);
        let (f1, f2) = sttd_decode(r1.to_f64(), r2.to_f64(), w1.to_f64(), w2.to_f64());
        assert!((d1.re as f64 - f1.re / 512.0).abs() <= 1.0);
        assert!((d1.im as f64 - f1.im / 512.0).abs() <= 1.0);
        assert!((d2.re as f64 - f2.re / 512.0).abs() <= 1.0);
        assert!((d2.im as f64 - f2.im / 512.0).abs() <= 1.0);
    }

    #[test]
    fn cpich_pattern_alternates_on_antenna2() {
        assert_eq!(cpich_antenna2(0), CPICH_SYMBOL);
        assert_eq!(cpich_antenna2(1), -CPICH_SYMBOL);
        assert_eq!(cpich_antenna2(2), CPICH_SYMBOL);
    }
}
