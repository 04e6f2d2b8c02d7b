//! Subcarrier modulation: Gray-mapped BPSK/QPSK/16-QAM/64-QAM (§17.3.5.7)
//! and approximate per-bit soft demapping.

use crate::params::Modulation;
use sdr_dsp::Cplx;

/// Gray map of bits to one axis: BPSK/QPSK `0→−1, 1→+1`; 16-QAM
/// `00→−3, 01→−1, 11→+1, 10→+3`; 64-QAM the standard 3-bit Gray column.
fn axis_level(bits: &[u8]) -> f64 {
    match bits.len() {
        1 => (2 * bits[0] as i32 - 1) as f64,
        2 => match (bits[0], bits[1]) {
            (0, 0) => -3.0,
            (0, 1) => -1.0,
            (1, 1) => 1.0,
            (1, 0) => 3.0,
            _ => unreachable!(),
        },
        3 => match (bits[0], bits[1], bits[2]) {
            (0, 0, 0) => -7.0,
            (0, 0, 1) => -5.0,
            (0, 1, 1) => -3.0,
            (0, 1, 0) => -1.0,
            (1, 1, 0) => 1.0,
            (1, 1, 1) => 3.0,
            (1, 0, 1) => 5.0,
            (1, 0, 0) => 7.0,
            _ => unreachable!(),
        },
        _ => unreachable!("axis takes 1..=3 bits"),
    }
}

/// Normalisation factor K_MOD so average symbol energy is 1.
pub(crate) fn k_mod(modulation: Modulation) -> f64 {
    match modulation {
        Modulation::Bpsk => 1.0,
        Modulation::Qpsk => 1.0 / 2f64.sqrt(),
        Modulation::Qam16 => 1.0 / 10f64.sqrt(),
        Modulation::Qam64 => 1.0 / 42f64.sqrt(),
    }
}

/// Maps `bits_per_carrier` bits to one normalised constellation point.
/// BPSK modulates the real axis only.
///
/// # Panics
///
/// Panics if the bit count does not match the modulation.
pub fn map_symbol(bits: &[u8], modulation: Modulation) -> Cplx<f64> {
    let n = modulation.bits_per_carrier();
    assert_eq!(bits.len(), n, "map_symbol: wrong bit count");
    let k = k_mod(modulation);
    match modulation {
        Modulation::Bpsk => Cplx::new(axis_level(&bits[..1]) * k, 0.0),
        Modulation::Qpsk => Cplx::new(axis_level(&bits[..1]) * k, axis_level(&bits[1..2]) * k),
        Modulation::Qam16 => Cplx::new(axis_level(&bits[..2]) * k, axis_level(&bits[2..4]) * k),
        Modulation::Qam64 => Cplx::new(axis_level(&bits[..3]) * k, axis_level(&bits[3..6]) * k),
    }
}

/// Maps a bit stream to constellation points (one symbol per
/// `bits_per_carrier` bits).
///
/// # Panics
///
/// Panics if the bit count is not a multiple of the modulation's bits.
pub fn map_bits(bits: &[u8], modulation: Modulation) -> Vec<Cplx<f64>> {
    let n = modulation.bits_per_carrier();
    assert!(bits.len().is_multiple_of(n), "map_bits: partial symbol");
    bits.chunks(n).map(|c| map_symbol(c, modulation)).collect()
}

/// Per-axis soft metrics in unnormalised units (levels ±1, ±3, …):
/// successive piecewise-linear LLR approximations, positive = bit 1 for the
/// sign bit convention used here, then negated to the decoder's
/// positive-=-0 convention by the caller below.
fn axis_soft(y: f64, bits: usize, out: &mut Vec<f64>) {
    match bits {
        1 => out.push(y),
        2 => {
            out.push(y);
            out.push(2.0 - y.abs());
        }
        3 => {
            out.push(y);
            out.push(4.0 - y.abs());
            out.push(2.0 - (y.abs() - 4.0).abs());
        }
        _ => unreachable!(),
    }
}

/// Soft-demaps one equalised constellation point into per-bit LLR integers
/// (positive = bit 0, the Viterbi decoder's convention), scaled by
/// `scale`.
pub(crate) fn demap_soft(y: Cplx<f64>, modulation: Modulation, scale: f64) -> Vec<i32> {
    let k = k_mod(modulation);
    let yr = y.re / k;
    let yi = y.im / k;
    let mut raw = Vec::with_capacity(modulation.bits_per_carrier());
    match modulation {
        Modulation::Bpsk => axis_soft(yr, 1, &mut raw),
        Modulation::Qpsk => {
            axis_soft(yr, 1, &mut raw);
            axis_soft(yi, 1, &mut raw);
        }
        Modulation::Qam16 => {
            axis_soft(yr, 2, &mut raw);
            axis_soft(yi, 2, &mut raw);
        }
        Modulation::Qam64 => {
            axis_soft(yr, 3, &mut raw);
            axis_soft(yi, 3, &mut raw);
        }
    }
    // Internally positive = bit 1 (levels grow with the Gray sign bit);
    // negate for the decoder's positive-=-0 convention, clamp to i16 range.
    raw.iter()
        .map(|&l| (-(l * scale)).clamp(-32768.0, 32767.0).round() as i32)
        .collect()
}

/// Hard decision: demap and threshold.
pub fn demap_hard(y: Cplx<f64>, modulation: Modulation) -> Vec<u8> {
    demap_soft(y, modulation, 64.0)
        .iter()
        .map(|&l| (l < 0) as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_bit_patterns(n: usize) -> Vec<Vec<u8>> {
        (0..1usize << n)
            .map(|v| (0..n).map(|b| ((v >> (n - 1 - b)) & 1) as u8).collect())
            .collect()
    }

    #[test]
    fn constellations_have_unit_average_energy() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let pats = all_bit_patterns(m.bits_per_carrier());
            let e: f64 =
                pats.iter().map(|p| map_symbol(p, m).sqmag()).sum::<f64>() / pats.len() as f64;
            assert!((e - 1.0).abs() < 1e-12, "{m:?} energy {e}");
        }
    }

    #[test]
    fn hard_demap_inverts_map_for_all_patterns() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            for p in all_bit_patterns(m.bits_per_carrier()) {
                let y = map_symbol(&p, m);
                assert_eq!(demap_hard(y, m), p, "{m:?} {p:?}");
            }
        }
    }

    #[test]
    fn gray_neighbours_differ_in_one_bit() {
        // Adjacent 16-QAM I-levels differ in exactly one of the two I bits.
        let levels = [
            (vec![0u8, 0], -3.0),
            (vec![0, 1], -1.0),
            (vec![1, 1], 1.0),
            (vec![1, 0], 3.0),
        ];
        for w in levels.windows(2) {
            let diff = w[0].0.iter().zip(&w[1].0).filter(|(a, b)| a != b).count();
            assert_eq!(diff, 1);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn soft_metric_signs_match_hard_decisions() {
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            for p in all_bit_patterns(m.bits_per_carrier()) {
                let y = map_symbol(&p, m);
                let soft = demap_soft(y, m, 32.0);
                for (i, &l) in soft.iter().enumerate() {
                    let bit = (l < 0) as u8;
                    assert_eq!(bit, p[i], "{m:?} {p:?} bit {i}: llr {l}");
                }
            }
        }
    }

    #[test]
    fn noisier_points_give_weaker_llrs() {
        let m = Modulation::Qpsk;
        let clean = demap_soft(map_symbol(&[1, 1], m), m, 32.0);
        let noisy = demap_soft(map_symbol(&[1, 1], m) + Cplx::new(-0.5, -0.5), m, 32.0);
        assert!(noisy[0].abs() < clean[0].abs());
    }

    #[test]
    fn bpsk_ignores_imaginary() {
        let soft = demap_soft(Cplx::new(0.8, -5.0), Modulation::Bpsk, 32.0);
        assert_eq!(soft.len(), 1);
        assert!(soft[0] < 0); // bit 1
    }

    #[test]
    #[should_panic]
    fn wrong_bit_count_rejected() {
        map_symbol(&[0, 1], Modulation::Bpsk);
    }
}
