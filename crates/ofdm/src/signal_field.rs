//! The 802.11a SIGNAL field (§17.3.4): one BPSK rate-1/2 OFDM symbol
//! carrying RATE (4 bits), a reserved bit, LENGTH (12 bits, octets,
//! LSB first), an even-parity bit and 6 tail zeros — transmitted
//! unscrambled right after the long preamble so the receiver can configure
//! itself for the DATA field.

use crate::convolutional::{encode, viterbi_decode};
use crate::interleaver::{deinterleave, interleave};
use crate::modulation::{demap_soft, map_bits};
use crate::params::{Modulation, RateParams};
use sdr_dsp::Cplx;

/// Number of information bits in the SIGNAL field (incl. tail).
pub(crate) const SIGNAL_BITS: usize = 24;

/// Largest PSDU length encodable in the 12-bit LENGTH field, in octets.
pub(crate) const MAX_LENGTH_OCTETS: usize = 4095;

/// RATE-field encoding (R1..R4, transmitted in that order).
fn rate_bits(mbps: u32) -> Option<[u8; 4]> {
    Some(match mbps {
        6 => [1, 1, 0, 1],
        9 => [1, 1, 1, 1],
        12 => [0, 1, 0, 1],
        18 => [0, 1, 1, 1],
        24 => [1, 0, 0, 1],
        36 => [1, 0, 1, 1],
        48 => [0, 0, 0, 1],
        54 => [0, 0, 1, 1],
        _ => return None,
    })
}

fn rate_from_bits(bits: &[u8]) -> Option<RateParams> {
    for r in crate::params::RATES {
        if rate_bits(r.mbps).expect("table rate")[..] == bits[..4] {
            return Some(r);
        }
    }
    None
}

/// Assembles the 24 SIGNAL bits for a rate and PSDU length (octets).
///
/// # Panics
///
/// Panics if the rate is not a standard rate point or the length exceeds
/// 4095 octets.
pub fn signal_bits(r: RateParams, length_octets: usize) -> [u8; SIGNAL_BITS] {
    assert!(
        length_octets <= MAX_LENGTH_OCTETS,
        "LENGTH field is 12 bits"
    );
    let rb = rate_bits(r.mbps).expect("standard rate point");
    let mut bits = [0u8; SIGNAL_BITS];
    bits[..4].copy_from_slice(&rb);
    // bit 4 reserved = 0; bits 5..17 LENGTH LSB first.
    for i in 0..12 {
        bits[5 + i] = ((length_octets >> i) & 1) as u8;
    }
    // bit 17: even parity over bits 0..17.
    let ones: u8 = bits[..17].iter().sum();
    bits[17] = ones & 1;
    // bits 18..24 tail zeros (already).
    bits
}

/// Parses decoded SIGNAL bits; `None` if the parity fails, a reserved bit
/// is set, or the RATE pattern is unknown.
pub fn parse_signal_bits(bits: &[u8]) -> Option<(RateParams, usize)> {
    if bits.len() < SIGNAL_BITS {
        return None;
    }
    let ones: u8 = bits[..17].iter().sum();
    if ones & 1 != bits[17] & 1 || bits[4] != 0 {
        return None;
    }
    let r = rate_from_bits(bits)?;
    let mut length = 0usize;
    for i in 0..12 {
        length |= ((bits[5 + i] & 1) as usize) << i;
    }
    Some((r, length))
}

/// Encodes the SIGNAL field to its 48 BPSK constellation points
/// (rate 1/2, BPSK-interleaved, not scrambled).
pub fn signal_points(r: RateParams, length_octets: usize) -> Vec<Cplx<f64>> {
    let bits = signal_bits(r, length_octets);
    let coded = encode(&bits); // rate 1/2, trellis terminated by the tail
    let interleaved = interleave(&coded, Modulation::Bpsk);
    map_bits(&interleaved, Modulation::Bpsk)
}

/// Decodes the SIGNAL field from 48 equalised subcarrier values.
///
/// # Panics
///
/// Panics if not exactly 48 values are supplied.
pub fn decode_signal(equalised: &[Cplx<f64>]) -> Option<(RateParams, usize)> {
    assert_eq!(equalised.len(), 48, "SIGNAL occupies one OFDM symbol");
    let llrs: Vec<i32> = equalised
        .iter()
        .flat_map(|&y| demap_soft(y, Modulation::Bpsk, 64.0))
        .collect();
    let deinterleaved = deinterleave(&llrs, Modulation::Bpsk);
    let bits = viterbi_decode(&deinterleaved);
    parse_signal_bits(&bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::rate;
    use sdr_dsp::noise::Awgn;

    #[test]
    fn rate_bits_roundtrip_all_rates() {
        for r in crate::params::RATES {
            let bits = signal_bits(r, 100);
            let (parsed, len) = parse_signal_bits(&bits).expect("valid SIGNAL");
            assert_eq!(parsed.mbps, r.mbps);
            assert_eq!(len, 100);
        }
    }

    #[test]
    fn length_field_covers_the_range() {
        for len in [0usize, 1, 255, 2047, 4095] {
            let bits = signal_bits(rate(6).unwrap(), len);
            assert_eq!(parse_signal_bits(&bits).unwrap().1, len);
        }
    }

    #[test]
    #[should_panic]
    fn oversized_length_rejected() {
        signal_bits(rate(6).unwrap(), 4096);
    }

    #[test]
    fn parity_error_is_detected() {
        let mut bits = signal_bits(rate(24).unwrap(), 64);
        bits[2] ^= 1;
        assert!(parse_signal_bits(&bits).is_none());
    }

    #[test]
    fn reserved_bit_is_checked() {
        let mut bits = signal_bits(rate(24).unwrap(), 64);
        bits[4] = 1;
        bits[17] ^= 1; // keep parity consistent so only the reserved bit trips
        assert!(parse_signal_bits(&bits).is_none());
    }

    #[test]
    fn points_decode_cleanly() {
        let pts = signal_points(rate(36).unwrap(), 1234);
        let (r, len) = decode_signal(&pts).expect("clean decode");
        assert_eq!(r.mbps, 36);
        assert_eq!(len, 1234);
    }

    #[test]
    fn points_decode_under_noise() {
        let mut pts = signal_points(rate(54).unwrap(), 999);
        let mut awgn = Awgn::new(5, 0.25);
        for p in &mut pts {
            *p += awgn.sample();
        }
        // The rate-1/2 coded, 48-carrier BPSK symbol is very robust.
        let (r, len) = decode_signal(&pts).expect("decode under noise");
        assert_eq!(r.mbps, 54);
        assert_eq!(len, 999);
    }
}
