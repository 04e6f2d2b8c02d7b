//! The 802.11a data scrambler/descrambler (`x⁷ + x⁴ + 1`), and the pilot
//! polarity sequence derived from it.

use sdr_dsp::bits::Lfsr;

/// Length of the scrambler sequence period.
pub(crate) const SCRAMBLER_PERIOD: usize = 127;

/// The frame-synchronous data scrambler. Scrambling and descrambling are
/// the same operation (XOR with the sequence).
///
/// # Example
///
/// ```
/// use sdr_ofdm::scrambler::Scrambler;
///
/// let data = vec![1, 0, 1, 1, 0, 0, 1];
/// let scrambled = Scrambler::new(0x5D).scramble(&data);
/// let recovered = Scrambler::new(0x5D).scramble(&scrambled);
/// assert_eq!(recovered, data);
/// ```
#[derive(Debug, Clone)]
pub struct Scrambler {
    lfsr: Lfsr,
}

impl Scrambler {
    /// Creates a scrambler with a 7-bit seed (must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if the seed is zero or wider than 7 bits.
    pub fn new(seed: u32) -> Self {
        assert!(
            seed != 0 && seed < 128,
            "scrambler seed must be 7 bits, non-zero"
        );
        // Fibonacci form: output/feedback = x⁷ ⊕ x⁴; state bit i holds the
        // value that leaves the register in i steps.
        Scrambler {
            lfsr: Lfsr::new(7, (1 << 3) | 1, seed),
        }
    }

    /// The next sequence bit.
    pub(crate) fn next_bit(&mut self) -> u8 {
        // Feedback = s(x⁷) ⊕ s(x⁴) = bit0 ⊕ bit3 in this orientation.
        let b = (self.lfsr.bit(0) ^ self.lfsr.bit(3)) & 1;
        self.lfsr.step();
        b
    }

    /// XORs the sequence onto a bit slice.
    pub fn scramble(mut self, bits: &[u8]) -> Vec<u8> {
        bits.iter().map(|&b| b ^ self.next_bit()).collect()
    }

    /// In-place variant that keeps the scrambler state for streaming.
    pub(crate) fn scramble_in_place(&mut self, bits: &mut [u8]) {
        for b in bits {
            *b ^= self.next_bit();
        }
    }
}

/// The 127-element pilot polarity sequence `p₀…p₁₂₆` (±1): the scrambler
/// sequence with an all-ones seed, mapped `0 → +1, 1 → −1`, repeated
/// cyclically over the symbols of a frame (symbol 0 is the SIGNAL symbol in
/// the standard; we index data symbols from 1 like the standard does).
pub(crate) fn pilot_polarity() -> [i32; SCRAMBLER_PERIOD] {
    let mut s = Scrambler::new(0x7F);
    let mut p = [0i32; SCRAMBLER_PERIOD];
    for v in &mut p {
        *v = 1 - 2 * s.next_bit() as i32;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_has_period_127() {
        let mut s = Scrambler::new(0x7F);
        let first: Vec<u8> = (0..SCRAMBLER_PERIOD).map(|_| s.next_bit()).collect();
        let second: Vec<u8> = (0..SCRAMBLER_PERIOD).map(|_| s.next_bit()).collect();
        assert_eq!(first, second);
        // And it is balanced: 64 ones, 63 zeros.
        assert_eq!(first.iter().filter(|&&b| b == 1).count(), 64);
    }

    #[test]
    fn scramble_is_involution() {
        let data: Vec<u8> = (0..200).map(|i| ((i * 5 + 1) % 2) as u8).collect();
        let once = Scrambler::new(0x2A).scramble(&data);
        assert_ne!(once, data);
        let twice = Scrambler::new(0x2A).scramble(&once);
        assert_eq!(twice, data);
    }

    #[test]
    fn pilot_polarity_matches_standard_prefix() {
        // 802.11a Eq. 25: p = {1,1,1,1, -1,-1,-1,1, -1,-1,-1,-1, 1,1,-1,1, …}.
        let p = pilot_polarity();
        assert_eq!(
            &p[..16],
            &[1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, 1]
        );
    }

    #[test]
    #[should_panic]
    fn zero_seed_rejected() {
        Scrambler::new(0);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..64).map(|i| (i % 2) as u8).collect();
        let oneshot = Scrambler::new(0x11).scramble(&data);
        let mut streaming = Scrambler::new(0x11);
        let mut buf = data.clone();
        streaming.scramble_in_place(&mut buf[..32]);
        streaming.scramble_in_place(&mut buf[32..]);
        assert_eq!(buf, oneshot);
    }
}
