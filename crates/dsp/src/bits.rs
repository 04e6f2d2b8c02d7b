//! Linear-feedback shift registers and bit utilities.
//!
//! Both standards lean on LFSRs: the 3GPP downlink scrambling codes are
//! degree-18 Gold codes, the 802.11a scrambler is the classic `x⁷+x⁴+1`
//! sequence, and the convolutional encoder is a shift register with two
//! parity taps. [`Lfsr`] implements the Fibonacci form all of these use.

/// A Fibonacci linear-feedback shift register over GF(2).
///
/// State is held in the low `degree` bits of a `u32`; bit `0` is the register
/// output (the oldest bit, `x^0` side) and feedback is the XOR of the state
/// bits selected by `taps` (a mask over the *state bits*, where bit `i`
/// corresponds to the delay element holding `x^i`'s coefficient).
///
/// The 3GPP 25.213 x-generator (`1 + X⁷ + X¹⁸`) is, in this convention,
/// `Lfsr::new(18, (1 << 7) | 1, 1)`.
///
/// # Example
///
/// ```
/// use sdr_dsp::bits::Lfsr;
///
/// // x^3 + x + 1, init 0b001 — a maximal-length sequence of period 7.
/// let mut l = Lfsr::new(3, 0b011, 0b001);
/// let seq: Vec<u8> = (0..7).map(|_| l.step()).collect();
/// assert_eq!(l.state(), 0b001); // back to the seed after one period
/// assert_eq!(seq.iter().filter(|&&b| b == 1).count(), 4); // balance property
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lfsr {
    degree: u32,
    taps: u32,
    state: u32,
}

impl Lfsr {
    /// Creates an LFSR of the given degree with a feedback tap mask and an
    /// initial state.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is 0 or greater than 31, or if `init` does not fit
    /// in `degree` bits.
    pub fn new(degree: u32, taps: u32, init: u32) -> Self {
        assert!((1..=31).contains(&degree), "lfsr degree must be in 1..=31");
        assert!(
            init < (1 << degree),
            "initial state wider than the register"
        );
        Lfsr {
            degree,
            taps,
            state: init,
        }
    }

    /// The current register contents.
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Advances the register one step and returns the output bit.
    #[inline]
    pub fn step(&mut self) -> u8 {
        let out = (self.state & 1) as u8;
        let fb = (self.state & self.taps).count_ones() & 1;
        self.state = (self.state >> 1) | (fb << (self.degree - 1));
        out
    }

    /// Returns the bit at delay `i` of the current state (bit 0 = output).
    #[inline]
    pub fn bit(&self, i: u32) -> u8 {
        debug_assert!(i < self.degree);
        ((self.state >> i) & 1) as u8
    }

    /// Generates `n` output bits.
    pub fn take_bits(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.step()).collect()
    }
}

/// Packs a slice of bits (LSB first) into a `u32`.
///
/// # Panics
///
/// Panics if more than 32 bits are supplied.
pub fn pack_lsb_first(bits: &[u8]) -> u32 {
    assert!(bits.len() <= 32);
    bits.iter()
        .enumerate()
        .fold(0u32, |acc, (i, &b)| acc | ((b as u32 & 1) << i))
}

/// Unpacks the low `n` bits of `v` into a vector, LSB first.
pub fn unpack_lsb_first(v: u32, n: usize) -> Vec<u8> {
    (0..n).map(|i| ((v >> i) & 1) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maximal_length_period() {
        // x^4 + x + 1 → period 15.
        let mut l = Lfsr::new(4, 0b0011, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..15 {
            assert!(seen.insert(l.state()));
            l.step();
        }
        assert_eq!(l.state(), 1);
    }

    #[test]
    fn zero_state_stays_zero() {
        let mut l = Lfsr::new(5, 0b00101, 0);
        for _ in 0..10 {
            assert_eq!(l.step(), 0);
        }
        assert_eq!(l.state(), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_wide_init() {
        Lfsr::new(3, 0b011, 0b1000);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let bits = vec![1, 0, 1, 1, 0, 0, 1];
        assert_eq!(unpack_lsb_first(pack_lsb_first(&bits), 7), bits);
        assert_eq!(pack_lsb_first(&bits), 0b1001101);
    }

    #[test]
    fn take_bits_length() {
        let mut l = Lfsr::new(9, (1 << 4) | 1, 1);
        assert_eq!(l.take_bits(100).len(), 100);
    }
}
