//! The 24-bit machine word of the XPP ALU processing elements.

use std::fmt;

/// Number of bits in an XPP data word.
pub(crate) const WORD_BITS: u32 = 24;

/// Smallest (most negative) [`Word`] value, `−2²³`.
pub const WORD_MIN: i32 = -(1 << (WORD_BITS - 1));

/// A 24-bit two's-complement data word.
///
/// All arithmetic wraps modulo 2²⁴, exactly as the ALU-PAE datapath does;
/// multiplication is performed at 48-bit precision with a configurable slice
/// extracted ([`Word::mul_shr`]). The inner value is always stored
/// sign-extended to `i32`.
///
/// # Example
///
/// ```
/// use xpp_array::Word;
///
/// let a = Word::new(0x7F_FFFF);          // WORD_MAX
/// assert_eq!(a.wrapping_add(Word::new(1)), Word::new(-0x80_0000)); // wraps
/// assert_eq!(Word::new(3).mul_shr(Word::new(-4), 1).value(), -6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Word(i32);

impl Word {
    /// Zero.
    pub const ZERO: Word = Word(0);
    /// One.
    pub const ONE: Word = Word(1);

    /// Creates a word, wrapping the value into 24-bit two's complement.
    #[inline]
    pub const fn new(v: i32) -> Self {
        Word((v << 8) >> 8)
    }

    /// Creates a word from an `i64`, wrapping into 24 bits.
    #[inline]
    pub(crate) const fn from_i64(v: i64) -> Self {
        Word(((v as i32) << 8) >> 8)
    }

    /// The sign-extended value.
    #[inline]
    pub const fn value(self) -> i32 {
        self.0
    }

    /// The raw 24-bit pattern in the low bits of a `u32`.
    #[inline]
    pub(crate) const fn bits(self) -> u32 {
        (self.0 as u32) & 0x00FF_FFFF
    }

    /// Wrapping addition.
    #[inline]
    pub fn wrapping_add(self, rhs: Word) -> Word {
        Word::from_i64(self.0 as i64 + rhs.0 as i64)
    }

    /// Wrapping subtraction.
    #[inline]
    pub(crate) fn wrapping_sub(self, rhs: Word) -> Word {
        Word::from_i64(self.0 as i64 - rhs.0 as i64)
    }

    /// Wrapping negation.
    #[inline]
    pub(crate) fn wrapping_neg(self) -> Word {
        Word::from_i64(-(self.0 as i64))
    }

    /// 24×24→48-bit multiply, arithmetic right shift by `shift`, then wrap to
    /// 24 bits — the ALU-PAE multiplier with its shift-extract stage.
    #[inline]
    pub fn mul_shr(self, rhs: Word, shift: u32) -> Word {
        Word::from_i64((self.0 as i64 * rhs.0 as i64) >> shift)
    }

    /// Bitwise AND.
    #[inline]
    pub(crate) fn and(self, rhs: Word) -> Word {
        Word::new(self.0 & rhs.0)
    }

    /// Bitwise OR.
    #[inline]
    pub(crate) fn or(self, rhs: Word) -> Word {
        Word::new(self.0 | rhs.0)
    }

    /// Bitwise XOR.
    #[inline]
    pub(crate) fn xor(self, rhs: Word) -> Word {
        Word::new(self.0 ^ rhs.0)
    }

    /// Logical-ish left shift (wraps into 24 bits).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn shl(self, shift: u32) -> Word {
        Word::from_i64((self.0 as i64) << (shift.min(48)))
    }

    /// Arithmetic right shift.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn shr(self, shift: u32) -> Word {
        Word::new(self.0 >> shift.min(31))
    }

    /// True if the word is non-zero (the data→event conversion rule).
    #[inline]
    pub(crate) fn truthy(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Word({})", self.0)
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::LowerHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.bits(), f)
    }
}

impl fmt::UpperHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.bits(), f)
    }
}

impl fmt::Binary for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.bits(), f)
    }
}

impl From<i32> for Word {
    fn from(v: i32) -> Self {
        Word::new(v)
    }
}

impl From<Word> for i32 {
    fn from(w: Word) -> i32 {
        w.value()
    }
}

/// A 1-bit event packet (the XPP event network carries these alongside data).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub(crate) struct Event(pub bool);

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", if self.0 { 1 } else { 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest positive [`Word`] value, `2²³ − 1`.
    const WORD_MAX: i32 = (1 << (WORD_BITS - 1)) - 1;

    #[test]
    fn new_wraps_to_24_bits() {
        assert_eq!(Word::new(WORD_MAX).value(), WORD_MAX);
        assert_eq!(Word::new(WORD_MAX + 1).value(), WORD_MIN);
        assert_eq!(Word::new(-1).value(), -1);
        assert_eq!(Word::new(0x0100_0000).value(), 0);
        assert_eq!(Word::new(0x0100_0001).value(), 1);
    }

    #[test]
    fn bits_masks_high_byte() {
        assert_eq!(Word::new(-1).bits(), 0x00FF_FFFF);
        assert_eq!(Word::new(5).bits(), 5);
    }

    #[test]
    fn wrapping_arithmetic() {
        let max = Word::new(WORD_MAX);
        assert_eq!(max.wrapping_add(Word::ONE).value(), WORD_MIN);
        assert_eq!(
            Word::new(WORD_MIN).wrapping_sub(Word::ONE).value(),
            WORD_MAX
        );
        assert_eq!(Word::new(WORD_MIN).wrapping_neg().value(), WORD_MIN); // -(-2^23) wraps
        assert_eq!(Word::new(5).wrapping_neg().value(), -5);
    }

    #[test]
    fn mul_shr_extracts_slices() {
        let a = Word::new(1 << 12);
        assert_eq!(a.mul_shr(a, 0).value(), 0); // 2^24 wraps to 0
        assert_eq!(a.mul_shr(a, 12).value(), 1 << 12);
        assert_eq!(a.mul_shr(a, 24).value(), 1);
        assert_eq!(Word::new(-3).mul_shr(Word::new(7), 0).value(), -21);
    }

    #[test]
    fn shifts() {
        assert_eq!(Word::new(-8).shr(2).value(), -2);
        assert_eq!(Word::new(3).shl(2).value(), 12);
        assert_eq!(Word::new(1).shl(23).value(), WORD_MIN);
        assert_eq!(Word::new(1).shl(24).value(), 0);
    }

    #[test]
    fn logic_ops() {
        assert_eq!(Word::new(0b1100).and(Word::new(0b1010)).value(), 0b1000);
        assert_eq!(Word::new(0b1100).or(Word::new(0b1010)).value(), 0b1110);
        assert_eq!(Word::new(0b1100).xor(Word::new(0b1010)).value(), 0b0110);
    }

    #[test]
    fn truthiness() {
        assert!(Word::new(-1).truthy());
        assert!(!Word::ZERO.truthy());
    }

    #[test]
    fn conversions_and_formatting() {
        let w: Word = 42.into();
        let v: i32 = w.into();
        assert_eq!(v, 42);
        assert_eq!(format!("{w}"), "42");
        assert_eq!(format!("{w:x}"), "2a");
        assert_eq!(format!("{:x}", Word::new(-1)), "ffffff");
        assert_eq!(format!("{}", Event(true)), "1");
    }

    #[test]
    fn from_i64_wraps() {
        assert_eq!(Word::from_i64(1i64 << 40).value(), 0);
        assert_eq!(Word::from_i64((1i64 << 40) + 7).value(), 7);
        assert_eq!(Word::from_i64(-1).value(), -1);
    }
}
