//! A minimal complex-number type over integer and floating scalars.
//!
//! The standard library has no complex type and external numeric crates are
//! out of scope for this reproduction, so [`Cplx`] provides exactly the
//! operations the receivers need. Integer instantiations (`Cplx<i32>`) use
//! 64-bit intermediates so that 24-bit × 24-bit products cannot overflow —
//! the same headroom discipline the XPP ALU-PAEs provide in hardware.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A complex number `re + j·im`.
///
/// `Cplx` is deliberately tiny: it implements only the arithmetic used by the
/// receivers, with integer multiplication routed through [`Cplx::<i32>::cmul_shr`]
/// when explicit scaling is required.
///
/// # Example
///
/// ```
/// use sdr_dsp::Cplx;
///
/// let a = Cplx::new(1, 2);
/// let b = Cplx::new(3, -1);
/// assert_eq!(a * b, Cplx::new(5, 5));
/// assert_eq!(a.conj(), Cplx::new(1, -2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Cplx<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

impl<T: fmt::Debug> fmt::Debug for Cplx<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}+j{:?})", self.re, self.im)
    }
}

impl<T: fmt::Display> fmt::Display for Cplx<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+j{}", self.re, self.im)
    }
}

impl<T> Cplx<T> {
    /// Creates a complex number from its real and imaginary parts.
    pub const fn new(re: T, im: T) -> Self {
        Cplx { re, im }
    }
}

impl<T: Copy + Neg<Output = T>> Cplx<T> {
    /// Complex conjugate `re - j·im`.
    #[inline]
    pub fn conj(self) -> Self {
        Cplx::new(self.re, -self.im)
    }

    /// Multiplication by `+j` (a quarter-turn), exact for integer scalars.
    #[inline]
    pub(crate) fn mul_j(self) -> Self {
        Cplx::new(-self.im, self.re)
    }

    /// Multiplication by `-j`.
    #[inline]
    pub fn mul_neg_j(self) -> Self {
        Cplx::new(self.im, -self.re)
    }
}

impl<T: Copy + Add<Output = T>> Add for Cplx<T> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Cplx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<T: Copy + Add<Output = T>> AddAssign for Cplx<T> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<T: Copy + Sub<Output = T>> Sub for Cplx<T> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Cplx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<T: Copy + Sub<Output = T>> SubAssign for Cplx<T> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<T: Copy + Neg<Output = T>> Neg for Cplx<T> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Cplx::new(-self.re, -self.im)
    }
}

impl<T> Mul for Cplx<T>
where
    T: Copy + Mul<Output = T> + Add<Output = T> + Sub<Output = T>,
{
    type Output = Self;
    /// Full-precision complex product `(a+jb)(c+jd)`.
    ///
    /// For integer scalars the caller is responsible for headroom; use
    /// [`Cplx::<i32>::cmul_shr`] when a scaling shift is required.
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Cplx::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl<T: Copy + Mul<Output = T> + Add<Output = T> + Sub<Output = T>> Cplx<T> {
    /// Scales both components by a real factor.
    #[inline]
    pub fn scale(self, k: T) -> Self {
        Cplx::new(self.re * k, self.im * k)
    }
}

impl Cplx<f64> {
    /// Zero.
    pub const ZERO: Cplx<f64> = Cplx::new(0.0, 0.0);

    /// Constructs from polar coordinates.
    pub fn from_polar(mag: f64, phase: f64) -> Self {
        Cplx::new(mag * phase.cos(), mag * phase.sin())
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn sqmag(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn mag(self) -> f64 {
        self.sqmag().sqrt()
    }

    /// Full-precision division.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Self) -> Self {
        let d = rhs.sqmag();
        let n = self * rhs.conj();
        Cplx::new(n.re / d, n.im / d)
    }
}

impl Cplx<i32> {
    /// Zero.
    pub const ZERO: Cplx<i32> = Cplx::new(0, 0);

    /// Squared magnitude in 64-bit to avoid overflow.
    #[inline]
    pub fn sqmag(self) -> i64 {
        let re = self.re as i64;
        let im = self.im as i64;
        re * re + im * im
    }

    /// Complex multiply with a final arithmetic right shift (truncating
    /// toward negative infinity), using 64-bit intermediates.
    ///
    /// This mirrors the XPP `MUL`+shift datapath: products are formed at full
    /// width and a configurable slice is extracted. Bit-exactness between the
    /// golden models and the array-mapped netlists rests on this definition.
    #[inline]
    pub fn cmul_shr(self, rhs: Self, shift: u32) -> Self {
        let ar = self.re as i64;
        let ai = self.im as i64;
        let br = rhs.re as i64;
        let bi = rhs.im as i64;
        let re = (ar * br - ai * bi) >> shift;
        let im = (ar * bi + ai * br) >> shift;
        Cplx::new(re as i32, im as i32)
    }

    /// Converts to floating point.
    pub fn to_f64(self) -> Cplx<f64> {
        Cplx::new(self.re as f64, self.im as f64)
    }

    /// Arithmetic right shift of both components (truncating).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn shr(self, shift: u32) -> Self {
        Cplx::new(self.re >> shift, self.im >> shift)
    }

    /// Widens to a 64-bit component type.
    pub fn widen(self) -> Cplx<i64> {
        Cplx::new(self.re as i64, self.im as i64)
    }
}

impl Cplx<i64> {
    /// Zero.
    pub const ZERO: Cplx<i64> = Cplx::new(0, 0);

    /// Squared magnitude. May overflow for components beyond ±2³¹; callers
    /// keep accumulator growth bounded by the spreading factor.
    #[inline]
    pub fn sqmag(self) -> i64 {
        self.re * self.re + self.im * self.im
    }

    /// Narrows to 32-bit components, panicking on overflow in debug builds.
    pub fn narrow(self) -> Cplx<i32> {
        Cplx::new(self.re as i32, self.im as i32)
    }

    /// Arithmetic right shift of both components.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn shr(self, shift: u32) -> Self {
        Cplx::new(self.re >> shift, self.im >> shift)
    }
}

impl From<Cplx<i32>> for Cplx<f64> {
    fn from(c: Cplx<i32>) -> Self {
        c.to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_neg() {
        let a = Cplx::new(3, 4);
        let b = Cplx::new(-1, 2);
        assert_eq!(a + b, Cplx::new(2, 6));
        assert_eq!(a - b, Cplx::new(4, 2));
        assert_eq!(-a, Cplx::new(-3, -4));
        let mut c = a;
        c += b;
        assert_eq!(c, Cplx::new(2, 6));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn mul_matches_hand_expansion() {
        let a = Cplx::new(2, 3);
        let b = Cplx::new(4, -5);
        // (2+3j)(4-5j) = 8 -10j +12j +15 = 23 + 2j
        assert_eq!(a * b, Cplx::new(23, 2));
    }

    #[test]
    fn conj_and_quarter_turns() {
        let a = Cplx::new(1, 2);
        assert_eq!(a.conj(), Cplx::new(1, -2));
        assert_eq!(a.mul_j(), Cplx::new(-2, 1));
        assert_eq!(a.mul_neg_j(), Cplx::new(2, -1));
        // j * (-j) * a == a
        assert_eq!(a.mul_j().mul_neg_j(), a);
    }

    #[test]
    fn mul_j_equals_mul_by_unit_j() {
        let a = Cplx::new(7, -3);
        assert_eq!(a.mul_j(), a * Cplx::new(0, 1));
        assert_eq!(a.mul_neg_j(), a * Cplx::new(0, -1));
    }

    #[test]
    fn cmul_shr_no_overflow_at_24_bits() {
        let big = Cplx::new((1 << 23) - 1, -(1 << 23));
        let r = big.cmul_shr(big, 23);
        // (a+jb)^2 with a=2^23-1, b=-2^23: re=(a^2-b^2)>>23, im=(2ab)>>23.
        let a = (1i64 << 23) - 1;
        let b = -(1i64 << 23);
        assert_eq!(r.re, ((a * a - b * b) >> 23) as i32);
        assert_eq!(r.im, ((2 * a * b) >> 23) as i32);
    }

    #[test]
    fn cmul_shr_zero_shift_matches_mul() {
        let a = Cplx::new(100, -200);
        let b = Cplx::new(-300, 50);
        assert_eq!(a.cmul_shr(b, 0), a * b);
    }

    #[test]
    fn sqmag_is_nonnegative_and_exact() {
        assert_eq!(Cplx::<i32>::new(3, 4).sqmag(), 25);
        assert_eq!(
            Cplx::<i32>::new(-(1 << 23), 1 << 23).sqmag(),
            2 * (1i64 << 46)
        );
    }

    #[test]
    fn float_polar_roundtrip() {
        let c = Cplx::from_polar(2.0, 0.5);
        assert!((c.mag() - 2.0).abs() < 1e-12);
        assert!((c.im.atan2(c.re) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn float_division() {
        let a = Cplx::new(1.0, 1.0);
        let b = Cplx::new(0.0, 1.0);
        let q = a.div(b);
        assert!((q.re - 1.0).abs() < 1e-12 && (q.im + 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_and_debug_nonempty() {
        let c = Cplx::new(1, -2);
        assert!(!format!("{c}").is_empty());
        assert!(!format!("{c:?}").is_empty());
    }

    #[test]
    fn widen_narrow_roundtrip() {
        let c = Cplx::new(-12345, 678);
        assert_eq!(c.widen().narrow(), c);
    }
}
