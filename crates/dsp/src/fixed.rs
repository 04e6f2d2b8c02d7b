//! Q-format fixed-point helpers.
//!
//! The receivers use a handful of fixed-point conventions:
//!
//! * 12-bit I/Q samples (W-CDMA input, per the paper's design assumptions),
//! * 10-bit I/Q samples (OFDM input into the FFT-64),
//! * 24-bit ALU words on the array,
//! * Q1.15 twiddle factors and channel weights.
//!
//! Rather than a heavyweight generic fixed-point type, this module provides
//! the exact scaling/saturation primitives the hardware datapaths perform, so
//! golden models and array netlists can share one definition.

/// Saturates `v` to the signed `bits`-bit range `[-2^(bits-1), 2^(bits-1)-1]`.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 31.
///
/// # Example
///
/// ```
/// use sdr_dsp::fixed::sat;
/// assert_eq!(sat(70_000, 16), 32_767);
/// assert_eq!(sat(-70_000, 16), -32_768);
/// assert_eq!(sat(123, 16), 123);
/// ```
#[inline]
pub fn sat(v: i64, bits: u32) -> i32 {
    assert!((1..=31).contains(&bits), "sat: bits must be in 1..=31");
    let max = (1i64 << (bits - 1)) - 1;
    let min = -(1i64 << (bits - 1));
    v.clamp(min, max) as i32
}

/// Arithmetic right shift with round-half-up (adds `2^(shift-1)` first).
///
/// This is the rounding mode used by the Q15 twiddle multiplications in the
/// fixed-point FFT; plain `>>` (truncation) is used where the paper's
/// datapath truncates (the per-stage `>>2` scaling).
///
/// # Example
///
/// ```
/// use sdr_dsp::fixed::shr_round;
/// assert_eq!(shr_round(5, 1), 3);   // 2.5 rounds up
/// assert_eq!(shr_round(-5, 1), -2); // -2.5 rounds toward +inf
/// assert_eq!(shr_round(4, 2), 1);
/// ```
#[inline]
pub fn shr_round(v: i64, shift: u32) -> i64 {
    if shift == 0 {
        v
    } else {
        (v + (1i64 << (shift - 1))) >> shift
    }
}

/// Quantizes a real value in `[-1, 1)` to a signed `bits`-bit integer with
/// rounding and saturation: `round(x * 2^(bits-1))` clamped to range.
///
/// # Example
///
/// ```
/// use sdr_dsp::fixed::quantize;
/// assert_eq!(quantize(0.5, 12), 1024);
/// assert_eq!(quantize(-1.0, 12), -2048);
/// assert_eq!(quantize(1.0, 12), 2047); // saturates
/// ```
#[inline]
pub fn quantize(x: f64, bits: u32) -> i32 {
    let scaled = (x * (1i64 << (bits - 1)) as f64).round() as i64;
    sat(scaled, bits)
}

/// Converts a signed `bits`-bit fixed-point value back to `[-1, 1)`.
#[inline]
pub fn dequantize(v: i32, bits: u32) -> f64 {
    v as f64 / (1i64 << (bits - 1)) as f64
}

/// Returns `true` if `v` fits in a signed `bits`-bit word without saturation.
#[inline]
pub fn fits(v: i64, bits: u32) -> bool {
    let max = (1i64 << (bits - 1)) - 1;
    let min = -(1i64 << (bits - 1));
    v >= min && v <= max
}

/// Wraps `v` to signed `bits`-bit two's-complement (the XPP ALUs wrap rather
/// than saturate on plain adds).
///
/// # Example
///
/// ```
/// use sdr_dsp::fixed::wrap;
/// assert_eq!(wrap((1 << 23) as i64, 24), -(1 << 23)); // 24-bit overflow wraps
/// assert_eq!(wrap(-5, 24), -5);
/// ```
#[inline]
pub fn wrap(v: i64, bits: u32) -> i32 {
    debug_assert!((1..=32).contains(&bits));
    let shift = 64 - bits;
    ((v << shift) >> shift) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_clamps_at_both_ends() {
        assert_eq!(sat(i64::MAX, 24), (1 << 23) - 1);
        assert_eq!(sat(i64::MIN, 24), -(1 << 23));
        assert_eq!(sat(42, 24), 42);
        assert_eq!(sat(32768, 16), 32767);
        assert_eq!(sat(-32769, 16), -32768);
    }

    #[test]
    #[should_panic]
    fn sat_rejects_zero_bits() {
        sat(0, 0);
    }

    #[test]
    fn shr_round_matches_round_half_up() {
        for v in -100i64..=100 {
            for s in 1u32..=4 {
                let expected = ((v as f64) / (1i64 << s) as f64 + 0.5).floor() as i64;
                assert_eq!(shr_round(v, s), expected, "v={v} s={s}");
            }
        }
    }

    #[test]
    fn shr_round_zero_shift_is_identity() {
        assert_eq!(shr_round(12345, 0), 12345);
        assert_eq!(shr_round(-12345, 0), -12345);
    }

    #[test]
    fn quantize_dequantize_roundtrip_within_half_ulp() {
        for &x in &[-0.999, -0.5, -0.123, 0.0, 0.123, 0.5, 0.999] {
            let q = quantize(x, 12);
            let back = dequantize(q, 12);
            assert!((back - x).abs() <= 0.5 / 2048.0 + 1e-12, "x={x} q={q}");
        }
    }

    #[test]
    fn quantize_saturates_at_plus_one() {
        assert_eq!(quantize(1.0, 10), 511);
        assert_eq!(quantize(-1.0, 10), -512);
        assert_eq!(quantize(2.0, 10), 511);
    }

    #[test]
    fn wrap_is_twos_complement() {
        assert_eq!(wrap(0x7F_FFFF, 24), 0x7F_FFFF);
        assert_eq!(wrap(0x80_0000, 24), -0x80_0000);
        assert_eq!(wrap(0xFF_FFFF, 24), -1);
        assert_eq!(wrap(1i64 << 24, 24), 0);
    }

    #[test]
    fn fits_boundaries() {
        assert!(fits((1 << 23) - 1, 24));
        assert!(fits(-(1 << 23), 24));
        assert!(!fits(1 << 23, 24));
        assert!(!fits(-(1 << 23) - 1, 24));
    }
}
