//! Reference DFT/FFT and the bit-exact fixed-point radix-4 FFT-64.
//!
//! The paper (Fig. 9) maps a 64-point radix-4 FFT onto the reconfigurable
//! array: three pipeline stages, twiddle factors from a lookup table, and a
//! 2-bit right shift after every stage to prevent overflow ("With every stage
//! a scaling (2-bit right shift) is required... for three stages of the FFT64
//! we finally get a 4-bit precision in the result").
//!
//! This module defines:
//!
//! * [`dft`] — an O(N²) floating-point reference used only by tests,
//! * [`fft`]/[`ifft`] — an iterative radix-2 floating FFT for any power of
//!   two (used by the OFDM transmitter, which the paper leaves to the
//!   infrastructure side),
//! * [`Fft64Fixed`] — the *golden* fixed-point radix-4 FFT-64 whose exact
//!   arithmetic (truncating per-stage `>>2`, Q0.9 rounded twiddle products)
//!   the XPP netlist in `sdr-ofdm` reproduces bit-for-bit.

use crate::complex::Cplx;
use crate::fixed::shr_round;
use std::f64::consts::PI;

/// O(N²) reference DFT: `X[k] = Σ x[n]·e^{-j2πnk/N}`.
///
/// Used as the ground truth in tests; do not use it for real workloads.
pub fn dft(x: &[Cplx<f64>]) -> Vec<Cplx<f64>> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Cplx::<f64>::ZERO;
            for (i, &xi) in x.iter().enumerate() {
                let phase = -2.0 * PI * (i * k % n) as f64 / n as f64;
                acc += xi * Cplx::from_polar(1.0, phase);
            }
            acc
        })
        .collect()
}

/// Iterative radix-2 FFT for any power-of-two length.
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn fft(x: &[Cplx<f64>]) -> Vec<Cplx<f64>> {
    let mut data = x.to_vec();
    fft_in_place(&mut data, false);
    data
}

/// Inverse FFT (includes the 1/N normalisation).
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn ifft(x: &[Cplx<f64>]) -> Vec<Cplx<f64>> {
    let mut data = x.to_vec();
    fft_in_place(&mut data, true);
    let n = data.len() as f64;
    for v in &mut data {
        v.re /= n;
        v.im /= n;
    }
    data
}

fn fft_in_place(data: &mut [Cplx<f64>], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "fft: length must be a power of two");
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            data.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Cplx::from_polar(1.0, ang);
        for base in (0..n).step_by(len) {
            let mut w = Cplx::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[base + k];
                let v = data[base + k + len / 2] * w;
                data[base + k] = u + v;
                data[base + k + len / 2] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

/// Fractional bits of the twiddle factors.
///
/// Q9 (scale 512) is chosen so that every partial product of the butterfly
/// fits a 24-bit ALU word: stage values grow to ≤ 13 bits, and
/// 13 + 10 ≤ 23 — which is what lets the XPP netlist reproduce the golden
/// model bit-for-bit using plain `Mul`, `AddK` and `ShrK` objects.
pub const TWIDDLE_FRAC_BITS: u32 = 9;

/// Returns the Q0.9 twiddle factor `W_N^k = e^{-j2πk/N}`, rounded to the
/// nearest grid point (`+1.0` maps to exactly `512`).
///
/// This is the exact table the array netlist preloads into its lookup FIFO.
pub fn twiddle_q(n: usize, k: usize) -> Cplx<i32> {
    let theta = -2.0 * PI * (k % n) as f64 / n as f64;
    let scale = (1i64 << TWIDDLE_FRAC_BITS) as f64;
    let re = (theta.cos() * scale).round() as i32;
    let im = (theta.sin() * scale).round() as i32;
    Cplx::new(re, im)
}

/// Complex multiply by a Q0.9 twiddle with round-half-up applied to the
/// *summed* products: `re = (vr·wr − vi·wi + 2⁸) >> 9`.
///
/// On the array this is two `Mul`, one `Sub`/`Add`, one `AddK(256)` and one
/// `ShrK(9)` — all operating within 24-bit words — so golden model and
/// netlist agree exactly.
#[inline]
pub(crate) fn cmul_twiddle(v: Cplx<i32>, w: Cplx<i32>) -> Cplx<i32> {
    let vr = v.re as i64;
    let vi = v.im as i64;
    let wr = w.re as i64;
    let wi = w.im as i64;
    Cplx::new(
        shr_round(vr * wr - vi * wi, TWIDDLE_FRAC_BITS) as i32,
        shr_round(vr * wi + vi * wr, TWIDDLE_FRAC_BITS) as i32,
    )
}

/// The number of radix-4 stages in a 64-point FFT.
pub(crate) const FFT64_STAGES: usize = 3;

/// Fixed-point radix-4 decimation-in-frequency FFT-64 (golden model of the
/// paper's Fig. 9 kernel).
///
/// Arithmetic contract (what the XPP netlist must match bit-for-bit):
///
/// 1. per stage, each radix-4 butterfly computes
///    `t0=a+c, t1=a-c, t2=b+d, t3=b-d`;
///    `y0=t0+t2, y1=t1-j·t3, y2=t0-t2, y3=t1+j·t3`,
/// 2. `y1,y2,y3` are multiplied by the Q0.9 twiddles `W^k, W^2k, W^3k`
///    (round-half-up on the summed products, `cmul_twiddle`),
/// 3. every output is scaled by a truncating arithmetic `>>shift`
///    (`shift = 2` per the paper) before being written back,
/// 4. the final result is base-4 digit-reversed into natural order.
///
/// # Example
///
/// ```
/// use sdr_dsp::{Cplx, fft::Fft64Fixed};
///
/// let fft = Fft64Fixed::new();
/// // An impulse transforms to a flat spectrum (scaled by the 3 stage shifts).
/// let mut x = [Cplx::<i32>::ZERO; 64];
/// x[0] = Cplx::new(512, 0); // 10-bit full scale
/// let y = fft.run(&x);
/// assert!(y.iter().all(|v| v.re == y[0].re && v.im == 0));
/// ```
#[derive(Debug, Clone)]
pub struct Fft64Fixed {
    /// Truncating right shift applied after each stage (paper: 2).
    stage_shift: u32,
}

impl Default for Fft64Fixed {
    fn default() -> Self {
        Self::new()
    }
}

impl Fft64Fixed {
    /// Creates the FFT with the paper's per-stage 2-bit scaling.
    pub fn new() -> Self {
        Fft64Fixed { stage_shift: 2 }
    }

    /// Creates the FFT with a custom per-stage shift (used by the scaling
    /// ablation experiment).
    ///
    /// # Panics
    ///
    /// Panics if `shift > 8`.
    pub fn with_stage_shift(shift: u32) -> Self {
        assert!(shift <= 8, "stage shift beyond 8 bits is meaningless");
        Fft64Fixed { stage_shift: shift }
    }

    /// Runs the transform, returning the spectrum in natural order.
    pub fn run(&self, input: &[Cplx<i32>; 64]) -> [Cplx<i32>; 64] {
        let mut data = *input;
        for stage in 0..FFT64_STAGES {
            self.run_stage(&mut data, stage);
        }
        digit_reverse_64(&data)
    }

    fn run_stage(&self, data: &mut [Cplx<i32>; 64], stage: usize) {
        let m = 64 >> (2 * stage); // sub-DFT size: 64, 16, 4
        let q = m / 4;
        for base in (0..64).step_by(m) {
            for k in 0..q {
                let i0 = base + k;
                let i1 = base + k + q;
                let i2 = base + k + 2 * q;
                let i3 = base + k + 3 * q;
                let (a, b, c, d) = (data[i0], data[i1], data[i2], data[i3]);
                let t0 = a + c;
                let t1 = a - c;
                let t2 = b + d;
                let t3 = b - d;
                let y0 = t0 + t2;
                let y1 = t1 + t3.mul_neg_j();
                let y2 = t0 - t2;
                let y3 = t1 + t3.mul_j();
                let w1 = twiddle_q(m, k);
                let w2 = twiddle_q(m, 2 * k);
                let w3 = twiddle_q(m, 3 * k);
                data[i0] = y0.shr(self.stage_shift);
                data[i1] = cmul_twiddle(y1, w1).shr(self.stage_shift);
                data[i2] = cmul_twiddle(y2, w2).shr(self.stage_shift);
                data[i3] = cmul_twiddle(y3, w3).shr(self.stage_shift);
            }
        }
    }
}

/// Base-4 digit reversal of a 64-element array (3 digits: `d2 d1 d0` →
/// `d0 d1 d2`).
pub(crate) fn digit_reverse_64(data: &[Cplx<i32>; 64]) -> [Cplx<i32>; 64] {
    let mut out = [Cplx::<i32>::ZERO; 64];
    for (i, &v) in data.iter().enumerate() {
        out[digit_reversed_index_64(i)] = v;
    }
    out
}

/// Returns the base-4 digit-reversed value of a 6-bit index.
pub fn digit_reversed_index_64(i: usize) -> usize {
    debug_assert!(i < 64);
    let d0 = i & 3;
    let d1 = (i >> 2) & 3;
    let d2 = (i >> 4) & 3;
    (d0 << 4) | (d1 << 2) | d2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: usize, amp: f64) -> Vec<Cplx<f64>> {
        (0..64)
            .map(|n| Cplx::from_polar(amp, 2.0 * PI * (freq * n) as f64 / 64.0))
            .collect()
    }

    #[test]
    fn fft_matches_dft() {
        let x: Vec<Cplx<f64>> = (0..64)
            .map(|n| Cplx::new(((n * 7) % 13) as f64 - 6.0, ((n * 3) % 11) as f64 - 5.0))
            .collect();
        let a = fft(&x);
        let b = dft(&x);
        for (u, v) in a.iter().zip(&b) {
            assert!((u.re - v.re).abs() < 1e-9 && (u.im - v.im).abs() < 1e-9);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<Cplx<f64>> = (0..128)
            .map(|n| Cplx::new((n as f64 * 0.37).sin(), (n as f64 * 0.11).cos()))
            .collect();
        let y = ifft(&fft(&x));
        for (u, v) in x.iter().zip(&y) {
            assert!((u.re - v.re).abs() < 1e-9 && (u.im - v.im).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn fft_rejects_non_power_of_two() {
        fft(&vec![Cplx::<f64>::ZERO; 60]);
    }

    #[test]
    fn tone_lands_in_single_bin() {
        let spec = fft(&tone(9, 1.0));
        for (k, v) in spec.iter().enumerate() {
            if k == 9 {
                assert!((v.mag() - 64.0).abs() < 1e-9);
            } else {
                assert!(v.mag() < 1e-9);
            }
        }
    }

    #[test]
    fn twiddles_are_unit_magnitude_on_axes() {
        assert_eq!(twiddle_q(64, 0), Cplx::new(512, 0));
        assert_eq!(twiddle_q(64, 16), Cplx::new(0, -512));
        assert_eq!(twiddle_q(64, 32), Cplx::new(-512, 0));
        assert_eq!(twiddle_q(64, 48), Cplx::new(0, 512));
    }

    #[test]
    fn digit_reversal_is_involution() {
        for i in 0..64 {
            assert_eq!(digit_reversed_index_64(digit_reversed_index_64(i)), i);
        }
    }

    #[test]
    fn fixed_fft_impulse_is_flat() {
        let f = Fft64Fixed::new();
        let mut x = [Cplx::<i32>::ZERO; 64];
        x[0] = Cplx::new(512, 0);
        let y = f.run(&x);
        // DFT of impulse = constant 512; 3 stages of >>2 divide by 64 → 8.
        for v in y {
            assert_eq!(v, Cplx::new(8, 0));
        }
    }

    #[test]
    fn fixed_fft_tone_peaks_in_correct_bin() {
        let f = Fft64Fixed::new();
        let mut x = [Cplx::<i32>::ZERO; 64];
        for (n, v) in tone(5, 500.0).iter().enumerate() {
            x[n] = Cplx::new(v.re.round() as i32, v.im.round() as i32);
        }
        let y = f.run(&x);
        let peak = y
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| v.sqmag())
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(peak, 5);
    }

    #[test]
    fn fixed_fft_tracks_float_fft_closely() {
        // Deterministic pseudo-random 10-bit input.
        let mut x = [Cplx::<i32>::ZERO; 64];
        let mut seed = 0x1234_5678u32;
        for v in &mut x {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            let re = ((seed >> 8) % 1024) as i32 - 512;
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            let im = ((seed >> 8) % 1024) as i32 - 512;
            *v = Cplx::new(re, im);
        }
        let fx: Vec<Cplx<f64>> = x.iter().map(|v| v.to_f64()).collect();
        let reference = fft(&fx);
        let fixed = Fft64Fixed::new().run(&x);
        // Fixed output is scaled by 1/64 relative to the unnormalised DFT.
        let mut err_power = 0.0;
        let mut sig_power = 0.0;
        for (f, r) in fixed.iter().zip(&reference) {
            let scaled = Cplx::new(r.re / 64.0, r.im / 64.0);
            let diff = f.to_f64() - scaled;
            err_power += diff.sqmag();
            sig_power += scaled.sqmag();
        }
        let snr_db = 10.0 * (sig_power / err_power).log10();
        // Truncating >>2 per stage costs precision; the paper quotes "4-bit
        // precision" for 10-bit inputs. Anything above ~25 dB confirms the
        // datapath is sound.
        assert!(snr_db > 25.0, "fixed-point FFT SNR too low: {snr_db:.1} dB");
    }

    #[test]
    fn with_stage_shift_zero_matches_unnormalised_dft_closely() {
        let mut x = [Cplx::<i32>::ZERO; 64];
        for (n, v) in x.iter_mut().enumerate() {
            *v = Cplx::new(((n as i32 * 37) % 101) - 50, ((n as i32 * 53) % 89) - 44);
        }
        let fixed = Fft64Fixed::with_stage_shift(0).run(&x);
        let reference = fft(&x.iter().map(|v| v.to_f64()).collect::<Vec<_>>());
        for (f, r) in fixed.iter().zip(&reference) {
            assert!((f.re as f64 - r.re).abs() < 8.0, "{f:?} vs {r:?}");
            assert!((f.im as f64 - r.im).abs() < 8.0, "{f:?} vs {r:?}");
        }
    }

    #[test]
    #[should_panic]
    fn with_stage_shift_rejects_huge_shift() {
        Fft64Fixed::with_stage_shift(9);
    }
}
