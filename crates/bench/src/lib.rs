//! Shared workload generators for the report binary and the Criterion
//! benches: deterministic pseudo-random streams sized like the paper's
//! workloads.

use sdr_dsp::Cplx;
use xpp_array::{Array, ConfigId, Netlist};

/// Configures one kernel alone on a fresh XPP-64A, ready for its drive
/// function.
///
/// # Panics
///
/// Panics if the kernel does not fit an empty XPP-64A.
pub fn fresh(netlist: &Netlist) -> (Array, ConfigId) {
    let mut array = Array::xpp64a();
    let cfg = array
        .configure(netlist)
        .expect("every kernel fits an empty XPP-64A");
    (array, cfg)
}

/// Deterministic 12-bit I/Q chip stream (the rake kernels' input width).
pub fn chips_12bit(n: usize, seed: u32) -> Vec<Cplx<i32>> {
    lcg_stream(n, seed, 4096)
}

/// Deterministic 10-bit I/Q sample stream (the OFDM front end's width).
pub fn samples_10bit(n: usize, seed: u32) -> Vec<Cplx<i32>> {
    lcg_stream(n, seed, 1024)
}

fn lcg_stream(n: usize, seed: u32, span: u32) -> Vec<Cplx<i32>> {
    let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        s = s.wrapping_mul(1664525).wrapping_add(1013904223);
        let re = ((s >> 8) % span) as i32 - span as i32 / 2;
        s = s.wrapping_mul(1664525).wrapping_add(1013904223);
        let im = ((s >> 8) % span) as i32 - span as i32 / 2;
        out.push(Cplx::new(re, im));
    }
    out
}

/// A deterministic bit pattern.
pub fn bits(n: usize, seed: u32) -> Vec<u8> {
    (0..n)
        .map(|i| (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 7) & 1) as u8)
        .collect()
}

/// One 64-sample FFT frame at 10-bit scale.
pub fn fft_frame(seed: u32) -> [Cplx<i32>; 64] {
    let v = samples_10bit(64, seed);
    let mut buf = [Cplx::<i32>::ZERO; 64];
    buf.copy_from_slice(&v);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_in_range() {
        let a = chips_12bit(100, 7);
        let b = chips_12bit(100, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|c| c.re.abs() <= 2048 && c.im.abs() <= 2048));
        let s = samples_10bit(50, 1);
        assert!(s.iter().all(|c| c.re.abs() <= 512));
    }

    #[test]
    fn bits_are_binary() {
        assert!(bits(64, 3).iter().all(|&b| b <= 1));
        assert_ne!(bits(64, 3), bits(64, 4));
    }
}
