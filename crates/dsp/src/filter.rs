//! Sliding correlation.
//!
//! The rake path searcher and the OFDM preamble detector are both built on
//! sliding correlation against a known pattern; this module provides it over
//! complex integer samples.

use crate::complex::Cplx;

/// Sliding cross-correlation of a complex integer stream against a reference
/// pattern: `y[n] = Σ_k x[n+k]·conj(ref[k])`, evaluated for every offset `n`
/// where the full pattern fits, with 64-bit accumulation and a final shift.
pub fn cross_correlate(x: &[Cplx<i32>], pattern: &[Cplx<i32>], shift: u32) -> Vec<Cplx<i64>> {
    if pattern.is_empty() || x.len() < pattern.len() {
        return Vec::new();
    }
    let n = x.len() - pattern.len() + 1;
    (0..n)
        .map(|off| {
            let mut acc = Cplx::<i64>::ZERO;
            for (k, &p) in pattern.iter().enumerate() {
                let s = x[off + k].widen();
                acc += s * p.conj().widen();
            }
            acc.shr(shift)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_correlation_peaks_at_alignment() {
        let pattern: Vec<Cplx<i32>> = [1, -1, 1, 1].iter().map(|&v| Cplx::new(v, 0)).collect();
        let mut x = vec![Cplx::<i32>::ZERO; 10];
        for (k, &p) in pattern.iter().enumerate() {
            x[4 + k] = p.scale(7);
        }
        let y = cross_correlate(&x, &pattern, 0);
        let peak = y
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| v.sqmag())
            .unwrap()
            .0;
        assert_eq!(peak, 4);
        assert_eq!(y[4], Cplx::new(28, 0));
    }

    #[test]
    fn cross_correlation_of_short_input_is_empty() {
        let p = vec![Cplx::new(1, 0); 8];
        assert!(cross_correlate(&[Cplx::<i32>::ZERO; 4], &p, 0).is_empty());
    }
}
