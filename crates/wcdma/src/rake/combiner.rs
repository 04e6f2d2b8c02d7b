//! Maximal-ratio combining of corrected finger outputs and the final symbol
//! decision.
//!
//! After channel correction every finger's symbols are phase-aligned and
//! weighted by their path strength, so combining is a plain sum — the
//! "Combining" block of Fig. 4 — followed by the QPSK hard decision.

use crate::symbols::qpsk_demap;
use sdr_dsp::Cplx;

/// Sums per-finger corrected symbol streams into soft combined symbols.
///
/// Streams may have different lengths (late fingers see fewer whole
/// symbols); the combined length is the shortest stream.
///
/// # Panics
///
/// Panics if no fingers are supplied.
pub(crate) fn combine(fingers: &[Vec<Cplx<i32>>]) -> Vec<Cplx<i64>> {
    assert!(!fingers.is_empty(), "combine: no fingers");
    let n = fingers.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|k| {
            let mut acc = Cplx::<i64>::ZERO;
            for f in fingers {
                acc += f[k].widen();
            }
            acc
        })
        .collect()
}

/// Hard QPSK decisions on combined symbols, two bits per symbol.
pub fn decide(symbols: &[Cplx<i64>]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(symbols.len() * 2);
    for &s in symbols {
        let (b0, b1) = qpsk_demap(s);
        bits.push(b0);
        bits.push(b1);
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_sums_fingers() {
        let f1 = vec![Cplx::new(10, -5), Cplx::new(1, 1)];
        let f2 = vec![Cplx::new(-3, 2), Cplx::new(4, 4)];
        let c = combine(&[f1, f2]);
        assert_eq!(c, vec![Cplx::new(7, -3), Cplx::new(5, 5)]);
    }

    #[test]
    fn combine_truncates_to_shortest() {
        let f1 = vec![Cplx::new(1, 1); 5];
        let f2 = vec![Cplx::new(1, 1); 3];
        assert_eq!(combine(&[f1, f2]).len(), 3);
    }

    #[test]
    #[should_panic]
    fn combine_rejects_empty() {
        combine(&[]);
    }

    #[test]
    fn decisions_follow_signs() {
        let syms = vec![Cplx::new(100i64, -3), Cplx::new(-7, 9)];
        assert_eq!(decide(&syms), vec![0, 1, 1, 0]);
    }

    #[test]
    fn weak_finger_cannot_flip_strong_majority() {
        let strong = vec![Cplx::new(1000, 1000)];
        let weak = vec![Cplx::new(-30, -30)];
        let c = combine(&[strong, weak]);
        assert_eq!(decide(&c), vec![0, 0]);
    }
}
