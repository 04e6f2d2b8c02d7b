//! 3GPP TS 25.213 §5.2.2 downlink scrambling codes.
//!
//! Downlink scrambling codes are complex Gold sequences built from two
//! degree-18 m-sequences:
//!
//! * `x`: feedback `x(i+18) = x(i+7) + x(i) mod 2`, seeded `1,0,…,0`,
//! * `y`: feedback `y(i+18) = y(i+10) + y(i+7) + y(i+5) + y(i) mod 2`,
//!   seeded all ones.
//!
//! Code number `n` selects a phase shift of `x`:
//! `zₙ(i) = x((i+n) mod L) ⊕ y(i)` with `L = 2¹⁸ − 1`, and the complex chip is
//! `Sₙ(i) = m(zₙ(i)) + j·m(zₙ((i+131072) mod L))` with `m: 0 → +1, 1 → −1`.
//! One radio frame uses the first 38400 chips.
//!
//! In the paper's partitioning (Fig. 4) this generator is *dedicated
//! hardware* — a pair of 18-bit shift registers — that hands the array a
//! 2-bit code representation per chip; the array's descrambler (Fig. 5)
//! expands those bits to `±1±j`.
//!
//! # Construction
//!
//! A frame is generated directly, never sliced out of a full-period table:
//!
//! * **Jump-ahead.** With `p(t)` the characteristic polynomial of a
//!   register (`t¹⁸+t⁷+1` for `x`, `t¹⁸+t¹⁰+t⁷+t⁵+1` for `y`) and
//!   `t^k mod p(t) = Σ cₘ tᵐ`, every sequence the register produces obeys
//!   `s(k+j) = Σ cₘ s(m+j)`, so the 18-bit state at phase `k` is 18
//!   parities over the first 36 sequence bits. `t^k` costs one GF(2)
//!   squaring per bit of `k`, so the four start phases (`n` and
//!   `n+131072` of `x`, `0` and `131072` of `y`) cost the same for every
//!   code number.
//! * **Word-parallel recurrence.** Squaring is linear over GF(2), so a
//!   sequence annihilated by `p(t)` is also annihilated by
//!   `p(t)⁶⁴ = p(t⁶⁴)`: `x(i+18·64) = x(i+7·64) ⊕ x(i)`, and likewise for
//!   `y`. Packed 64 chips to a word, the stream of *words* therefore obeys
//!   the register's own recurrence — `X[j+18] = X[j+7] ⊕ X[j]` — one XOR
//!   per tap for 64 chips. The first 18 words come a byte at a time from
//!   the plain recurrence, whose nearest tap is eight bits back.
//!
//! The frame is stored packed (two bits per chip, 9.6 KB). Generation
//! costs about ten microseconds, so this crate caches no code by number:
//! like the paper's hardware block, the generator is simply cheap. The
//! engine's terminals all receive one default cell, so `sdr-engine`
//! prepares that cell's transmitter and code once and shares them.
//!
//! # Sign masks
//!
//! A chip bit `c` stands for the factor `1 − 2c`, so the host kernels
//! never multiply by a code chip: `ScramblingCode::sign_masks` turns the
//! packed bits into masks `m = −c` (0 or all ones), and `(x ^ m) − m` is
//! `x` or `−x` — the same wrapping product `x · (1 − 2c)` in two integer
//! operations that vectorise.

use sdr_dsp::Cplx;

/// Length of one m-sequence period, `2¹⁸ − 1`.
pub(crate) const SEQUENCE_LEN: usize = (1 << 18) - 1;

/// Chips per 10 ms radio frame.
pub(crate) const FRAME_CHIPS: usize = 38_400;

/// Offset between the I and Q branches of the complex code.
const Q_BRANCH_OFFSET: usize = 131_072;

/// Register length of both m-sequence generators.
const DEGREE: usize = 18;

/// 64-chip words per frame (38400 = 600 · 64 exactly).
const FRAME_WORDS: usize = FRAME_CHIPS / 64;

/// One of the two degree-18 linear feedback shift registers.
#[derive(Clone, Copy)]
struct Lfsr {
    /// Feedback taps `e`: `s(i+18) = ⊕ s(i+e)` — also the exponents of the
    /// characteristic polynomial `t¹⁸ + Σ tᵉ`.
    taps: &'static [usize],
    /// Register contents at phase 0: bit `j` is `s(j)`.
    seed: u32,
}

/// `x(i+18) = x(i+7) ⊕ x(i)`, seeded `1,0,…,0`.
const X: Lfsr = Lfsr {
    taps: &[0, 7],
    seed: 1,
};

/// `y(i+18) = y(i+10) ⊕ y(i+7) ⊕ y(i+5) ⊕ y(i)`, seeded all ones.
const Y: Lfsr = Lfsr {
    taps: &[0, 5, 7, 10],
    seed: (1 << DEGREE) - 1,
};

impl Lfsr {
    /// Appends eight sequence bits to `seq`, which holds `known ≥ 18` of
    /// them from bit 0 up. The feedback is evaluated for all eight at once:
    /// no tap reaches closer than eight bits to the end of the register.
    fn grow(self, seq: u128, known: usize) -> u128 {
        let feedback = self
            .taps
            .iter()
            .fold(0, |fb, e| fb ^ seq >> (known - DEGREE + e));
        seq | (feedback & 0xFF) << known
    }

    /// `a·t mod p(t)` over GF(2): `t¹⁸` folds back as `Σ tᵉ`.
    fn times_t(self, a: u32) -> u32 {
        let overflow = a >> (DEGREE - 1) & 1;
        self.taps
            .iter()
            .fold(a << 1 & ((1 << DEGREE) - 1), |r, e| r ^ overflow << e)
    }

    /// `a·b mod p(t)` over GF(2), both of degree below 18 (Horner in `b`).
    fn mul_mod(self, a: u32, b: u32) -> u32 {
        (0..DEGREE)
            .rev()
            .fold(0, |r, bit| self.times_t(r) ^ (a * (b >> bit & 1)))
    }

    /// `t^k mod p(t)` by square-and-multiply, one squaring per bit of `k`.
    fn t_pow(self, k: u32) -> u32 {
        (0..u32::BITS - k.leading_zeros()).rev().fold(1, |r, bit| {
            let squared = self.mul_mod(r, r);
            match k >> bit & 1 {
                0 => squared,
                _ => self.times_t(squared),
            }
        })
    }

    /// Register contents at phase `k`: with `t^k ≡ Σ cₘ tᵐ (mod p)`,
    /// `s(k+j) = Σ cₘ s(m+j)`.
    fn state_at(self, k: u32) -> u32 {
        // The first 36 (in fact 42) sequence bits.
        let head = (DEGREE..2 * DEGREE)
            .step_by(8)
            .fold(self.seed as u128, |seq, known| self.grow(seq, known)) as u64;
        let c = self.t_pow(k) as u64;
        (0..DEGREE).fold(0, |s, j| s | ((c & head >> j).count_ones() & 1) << j)
    }

    /// One frame of the sequence starting at phase `k`, packed LSB-first.
    fn frame_from(self, k: u32) -> [u64; FRAME_WORDS] {
        let mut words = [0u64; FRAME_WORDS];
        // The first 18 words a byte at a time.
        let mut seq = self.state_at(k) as u128;
        for word in &mut words[..DEGREE] {
            seq = (DEGREE..DEGREE + 64)
                .step_by(8)
                .fold(seq, |seq, known| self.grow(seq, known));
            *word = seq as u64;
            seq >>= 64;
        }
        // Then whole words: p(t)⁶⁴ = p(t⁶⁴) annihilates the sequence too, so
        // the register's own recurrence holds between bits 64 apart.
        for j in DEGREE..FRAME_WORDS {
            words[j] = self
                .taps
                .iter()
                .fold(0, |word, e| word ^ words[j - DEGREE + e]);
        }
        words
    }
}

/// A downlink scrambling-code generator for one cell.
///
/// The generator precomputes one frame (38400 chips) of the complex code; the
/// per-chip interface hands out either the complex `±1±j` value or the 2-bit
/// representation the dedicated hardware would stream to the array.
///
/// # Example
///
/// ```
/// use sdr_wcdma::scrambling::ScramblingCode;
///
/// let code = ScramblingCode::downlink(0);
/// let chip = code.chip(0);
/// assert!(chip.re.abs() == 1 && chip.im.abs() == 1);
/// // The 2-bit representation encodes the same chip.
/// let (ci, cq) = code.chip_bits(0);
/// assert_eq!(chip.re, 1 - 2 * ci as i32);
/// assert_eq!(chip.im, 1 - 2 * cq as i32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScramblingCode {
    number: u32,
    /// One frame, 64 chips per entry: `[I-branch bits, Q-branch bits]`,
    /// chip `64w + b` at bit `b` of entry `w`.
    words: Vec<[u64; 2]>,
}

impl ScramblingCode {
    /// Generates the downlink code with the given code number.
    ///
    /// # Panics
    ///
    /// Panics if `number` is not less than `2¹⁸ − 1`.
    pub fn downlink(number: u32) -> Self {
        assert!(
            (number as usize) < SEQUENCE_LEN,
            "scrambling code number out of range"
        );
        let q = Q_BRANCH_OFFSET as u32;
        let (xi, yi) = (X.frame_from(number), Y.frame_from(0));
        let (xq, yq) = (X.frame_from(number + q), Y.frame_from(q));
        let words = (0..FRAME_WORDS)
            .map(|w| [xi[w] ^ yi[w], xq[w] ^ yq[w]])
            .collect();
        ScramblingCode { number, words }
    }

    /// The complex code chip (`±1 ± j`) at frame position `i` (wraps at the
    /// frame boundary, matching the per-frame restart of the standard).
    #[inline]
    pub fn chip(&self, i: usize) -> Cplx<i32> {
        let (ci, cq) = self.chip_bits(i);
        Cplx::new(1 - 2 * ci as i32, 1 - 2 * cq as i32)
    }

    /// The 2-bit representation `(cᵢ, c_q)` of a chip — the stream the
    /// dedicated-hardware generator feeds the array in Fig. 5.
    #[inline]
    pub fn chip_bits(&self, i: usize) -> (u8, u8) {
        let i = i % FRAME_CHIPS;
        let [ci, cq] = self.words[i / 64];
        ((ci >> (i % 64) & 1) as u8, (cq >> (i % 64) & 1) as u8)
    }

    /// Fills `mi` and `mq` with the sign masks `−cᵢ` and `−c_q` of the
    /// chips from frame position `phase` on (wrapping at the frame
    /// boundary, like [`chip`](Self::chip)), one word of packed bits at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub(crate) fn sign_masks(&self, phase: usize, mi: &mut [i32], mq: &mut [i32]) {
        assert_eq!(mi.len(), mq.len(), "one mask per chip and branch");
        let (mut pos, mut done) = (phase % FRAME_CHIPS, 0);
        while done < mi.len() {
            let ([wi, wq], bit) = (self.words[pos / 64], pos % 64);
            let run = (64 - bit).min(mi.len() - done);
            let chips = done..done + run;
            for (b, (si, sq)) in (bit..).zip(mi[chips.clone()].iter_mut().zip(&mut mq[chips])) {
                *si = -((wi >> b & 1) as i32);
                *sq = -((wq >> b & 1) as i32);
            }
            done += run;
            pos = (pos + run) % FRAME_CHIPS;
        }
    }
}

/// `x · (1 − 2c)` for the sign mask `m = −c`: a negation where the chip is
/// `−1`, wrapping exactly as the multiply does.
#[inline(always)]
pub(crate) fn flip(x: i32, m: i32) -> i32 {
    (x ^ m).wrapping_sub(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: both full-period m-sequences, one register shift per bit.
    fn m_sequences() -> (Vec<u8>, Vec<u8>) {
        let mut x = vec![0u8; SEQUENCE_LEN];
        let mut y = vec![0u8; SEQUENCE_LEN];
        // Seeds: x = 1,0,...,0 ; y = all ones (registers hold x(i)..x(i+17)).
        let mut xr = [0u8; 18];
        xr[0] = 1;
        let mut yr = [1u8; 18];
        for i in 0..SEQUENCE_LEN {
            x[i] = xr[0];
            y[i] = yr[0];
            let xf = (xr[7] + xr[0]) & 1;
            let yf = (yr[10] + yr[7] + yr[5] + yr[0]) & 1;
            xr.copy_within(1..18, 0);
            xr[17] = xf;
            yr.copy_within(1..18, 0);
            yr[17] = yf;
        }
        (x, y)
    }

    /// `chip_bits` of a whole frame, sliced out of the full-period tables.
    fn table_frame(x: &[u8], y: &[u8], n: usize) -> Vec<(u8, u8)> {
        (0..FRAME_CHIPS)
            .map(|i| {
                let iq = (i + Q_BRANCH_OFFSET) % SEQUENCE_LEN;
                (
                    x[(i + n) % SEQUENCE_LEN] ^ y[i],
                    x[(iq + n) % SEQUENCE_LEN] ^ y[iq],
                )
            })
            .collect()
    }

    #[test]
    fn generated_frames_match_the_full_period_tables() {
        let (x, y) = m_sequences();
        // Small numbers, both sides of the x-phase wrap (n + i ≥ L) and of
        // the Q-offset wrap (n + 131072 ≥ L), the last valid number.
        let mut numbers = vec![
            0,
            1,
            15,
            16,
            511,
            8191,
            131_071,
            131_072,
            200_000,
            (1 << 18) - 2,
        ];
        let mut rng = sdr_dsp::rng::Rng64::seed_from_u64(0x601D);
        numbers.extend((0..24).map(|_| rng.next_u32() % SEQUENCE_LEN as u32));
        for n in numbers {
            let code = ScramblingCode::downlink(n);
            let generated: Vec<(u8, u8)> = (0..FRAME_CHIPS).map(|i| code.chip_bits(i)).collect();
            assert!(
                generated == table_frame(&x, &y, n as usize),
                "code {n} differs from the table"
            );
        }
    }

    #[test]
    fn jump_ahead_agrees_with_single_steps() {
        for lfsr in [X, Y] {
            let mut state = lfsr.seed;
            for k in 0..2000 {
                assert_eq!(lfsr.state_at(k), state, "phase {k}");
                state = (lfsr.grow(state as u128, DEGREE) >> 1) as u32 & ((1 << DEGREE) - 1);
            }
            // One full period is the identity.
            assert_eq!(lfsr.t_pow(SEQUENCE_LEN as u32), 1);
            assert_eq!(lfsr.state_at(SEQUENCE_LEN as u32), lfsr.seed);
        }
    }

    #[test]
    fn m_sequences_have_maximal_balance() {
        let (x, y) = m_sequences();
        // An m-sequence of period 2^18-1 has 2^17 ones and 2^17-1 zeros.
        let ones_x: usize = x.iter().map(|&b| b as usize).sum();
        let ones_y: usize = y.iter().map(|&b| b as usize).sum();
        assert_eq!(ones_x, 1 << 17);
        assert_eq!(ones_y, 1 << 17);
    }

    #[test]
    fn x_sequence_satisfies_recurrence() {
        let (x, _) = m_sequences();
        for i in 0..1000 {
            assert_eq!(x[i + 18], x[i + 7] ^ x[i]);
        }
    }

    #[test]
    fn y_sequence_satisfies_recurrence() {
        let (_, y) = m_sequences();
        for i in 0..1000 {
            assert_eq!(y[i + 18], y[i + 10] ^ y[i + 7] ^ y[i + 5] ^ y[i]);
        }
    }

    #[test]
    fn chips_are_qpsk_valued() {
        let code = ScramblingCode::downlink(17);
        for i in 0..500 {
            let c = code.chip(i);
            assert_eq!(c.re.abs(), 1);
            assert_eq!(c.im.abs(), 1);
        }
    }

    #[test]
    fn different_code_numbers_decorrelate() {
        let a = ScramblingCode::downlink(0);
        let b = ScramblingCode::downlink(16); // different primary code
        let n = 4096;
        let corr: i64 = (0..n)
            .map(|i| {
                let ca = a.chip(i);
                let cb = b.chip(i);
                (ca * cb.conj()).re as i64
            })
            .sum();
        // Cross-correlation of distinct Gold phases is far below n·|chip|²=2n.
        assert!(
            corr.abs() < n as i64 / 4,
            "cross-correlation too high: {corr}"
        );
    }

    #[test]
    fn autocorrelation_peaks_at_zero_lag() {
        let code = ScramblingCode::downlink(3);
        let n = 2048;
        let zero: i64 = (0..n)
            .map(|i| (code.chip(i) * code.chip(i).conj()).re as i64)
            .sum();
        assert_eq!(zero, 2 * n as i64);
        let lag: i64 = (0..n)
            .map(|i| (code.chip(i) * code.chip(i + 7).conj()).re as i64)
            .sum();
        assert!(lag.abs() < n as i64 / 4);
    }

    #[test]
    fn chip_bits_match_complex_chip() {
        let code = ScramblingCode::downlink(5);
        for i in 0..200 {
            let (ci, cq) = code.chip_bits(i);
            let c = code.chip(i);
            assert_eq!(c.re, 1 - 2 * ci as i32);
            assert_eq!(c.im, 1 - 2 * cq as i32);
        }
    }

    #[test]
    fn sign_masks_match_the_chips_across_the_frame_boundary() {
        let code = ScramblingCode::downlink(11);
        for (phase, n) in [
            (0, 0),
            (0, 300),
            (63, 2),
            (1000, 129),
            (FRAME_CHIPS - 70, 200),
        ] {
            let (mut mi, mut mq) = (vec![7; n], vec![7; n]);
            code.sign_masks(phase, &mut mi, &mut mq);
            for k in 0..n {
                let chip = code.chip(phase + k);
                assert_eq!((flip(1, mi[k]), flip(1, mq[k])), (chip.re, chip.im));
            }
        }
        assert_eq!(flip(i32::MIN, -1), i32::MIN.wrapping_mul(-1));
    }

    #[test]
    fn frame_wraps() {
        let code = ScramblingCode::downlink(9);
        assert_eq!(code.chip(0), code.chip(FRAME_CHIPS));
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_code_number() {
        ScramblingCode::downlink(1 << 18);
    }
}
