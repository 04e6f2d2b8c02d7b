//! The 802.11a convolutional code: K=7 encoder (generators 133/171 octal),
//! puncturing to rates 2/3 and 3/4, and a soft-decision Viterbi decoder.
//!
//! In the paper's partitioning (Fig. 8) the Viterbi decoder is *dedicated
//! hardware*. Here it is a plain function the golden receiver calls on the
//! host: nothing registers it with the platform model or charges its
//! cycles (`sdr-core`'s `"viterbi"` cost entry is read only by the report
//! tables; ROADMAP item I).

use crate::params::CodeRate;

/// Number of trellis states.
pub(crate) const STATES: usize = 64;

/// Generator polynomial A (133 octal) as a delay mask (bit k = delay k).
const G_A: u32 = 0b110_1101;

/// Generator polynomial B (171 octal) as a delay mask.
const G_B: u32 = 0b100_1111;

#[inline]
const fn parity(v: u32) -> u8 {
    (v.count_ones() & 1) as u8
}

/// Encodes a bit sequence at rate 1/2, appending nothing: the caller adds
/// the 6 zero tail bits that terminate the trellis.
///
/// Output: `[a0, b0, a1, b1, …]`.
pub fn encode(bits: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bits.len() * 2);
    let mut state = 0u32; // bit k-1 holds x[n-k]
    for &b in bits {
        let reg = (state << 1) | (b as u32 & 1);
        out.push(parity(reg & G_A));
        out.push(parity(reg & G_B));
        state = reg & (STATES as u32 - 1);
    }
    out
}

/// Punctures a rate-1/2 coded stream to the requested rate.
///
/// Patterns per 802.11a §17.3.5.6: rate 2/3 drops every second B bit; rate
/// 3/4 drops B2 and A3 of every 6-bit group.
pub fn puncture(coded: &[u8], rate: CodeRate) -> Vec<u8> {
    match rate {
        CodeRate::R12 => coded.to_vec(),
        CodeRate::R23 => coded
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 != 3)
            .map(|(_, &b)| b)
            .collect(),
        CodeRate::R34 => coded
            .iter()
            .enumerate()
            .filter(|(i, _)| !matches!(i % 6, 3 | 4))
            .map(|(_, &b)| b)
            .collect(),
    }
}

/// Re-inserts zero LLRs at punctured positions so the decoder sees a
/// rate-1/2 stream. `llrs` uses the convention positive = bit 0.
pub fn depuncture(llrs: &[i32], rate: CodeRate) -> Vec<i32> {
    match rate {
        CodeRate::R12 => llrs.to_vec(),
        CodeRate::R23 => {
            let mut out = Vec::with_capacity(llrs.len() * 4 / 3 + 4);
            for (i, &l) in llrs.iter().enumerate() {
                out.push(l);
                if i % 3 == 2 {
                    out.push(0); // the dropped B bit
                }
            }
            out
        }
        CodeRate::R34 => {
            let mut out = Vec::with_capacity(llrs.len() * 3 / 2 + 6);
            for (i, &l) in llrs.iter().enumerate() {
                match i % 4 {
                    2 => {
                        out.push(l);
                        out.push(0); // B2
                    }
                    3 => {
                        out.push(0); // A3
                        out.push(l);
                    }
                    _ => out.push(l),
                }
            }
            out
        }
    }
}

/// Output label of the trellis branch that leaves state `j` (< 32) on
/// input 0: bit 0 is output A, bit 1 is output B.
///
/// Both generators tap the input bit and the oldest delay, so the four
/// branches of the butterfly `{j, j+32} → {2j, 2j+1}` carry the labels
/// `l, !l, !l, l`: one table entry and one sign per butterfly.
const BUTTERFLY_LABELS: [u8; STATES / 2] = {
    assert!(G_A & G_B & 0b100_0001 == 0b100_0001);
    let mut labels = [0u8; STATES / 2];
    let mut j = 0;
    while j < STATES / 2 {
        let reg = (j as u32) << 1;
        labels[j] = parity(reg & G_A) | parity(reg & G_B) << 1;
        j += 1;
    }
    labels
};

/// Soft-decision Viterbi decoder over a zero-terminated trellis.
///
/// `llrs` holds one value per rate-1/2 coded bit (`[a0, b0, a1, b1, …]`,
/// positive = bit 0, magnitude = confidence). Returns the decoded
/// information bits *including* the tail; callers strip the final 6 zeros.
///
/// Add-compare-select runs as 32 butterflies per step over `i64` path
/// metrics, exact for every `i32` LLR. Ties go to the predecessor whose
/// top bit is 0. A state no path has reached yet starts at `i64::MIN / 4`
/// and loses every comparison against a reached one for any stream under
/// 2²⁹ steps (a 4 GiB LLR buffer).
///
/// # Panics
///
/// Panics if the LLR count is odd.
pub fn viterbi_decode(llrs: &[i32]) -> Vec<u8> {
    assert!(
        llrs.len().is_multiple_of(2),
        "viterbi: LLR count must be even"
    );
    let steps = llrs.len() / 2;
    let mut metric = [i64::MIN / 4; STATES];
    metric[0] = 0; // encoder starts zeroed

    // decisions[t] bit ns = the *top bit of the winning predecessor* of
    // state ns at step t. The input bit itself needs no storage: a successor
    // state is `ns = ((prev << 1) | input) & 63`, so `input = ns & 1`.
    let mut decisions: Vec<u64> = Vec::with_capacity(steps);
    for pair in llrs.chunks_exact(2) {
        let (la, lb) = (pair[0] as i64, pair[1] as i64);
        // Gain of a branch labelled (a, b), indexed `a | b << 1`.
        let gains = [la + lb, lb - la, la - lb, -la - lb];
        let (low, high) = metric.split_at(STATES / 2);
        let mut next = [0i64; STATES];
        let mut decide = 0u64;
        for (j, out) in next.chunks_exact_mut(2).enumerate() {
            let gain = gains[BUTTERFLY_LABELS[j] as usize];
            let (even_lo, even_hi) = (low[j] + gain, high[j] - gain);
            let (odd_lo, odd_hi) = (low[j] - gain, high[j] + gain);
            out[0] = even_lo.max(even_hi);
            out[1] = odd_lo.max(odd_hi);
            decide |= ((even_hi > even_lo) as u64 | ((odd_hi > odd_lo) as u64) << 1) << (2 * j);
        }
        metric = next;
        decisions.push(decide);
    }

    // Traceback from state 0 (zero-terminated trellis).
    let mut bits = vec![0u8; steps];
    let mut state = 0usize;
    for t in (0..steps).rev() {
        bits[t] = (state & 1) as u8;
        let top = ((decisions[t] >> state) & 1) as usize;
        state = (state >> 1) | (top << 5);
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: the decoder as it stood before the butterflies — every
    /// successor state walks both predecessors, skips an unreached one by
    /// its sentinel, and selects each output's sign from looked-up code bits.
    fn viterbi_oracle(llrs: &[i32]) -> Vec<u8> {
        assert!(
            llrs.len().is_multiple_of(2),
            "viterbi: LLR count must be even"
        );
        let steps = llrs.len() / 2;
        const NEG: i64 = i64::MIN / 4;
        let mut metric = [NEG; STATES];
        metric[0] = 0;
        let mut decisions: Vec<u64> = Vec::with_capacity(steps);

        // Precompute branch outputs per successor state and predecessor-top bit.
        // reg for (prev, input) is (prev << 1) | input; with prev =
        // (ns >> 1) | (top << 5), reg = (ns & 63) | (top << 6) ... plus the
        // shifted low bits — computed directly below for clarity.
        let mut outputs = [[(0u8, 0u8); 2]; STATES];
        for (ns, out) in outputs.iter_mut().enumerate() {
            let input = (ns & 1) as u32;
            for (top, slot) in out.iter_mut().enumerate() {
                let prev = ((ns >> 1) | (top << 5)) as u32;
                let reg = (prev << 1) | input;
                *slot = (parity(reg & G_A), parity(reg & G_B));
            }
        }

        for t in 0..steps {
            let la = llrs[2 * t] as i64;
            let lb = llrs[2 * t + 1] as i64;
            let mut next = [NEG; STATES];
            let mut decide = 0u64;
            for ns in 0..STATES {
                for (top, &(a_bit, b_bit)) in outputs[ns].iter().enumerate() {
                    let prev = (ns >> 1) | (top << 5);
                    if metric[prev] == NEG {
                        continue;
                    }
                    let gain =
                        if a_bit == 0 { la } else { -la } + if b_bit == 0 { lb } else { -lb };
                    let cand = metric[prev] + gain;
                    if cand > next[ns] {
                        next[ns] = cand;
                        if top == 1 {
                            decide |= 1 << ns;
                        } else {
                            decide &= !(1 << ns);
                        }
                    }
                }
            }
            metric = next;
            decisions.push(decide);
        }

        // Traceback from state 0 (zero-terminated trellis).
        let mut bits = vec![0u8; steps];
        let mut state = 0usize;
        for t in (0..steps).rev() {
            bits[t] = (state & 1) as u8;
            let top = ((decisions[t] >> state) & 1) as usize;
            state = (state >> 1) | (top << 5);
        }
        bits
    }

    #[test]
    fn encoder_known_vector() {
        // All-zero input stays all-zero.
        assert_eq!(encode(&[0, 0, 0]), vec![0, 0, 0, 0, 0, 0]);
        // Single 1: outputs follow the generator taps as the bit shifts.
        let coded = encode(&[1, 0, 0, 0, 0, 0, 0]);
        // First pair: reg=1 → a=g0(0)=1, b=g1(0)=1.
        assert_eq!(&coded[..2], &[1, 1]);
        // Impulse response spans the constraint length then returns to zero.
        assert_eq!(&coded[12..14], &[1, 1]); // delay-6 taps of both generators
    }

    #[test]
    fn puncture_rates_lengths() {
        let coded: Vec<u8> = (0..24).map(|i| (i % 2) as u8).collect();
        assert_eq!(puncture(&coded, CodeRate::R12).len(), 24);
        assert_eq!(puncture(&coded, CodeRate::R23).len(), 18);
        assert_eq!(puncture(&coded, CodeRate::R34).len(), 16);
    }

    fn roundtrip(bits: &[u8], rate: CodeRate, flips: &[usize]) -> Vec<u8> {
        let mut data = bits.to_vec();
        data.extend_from_slice(&[0; 6]); // tail
        let coded = puncture(&encode(&data), rate);
        let mut llrs: Vec<i32> = coded.iter().map(|&b| if b == 0 { 8 } else { -8 }).collect();
        for &f in flips {
            let idx = f % llrs.len();
            llrs[idx] = -llrs[idx];
        }
        let decoded = viterbi_decode(&depuncture(&llrs, rate));
        decoded[..bits.len()].to_vec()
    }

    fn test_bits(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 13 + i / 5 + 1) % 2) as u8).collect()
    }

    #[test]
    fn viterbi_decodes_clean_rate_half() {
        let bits = test_bits(96);
        assert_eq!(roundtrip(&bits, CodeRate::R12, &[]), bits);
    }

    #[test]
    fn viterbi_decodes_clean_punctured_rates() {
        let bits = test_bits(144);
        assert_eq!(roundtrip(&bits, CodeRate::R23, &[]), bits);
        assert_eq!(roundtrip(&bits, CodeRate::R34, &[]), bits);
    }

    #[test]
    fn viterbi_corrects_scattered_errors() {
        let bits = test_bits(192);
        // Flip several well-separated coded bits: free distance 10 at rate
        // 1/2 corrects them easily.
        assert_eq!(roundtrip(&bits, CodeRate::R12, &[11, 97, 203, 331]), bits);
    }

    #[test]
    fn viterbi_corrects_errors_after_puncturing() {
        let bits = test_bits(96);
        assert_eq!(roundtrip(&bits, CodeRate::R34, &[17, 83]), bits);
    }

    #[test]
    #[should_panic]
    fn viterbi_rejects_odd_llr_count() {
        viterbi_decode(&[1, 2, 3]);
    }

    #[test]
    fn soft_confidence_beats_hard_on_weak_bits() {
        // A low-confidence wrong bit must be overridden by strong neighbours.
        let bits = test_bits(64);
        let mut data = bits.clone();
        data.extend_from_slice(&[0; 6]);
        let coded = encode(&data);
        let mut llrs: Vec<i32> = coded
            .iter()
            .map(|&b| if b == 0 { 100 } else { -100 })
            .collect();
        // Weakly wrong bits.
        llrs[10] = if coded[10] == 0 { -1 } else { 1 };
        llrs[11] = if coded[11] == 0 { -1 } else { 1 };
        let decoded = viterbi_decode(&llrs);
        assert_eq!(&decoded[..bits.len()], &bits[..]);
    }

    #[test]
    fn depuncture_restores_length() {
        let llrs: Vec<i32> = (0..18).map(|i| i + 1).collect();
        let r23 = depuncture(&llrs, CodeRate::R23);
        assert_eq!(r23.len(), 24);
        assert_eq!(r23.iter().filter(|&&l| l == 0).count(), 6);
        let llrs: Vec<i32> = (0..16).map(|i| i + 1).collect();
        let r34 = depuncture(&llrs, CodeRate::R34);
        assert_eq!(r34.len(), 24);
        assert_eq!(r34.iter().filter(|&&l| l == 0).count(), 8);
    }

    /// Punctured zeros, hard ±1, small soft values, the demapper's range,
    /// and both ends of `i32`.
    fn arb_llr() -> impl Strategy<Value = i32> {
        prop_oneof![
            Just(0),
            prop_oneof![Just(1), Just(-1)],
            -8i32..=8,
            i16::MIN as i32..=i16::MAX as i32,
            prop_oneof![Just(i32::MAX), Just(-i32::MAX), Just(i32::MIN)],
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn viterbi_matches_the_oracle(
            llrs in proptest::collection::vec(arb_llr(), 2..=400),
            rate in prop_oneof![Just(CodeRate::R12), Just(CodeRate::R23), Just(CodeRate::R34)],
        ) {
            // 1..=200 steps at rate 1/2 (streams under the constraint length
            // included); the punctured rates re-insert their zeros first.
            let mut stream = depuncture(&llrs, rate);
            stream.truncate(stream.len() & !1);
            prop_assert_eq!(viterbi_decode(&stream), viterbi_oracle(&stream));
        }
    }

    #[test]
    fn viterbi_matches_the_oracle_on_every_short_stream_of_extremes() {
        // Every stream of 1..=3 steps over {MIN, -1, 0, 1, MAX}: shorter than
        // the constraint length, so most states are still unreached.
        let alphabet = [i32::MIN, -1, 0, 1, i32::MAX];
        for steps in 1..=3usize {
            for code in 0..alphabet.len().pow(2 * steps as u32) {
                let llrs: Vec<i32> = (0..2 * steps)
                    .map(|k| alphabet[code / alphabet.len().pow(k as u32) % alphabet.len()])
                    .collect();
                assert_eq!(viterbi_decode(&llrs), viterbi_oracle(&llrs), "{llrs:?}");
            }
        }
        assert_eq!(viterbi_decode(&[]), viterbi_oracle(&[]));
    }
}
