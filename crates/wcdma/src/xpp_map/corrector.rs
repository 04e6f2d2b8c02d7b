//! The channel-correction unit on the array (paper Fig. 7).
//!
//! Two variants, mirroring the figure:
//!
//! * [`corrector_netlist`] — the time-multiplexed corrector with *resident*
//!   per-finger weights held in RAM-PAEs (the figure's weight FIFOs). The
//!   DSP updates weights at slot rate through write ports while symbols
//!   stream; symbol-paced events gate the weight reads so weights and
//!   symbols stay token-aligned.
//! * `sttd_corrector_netlist` — the STTD decoder: symbol pairs and weight
//!   pairs arrive interleaved, demuxes split them, sixteen multipliers form
//!   `ŝ1 = w1*·r1 + w2·r2*` and `ŝ2 = w1*·r2 − w2·r1*`, and merges
//!   re-interleave the decoded pair.

use crate::rake::finger::WEIGHT_FRAC_BITS;
use sdr_dsp::Cplx;
use xpp_array::iq::{drain_iq, split_iq};
use xpp_array::{
    AluOp, Array, ConfigId, CounterCfg, DataOut, Netlist, NetlistBuilder, Result, UnaryOp, Word,
    WORD_MIN,
};

/// Builds the resident-weight corrector for `fingers` time-multiplexed
/// fingers.
///
/// External ports: symbols in `i_in`/`q_in` (finger-major interleaved),
/// weight updates in `w_addr`/`wi`/`wq`, corrected symbols out
/// `i_out`/`q_out`. Output is `(s · conj(w)) >> 9`, truncating — identical
/// to the golden [`correct`](crate::rake::finger::correct).
///
/// # Panics
///
/// Panics if `fingers` is 0 or exceeds 512 (one RAM bank per component).
pub fn corrector_netlist(fingers: usize) -> Netlist {
    assert!((1..=512).contains(&fingers), "fingers must be 1..=512");
    let mut nl = NetlistBuilder::new(format!("fig7-corrector-{fingers}x"));
    let i_in = nl.input("i_in");
    let q_in = nl.input("q_in");
    let w_addr = nl.input("w_addr");
    let wi = nl.input("wi");
    let wq = nl.input("wq");

    // One weight-read per symbol: an always-true event derived from the
    // symbol stream gates the finger-address counter, so reads can neither
    // run ahead of the weights nor fall out of step with the symbols.
    let always = nl.unary(UnaryOp::GeK(Word::new(WORD_MIN)), i_in);
    let sym_ev = nl.to_event(always);
    let rd_ctr = nl.counter(CounterCfg::modulo(fingers as u64));
    let rd_addr = nl.gate(sym_ev, rd_ctr.value);

    let ram_wi = nl.ram(vec![]);
    let ram_wq = nl.ram(vec![]);
    nl.wire(rd_addr, ram_wi.rd_addr);
    nl.wire(rd_addr, ram_wq.rd_addr);
    nl.wire(w_addr, ram_wi.wr_addr);
    nl.wire(w_addr, ram_wq.wr_addr);
    nl.wire(wi, ram_wi.wr_data);
    nl.wire(wq, ram_wq.wr_data);
    let wi_s = ram_wi.rd_data;
    let wq_s = ram_wq.rd_data;

    // s · conj(w): re = i·wi + q·wq ; im = q·wi − i·wq ; then >> 9.
    let p1 = nl.alu(AluOp::Mul, i_in, wi_s);
    let p2 = nl.alu(AluOp::Mul, q_in, wq_s);
    let p3 = nl.alu(AluOp::Mul, q_in, wi_s);
    let p4 = nl.alu(AluOp::Mul, i_in, wq_s);
    let re = nl.alu(AluOp::Add, p1, p2);
    let im = nl.alu(AluOp::Sub, p3, p4);
    let re = nl.unary(UnaryOp::ShrK(WEIGHT_FRAC_BITS), re);
    let im = nl.unary(UnaryOp::ShrK(WEIGHT_FRAC_BITS), im);
    nl.output("i_out", re);
    nl.output("q_out", im);
    nl.build().expect("corrector netlist is well formed")
}

/// Builds the STTD decoding corrector (one finger; symbol pairs and weight
/// pairs interleaved on the ports).
///
/// External ports: `i_in`/`q_in` (r1, r2 interleaved), `wi`/`wq` (w1, w2
/// interleaved, one pair per symbol pair), `i_out`/`q_out` (ŝ1, ŝ2
/// interleaved). Matches the golden
/// [`sttd_decode_fixed`](crate::symbols::sttd_decode_fixed) with
/// `frac = 9` exactly.
pub(crate) fn sttd_corrector_netlist() -> Netlist {
    let mut nl = NetlistBuilder::new("fig7-sttd-corrector");
    let i_in = nl.input("i_in");
    let q_in = nl.input("q_in");
    let wi = nl.input("wi");
    let wq = nl.input("wq");

    // Toggle: token index parity within each pair.
    let tog = nl.counter(CounterCfg::modulo(2));
    let tog_ev = nl.to_event(tog.value);
    let (r1i, r2i) = nl.demux(tog_ev, i_in);
    let (r1q, r2q) = nl.demux(tog_ev, q_in);
    let (w1i, w2i) = nl.demux(tog_ev, wi);
    let (w1q, w2q) = nl.demux(tog_ev, wq);

    let mul = |nl: &mut NetlistBuilder, a: DataOut, b: DataOut| nl.alu(AluOp::Mul, a, b);

    // ŝ1 = w1*·r1 + w2·r2*
    let a1 = mul(&mut nl, w1i, r1i);
    let a2 = mul(&mut nl, w1q, r1q);
    let a3 = mul(&mut nl, w2i, r2i);
    let a4 = mul(&mut nl, w2q, r2q);
    let s1_re_a = nl.alu(AluOp::Add, a1, a2);
    let s1_re_b = nl.alu(AluOp::Add, a3, a4);
    let s1_re = nl.alu(AluOp::Add, s1_re_a, s1_re_b);

    let b1 = mul(&mut nl, w1i, r1q);
    let b2 = mul(&mut nl, w1q, r1i);
    let b3 = mul(&mut nl, w2q, r2i);
    let b4 = mul(&mut nl, w2i, r2q);
    let s1_im_a = nl.alu(AluOp::Sub, b1, b2);
    let s1_im_b = nl.alu(AluOp::Sub, b3, b4);
    let s1_im = nl.alu(AluOp::Add, s1_im_a, s1_im_b);

    // ŝ2 = w1*·r2 − w2·r1*
    let c1 = mul(&mut nl, w1i, r2i);
    let c2 = mul(&mut nl, w1q, r2q);
    let c3 = mul(&mut nl, w2i, r1i);
    let c4 = mul(&mut nl, w2q, r1q);
    let s2_re_a = nl.alu(AluOp::Add, c1, c2);
    let s2_re_b = nl.alu(AluOp::Add, c3, c4);
    let s2_re = nl.alu(AluOp::Sub, s2_re_a, s2_re_b);

    let d1 = mul(&mut nl, w1i, r2q);
    let d2 = mul(&mut nl, w1q, r2i);
    let d3 = mul(&mut nl, w2q, r1i);
    let d4 = mul(&mut nl, w2i, r1q);
    let s2_im_a = nl.alu(AluOp::Sub, d1, d2);
    let s2_im_b = nl.alu(AluOp::Sub, d3, d4);
    let s2_im = nl.alu(AluOp::Sub, s2_im_a, s2_im_b);

    let s1_re = nl.unary(UnaryOp::ShrK(WEIGHT_FRAC_BITS), s1_re);
    let s1_im = nl.unary(UnaryOp::ShrK(WEIGHT_FRAC_BITS), s1_im);
    let s2_re = nl.unary(UnaryOp::ShrK(WEIGHT_FRAC_BITS), s2_re);
    let s2_im = nl.unary(UnaryOp::ShrK(WEIGHT_FRAC_BITS), s2_im);

    // Re-interleave ŝ1, ŝ2 onto the output streams.
    let out_tog = nl.counter(CounterCfg::modulo(2));
    let out_ev = nl.to_event(out_tog.value);
    let i_out = nl.merge(out_ev, s1_re, s2_re);
    let q_out = nl.merge(out_ev, s1_im, s2_im);
    nl.output("i_out", i_out);
    nl.output("q_out", q_out);
    nl.build().expect("sttd corrector netlist is well formed")
}

/// The corrector's drive function (see [`crate::xpp_map`]): `cfg` is a
/// running [`corrector_netlist`]`(weights.len())` on `array`. Writes one
/// Q9 weight per finger into the resident RAM banks (what the DSP does at
/// slot rate) and lets the writes settle, then corrects `muxed`, a
/// finger-major interleaved symbol stream, returning the corrected stream
/// in the same order: finger `f`'s symbols equal the golden
/// [`correct`](crate::rake::finger::correct)`(symbols_f, weights[f])`.
///
/// # Errors
///
/// Returns an error if `cfg` is not such a corrector on `array` or the
/// simulation stalls.
///
/// # Panics
///
/// Panics unless `muxed` covers whole finger rounds.
pub fn drive_corrector(
    array: &mut Array,
    cfg: ConfigId,
    weights: &[Cplx<i32>],
    muxed: &[Cplx<i32>],
) -> Result<Vec<Cplx<i32>>> {
    assert!(
        muxed.len().is_multiple_of(weights.len()),
        "stream must cover whole finger rounds"
    );
    let (wi, wq) = split_iq(weights);
    array.push_input(
        cfg,
        "w_addr",
        (0..weights.len()).map(|f| Word::new(f as i32)),
    )?;
    array.push_input(cfg, "wi", wi)?;
    array.push_input(cfg, "wq", wq)?;
    array.run_until_idle(10_000)?;
    let (i, q) = split_iq(muxed);
    array.push_input(cfg, "i_in", i)?;
    array.push_input(cfg, "q_in", q)?;
    array.run_until_output(cfg, "i_out", muxed.len(), 16 * muxed.len() as u64 + 4_000)?;
    array.run_until_idle(4_000)?;
    drain_iq(array, cfg, "i_out", "q_out")
}

/// The STTD corrector's drive function (see [`crate::xpp_map`]): `cfg` is
/// a running `sttd_corrector_netlist` on `array`. Decodes an even-length
/// stream of `(r1, r2)` symbol pairs with the weights `w1`, `w2` (streamed
/// as one pair per symbol pair), returning the interleaved `ŝ1, ŝ2`
/// stream: pair `p` equals the golden
/// [`sttd_decode_fixed`](crate::symbols::sttd_decode_fixed)`(r1, r2, w1,
/// w2, 9)`.
///
/// # Errors
///
/// Returns an error if `cfg` is not an STTD corrector on `array` or the
/// simulation stalls.
///
/// # Panics
///
/// Panics if the stream length is odd.
pub fn drive_sttd_corrector(
    array: &mut Array,
    cfg: ConfigId,
    symbols: &[Cplx<i32>],
    w1: Cplx<i32>,
    w2: Cplx<i32>,
) -> Result<Vec<Cplx<i32>>> {
    assert!(symbols.len().is_multiple_of(2), "STTD needs symbol pairs");
    let pairs = symbols.len() / 2;
    let weight_pairs = |a: i32, b: i32| (0..pairs).flat_map(move |_| [Word::new(a), Word::new(b)]);
    let (i, q) = split_iq(symbols);
    array.push_input(cfg, "i_in", i)?;
    array.push_input(cfg, "q_in", q)?;
    array.push_input(cfg, "wi", weight_pairs(w1.re, w2.re))?;
    array.push_input(cfg, "wq", weight_pairs(w1.im, w2.im))?;
    array.run_until_output(
        cfg,
        "i_out",
        symbols.len(),
        24 * symbols.len() as u64 + 4_000,
    )?;
    array.run_until_idle(4_000)?;
    drain_iq(array, cfg, "i_out", "q_out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rake::finger::correct;
    use crate::symbols::sttd_decode_fixed;

    fn syms(n: usize, seed: i32) -> Vec<Cplx<i32>> {
        (0..n as i32)
            .map(|i| {
                Cplx::new(
                    ((i * 211 + seed * 31) % 8191) - 4095,
                    ((i * 97 + seed * 17) % 8191) - 4095,
                )
            })
            .collect()
    }

    fn configured(netlist: &Netlist) -> (Array, ConfigId) {
        let mut array = Array::xpp64a();
        let cfg = array.configure(netlist).unwrap();
        (array, cfg)
    }

    #[test]
    fn corrector_matches_golden_per_finger() {
        let fingers = 4;
        let weights = vec![
            Cplx::new(512, 0),
            Cplx::new(0, 512),
            Cplx::new(-300, 400),
            Cplx::new(700, -700),
        ];
        let per_finger: Vec<Vec<Cplx<i32>>> = (0..fingers).map(|f| syms(8, f as i32)).collect();
        // Finger-major interleave.
        let mut muxed = Vec::new();
        for k in 0..8 {
            for s in &per_finger {
                muxed.push(s[k]);
            }
        }
        let (mut array, cfg) = configured(&corrector_netlist(fingers));
        let out = drive_corrector(&mut array, cfg, &weights, &muxed).unwrap();
        for (f, stream) in per_finger.iter().enumerate() {
            let golden = correct(stream, weights[f]);
            let got: Vec<Cplx<i32>> = out.iter().skip(f).step_by(fingers).copied().collect();
            assert_eq!(got, golden, "finger {f}");
        }
    }

    #[test]
    fn corrector_weights_can_be_updated_between_blocks() {
        let (mut array, cfg) = configured(&corrector_netlist(2));
        let block = syms(8, 3);
        let unit = [Cplx::new(512, 0); 2];
        let first = drive_corrector(&mut array, cfg, &unit, &block).unwrap();
        assert_eq!(first, block); // unit weight = identity
        let j = [Cplx::new(0, 512); 2];
        let second = drive_corrector(&mut array, cfg, &j, &block).unwrap();
        let rotated: Vec<Cplx<i32>> = block.iter().map(|s| s.mul_neg_j()).collect();
        assert_eq!(second, rotated); // conj(j)·s = −j·s
    }

    #[test]
    fn sttd_corrector_matches_golden_bit_exact() {
        let w1 = Cplx::new(430, -120);
        let w2 = Cplx::new(-90, 380);
        let symbols = syms(16, 9);
        let (mut array, cfg) = configured(&sttd_corrector_netlist());
        let out = drive_sttd_corrector(&mut array, cfg, &symbols, w1, w2).unwrap();
        for (p, pair) in symbols.chunks_exact(2).enumerate() {
            let (s1, s2) = sttd_decode_fixed(pair[0], pair[1], w1, w2, WEIGHT_FRAC_BITS);
            assert_eq!(out[2 * p], s1, "pair {p} s1");
            assert_eq!(out[2 * p + 1], s2, "pair {p} s2");
        }
    }

    #[test]
    fn sttd_corrector_uses_sixteen_multipliers() {
        let (array, cfg) = configured(&sttd_corrector_netlist());
        let p = array.placement(cfg).unwrap();
        // 16 muls + 12 add/sub = 28 ALU objects.
        assert_eq!(p.counts.alu, 28);
        assert_eq!(p.counts.io, 6);
    }

    #[test]
    fn corrector_resource_footprint() {
        let (array, cfg) = configured(&corrector_netlist(18));
        let p = array.placement(cfg).unwrap();
        assert_eq!(p.counts.ram, 2); // weight banks
        assert_eq!(p.counts.alu, 6); // 4 muls + add + sub
        assert_eq!(p.counts.io, 7);
    }
}
