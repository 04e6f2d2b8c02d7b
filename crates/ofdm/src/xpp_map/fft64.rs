//! The radix-4 FFT-64 on the array (paper Fig. 9).
//!
//! Faithful to the figure's structure:
//!
//! * 64 complex samples stream into a dual-ported data RAM (one RAM-PAE per
//!   component),
//! * "Read and write addresses are stored in circular lookup tables, which
//!   are implemented as preloaded FIFOs" — ring FIFOs hold the complete
//!   256-entry read/write address sequences (3 butterfly passes + the
//!   load/unload phases),
//! * "Twiddle factors for all 3 stages of the FFT64 are also stored in a
//!   lookup table" — six ring FIFOs hold the 48 per-butterfly twiddles,
//! * the radix-4 kernel is a pipeline of ALU objects delivering one value
//!   per cycle; each stage output is scaled (`ShrK`) per the paper,
//! * passes sequence *themselves*: every 64th RAM write emits a wrap event
//!   that releases 64 read credits, so a pass cannot read data the previous
//!   pass has not written (in-place DIF is hazard-free in read order),
//! * the final unload reads digit-reversed addresses, delivering the
//!   spectrum in natural order.
//!
//! The datapath is bit-exact with [`sdr_dsp::fft::Fft64Fixed`]: the
//! twiddle product is `Mul`/`Sub`/`AddK(256)`/`ShrK(9)` (= round-half-up
//! Q0.9) and the stage scaling is a truncating `ShrK`.

use sdr_dsp::fft::{digit_reversed_index_64, twiddle_q, TWIDDLE_FRAC_BITS};
use sdr_dsp::Cplx;
use xpp_array::iq::{drain_iq, split_iq};
use xpp_array::{
    AluOp, Array, ConfigId, CounterCfg, DataOut, Netlist, NetlistBuilder, Result, UnaryOp, Word,
    WORD_MIN,
};

/// Butterfly read/write address sequence for the three in-place passes, in
/// the exact order [`Fft64Fixed`] visits them.
fn pass_addresses() -> Vec<usize> {
    let mut seq = Vec::with_capacity(192);
    for stage in 0..3 {
        let m = 64 >> (2 * stage);
        let q = m / 4;
        for base in (0..64).step_by(m) {
            for k in 0..q {
                seq.push(base + k);
                seq.push(base + k + q);
                seq.push(base + k + 2 * q);
                seq.push(base + k + 3 * q);
            }
        }
    }
    seq
}

/// Per-butterfly twiddles (w1, w2, w3) in pass order.
fn twiddle_sequence() -> Vec<[Cplx<i32>; 3]> {
    let mut seq = Vec::with_capacity(48);
    for stage in 0..3 {
        let m = 64 >> (2 * stage);
        let q = m / 4;
        for _base in (0..64).step_by(m) {
            for k in 0..q {
                seq.push([twiddle_q(m, k), twiddle_q(m, 2 * k), twiddle_q(m, 3 * k)]);
            }
        }
    }
    seq
}

fn words(vals: impl IntoIterator<Item = i32>) -> Vec<Word> {
    vals.into_iter().map(Word::new).collect()
}

/// Builds the Fig. 9 FFT-64 netlist with the given per-stage scaling shift
/// (the paper uses 2; the OFDM receiver uses 1 — see `rx`).
///
/// External ports: `i_in`/`q_in` accept frames of 64 samples; `i_out`/
/// `q_out` deliver 64 spectrum values per frame in natural order.
pub fn fft64_netlist(stage_shift: u32) -> Netlist {
    let mut nl = NetlistBuilder::new(format!("fig9-fft64-s{stage_shift}"));
    build_fft64(&mut nl, stage_shift, "i_in", "q_in", "i_out", "q_out");
    nl.build().expect("fft64 netlist is well formed")
}

/// Splices the complete Fig. 9 FFT block into an existing netlist builder
/// (used by the Fig. 10 resident configuration, which also carries the
/// down-sampler).
pub(crate) fn build_fft64(
    nl: &mut NetlistBuilder,
    stage_shift: u32,
    i_in_name: &str,
    q_in_name: &str,
    i_out_name: &str,
    q_out_name: &str,
) {
    // Event fan-outs reach consumers at different pipeline depths (e.g. the
    // serial→parallel demux pair); deeper channels absorb the skew.
    nl.set_default_capacity(4);

    let i_in_raw = nl.input(i_in_name);
    let q_in_raw = nl.input(q_in_name);

    // Frame admission control: the next frame's 64-sample load may only
    // proceed once the previous frame's unload has drained the RAM (the
    // ping is the unload, the pong is the load — with one in-place buffer
    // the two must strictly alternate). One initial go token admits the
    // first frame.
    let in_pace = nl.counter(CounterCfg::modulo(64));
    let in_credit = nl.counter(CounterCfg {
        start: 0,
        step: 1,
        period: 64,
        gated: true,
    });
    nl.wire_ev_with(
        in_pace.wrap,
        in_credit.go.expect("gated counter has a go port"),
        2,
        vec![true],
    );
    let in_credit_true = nl.unary(UnaryOp::GeK(Word::new(WORD_MIN)), in_credit.value);
    let in_credit_ev = nl.to_event(in_credit_true);
    let i_in = nl.gate(in_credit_ev, i_in_raw);
    let q_in = nl.gate(in_credit_ev, q_in_raw);

    // ---- address & phase lookup tables (preloaded ring FIFOs) ---------
    let passes = pass_addresses();
    let mut wr_addr_seq: Vec<i32> = (0..64).collect();
    wr_addr_seq.extend(passes.iter().map(|&a| a as i32));
    let wr_addr = nl.ring_fifo(words(wr_addr_seq));

    let mut wr_sel_seq = vec![1i32; 64]; // 1 = load from input
    wr_sel_seq.extend(std::iter::repeat_n(0, 192));
    let wr_sel_words = nl.ring_fifo(words(wr_sel_seq));
    let wr_sel = nl.to_event(wr_sel_words);

    let mut rd_addr_seq: Vec<i32> = passes.iter().map(|&a| a as i32).collect();
    rd_addr_seq.extend((0..64).map(|n| digit_reversed_index_64(n) as i32));
    let rd_addr_ring = nl.ring_fifo(words(rd_addr_seq));

    let mut rd_sel_seq = vec![0i32; 192]; // 0 = butterfly, 1 = unload
    rd_sel_seq.extend(std::iter::repeat_n(1, 64));
    let rd_sel_words = nl.ring_fifo(words(rd_sel_seq));
    let rd_sel = nl.to_event(rd_sel_words);

    let tw = twiddle_sequence();
    let tw_ring = |nl: &mut NetlistBuilder, f: &dyn Fn(&[Cplx<i32>; 3]) -> i32| {
        let contents: Vec<Word> = tw.iter().map(|t| Word::new(f(t))).collect();
        nl.ring_fifo(contents)
    };
    let w1r = tw_ring(nl, &|t| t[0].re);
    let w1i = tw_ring(nl, &|t| t[0].im);
    let w2r = tw_ring(nl, &|t| t[1].re);
    let w2i = tw_ring(nl, &|t| t[1].im);
    let w3r = tw_ring(nl, &|t| t[2].re);
    let w3i = tw_ring(nl, &|t| t[2].im);

    // ---- data RAMs and the credit-gated read stream --------------------
    let ram_i = nl.ram(vec![]);
    let ram_q = nl.ram(vec![]);

    // Read credits: every 64th write wraps the pace counter, whose event
    // releases a burst of 64 read addresses.
    let pace = nl.counter(CounterCfg::modulo(64));
    let credit = nl.counter(CounterCfg {
        start: 0,
        step: 1,
        period: 64,
        gated: true,
    });
    nl.wire_ev(pace.wrap, credit.go.expect("gated counter has a go port"));
    let credit_true = nl.unary(UnaryOp::GeK(Word::new(WORD_MIN)), credit.value);
    let credit_ev = nl.to_event(credit_true);
    let rd_addr = nl.gate(credit_ev, rd_addr_ring);
    nl.wire(rd_addr, ram_i.rd_addr);
    nl.wire(rd_addr, ram_q.rd_addr);

    // Split the read streams into butterfly samples and unload output.
    let (bf_i, out_i) = nl.demux(rd_sel, ram_i.rd_data);
    let (bf_q, out_q) = nl.demux(rd_sel, ram_q.rd_data);
    nl.output(i_out_name, out_i);
    nl.output(q_out_name, out_q);

    // Count unloaded samples to admit the next frame's load.
    let unloaded = nl.unary(UnaryOp::GeK(Word::new(WORD_MIN)), out_i);
    let unloaded_ev = nl.to_event(unloaded);
    let _in_pace_sink = nl.gate(unloaded_ev, in_pace.value); // output unconnected

    // ---- serial → parallel (a, b, c, d) --------------------------------
    let phase = nl.counter(CounterCfg::modulo(4));
    let hi = nl.unary(UnaryOp::GeK(Word::new(2)), phase.value);
    let hi_ev = nl.to_event(hi);
    let tog = nl.counter(CounterCfg::modulo(2));
    let tog_true = nl.unary(UnaryOp::GeK(Word::new(1)), tog.value);
    let tog_ev = nl.to_event(tog_true);

    let (i01, i23) = nl.demux(hi_ev, bf_i);
    let (q01, q23) = nl.demux(hi_ev, bf_q);
    let (a_re, b_re) = nl.demux(tog_ev, i01);
    let (c_re, d_re) = nl.demux(tog_ev, i23);
    let (a_im, b_im) = nl.demux(tog_ev, q01);
    let (c_im, d_im) = nl.demux(tog_ev, q23);

    // ---- the radix-4 kernel --------------------------------------------
    let t0_re = nl.alu(AluOp::Add, a_re, c_re);
    let t1_re = nl.alu(AluOp::Sub, a_re, c_re);
    let t2_re = nl.alu(AluOp::Add, b_re, d_re);
    let t3_re = nl.alu(AluOp::Sub, b_re, d_re);
    let t0_im = nl.alu(AluOp::Add, a_im, c_im);
    let t1_im = nl.alu(AluOp::Sub, a_im, c_im);
    let t2_im = nl.alu(AluOp::Add, b_im, d_im);
    let t3_im = nl.alu(AluOp::Sub, b_im, d_im);

    // y0 = t0 + t2 (no twiddle), scaled.
    let y0_re = nl.alu(AluOp::Add, t0_re, t2_re);
    let y0_im = nl.alu(AluOp::Add, t0_im, t2_im);
    let y0_re = nl.unary(UnaryOp::ShrK(stage_shift), y0_re);
    let y0_im = nl.unary(UnaryOp::ShrK(stage_shift), y0_im);

    // y1 = t1 − j·t3 ; y2 = t0 − t2 ; y3 = t1 + j·t3.
    let y1_re = nl.alu(AluOp::Add, t1_re, t3_im);
    let y1_im = nl.alu(AluOp::Sub, t1_im, t3_re);
    let y2_re = nl.alu(AluOp::Sub, t0_re, t2_re);
    let y2_im = nl.alu(AluOp::Sub, t0_im, t2_im);
    let y3_re = nl.alu(AluOp::Sub, t1_re, t3_im);
    let y3_im = nl.alu(AluOp::Add, t1_im, t3_re);

    // Twiddle complex multiply, bit-exact with `cmul_twiddle` + stage shift.
    let cmul = |nl: &mut NetlistBuilder,
                vr: DataOut,
                vi: DataOut,
                wr: DataOut,
                wi: DataOut|
     -> (DataOut, DataOut) {
        let p1 = nl.alu(AluOp::Mul, vr, wr);
        let p2 = nl.alu(AluOp::Mul, vi, wi);
        let p3 = nl.alu(AluOp::Mul, vr, wi);
        let p4 = nl.alu(AluOp::Mul, vi, wr);
        let re = nl.alu(AluOp::Sub, p1, p2);
        let im = nl.alu(AluOp::Add, p3, p4);
        let half = Word::new(1 << (TWIDDLE_FRAC_BITS - 1));
        let re = nl.unary(UnaryOp::AddK(half), re);
        let im = nl.unary(UnaryOp::AddK(half), im);
        let re = nl.unary(UnaryOp::ShrK(TWIDDLE_FRAC_BITS), re);
        let im = nl.unary(UnaryOp::ShrK(TWIDDLE_FRAC_BITS), im);
        let re = nl.unary(UnaryOp::ShrK(stage_shift), re);
        let im = nl.unary(UnaryOp::ShrK(stage_shift), im);
        (re, im)
    };
    let (z1_re, z1_im) = cmul(nl, y1_re, y1_im, w1r, w1i);
    let (z2_re, z2_im) = cmul(nl, y2_re, y2_im, w2r, w2i);
    let (z3_re, z3_im) = cmul(nl, y3_re, y3_im, w3r, w3i);

    // ---- parallel → serial (y0, z1, z2, z3) -----------------------------
    let phase_o = nl.counter(CounterCfg::modulo(4));
    let hi_o = nl.unary(UnaryOp::GeK(Word::new(2)), phase_o.value);
    let hi_o_ev = nl.to_event(hi_o);
    let tog_o = nl.counter(CounterCfg::modulo(2));
    let tog_o_true = nl.unary(UnaryOp::GeK(Word::new(1)), tog_o.value);
    let tog_o_ev = nl.to_event(tog_o_true);

    let m01_re = nl.merge(tog_o_ev, y0_re, z1_re);
    let m23_re = nl.merge(tog_o_ev, z2_re, z3_re);
    let bfout_re = nl.merge(hi_o_ev, m01_re, m23_re);
    let m01_im = nl.merge(tog_o_ev, y0_im, z1_im);
    let m23_im = nl.merge(tog_o_ev, z2_im, z3_im);
    let bfout_im = nl.merge(hi_o_ev, m01_im, m23_im);

    // ---- write side: load or butterfly write-back ----------------------
    let wr_val_i = nl.merge(wr_sel, bfout_re, i_in);
    let wr_val_q = nl.merge(wr_sel, bfout_im, q_in);
    nl.wire(wr_addr, ram_i.wr_addr);
    nl.wire(wr_addr, ram_q.wr_addr);
    nl.wire(wr_val_i, ram_i.wr_data);
    nl.wire(wr_val_q, ram_q.wr_data);

    // Pace the credit generator off the write stream.
    let wrote = nl.unary(UnaryOp::GeK(Word::new(WORD_MIN)), wr_val_i);
    let wrote_ev = nl.to_event(wrote);
    let _sink = nl.gate(wrote_ev, pace.value); // output unconnected: discard
}

/// The FFT-64's drive function (see [`crate::xpp_map`]): `cfg` is a
/// running [`fft64_netlist`]`(stage_shift)` on `array`. Transforms
/// `frames` back to back (the streaming mode the paper's pipeline
/// sustains); each spectrum is bit-exact with
/// [`Fft64Fixed::with_stage_shift`]`(stage_shift)`.
///
/// # Example
///
/// ```
/// use sdr_dsp::{Cplx, fft::Fft64Fixed};
/// use sdr_ofdm::xpp_map::{drive_fft64, fft64_netlist};
/// use xpp_array::Array;
///
/// # fn main() -> Result<(), xpp_array::Error> {
/// let mut array = Array::xpp64a();
/// let cfg = array.configure(&fft64_netlist(2))?; // the paper's >>2 scaling
/// let mut x = [Cplx::<i32>::ZERO; 64];
/// x[1] = Cplx::new(400, -100);
/// let spectrum = drive_fft64(&mut array, cfg, &[x])?;
/// assert_eq!(spectrum[0], Fft64Fixed::with_stage_shift(2).run(&x)); // bit-exact
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns an error if `cfg` is not an FFT-64 on `array` or the
/// simulation stalls.
///
/// [`Fft64Fixed::with_stage_shift`]: sdr_dsp::fft::Fft64Fixed::with_stage_shift
pub fn drive_fft64(
    array: &mut Array,
    cfg: ConfigId,
    frames: &[[Cplx<i32>; 64]],
) -> Result<Vec<[Cplx<i32>; 64]>> {
    let (i, q) = split_iq(frames.as_flattened());
    array.push_input(cfg, "i_in", i)?;
    array.push_input(cfg, "q_in", q)?;
    let budget = 3_000 * frames.len() as u64 + 10_000;
    array.run_until_output(cfg, "i_out", frames.len() * 64, budget)?;
    array.run_until_idle(10_000)?;
    Ok(drain_iq(array, cfg, "i_out", "q_out")?
        .chunks_exact(64)
        .map(|c| c.try_into().expect("64-sample chunk"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_dsp::fft::Fft64Fixed;

    fn noisy_frame(seed: u32) -> [Cplx<i32>; 64] {
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
        let mut f = [Cplx::<i32>::ZERO; 64];
        for v in &mut f {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            let re = ((s >> 8) % 1024) as i32 - 512;
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            let im = ((s >> 8) % 1024) as i32 - 512;
            *v = Cplx::new(re, im);
        }
        f
    }

    fn fft(stage_shift: u32) -> (Array, ConfigId) {
        let mut array = Array::xpp64a();
        let cfg = array.configure(&fft64_netlist(stage_shift)).unwrap();
        (array, cfg)
    }

    fn run(array: &mut Array, cfg: ConfigId, x: &[Cplx<i32>; 64]) -> [Cplx<i32>; 64] {
        drive_fft64(array, cfg, std::slice::from_ref(x)).unwrap()[0]
    }

    #[test]
    fn impulse_matches_golden() {
        let (mut array, cfg) = fft(2);
        let mut x = [Cplx::<i32>::ZERO; 64];
        x[0] = Cplx::new(512, 0);
        let got = run(&mut array, cfg, &x);
        let golden = Fft64Fixed::with_stage_shift(2).run(&x);
        assert_eq!(got, golden);
        assert!(got.iter().all(|v| *v == Cplx::new(8, 0)));
    }

    #[test]
    fn random_frames_match_golden_bit_exact() {
        let (mut array, cfg) = fft(2);
        let golden = Fft64Fixed::with_stage_shift(2);
        for seed in 0..4 {
            let x = noisy_frame(seed);
            assert_eq!(run(&mut array, cfg, &x), golden.run(&x), "seed {seed}");
        }
    }

    #[test]
    fn stage_shift_one_matches_golden() {
        let (mut array, cfg) = fft(1);
        let golden = Fft64Fixed::with_stage_shift(1);
        let x = noisy_frame(99);
        assert_eq!(run(&mut array, cfg, &x), golden.run(&x));
    }

    #[test]
    fn back_to_back_frames_stream_through_one_configuration() {
        let (mut array, cfg) = fft(2);
        let golden = Fft64Fixed::with_stage_shift(2);
        let frames: Vec<[Cplx<i32>; 64]> = (10..14).map(noisy_frame).collect();
        let out = drive_fft64(&mut array, cfg, &frames).unwrap();
        for (f, x) in frames.iter().enumerate() {
            assert_eq!(out[f], golden.run(x), "frame {f}");
        }
        assert_eq!(array.stats().configs_loaded, 1);
    }

    #[test]
    fn resource_footprint_fits_the_xpp64a() {
        let (array, cfg) = fft(2);
        let p = array.placement(cfg).unwrap();
        // 2 data RAMs + 4 address/phase rings + 6 twiddle rings = 12 of the
        // 16 RAM-PAEs — the paper's lookup-FIFO design fills the RAM columns.
        assert_eq!(p.counts.ram, 12);
        assert!(p.counts.alu <= 40, "ALU count {}", p.counts.alu);
        assert_eq!(p.counts.io, 4);
    }

    #[test]
    fn throughput_near_one_sample_per_cycle_per_pass() {
        let (mut array, cfg) = fft(2);
        let frames: Vec<[Cplx<i32>; 64]> = (0..8).map(noisy_frame).collect();
        let before = array.stats().cycles;
        drive_fft64(&mut array, cfg, &frames).unwrap();
        let cycles = array.stats().cycles - before;
        // 256 RAM-write tokens per frame; the pipeline should stay within a
        // small constant factor of that.
        let per_frame = cycles / frames.len() as u64;
        assert!(per_frame < 1200, "FFT too slow: {per_frame} cycles/frame");
    }
}
