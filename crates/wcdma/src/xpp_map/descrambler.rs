//! The rake descrambler on the array (paper Fig. 5).
//!
//! The dedicated-hardware code generator streams the scrambling code as a
//! 2-bit representation; on the array, merges select `±1` constants from the
//! code bits ("packed constants" in the figure) and a four-multiplier
//! complex multiplication forms `rx · conj(S)`:
//!
//! ```text
//! y_re = i·c1 + q·c2        y_im = q·c1 − i·c2
//! ```
//!
//! with `c1 = 1−2·cᵢ`, `c2 = 1−2·c_q`.

use crate::scrambling::ScramblingCode;
use sdr_dsp::Cplx;
use xpp_array::iq::{drain_iq, split_iq};
use xpp_array::{AluOp, Array, ConfigId, DataOut, Netlist, NetlistBuilder, Result, Word};

/// Builds the Fig. 5 descrambler netlist.
///
/// External ports: data in `i_in`/`q_in` (12-bit samples), code bits
/// `ci`/`cq` (words 0/1), data out `i_out`/`q_out`.
pub fn descrambler_netlist() -> Netlist {
    let mut nl = NetlistBuilder::new("fig5-descrambler");
    let i_in = nl.input("i_in");
    let q_in = nl.input("q_in");
    let ci = nl.input("ci");
    let cq = nl.input("cq");

    // 2-bit code → ±1 constants via merges (bit 0 → +1, bit 1 → −1).
    // Each merge owns its constant pair (the figure's "packed constants"):
    // a merge consumes only the selected input, so a constant shared between
    // merges would jam its broadcast channel and deadlock the pipeline.
    let plus_i = nl.constant(Word::ONE);
    let minus_i = nl.constant(Word::new(-1));
    let plus_q = nl.constant(Word::ONE);
    let minus_q = nl.constant(Word::new(-1));
    let sel_i = nl.to_event(ci);
    let sel_q = nl.to_event(cq);
    let c1 = nl.merge(sel_i, plus_i, minus_i);
    let c2 = nl.merge(sel_q, plus_q, minus_q);
    let (y_re, y_im) = conj_multiply(&mut nl, i_in, q_in, c1, c2);
    nl.output("i_out", y_re);
    nl.output("q_out", y_im);
    nl.build().expect("descrambler netlist is well formed")
}

/// Splices the complex multiplication by `conj(S) = c1 − j·c2` into `nl`
/// and returns `(y_re, y_im)`: Fig. 5's datapath, shared with
/// [`finger_netlist`](crate::xpp_map::finger_netlist), which maps the code
/// bits to `c1`, `c2` without merges.
pub(crate) fn conj_multiply(
    nl: &mut NetlistBuilder,
    i_in: DataOut,
    q_in: DataOut,
    c1: DataOut,
    c2: DataOut,
) -> (DataOut, DataOut) {
    let p1 = nl.alu(AluOp::Mul, i_in, c1);
    let p2 = nl.alu(AluOp::Mul, q_in, c2);
    let p3 = nl.alu(AluOp::Mul, q_in, c1);
    let p4 = nl.alu(AluOp::Mul, i_in, c2);
    let y_re = nl.alu(AluOp::Add, p1, p2);
    let y_im = nl.alu(AluOp::Sub, p3, p4);
    (y_re, y_im)
}

/// Pushes one descrambling job's four input streams into `cfg`: `n`
/// samples from `rx[delay]` on `i_in`/`q_in` and the code bits from
/// `phase` on `ci`/`cq`.
///
/// # Panics
///
/// Panics if `delay + n` exceeds the buffer.
pub(crate) fn push_descrambler_inputs(
    array: &mut Array,
    cfg: ConfigId,
    rx: &[Cplx<i32>],
    code: &ScramblingCode,
    delay: usize,
    phase: usize,
    n: usize,
) -> Result<()> {
    assert!(delay + n <= rx.len(), "descramble window exceeds buffer");
    let (i, q) = split_iq(&rx[delay..delay + n]);
    let bits = |k| code.chip_bits(phase + k);
    array.push_input(cfg, "i_in", i)?;
    array.push_input(cfg, "q_in", q)?;
    array.push_input(cfg, "ci", (0..n).map(|k| Word::new(bits(k).0 as i32)))?;
    array.push_input(cfg, "cq", (0..n).map(|k| Word::new(bits(k).1 as i32)))
}

/// The descrambler's drive function (see [`crate::xpp_map`]): `cfg` is a
/// running [`descrambler_netlist`] on `array`. Descrambles `n` chips
/// starting at `rx[delay]` with code phase `phase` — the same contract as
/// the golden [`descramble`](crate::rake::finger::descramble).
///
/// # Example
///
/// ```
/// use sdr_wcdma::scrambling::ScramblingCode;
/// use sdr_wcdma::rake::finger::descramble;
/// use sdr_wcdma::xpp_map::{descrambler_netlist, drive_descrambler};
/// use sdr_dsp::Cplx;
/// use xpp_array::Array;
///
/// # fn main() -> Result<(), xpp_array::Error> {
/// let code = ScramblingCode::downlink(3);
/// let rx: Vec<Cplx<i32>> = (0..32).map(|i| Cplx::new(100 + i, -i)).collect();
/// let mut array = Array::xpp64a();
/// let cfg = array.configure(&descrambler_netlist())?;
/// let out = drive_descrambler(&mut array, cfg, &rx, &code, 0, 0, 32)?;
/// assert_eq!(out, descramble(&rx, &code, 0, 0, 32)); // bit-exact
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns an error if `cfg` is not a descrambler on `array` or the
/// simulation stalls (never happens for valid streams).
///
/// # Panics
///
/// Panics if `delay + n` exceeds the buffer.
pub fn drive_descrambler(
    array: &mut Array,
    cfg: ConfigId,
    rx: &[Cplx<i32>],
    code: &ScramblingCode,
    delay: usize,
    phase: usize,
    n: usize,
) -> Result<Vec<Cplx<i32>>> {
    push_descrambler_inputs(array, cfg, rx, code, delay, phase, n)?;
    array.run_until_output(cfg, "i_out", n, 16 * n as u64 + 1_000)?;
    array.run_until_idle(1_000)?;
    drain_iq(array, cfg, "i_out", "q_out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rake::finger::descramble;

    fn ramp(n: usize) -> Vec<Cplx<i32>> {
        (0..n as i32)
            .map(|i| Cplx::new((i * 37 % 4095) - 2047, (i * 91 % 4095) - 2047))
            .collect()
    }

    fn descrambler() -> (Array, ConfigId) {
        let mut array = Array::xpp64a();
        let cfg = array.configure(&descrambler_netlist()).unwrap();
        (array, cfg)
    }

    #[test]
    fn matches_golden_bit_exact() {
        let code = ScramblingCode::downlink(7);
        let rx = ramp(256);
        let (mut array, cfg) = descrambler();
        let out = drive_descrambler(&mut array, cfg, &rx, &code, 0, 0, 256).unwrap();
        assert_eq!(out, descramble(&rx, &code, 0, 0, 256));
    }

    #[test]
    fn matches_golden_with_delay_and_phase() {
        let code = ScramblingCode::downlink(19);
        let rx = ramp(128);
        let (mut array, cfg) = descrambler();
        let out = drive_descrambler(&mut array, cfg, &rx, &code, 10, 5, 100).unwrap();
        assert_eq!(out, descramble(&rx, &code, 10, 5, 100));
    }

    #[test]
    fn resource_footprint_is_small() {
        let netlist = descrambler_netlist();
        let (array, cfg) = descrambler();
        let p = array.placement(cfg).unwrap();
        assert_eq!(p.objects, netlist.object_count());
        assert_eq!(p.counts.alu, 6); // 4 muls + add + sub
        assert!(p.counts.reg <= 8);
        assert_eq!(p.counts.io, 6);
    }

    #[test]
    fn sustains_streaming_throughput() {
        let code = ScramblingCode::downlink(0);
        let rx = ramp(512);
        let (mut array, cfg) = descrambler();
        let before = array.stats().cycles;
        drive_descrambler(&mut array, cfg, &rx, &code, 0, 0, 512).unwrap();
        let cycles = array.stats().cycles - before;
        // Pipelined: ~1 chip per cycle plus latency and load time.
        assert!(
            cycles < 512 + 200,
            "descrambler too slow: {cycles} cycles for 512 chips"
        );
    }

    #[test]
    fn consecutive_blocks_reuse_configuration() {
        let code = ScramblingCode::downlink(2);
        let rx = ramp(64);
        let (mut array, cfg) = descrambler();
        let a = drive_descrambler(&mut array, cfg, &rx, &code, 0, 0, 64).unwrap();
        let b = drive_descrambler(&mut array, cfg, &rx, &code, 0, 0, 64).unwrap();
        assert_eq!(a, b);
        assert_eq!(array.stats().configs_loaded, 1);
    }
}
