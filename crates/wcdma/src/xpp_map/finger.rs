//! One rake finger on the array: the Fig. 5 descrambler streaming straight
//! into the Fig. 6 single-code despreader inside one configuration.
//!
//! The descrambled chips never leave the array — the descrambler's I/Q
//! products are wired to the despreader's multipliers — so a job is one
//! push of received samples and code bits and one drain of symbols, and
//! the pipeline runs at one chip per cycle end to end.
//!
//! The finger's descrambler half maps each code bit `b` to `1 − 2b` on
//! two unary ops (`MulKShr(−2, 0)`, then `AddK(1)`) where Fig. 5 merges
//! over a pair of packed `±1` constants: the same chips, with nothing
//! steered by the data, so the whole finger is cyclo-static with period
//! `sf` and steps in full-rate blocks between its dumps (DESIGN §9 records
//! the deviation). [`descrambler_netlist`](crate::xpp_map::descrambler_netlist)
//! stays Fig. 5 verbatim.

use crate::ovsf::ovsf;
use crate::scrambling::ScramblingCode;
use crate::xpp_map::descrambler::{conj_multiply, push_descrambler_inputs};
use crate::xpp_map::despreader::build_despreader_single;
use sdr_dsp::Cplx;
use xpp_array::iq::drain_iq;
use xpp_array::{Array, ConfigId, DataOut, Netlist, NetlistBuilder, Result, UnaryOp, Word};

/// Builds the finger netlist for `C(sf, code_index)`: Fig. 5 wired into
/// Fig. 6 (26 objects — the two kernels' 20 + 14 less the two ports on
/// each side of the join, and four unary ops where Fig. 5 maps the code
/// bits with two converters, two merges and four constants).
///
/// External ports: received samples `i_in`/`q_in`, scrambling-code bits
/// `ci`/`cq` → symbols `i_out`/`q_out` (one per `sf` chips, normalised by
/// `>> log2(sf)`).
///
/// # Panics
///
/// Panics on invalid OVSF parameters.
pub fn finger_netlist(sf: usize, code_index: usize) -> Netlist {
    let code = ovsf(sf, code_index);
    let mut nl = NetlistBuilder::new(format!("fig5-fig6-finger-sf{sf}-c{code_index}"));
    let i_in = nl.input("i_in");
    let q_in = nl.input("q_in");
    let ci = nl.input("ci");
    let cq = nl.input("cq");
    let c1 = sign(&mut nl, ci);
    let c2 = sign(&mut nl, cq);
    let (chip_i, chip_q) = conj_multiply(&mut nl, i_in, q_in, c1, c2);
    let (sym_i, sym_q) = build_despreader_single(&mut nl, chip_i, chip_q, &code);
    nl.output("i_out", sym_i);
    nl.output("q_out", sym_q);
    nl.build().expect("finger netlist is well formed")
}

/// The code bit `b` as the chip sign `1 − 2b`.
fn sign(nl: &mut NetlistBuilder, b: DataOut) -> DataOut {
    let minus_2b = nl.unary(UnaryOp::MulKShr(Word::new(-2), 0), b);
    nl.unary(UnaryOp::AddK(Word::ONE), minus_2b)
}

/// The finger's drive function (see [`crate::xpp_map`]): `cfg` is a
/// running [`finger_netlist`]`(sf, code_index)` on `array`. Returns
/// `despread(descramble(rx, code, delay, phase, n), sf, code_index)` of the
/// golden [`crate::rake::finger`] models: the chips of a trailing partial
/// symbol are never pushed, so the accumulators end every job empty.
///
/// # Errors
///
/// Returns an error if `cfg` is not a finger on `array` or the simulation
/// stalls.
///
/// # Panics
///
/// Panics if `delay + n` exceeds the buffer.
#[allow(clippy::too_many_arguments)] // the descrambler's window plus `sf`
pub fn drive_finger(
    array: &mut Array,
    cfg: ConfigId,
    rx: &[Cplx<i32>],
    code: &ScramblingCode,
    delay: usize,
    phase: usize,
    n: usize,
    sf: usize,
) -> Result<Vec<Cplx<i32>>> {
    assert!(delay + n <= rx.len(), "descramble window exceeds buffer");
    let n_sym = n / sf;
    let chips = n_sym * sf;
    push_descrambler_inputs(array, cfg, rx, code, delay, phase, chips)?;
    array.run_until_output(cfg, "i_out", n_sym, 16 * chips as u64 + 2_000)?;
    array.run_until_idle(2_000)?;
    drain_iq(array, cfg, "i_out", "q_out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rake::finger::{descramble, despread};
    use crate::xpp_map::{descrambler_netlist, despreader_single_netlist};
    use proptest::prelude::*;
    use xpp_array::CompiledConfig;

    /// What the frozen replay of the two-job finger still runs: the
    /// builder refactor must not change either stand-alone netlist.
    #[test]
    fn stand_alone_kernels_keep_their_footprint() {
        let words = |nl: &Netlist| {
            let compiled = CompiledConfig::compile(nl);
            (compiled.object_count(), compiled.load_cycles())
        };
        assert_eq!(words(&descrambler_netlist()), (20, 60));
        assert_eq!(words(&despreader_single_netlist(128, 17)), (14, 42));
        assert_eq!(words(&finger_netlist(128, 17)), (26, 78));
    }

    /// A finger job's array cycles: one chip per cycle plus the pipeline.
    #[test]
    fn a_frame_streams_through_in_one_pass() {
        let (sf, code_index) = (128, 17);
        let mut array = Array::xpp64a();
        let cfg = array.configure(&finger_netlist(sf, code_index)).unwrap();
        while !array.is_running(cfg) {
            array.step();
        }
        let rx: Vec<Cplx<i32>> = (0..2_100)
            .map(|i| Cplx::new((i * 37 % 4095) - 2047, (i * 91 % 4095) - 2047))
            .collect();
        let code = ScramblingCode::downlink(0);
        let before = array.stats().cycles;
        let out = drive_finger(&mut array, cfg, &rx, &code, 5, 0, 2_048, sf).unwrap();
        assert_eq!(out.len(), 16);
        assert_eq!(array.stats().cycles - before, 2_058);
    }

    fn arb_rx(n: usize) -> impl Strategy<Value = Vec<Cplx<i32>>> {
        proptest::collection::vec((-2048i32..=2047, -2048i32..=2047), n..=n)
            .prop_map(|v| v.into_iter().map(|(re, im)| Cplx::new(re, im)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The fused finger equals the golden descramble-then-despread
        /// chain, and a second job on the same warm configuration — after
        /// a trailing partial symbol the array never saw — agrees too.
        #[test]
        fn finger_matches_descramble_then_despread(
            sf_pow in 2u32..=9,
            code_index in 0usize..512,
            scrambling in 0u32..512,
            delay in 0usize..16,
            phase in 0usize..40_000,
            symbols in 1usize..4,
            tail in 0usize..512,
            rx in arb_rx(2_100),
        ) {
            let sf = 1usize << sf_pow;
            let code_index = code_index % sf;
            let n = symbols * sf + tail % sf;
            let code = ScramblingCode::downlink(scrambling);
            let mut array = Array::xpp64a();
            let cfg = array.configure(&finger_netlist(sf, code_index)).unwrap();
            let golden = despread(&descramble(&rx, &code, delay, phase, n), sf, code_index);
            for _ in 0..2 {
                let out = drive_finger(&mut array, cfg, &rx, &code, delay, phase, n, sf).unwrap();
                prop_assert_eq!(&out, &golden);
            }
        }
    }
}
