//! The rake despreader on the array (paper Fig. 6).
//!
//! Two variants:
//!
//! * [`despreader_single_netlist`] — one finger: OVSF chips from a circular
//!   preloaded FIFO, complex multiply, accumulate-and-dump controlled by a
//!   chip counter/comparator, `>> log2(SF)` normalisation.
//! * [`despreader_multiplexed_netlist`] — the paper's headline design: a
//!   *single physical finger* time-multiplexed over `F` virtual fingers.
//!   Per-finger partial sums live in RAM-PAEs ("16 Loc. RAM" in Fig. 6):
//!   a read counter addresses the finger's partial sum, an ALU adds the new
//!   chip, a comparator-driven demux either recirculates the sum into the
//!   RAM or dumps it to the output while a merge writes back zero.

use crate::ovsf::ovsf;
use sdr_dsp::Cplx;
use xpp_array::iq::{drain_iq, split_iq};
use xpp_array::{
    AluOp, Array, ConfigId, CounterCfg, DataOut, Netlist, NetlistBuilder, Result, UnaryOp, Word,
};

/// Minimum finger count for the multiplexed despreader: the RAM
/// read→add→write-back loop is four pipeline stages deep, so a partial sum
/// must not be re-read before it has been written back — exactly the
/// multiplexing-depth constraint a hardware designer faces on the XPP.
pub(crate) const MIN_MULTIPLEXED_FINGERS: usize = 6;

/// Builds the single-finger despreader netlist for `C(sf, code_index)`.
///
/// External ports: `i_in`/`q_in` (descrambled chips) → `i_out`/`q_out`
/// (one symbol per `sf` chips, normalised by `>> log2(sf)`).
///
/// # Panics
///
/// Panics on invalid OVSF parameters.
pub fn despreader_single_netlist(sf: usize, code_index: usize) -> Netlist {
    let code = ovsf(sf, code_index);
    let mut nl = NetlistBuilder::new(format!("fig6-despreader-sf{sf}"));
    let i_in = nl.input("i_in");
    let q_in = nl.input("q_in");
    let (out_i, out_q) = build_despreader_single(&mut nl, i_in, q_in, &code);
    nl.output("i_out", out_i);
    nl.output("q_out", out_q);
    nl.build()
        .expect("single despreader netlist is well formed")
}

/// Splices the single-finger Fig. 6 datapath for the OVSF `code` into
/// `nl` behind the chip streams `i_in`/`q_in` and returns the symbol
/// streams (used alone by [`despreader_single_netlist`] and behind the
/// descrambler by [`finger_netlist`](crate::xpp_map::finger_netlist)).
pub(crate) fn build_despreader_single(
    nl: &mut NetlistBuilder,
    i_in: DataOut,
    q_in: DataOut,
    code: &[i32],
) -> (DataOut, DataOut) {
    let sf = code.len();
    // OVSF chips recirculate from a preloaded lookup FIFO.
    let lut = nl.ring_fifo(code.iter().map(|&c| Word::new(c)).collect());
    let pi = nl.alu(AluOp::Mul, i_in, lut);
    let pq = nl.alu(AluOp::Mul, q_in, lut);
    // Dump event when the chip counter reaches sf−1.
    let ctr = nl.counter(CounterCfg::modulo(sf as u64));
    let last = nl.unary(UnaryOp::EqK(Word::new(sf as i32 - 1)), ctr.value);
    let dump = nl.to_event(last);
    let sum_i = nl.accum_dump(pi, dump);
    let sum_q = nl.accum_dump(pq, dump);
    let shift = sf.trailing_zeros();
    let out_i = nl.unary(UnaryOp::ShrK(shift), sum_i);
    let out_q = nl.unary(UnaryOp::ShrK(shift), sum_q);
    (out_i, out_q)
}

/// Builds the time-multiplexed despreader netlist: `fingers` virtual fingers
/// share one physical datapath, with per-finger partial sums in RAM.
///
/// External ports: `i_in`/`q_in` (descrambled chips, finger-major
/// interleaved: chip 0 of fingers 0..F, then chip 1 of fingers 0..F, …) and
/// `code` (the OVSF chip for each token, from the dedicated-hardware
/// generator) → `i_out`/`q_out` (symbols, finger-major interleaved).
///
/// # Panics
///
/// Panics if `fingers < MIN_MULTIPLEXED_FINGERS`, `fingers > 256` (two
/// banks must fit one RAM-PAE address space), or OVSF parameters are
/// invalid.
pub fn despreader_multiplexed_netlist(fingers: usize, sf: usize) -> Netlist {
    assert!(
        (MIN_MULTIPLEXED_FINGERS..=256).contains(&fingers),
        "fingers must be in {MIN_MULTIPLEXED_FINGERS}..=256"
    );
    assert!(
        sf.is_power_of_two() && (4..=512).contains(&sf),
        "invalid SF {sf}"
    );
    let shift = sf.trailing_zeros();
    let period = (sf * fingers) as u64;
    let dump_from = (fingers * (sf - 1)) as i32;

    let mut nl = NetlistBuilder::new(format!("fig6-despreader-{fingers}x-sf{sf}"));
    let i_in = nl.input("i_in");
    let q_in = nl.input("q_in");
    let code = nl.input("code");

    let pi = nl.alu(AluOp::Mul, i_in, code);
    let pq = nl.alu(AluOp::Mul, q_in, code);

    // Dump control: true for the last F tokens of each symbol period.
    let g_ctr = nl.counter(CounterCfg::modulo(period));
    let last = nl.unary(UnaryOp::GeK(Word::new(dump_from)), g_ctr.value);
    let dump = nl.to_event(last);

    // Shared read/write address counters (fan out to both component RAMs).
    let rd_ctr = nl.counter(CounterCfg::modulo(fingers as u64));
    let wr_ctr = nl.counter(CounterCfg::modulo(fingers as u64));
    let zero = nl.constant(Word::ZERO);

    let mut outs = Vec::new();
    for p in [pi, pq] {
        let ram = nl.ram(vec![]);
        nl.wire(rd_ctr.value, ram.rd_addr);
        let sum = nl.alu(AluOp::Add, ram.rd_data, p);
        // The merge consumes its selector one pipeline stage after the demux
        // (it waits for the demux's "keep" output), so the shared dump-event
        // fan-out needs extra forward registers; with plain depth-2 channels
        // the skew locks the whole pipeline to 2/3 of a token per cycle.
        nl.set_default_capacity(4);
        let (keep, out) = nl.demux(dump, sum);
        let wr_val = nl.merge(dump, keep, zero);
        nl.set_default_capacity(xpp_array::DEFAULT_CHANNEL_CAPACITY);
        nl.wire(wr_ctr.value, ram.wr_addr);
        nl.wire(wr_val, ram.wr_data);
        outs.push(nl.unary(UnaryOp::ShrK(shift), out));
    }
    nl.output("i_out", outs[0]);
    nl.output("q_out", outs[1]);
    nl.build()
        .expect("multiplexed despreader netlist is well formed")
}

/// The single despreader's drive function (see [`crate::xpp_map`]): `cfg`
/// is a running [`despreader_single_netlist`]`(sf, _)` on `array`. Same
/// contract as the golden [`despread`](crate::rake::finger::despread): one
/// symbol per `sf` chips, trailing partial symbols dropped.
///
/// # Errors
///
/// Returns an error if `cfg` is not a despreader on `array` or the
/// simulation stalls.
pub fn drive_despreader(
    array: &mut Array,
    cfg: ConfigId,
    chips: &[Cplx<i32>],
    sf: usize,
) -> Result<Vec<Cplx<i32>>> {
    let n_sym = chips.len() / sf;
    let (i, q) = split_iq(&chips[..n_sym * sf]);
    array.push_input(cfg, "i_in", i)?;
    array.push_input(cfg, "q_in", q)?;
    array.run_until_output(cfg, "i_out", n_sym, 16 * chips.len() as u64 + 2_000)?;
    array.run_until_idle(2_000)?;
    drain_iq(array, cfg, "i_out", "q_out")
}

/// The multiplexed despreader's drive function (see [`crate::xpp_map`]):
/// `cfg` is a running [`despreader_multiplexed_netlist`]`(streams.len(),
/// sf)` on `array`. `streams[f]` holds finger `f`'s descrambled chips;
/// they are interleaved finger-major, each token paired with its OVSF chip
/// of `C(sf, code_index)` on the `code` port (the streams the dedicated
/// hardware would deliver). Returns per-finger symbol streams, each equal
/// to the golden [`despread`](crate::rake::finger::despread)`(streams[f],
/// sf, code_index)`.
///
/// # Errors
///
/// Returns an error if `cfg` is not such a despreader on `array` or the
/// simulation stalls.
///
/// # Panics
///
/// Panics if there are no streams, their lengths differ, or the OVSF
/// parameters are invalid.
pub fn drive_multiplexed_despreader(
    array: &mut Array,
    cfg: ConfigId,
    streams: &[Vec<Cplx<i32>>],
    sf: usize,
    code_index: usize,
) -> Result<Vec<Vec<Cplx<i32>>>> {
    let fingers = streams.len();
    assert!(fingers > 0, "one stream per finger required");
    let len = streams[0].len();
    assert!(
        streams.iter().all(|s| s.len() == len),
        "finger streams must align"
    );
    let n_sym = len / sf;
    let n_chips = n_sym * sf;
    let code = ovsf(sf, code_index);
    let interleave = |part: fn(&Cplx<i32>) -> i32| {
        (0..n_chips).flat_map(move |c| streams.iter().map(move |s| Word::new(part(&s[c]))))
    };
    array.push_input(cfg, "i_in", interleave(|c| c.re))?;
    array.push_input(cfg, "q_in", interleave(|c| c.im))?;
    array.push_input(
        cfg,
        "code",
        (0..n_chips).flat_map(|c| std::iter::repeat_n(Word::new(code[c % sf]), fingers)),
    )?;
    let total = n_chips * fingers;
    array.run_until_output(cfg, "i_out", n_sym * fingers, 16 * total as u64 + 4_000)?;
    array.run_until_idle(4_000)?;
    // De-interleave back to per-finger symbol streams.
    let mut out = vec![Vec::with_capacity(n_sym); fingers];
    for (k, sym) in drain_iq(array, cfg, "i_out", "q_out")?
        .into_iter()
        .enumerate()
    {
        out[k % fingers].push(sym);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rake::finger::despread;

    fn chips(n: usize, seed: i32) -> Vec<Cplx<i32>> {
        (0..n as i32)
            .map(|i| {
                Cplx::new(
                    ((i * 131 + seed * 7) % 8191) - 4095,
                    ((i * 57 + seed * 13) % 8191) - 4095,
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
    fn single_finger_matches_golden_for_common_sfs() {
        for &(sf, k) in &[(4usize, 1usize), (16, 7), (64, 33), (256, 100)] {
            let data = chips(sf * 5, sf as i32);
            let (mut array, cfg) = configured(&despreader_single_netlist(sf, k));
            let out = drive_despreader(&mut array, cfg, &data, sf).unwrap();
            let golden = despread(&data, sf, k);
            assert_eq!(out, golden, "sf={sf} k={k}");
        }
    }

    #[test]
    fn single_finger_drops_partial_symbols() {
        let sf = 8;
        let data = chips(sf * 3 + 5, 1);
        let (mut array, cfg) = configured(&despreader_single_netlist(sf, 2));
        let out = drive_despreader(&mut array, cfg, &data, sf).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn multiplexed_matches_golden_per_finger() {
        let fingers = 6;
        let sf = 16;
        let k = 3;
        let streams: Vec<Vec<Cplx<i32>>> = (0..fingers).map(|f| chips(sf * 4, f as i32)).collect();
        let (mut array, cfg) = configured(&despreader_multiplexed_netlist(fingers, sf));
        let out = drive_multiplexed_despreader(&mut array, cfg, &streams, sf, k).unwrap();
        for (f, stream) in streams.iter().enumerate() {
            assert_eq!(out[f], despread(stream, sf, k), "finger {f}");
        }
    }

    #[test]
    fn eighteen_finger_headline_scenario() {
        // The paper's 6 basestations × 3 multipaths case.
        let fingers = 18;
        let sf = 64;
        let k = 17;
        let streams: Vec<Vec<Cplx<i32>>> = (0..fingers)
            .map(|f| chips(sf * 2, f as i32 * 3 + 1))
            .collect();
        let (mut array, cfg) = configured(&despreader_multiplexed_netlist(fingers, sf));
        let out = drive_multiplexed_despreader(&mut array, cfg, &streams, sf, k).unwrap();
        for (f, stream) in streams.iter().enumerate() {
            assert_eq!(out[f], despread(stream, sf, k), "finger {f}");
        }
        // One physical finger: a single pair of RAMs and a handful of PAEs.
        let p = array.placement(cfg).unwrap();
        assert_eq!(p.counts.ram, 2);
        assert!(
            p.counts.alu <= 8,
            "physical finger should be small: {:?}",
            p.counts
        );
    }

    #[test]
    #[should_panic]
    fn multiplexed_rejects_too_few_fingers() {
        despreader_multiplexed_netlist(2, 16);
    }

    #[test]
    fn multiplexed_throughput_is_one_chip_per_cycle() {
        let fingers = 8;
        let sf = 32;
        let streams: Vec<Vec<Cplx<i32>>> = (0..fingers).map(|f| chips(sf * 8, f as i32)).collect();
        let (mut array, cfg) = configured(&despreader_multiplexed_netlist(fingers, sf));
        let before = array.stats().cycles;
        drive_multiplexed_despreader(&mut array, cfg, &streams, sf, 5).unwrap();
        let cycles = array.stats().cycles - before;
        let tokens = (fingers * sf * 8) as u64;
        assert!(
            cycles < tokens + 400,
            "multiplexed despreader too slow: {cycles} cycles for {tokens} tokens"
        );
    }
}
