//! Golden-equivalence suite: the production array stepper — every object
//! of every awake configuration each cycle, asleep after a pass that fires
//! nothing — must be observably indistinguishable from the retained
//! scan-the-world reference stepper (`xpp-array` feature `reference`) on
//! the paper's end-to-end scenarios and on randomly generated netlists.
//!
//! Every scenario here is a closure that builds its arrays *inside* the
//! closure, so `with_reference_stepper` can latch the stepper choice at
//! construction time. The scenario returns every observable — drained
//! output streams, `ArrayStats`, `run_until_idle` cycle counts, per-config
//! fire totals — and the test asserts the two runs are identical.

use proptest::prelude::*;
use xpp_array::array::{with_block_cap, with_reference_stepper};
use xpp_array::{
    AluOp, Array, ArrayStats, CounterCfg, DataOut, EvOut, NetlistBuilder, ObjectKind, UnaryOp, Word,
};
use xpp_sdr::dsp::Cplx;
use xpp_sdr::ofdm;
use xpp_sdr::wcdma;

fn values(words: Vec<Word>) -> Vec<i32> {
    words.iter().map(|w| w.value()).collect()
}

/// Runs `scenario` on the production stepper and on the reference scan
/// stepper and asserts the full observable records match.
fn assert_steppers_agree<T: PartialEq + std::fmt::Debug>(scenario: impl Fn() -> T) {
    let fast = scenario();
    let slow = with_reference_stepper(&scenario);
    assert_eq!(fast, slow, "production and reference steppers diverged");
}

/// Everything observable about a multi-phase array run.
#[derive(Debug, PartialEq)]
struct Record {
    streams: Vec<(String, Vec<i32>)>,
    idle_cycles: Vec<u64>,
    fires: Vec<(u32, u64)>,
    stats: ArrayStats,
}

impl Record {
    fn new() -> Self {
        Record {
            streams: Vec::new(),
            idle_cycles: Vec::new(),
            fires: Vec::new(),
            stats: ArrayStats::default(),
        }
    }

    fn drain(&mut self, array: &mut Array, cfg: xpp_array::ConfigId, port: &str) -> Vec<i32> {
        let v = values(array.drain_output(cfg, port).unwrap());
        self.streams.push((port.to_string(), v.clone()));
        v
    }

    fn finish(mut self, array: &Array) -> Self {
        self.fires = array
            .fires_by_config()
            .into_iter()
            .map(|(c, n)| (c.index(), n))
            .collect();
        self.stats = array.stats();
        self
    }
}

/// The paper's headline W-CDMA scenario on the array: soft handover
/// received through the Fig. 5 descrambler, then the descrambled chips
/// time-multiplexed over six virtual fingers through the Fig. 6 despreader
/// — both configurations resident on one array.
fn rake_soft_handover_scenario() -> Record {
    use wcdma::channel::{propagate, AdcConfig, CellLink, Path};
    use wcdma::tx::{CellConfig, CellTransmitter};
    use wcdma::xpp_map::{descrambler_netlist, despreader_multiplexed_netlist};

    const FINGERS: usize = 6;
    const SF: usize = 16;
    const CHIPS: usize = 192;

    // Three cells in the active set, each under its own scrambling code
    // and multipath channel.
    let bits: Vec<u8> = (0..32).map(|i| ((i * 7 + 1) % 2) as u8).collect();
    let mut signals = Vec::new();
    for cell in 0..3u32 {
        let cfg = CellConfig {
            scrambling_code: cell * 16,
            ..Default::default()
        };
        let mut tx = CellTransmitter::new(cfg);
        let gain = 0.30 - 0.05 * cell as f64;
        let link = CellLink::new(vec![
            Path::new(2 + 5 * cell as usize, Cplx::new(gain, 0.1)),
            Path::new(6 + 5 * cell as usize, Cplx::new(-0.08, gain * 0.6)),
        ]);
        signals.push((tx.transmit(&bits), link));
    }
    let rx = propagate(&signals, 0.05, 42, AdcConfig::default());
    let code = wcdma::ScramblingCode::downlink(0);

    let mut rec = Record::new();
    let mut array = Array::xpp64a();
    let desc = array.configure(&descrambler_netlist()).unwrap();
    let dsp = array
        .configure(&despreader_multiplexed_netlist(FINGERS, SF))
        .unwrap();

    // Phase 1: descramble the serving cell on the array.
    array
        .push_input(desc, "i_in", rx[..CHIPS].iter().map(|c| Word::new(c.re)))
        .unwrap();
    array
        .push_input(desc, "q_in", rx[..CHIPS].iter().map(|c| Word::new(c.im)))
        .unwrap();
    let cbits: Vec<(u8, u8)> = (0..CHIPS).map(|i| code.chip_bits(i)).collect();
    array
        .push_input(desc, "ci", cbits.iter().map(|b| Word::new(b.0 as i32)))
        .unwrap();
    array
        .push_input(desc, "cq", cbits.iter().map(|b| Word::new(b.1 as i32)))
        .unwrap();
    rec.idle_cycles.push(array.run_until_idle(100_000).unwrap());
    let di = rec.drain(&mut array, desc, "i_out");
    let dq = rec.drain(&mut array, desc, "q_out");

    // Phase 2: time-multiplex the descrambled chips over six virtual
    // fingers (finger f tracks a path offset of f chips) and despread.
    let symbols = di.len() / SF;
    let ovsf = wcdma::ovsf::ovsf(SF, 1);
    let mux = |src: &[i32]| -> Vec<Word> {
        let mut toks = Vec::new();
        for k in 0..symbols * SF {
            for f in 0..FINGERS {
                toks.push(Word::new(src[(k + f) % src.len()]));
            }
        }
        toks
    };
    array.push_input(dsp, "i_in", mux(&di)).unwrap();
    array.push_input(dsp, "q_in", mux(&dq)).unwrap();
    let code_toks =
        (0..symbols * SF).flat_map(|k| std::iter::repeat_n(Word::new(ovsf[k % SF]), FINGERS));
    array.push_input(dsp, "code", code_toks).unwrap();
    rec.idle_cycles.push(array.run_until_idle(200_000).unwrap());
    rec.drain(&mut array, dsp, "i_out");
    rec.drain(&mut array, dsp, "q_out");

    rec.finish(&array)
}

/// One rake finger — Fig. 5 streaming into Fig. 6 inside one
/// configuration, the engine's W-CDMA kernel — over a real received
/// signal: jobs at several path delays and code phases, including one
/// with a trailing partial symbol, each checked against the golden
/// chain. Returns per-object fire counts beside the record.
fn rake_finger_scenario() -> (Record, Vec<(String, u64)>) {
    use wcdma::channel::{propagate, AdcConfig, CellLink, Path};
    use wcdma::rake::finger::{descramble, despread};
    use wcdma::tx::{CellConfig, CellTransmitter};
    use wcdma::xpp_map::{drive_finger, finger_netlist};

    let cell = CellConfig::default();
    let (sf, code_index) = (cell.dpch.sf, cell.dpch.code_index);
    let bits: Vec<u8> = (0..24).map(|i| ((i * 5 + 2) % 3 % 2) as u8).collect();
    let mut tx = CellTransmitter::new(cell);
    let link = CellLink::new(vec![
        Path::new(3, Cplx::new(0.7, 0.2)),
        Path::new(9, Cplx::new(-0.2, 0.3)),
    ]);
    let rx = propagate(&[(tx.transmit(&bits), link)], 0.03, 5, AdcConfig::default());
    let code = tx.scrambling_code().clone();

    let mut rec = Record::new();
    let mut array = Array::xpp64a();
    let finger = array.configure(&finger_netlist(sf, code_index)).unwrap();
    for (delay, phase, n) in [(3, 0, 4 * sf), (9, 0, 4 * sf), (3, 77, 3 * sf + 41)] {
        let symbols = drive_finger(&mut array, finger, &rx, &code, delay, phase, n, sf).unwrap();
        let golden = despread(&descramble(&rx, &code, delay, phase, n), sf, code_index);
        assert_eq!(symbols, golden, "delay {delay} phase {phase}");
        rec.streams.push((
            format!("symbols d{delay} p{phase}"),
            symbols.iter().flat_map(|s| [s.re, s.im]).collect(),
        ));
    }
    let object_fires = array.object_fire_counts(finger).unwrap();
    (rec.finish(&array), object_fires)
}

/// The Fig. 10 802.11a reconfiguration scenario on the array: the resident
/// front end (down-sampler + FFT) plus the preamble detector (2a), search
/// over a real transmitted frame, then the runtime swap 2a→2b and
/// demodulation through 2b — with the configuration-bus load overlapping
/// FFT compute.
fn wlan_reconfiguration_scenario() -> Record {
    use ofdm::channel::WlanChannel;
    use ofdm::params::rate;
    use ofdm::tx::Transmitter;
    use ofdm::xpp_map::{demodulator_netlist, frontend_netlist, preamble_detector_netlist};

    let r = rate(12).unwrap();
    let bits: Vec<u8> = (0..48).map(|i| ((i * 3 + 1) % 2) as u8).collect();
    let frame = Transmitter::new(r).transmit(&bits);
    let rx20 = WlanChannel {
        leading_gap: 16,
        ..Default::default()
    }
    .run(&frame.samples);
    // 40 Msps ADC stream (sample-and-hold 2x), trimmed to keep the
    // reference stepper fast.
    let mut rx40 = Vec::with_capacity(1024);
    for s in rx20.iter().take(512) {
        rx40.push(*s);
        rx40.push(*s);
    }

    let mut rec = Record::new();
    let mut array = Array::xpp64a();
    let c1 = array.configure(&frontend_netlist(2)).unwrap();
    let c2a = array.configure(&preamble_detector_netlist()).unwrap();

    // Search mode: down-sample the ADC stream, correlate through 2a.
    array
        .push_input(c1, "i_in", rx40.iter().map(|c| Word::new(c.re)))
        .unwrap();
    array
        .push_input(c1, "q_in", rx40.iter().map(|c| Word::new(c.im)))
        .unwrap();
    rec.idle_cycles.push(array.run_until_idle(100_000).unwrap());
    let ds_i = rec.drain(&mut array, c1, "ds_i");
    let ds_q = rec.drain(&mut array, c1, "ds_q");
    array
        .push_input(c2a, "i_in", ds_i.iter().map(|&v| Word::new(v)))
        .unwrap();
    array
        .push_input(c2a, "q_in", ds_q.iter().map(|&v| Word::new(v)))
        .unwrap();
    rec.idle_cycles.push(array.run_until_idle(100_000).unwrap());
    rec.drain(&mut array, c2a, "metric");

    // Runtime swap 2a -> 2b. Push an FFT window before the new
    // configuration finishes loading, so the configuration-bus transfer
    // overlaps resident compute (the scenario of Fig. 10).
    array.unload(c2a).unwrap();
    let c2b = array.configure(&demodulator_netlist()).unwrap();
    array
        .push_input(c1, "fft_i_in", ds_i[..64].iter().map(|&v| Word::new(v)))
        .unwrap();
    array
        .push_input(c1, "fft_q_in", ds_q[..64].iter().map(|&v| Word::new(v)))
        .unwrap();
    rec.idle_cycles.push(array.run_until_idle(100_000).unwrap());
    assert!(array.is_running(c2b));
    let fi = rec.drain(&mut array, c1, "fft_i_out");
    let fq = rec.drain(&mut array, c1, "fft_q_out");

    // Demodulate the spectrum through 2b with unit weights.
    array
        .push_input(c2b, "i_in", fi.iter().map(|&v| Word::new(v)))
        .unwrap();
    array
        .push_input(c2b, "q_in", fq.iter().map(|&v| Word::new(v)))
        .unwrap();
    array
        .push_input(c2b, "wi", std::iter::repeat_n(Word::new(512), fi.len()))
        .unwrap();
    array
        .push_input(c2b, "wq", std::iter::repeat_n(Word::ZERO, fi.len()))
        .unwrap();
    rec.idle_cycles.push(array.run_until_idle(100_000).unwrap());
    rec.drain(&mut array, c2b, "b0");
    rec.drain(&mut array, c2b, "b1");

    rec.finish(&array)
}

#[test]
fn rake_soft_handover_is_stepper_invariant() {
    assert_steppers_agree(rake_soft_handover_scenario);
}

#[test]
fn rake_finger_is_stepper_invariant() {
    assert_steppers_agree(rake_finger_scenario);
}

#[test]
fn wlan_reconfiguration_is_stepper_invariant() {
    assert_steppers_agree(wlan_reconfiguration_scenario);
}

/// One randomly chosen dataflow stage of a generated netlist.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Unary(usize, i32),
    /// `y = op(x, x delayed by n)` — fan-out plus a FIFO delay line.
    Combine(usize, usize),
    /// A counter-driven gate that drops a fraction of the stream.
    Gate(u64),
    /// Accumulate-and-dump over counter periods.
    Dump(u64),
    /// Counter-driven swap against a constant, recombined by an ALU.
    Swap(u64, i32),
    /// `y = ev ? k : x`: a counter-driven select against a constant.
    Select(u64, i32),
    /// Counter-driven demux, re-joined by a merge steered by the same
    /// selector sequence (so the stream comes out in order).
    Route(u64),
    /// `y = x + to_data(!a AND b)` (or `OR`) over two counter-derived
    /// event streams.
    EventLogic(u64, u64, bool),
    /// A RAM written and read back at addresses derived from the stream.
    Ram(i32),
    /// `y = x + ring[i]`: a preloaded recirculating lookup FIFO.
    Ring(usize),
    /// A plain FIFO of the given depth in the path.
    Fifo(usize),
}

fn arb_stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        ((0usize..5), (-500i32..500)).prop_map(|(o, k)| Stage::Unary(o, k)),
        ((0usize..4), (1usize..4)).prop_map(|(o, d)| Stage::Combine(o, d)),
        (2u64..6).prop_map(Stage::Gate),
        (2u64..7).prop_map(Stage::Dump),
        ((2u64..5), (-100i32..100)).prop_map(|(m, k)| Stage::Swap(m, k)),
        ((2u64..5), (-100i32..100)).prop_map(|(m, k)| Stage::Select(m, k)),
        (2u64..6).prop_map(Stage::Route),
        ((2u64..5), (2u64..6), (0usize..2)).prop_map(|(m, n, o)| Stage::EventLogic(m, n, o == 0)),
        (-20i32..20).prop_map(Stage::Ram),
        (1usize..6).prop_map(Stage::Ring),
        (1usize..5).prop_map(Stage::Fifo),
    ]
}

/// A free-running `0,1,1,…` event stream of period `m` (false on the
/// counter's zero, true otherwise).
fn counter_event(nl: &mut NetlistBuilder, m: u64) -> EvOut {
    let ctr = nl.counter(CounterCfg::modulo(m));
    let nonzero = nl.unary(UnaryOp::GeK(Word::new(1)), ctr.value);
    nl.to_event(nonzero)
}

fn unary_op(idx: usize, k: i32) -> UnaryOp {
    match idx {
        0 => UnaryOp::AddK(Word::new(k)),
        1 => UnaryOp::ShrK((k.unsigned_abs()) % 8),
        2 => UnaryOp::Neg,
        3 => UnaryOp::Abs,
        _ => UnaryOp::XorK(Word::new(k & 0xFFF)),
    }
}

fn alu_op(idx: usize) -> AluOp {
    [AluOp::Add, AluOp::Sub, AluOp::Min, AluOp::Max][idx % 4]
}

/// A RAM whose read address, write address and write data all derive from
/// the stream `x`, so it moves exactly one read and one write per token.
fn ram_stage(nl: &mut NetlistBuilder, x: DataOut, k: i32) -> DataOut {
    let ram = nl.ram((0..32).map(|i| Word::new(i * k)).collect());
    let rd_addr = nl.unary(UnaryOp::AndK(Word::new(0x1F)), x);
    let wr_addr = nl.unary(UnaryOp::ShrK(1), rd_addr);
    let wr_data = nl.unary(UnaryOp::AddK(Word::new(k)), x);
    nl.wire(rd_addr, ram.rd_addr);
    nl.wire(wr_addr, ram.wr_addr);
    nl.wire(wr_data, ram.wr_data);
    ram.rd_data
}

/// Builds the generated pipeline and runs the stream through it, returning
/// the full observable record.
fn random_netlist_scenario(capacity: usize, stages: &[Stage], inputs: &[i32]) -> Record {
    let mut nl = NetlistBuilder::new("generated");
    nl.set_default_capacity(capacity);
    let mut x = nl.input("x");
    for s in stages {
        x = match *s {
            Stage::Unary(o, k) => nl.unary(unary_op(o, k), x),
            Stage::Combine(o, d) => {
                let delayed = nl.delay(x, d);
                nl.alu(alu_op(o), x, delayed)
            }
            Stage::Gate(m) => {
                let ctr = nl.counter(CounterCfg::modulo(m));
                let pass = nl.unary(UnaryOp::GeK(Word::new(1)), ctr.value);
                let ev = nl.to_event(pass);
                nl.gate(ev, x)
            }
            Stage::Dump(m) => {
                let ctr = nl.counter(CounterCfg::modulo(m));
                let last = nl.unary(UnaryOp::EqK(Word::new(m as i32 - 1)), ctr.value);
                let ev = nl.to_event(last);
                nl.accum_dump(x, ev)
            }
            Stage::Swap(m, k) => {
                let ctr = nl.counter(CounterCfg::modulo(m));
                let hi = nl.unary(UnaryOp::GeK(Word::new(1)), ctr.value);
                let ev = nl.to_event(hi);
                let c = nl.constant(Word::new(k));
                let (a, b) = nl.swap(ev, x, c);
                nl.alu(AluOp::Add, a, b)
            }
            Stage::Select(m, k) => {
                let ev = counter_event(&mut nl, m);
                let c = nl.constant(Word::new(k));
                nl.select(ev, x, c)
            }
            Stage::Route(m) => {
                let ctr = nl.counter(CounterCfg::modulo(m));
                let nonzero = nl.unary(UnaryOp::GeK(Word::new(1)), ctr.value);
                let (split, join) = (nl.to_event(nonzero), nl.to_event(nonzero));
                let (lo, hi) = nl.demux(split, x);
                nl.merge(join, lo, hi)
            }
            Stage::EventLogic(m, n, and) => {
                let (a, b) = (counter_event(&mut nl, m), counter_event(&mut nl, n));
                let not_a = nl.ev_not(a);
                let ev = if and {
                    nl.ev_and(not_a, b)
                } else {
                    nl.ev_or(not_a, b)
                };
                let bit = nl.to_data(ev);
                nl.alu(AluOp::Add, x, bit)
            }
            Stage::Ram(k) => ram_stage(&mut nl, x, k),
            Stage::Ring(n) => {
                let ring = nl.ring_fifo((0..n as i32).map(|i| Word::new(3 * i + 1)).collect());
                nl.alu(AluOp::Add, x, ring)
            }
            Stage::Fifo(depth) => {
                let fifo = nl.fifo(depth, vec![]);
                nl.wire(x, fifo.input);
                fifo.output
            }
        };
    }
    nl.output("y", x);
    let netlist = nl.build().unwrap();

    let mut rec = Record::new();
    let mut array = Array::xpp64a();
    let cfg = array.configure(&netlist).unwrap();
    array
        .push_input(cfg, "x", inputs.iter().map(|&v| Word::new(v)))
        .unwrap();
    rec.idle_cycles.push(array.run_until_idle(200_000).unwrap());
    rec.drain(&mut array, cfg, "y");
    rec.finish(&array)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any generated netlist — mixed unary/ALU/delay/counter/gate/
    /// accumulator/swap/select/demux+merge/event-logic/RAM/ring-FIFO/FIFO
    /// stages at any channel capacity from 1 to 8 (token rings of 2 to 16
    /// slots) — produces identical outputs, identical stats, and identical
    /// idle-detection cycle counts on both steppers.
    #[test]
    fn random_netlists_are_stepper_invariant(
        capacity in 1usize..=8,
        stages in proptest::collection::vec(arb_stage(), 1..6),
        inputs in proptest::collection::vec(-5000i32..5000, 1..48),
    ) {
        let fast = random_netlist_scenario(capacity, &stages, &inputs);
        let slow = with_reference_stepper(|| {
            random_netlist_scenario(capacity, &stages, &inputs)
        });
        prop_assert_eq!(&fast, &slow);
    }
}

/// A burst pipeline: every `x` token passes a fan-out-and-rejoin stage and
/// is then passed or dropped by one `e` event. It streams while both
/// queues hold data, backs up and falls asleep with tokens in flight when
/// one of them runs dry, and wakes when it refills.
fn perturbable_netlist() -> xpp_array::Netlist {
    let mut nl = NetlistBuilder::new("perturbable");
    let x = nl.input("x");
    let e = nl.input_event("e");
    let a = nl.unary(UnaryOp::AddK(Word::new(5)), x);
    let delayed = nl.delay(a, 2);
    let s = nl.alu(AluOp::Add, a, delayed);
    let z = nl.gate(e, s);
    nl.output("z", z);
    nl.build().unwrap()
}

/// A counter spine summed with an input stream: the counter starts on its
/// own the cycle the load completes, fills its channel and the spine falls
/// asleep until words arrive on `x` — pushed by nobody, only routed in
/// from the pipeline by a board connection.
fn spine_netlist() -> xpp_array::Netlist {
    let mut nl = NetlistBuilder::new("spine");
    let ctr = nl.counter(CounterCfg::modulo(7));
    let x = nl.input("x");
    let y = nl.alu(AluOp::Add, ctr.value, x);
    nl.output("y", y);
    nl.build().unwrap()
}

/// One step of a perturbation script against the burst pipeline.
#[derive(Debug, Clone)]
enum Op {
    Run(u64),
    Push(Vec<i32>),
    PushEvents(Vec<bool>),
    /// Queue a load of the spine: it is in flight on the bus for the next
    /// cycles, then a second configuration runs beside the pipeline.
    Configure,
    /// Unload the most recently configured spine, if any.
    Unload,
    /// Push into the idle second copy of the pipeline (words on `x`, and
    /// as many events on `e`, true where the word is positive).
    PushIdle(Vec<i32>),
    /// Queue a load of a spine routed from the pipeline's output: once it
    /// has loaded and fallen asleep, only a board move wakes it.
    Connect,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Runs weigh double, half of them short enough to end mid-burst.
        (1u64..300).prop_map(Op::Run),
        (1u64..40).prop_map(Op::Run),
        proptest::collection::vec(-100i32..100, 1..200).prop_map(Op::Push),
        proptest::collection::vec(any::<bool>(), 1..200).prop_map(Op::PushEvents),
        Just(Op::Configure),
        Just(Op::Unload),
        proptest::collection::vec(-100i32..100, 1..60).prop_map(Op::PushIdle),
        Just(Op::Connect),
    ]
}

/// The observable record, per-object fire counts of the pipeline, and what
/// every single `step` reported with the statistics after it.
type Perturbed = (Record, Vec<(String, u64)>, Vec<(bool, ArrayStats)>);

/// Runs a perturbation script on an array holding the burst pipeline and
/// an idle second copy of it, and returns everything observable — down to
/// each `step`, so two steppers that agree here agree cycle for cycle.
fn perturbed_scenario(ops: &[Op]) -> Perturbed {
    let mut rec = Record::new();
    let mut trace = Vec::new();
    let mut array = Array::xpp64a();
    let cfg = array.configure(&perturbable_netlist()).unwrap();
    let idle = array.configure(&perturbable_netlist()).unwrap();
    let mut spines = Vec::new();
    let mut run = |array: &mut Array, cycles: u64| {
        for _ in 0..cycles {
            let active = array.step();
            trace.push((active, array.stats()));
        }
    };
    for op in ops {
        match op {
            Op::Run(cycles) => run(&mut array, *cycles),
            Op::Push(chunk) => array
                .push_input(cfg, "x", chunk.iter().map(|&v| Word::new(v)))
                .unwrap(),
            Op::PushEvents(chunk) => array
                .push_input_events(cfg, "e", chunk.iter().copied())
                .unwrap(),
            Op::Configure => {
                // Placement can fail once the array is full of spines.
                spines.extend(array.configure(&spine_netlist()).ok());
            }
            Op::Unload => {
                if let Some(spine) = spines.pop() {
                    rec.drain(&mut array, spine, "y");
                    array.unload(spine).unwrap();
                }
            }
            Op::PushIdle(chunk) => {
                let words = chunk.iter().map(|&v| Word::new(v));
                array.push_input(idle, "x", words).unwrap();
                let events = chunk.iter().map(|&v| v > 0);
                array.push_input_events(idle, "e", events).unwrap();
            }
            Op::Connect => {
                if let Ok(spine) = array.configure(&spine_netlist()) {
                    array.connect(cfg, "z", spine, "x").unwrap();
                    spines.push(spine);
                }
            }
        }
    }
    // A closing burst with gaps (every other word dropped at the gate), so
    // a routed spine sleeps between words and each one must wake it.
    array.push_input(cfg, "x", (0..32).map(Word::new)).unwrap();
    let events = (0..32).map(|i| i % 2 == 0);
    array.push_input_events(cfg, "e", events).unwrap();
    run(&mut array, 600);
    rec.drain(&mut array, cfg, "z");
    rec.drain(&mut array, idle, "z");
    for spine in spines {
        rec.drain(&mut array, spine, "y");
    }
    let object_fires = array.object_fire_counts(cfg).unwrap();
    (rec.finish(&array), object_fires, trace)
}

/// Power guard for the proptest arm below: a script of the same ops must
/// genuinely wake the pipeline, keep it awake through pushes and a load in
/// flight, put it to sleep with tokens in the pipeline, wake it again with
/// fresh events, and wake a sleeping spine through a board route alone —
/// so the property exercises every sleep and wake path, not a
/// configuration that is awake throughout. `(wakes, sleeps)` are exact.
#[test]
fn perturbable_scenario_exercises_replay_transitions() {
    let counts = |array: &Array| {
        let s = array.schedule_stats();
        (s.captured, s.invalidations)
    };
    let mut array = Array::xpp64a();
    let cfg = array.configure(&perturbable_netlist()).unwrap();
    let words = |n: i32| (0..n).map(Word::new);
    array.push_input(cfg, "x", words(400)).unwrap();
    array
        .push_input_events(cfg, "e", (0..300).map(|i| i % 3 != 0))
        .unwrap();
    array.run(100);
    // One wake: the push landed while the load was on the bus, and the
    // load's completion found the configuration already awake.
    assert_eq!(counts(&array), (1, 0));

    // Outside input into an awake configuration and a load in flight
    // neither wake nor sleep anything; unloading a spine that never ran is
    // no sleep either.
    array.push_input(cfg, "x", words(50)).unwrap();
    let spine = array.configure(&spine_netlist()).unwrap();
    array.run(4);
    assert!(!array.is_running(spine), "the load is still on the bus");
    array.unload(spine).unwrap();
    assert_eq!(counts(&array), (1, 0));

    // The events run out first: the gate stalls, the pipeline backs up and
    // the configuration falls asleep with tokens still queued.
    assert!(array.run_until_idle(1_000).unwrap() > 100);
    assert_eq!(counts(&array), (1, 1));
    let stalled = array.drain_output(cfg, "z").unwrap().len();
    assert_eq!(stalled, 200, "two of every three events pass a token");

    // Fresh events wake it; the burst resumes and drains to sleep again.
    array.push_input_events(cfg, "e", [true; 150]).unwrap();
    assert_eq!(counts(&array), (2, 1));
    array.run_until_idle(1_000).unwrap();
    assert_eq!(counts(&array), (2, 2));
    assert_eq!(array.drain_output(cfg, "z").unwrap().len(), 150);

    // A spine routed from the pipeline: its load wakes it, its counter
    // fills the channel and it sleeps. A push wakes the pipeline, and the
    // pipeline's first routed word wakes the spine; both drain to sleep.
    let spine = array.configure(&spine_netlist()).unwrap();
    array.connect(cfg, "z", spine, "x").unwrap();
    array.run_until_idle(1_000).unwrap();
    assert_eq!(counts(&array), (3, 3));
    array.push_input(cfg, "x", words(10)).unwrap();
    array.push_input_events(cfg, "e", [true; 10]).unwrap();
    array.run_until_idle(1_000).unwrap();
    assert_eq!(counts(&array), (5, 5));
    assert_eq!(array.drain_output(spine, "y").unwrap().len(), 10);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random scripts of runs, mid-burst `push_input`/`push_input_events`,
    /// pushes into an idle resident copy, loads in flight, mid-burst
    /// unloads and board routes into a sleeping spine leave every
    /// observable bit-identical across the production and reference
    /// steppers, cycle for cycle.
    #[test]
    fn rate_perturbations_are_capture_invariant(
        ops in proptest::collection::vec(arb_op(), 1..16),
    ) {
        let fast = perturbed_scenario(&ops);
        let slow = with_reference_stepper(|| perturbed_scenario(&ops));
        prop_assert_eq!(&fast, &slow);
    }
}

/// Firing-rule names: [`ObjectKind::kind_name`], with the two FIFO modes
/// (separate rules) told apart.
fn rule_name(kind: &ObjectKind) -> &'static str {
    match kind {
        ObjectKind::RamFifo { ring: true, .. } => "ring_fifo",
        kind => kind.kind_name(),
    }
}

/// Every firing rule the array has.
const EVERY_RULE: [&str; 22] = [
    "alu",
    "unary",
    "const",
    "counter",
    "select",
    "merge",
    "demux",
    "swap",
    "gate",
    "accum",
    "to_event",
    "to_data",
    "ev_not",
    "ev_and",
    "ev_or",
    "ram",
    "fifo",
    "ring_fifo",
    "input",
    "output",
    "input_ev",
    "output_ev",
];

/// One netlist containing every object kind, rate-consistent and periodic
/// while its two input queues hold data, so it stays awake:
/// a 1:1 spine (input → ALU → select against a ring lookup → event-logic
/// bit added in → swap → FIFO → RAM → demux/merge) ending in a gate and an
/// accumulator, all steered by one period-4 counter whose wrap event also
/// starts a gated burst counter.
fn every_rule_netlist() -> xpp_array::Netlist {
    let mut nl = NetlistBuilder::new("every-rule");
    // Deep channels absorb the skew between the shared selector's early
    // and late consumers, so the spine streams one token per cycle.
    nl.set_default_capacity(8);
    let x = nl.input("x");
    let e = nl.input_event("e");
    let ctr = nl.counter(CounterCfg::modulo(4));
    let upper = nl.unary(UnaryOp::GeK(Word::new(2)), ctr.value);
    let k = nl.constant(Word::new(3));
    let s = nl.alu(AluOp::Add, x, k);
    let ring = nl.ring_fifo([5, 7, 9].map(Word::new).to_vec());
    let sel = nl.to_event(upper);
    let s = nl.select(sel, s, ring);
    let (not_e, b, c) = (nl.ev_not(e), nl.to_event(upper), nl.to_event(upper));
    let and = nl.ev_and(not_e, b);
    let or = nl.ev_or(and, c);
    let bit = nl.to_data(or);
    let s = nl.alu(AluOp::Add, s, bit);
    let (cross, seven) = (nl.to_event(upper), nl.constant(Word::new(7)));
    let (p, q) = nl.swap(cross, s, seven);
    let s = nl.alu(AluOp::Sub, p, q);
    let fifo = nl.fifo(4, vec![]);
    nl.wire(s, fifo.input);
    let s = ram_stage(&mut nl, fifo.output, 11);
    let (split, join) = (nl.to_event(upper), nl.to_event(upper));
    let (lo, hi) = nl.demux(split, s);
    let s = nl.merge(join, lo, hi);
    let (pass, dump) = (nl.to_event(upper), nl.to_event(upper));
    let gated = nl.gate(pass, s);
    nl.output("gated", gated);
    let sums = nl.accum_dump(s, dump);
    nl.output("sums", sums);
    let burst = nl.counter(CounterCfg::gated_burst(2));
    nl.wire_ev(ctr.wrap, burst.go.expect("gated counter has a go port"));
    nl.output("burst", burst.value);
    nl.output_event("wrap", ctr.wrap);
    nl.build().unwrap()
}

/// Runs the every-rule netlist through a warm-up and then a measured
/// window. Returns the observable record, each object's `(rule, fires
/// inside the window)`, and whether the production stepper stepped it in
/// every cycle of the window.
fn every_rule_scenario() -> (Record, Vec<(&'static str, u64)>, bool) {
    const WARM: u64 = 3_000;
    const WINDOW: u64 = 512;
    let netlist = every_rule_netlist();
    let mut rec = Record::new();
    let mut array = Array::xpp64a();
    let cfg = array.configure(&netlist).unwrap();
    let tokens = (WARM + WINDOW) as i32 + 64;
    array
        .push_input(cfg, "x", (0..tokens).map(|i| Word::new(i * 37 % 1000)))
        .unwrap();
    array
        .push_input_events(cfg, "e", (0..tokens).map(|i| i % 3 == 0))
        .unwrap();
    array.run(WARM);
    let fires = |array: &Array| -> Vec<u64> {
        let counts = array.object_fire_counts(cfg).unwrap();
        counts.into_iter().map(|(_, n)| n).collect()
    };
    let awake_cycles = array.schedule_stats().replay_cycles;
    let before = fires(&array);
    array.run(WINDOW);
    let in_window = netlist
        .kinds()
        .zip(before.iter().zip(fires(&array)))
        .map(|(kind, (before, after))| (rule_name(kind), after - before))
        .collect();
    let all_awake = array.schedule_stats().replay_cycles - awake_cycles == WINDOW;
    for port in ["gated", "sums", "burst"] {
        rec.drain(&mut array, cfg, port);
    }
    let wraps = array.drain_output_events(cfg, "wrap").unwrap();
    rec.streams
        .push(("wrap".into(), wraps.iter().map(|&w| w as i32).collect()));
    (rec.finish(&array), in_window, all_awake)
}

/// No arm of the one firing-rule function is reachable from only one
/// stepper's tests: every rule fires inside a window that the production
/// stepper serves in full, the same window on the reference stepper fires
/// every object exactly as often, and the two runs are observably
/// identical.
#[test]
fn every_firing_rule_runs_under_replay_and_agrees_on_all_steppers() {
    let (fast, fast_fires, all_awake) = every_rule_scenario();
    assert!(
        all_awake,
        "the production stepper must step the whole measured window"
    );
    for rule in EVERY_RULE {
        assert!(
            fast_fires.iter().any(|&(r, n)| r == rule && n > 0),
            "rule {rule} never fired on the production stepper: {fast_fires:?}"
        );
    }
    assert!(
        fast_fires.iter().all(|(r, _)| EVERY_RULE.contains(r)),
        "a rule is missing from EVERY_RULE: {fast_fires:?}"
    );
    let (slow, slow_fires, production) = with_reference_stepper(every_rule_scenario);
    assert!(
        !production,
        "the reference arm never runs the production stepper"
    );
    assert_eq!(fast, slow, "production and reference steppers diverged");
    assert_eq!(fast_fires, slow_fires);
}

/// One stage of a generated full-rate eligible netlist: every object takes
/// one token from each input and puts one on each output whatever the
/// values, and no channel but an accumulator's self-loop closes a cycle.
#[derive(Debug, Clone, Copy)]
enum Rate {
    Unary(usize, i32),
    /// `y = op(x, x through n pass registers)`: a two-way fan-out whose
    /// direct branch holds `n` more tokens.
    Combine(usize, usize),
    /// `x` fans out to `n + 3` unaries summed back together.
    Wide(usize),
    /// A delay line of `n` zeros, shaped like 2a's lag FIFOs.
    Fifo(usize),
    /// `y = x + ring[i]` over a ring FIFO of `n` words.
    Ring(usize),
    /// `acc += x` through a self-loop holding one token, as in 2a's
    /// running window sums.
    Accum,
    /// `y = x < k ? k : x`, steered by an event derived from `x`.
    Select(i32),
    /// `x` and the constant `k` swapped by an event derived from `x`,
    /// then subtracted.
    Swap(i32),
    /// `y = x + to_data(p op !p)` with `p = to_event(x)`, AND or OR.
    Events(bool),
}

fn arb_rate() -> impl Strategy<Value = Rate> {
    prop_oneof![
        ((0usize..5), (-500i32..500)).prop_map(|(o, k)| Rate::Unary(o, k)),
        ((0usize..4), (1usize..4)).prop_map(|(o, d)| Rate::Combine(o, d)),
        (0usize..3).prop_map(Rate::Wide),
        (1usize..20).prop_map(Rate::Fifo),
        (1usize..6).prop_map(Rate::Ring),
        Just(Rate::Accum),
        (-100i32..100).prop_map(Rate::Select),
        (-100i32..100).prop_map(Rate::Swap),
        (0usize..2).prop_map(|o| Rate::Events(o == 0)),
    ]
}

/// The generated netlist: `e ? x : -x` through the stages to `y`, and
/// `to_event(y)` to the event output `z`.
fn full_rate_netlist(capacity: usize, stages: &[Rate]) -> xpp_array::Netlist {
    let mut nl = NetlistBuilder::new("full-rate");
    nl.set_default_capacity(capacity);
    full_rate_pipeline(&mut nl, stages);
    nl.build().unwrap()
}

/// Splices `e ? x : -x` through the stages into `nl`, with the result on
/// `y` and its event on `z`; returns the result.
fn full_rate_pipeline(nl: &mut NetlistBuilder, stages: &[Rate]) -> DataOut {
    let x = nl.input("x");
    let e = nl.input_event("e");
    let neg = nl.unary(UnaryOp::Neg, x);
    let x = nl.delay(x, 1);
    let mut x = nl.select(e, neg, x);
    for s in stages {
        x = match *s {
            Rate::Unary(o, k) => nl.unary(unary_op(o, k), x),
            Rate::Combine(o, d) => {
                let delayed = nl.delay(x, d);
                nl.alu(alu_op(o), x, delayed)
            }
            Rate::Wide(n) => {
                // Each term is delayed to meet the running sum.
                let mut sum = nl.unary(UnaryOp::Pass, x);
                for k in 0..n + 2 {
                    let t = nl.unary(UnaryOp::XorK(Word::new(k as i32 + 1)), x);
                    let t = nl.delay(t, k);
                    sum = nl.alu(AluOp::Add, sum, t);
                }
                sum
            }
            Rate::Fifo(n) => {
                let fifo = nl.fifo(n + 1, vec![Word::ZERO; n]);
                nl.wire(x, fifo.input);
                fifo.output
            }
            Rate::Ring(n) => {
                let ring = nl.ring_fifo((0..n as i32).map(|i| Word::new(3 * i + 1)).collect());
                nl.alu(AluOp::Add, x, ring)
            }
            Rate::Accum => {
                let (step, acc_in, acc) = nl.alu_deferred(AluOp::Add);
                nl.wire(x, step);
                nl.wire_with(acc, acc_in, 2, vec![Word::ZERO]);
                acc
            }
            Rate::Select(k) => {
                let below = nl.unary(UnaryOp::LtK(Word::new(k)), x);
                let sel = nl.to_event(below);
                let c = nl.constant(Word::new(k));
                let x = nl.delay(x, 2);
                nl.select(sel, x, c)
            }
            Rate::Swap(k) => {
                let above = nl.unary(UnaryOp::GeK(Word::new(k)), x);
                let sel = nl.to_event(above);
                let c = nl.constant(Word::new(k));
                let x = nl.delay(x, 2);
                let (a, b) = nl.swap(sel, x, c);
                nl.alu(AluOp::Sub, a, b)
            }
            Rate::Events(and) => {
                let p = nl.to_event(x);
                let not_p = nl.ev_not(p);
                let r = if and {
                    nl.ev_and(p, not_p)
                } else {
                    nl.ev_or(p, not_p)
                };
                let bit = nl.to_data(r);
                let x = nl.delay(x, 4);
                nl.alu(AluOp::Add, x, bit)
            }
        };
    }
    nl.output("y", x);
    let z = nl.to_event(x);
    nl.output_event("z", z);
    x
}

/// One accumulator of the pipeline's result, dumped when a modulo-`sf`
/// counter from `start`, through `AddK(shift)`, tests true against `k`
/// (`EqK`, or `GeK` when `ge`; `k` wraps into the values the test sees),
/// inverted when `not` — or when the previous lane's event does, when
/// `shared`. Behind it, `ShrK(1)` to the port `s<lane>`.
#[derive(Debug, Clone, Copy)]
struct Lane {
    sf: u64,
    start: i64,
    shift: i32,
    k: i32,
    ge: bool,
    not: bool,
    shared: bool,
}

fn arb_lane() -> impl Strategy<Value = Lane> {
    (
        (1u64..40, -4i64..4, -3i32..3, 0i32..40),
        (any::<bool>(), 0u8..4, any::<bool>()),
    )
        .prop_map(|((sf, start, shift, k), (ge, not, shared))| Lane {
            sf,
            start,
            shift,
            k,
            ge,
            not: not == 0,
            shared,
        })
}

/// The full-rate pipeline with dump lanes behind its result: every
/// accumulator's dump event descends from a free-running counter through
/// value-only ops, as the rake finger's does.
fn horizon_netlist(capacity: usize, stages: &[Rate], lanes: &[Lane]) -> xpp_array::Netlist {
    let mut nl = NetlistBuilder::new("horizon");
    nl.set_default_capacity(capacity);
    let y = full_rate_pipeline(&mut nl, stages);
    let mut event = None;
    for (i, lane) in lanes.iter().enumerate() {
        let ev = match event {
            Some(ev) if lane.shared => ev,
            _ => {
                let ctr = nl.counter(CounterCfg {
                    start: lane.start,
                    step: 1,
                    period: lane.sf,
                    gated: false,
                });
                let v = nl.unary(UnaryOp::AddK(Word::new(lane.shift)), ctr.value);
                let k = Word::new(lane.start as i32 + lane.shift + lane.k % lane.sf as i32);
                let test = if lane.ge {
                    UnaryOp::GeK(k)
                } else {
                    UnaryOp::EqK(k)
                };
                let t = nl.unary(test, v);
                let ev = nl.to_event(t);
                if lane.not {
                    nl.ev_not(ev)
                } else {
                    ev
                }
            }
        };
        event = Some(ev);
        let sum = nl.accum_dump(y, ev);
        let s = nl.unary(UnaryOp::ShrK(1), sum);
        nl.output(format!("s{i}"), s);
    }
    nl.build().unwrap()
}

/// One call a driver makes on the array of a generated netlist.
#[derive(Debug, Clone)]
enum Drive {
    /// Words on `x` and events on `e`, each queue's count drawn apart.
    Push(Vec<i32>, Vec<bool>),
    PushX(Vec<i32>),
    PushE(Vec<bool>),
    Run(u64),
    Idle,
    /// `run_until_output` for this many more words on `y`, budget 600.
    Until(usize),
    /// The same on `s0`, behind a dump.
    UntilSum(usize),
    Drain,
}

fn arb_drive() -> impl Strategy<Value = Drive> {
    prop_oneof![
        (
            proptest::collection::vec(-3000i32..3000, 0..300),
            proptest::collection::vec(any::<bool>(), 0..300),
        )
            .prop_map(|(x, e)| Drive::Push(x, e)),
        proptest::collection::vec(-3000i32..3000, 0..300).prop_map(Drive::PushX),
        proptest::collection::vec(any::<bool>(), 0..300).prop_map(Drive::PushE),
        (1u64..400).prop_map(Drive::Run),
        Just(Drive::Idle),
        (1usize..300).prop_map(Drive::Until),
        Just(Drive::Drain),
    ]
}

fn arb_horizon_drive() -> impl Strategy<Value = Drive> {
    prop_oneof![arb_drive(), (1usize..20).prop_map(Drive::UntilSum)]
}

/// Everything observable about a driven generated netlist, the schedule
/// counts apart (the reference stepper keeps none), and the cycles the
/// array stepped in blocks.
type Driven = (Record, Vec<(String, u64)>, xpp_array::ScheduleStats, u64);

fn full_rate_scenario(capacity: usize, stages: &[Rate], script: &[Drive]) -> Driven {
    driven_scenario(&full_rate_netlist(capacity, stages), 0, script)
}

/// Drives `netlist`, a generated pipeline with `sums` dump lanes.
fn driven_scenario(netlist: &xpp_array::Netlist, sums: usize, script: &[Drive]) -> Driven {
    let mut rec = Record::new();
    let mut array = Array::xpp64a();
    let cfg = array.configure(netlist).unwrap();
    let drain = |array: &mut Array, rec: &mut Record| {
        rec.drain(array, cfg, "y");
        let z = array.drain_output_events(cfg, "z").unwrap();
        rec.streams
            .push(("z".into(), z.iter().map(|&b| i32::from(b)).collect()));
        for i in 0..sums {
            rec.drain(array, cfg, &format!("s{i}"));
        }
    };
    let outcome = |r: Result<u64, xpp_array::Error>| r.unwrap_or(u64::MAX);
    for step in script {
        match step {
            Drive::Push(words, events) => {
                let words = words.iter().map(|&v| Word::new(v));
                array.push_input(cfg, "x", words).unwrap();
                let events = events.iter().copied();
                array.push_input_events(cfg, "e", events).unwrap();
            }
            Drive::PushX(words) => array
                .push_input(cfg, "x", words.iter().map(|&v| Word::new(v)))
                .unwrap(),
            Drive::PushE(events) => array
                .push_input_events(cfg, "e", events.iter().copied())
                .unwrap(),
            Drive::Run(cycles) => array.run(*cycles),
            Drive::Idle => rec.idle_cycles.push(outcome(array.run_until_idle(20_000))),
            Drive::Until(more) => {
                let count = array.output_len(cfg, "y").unwrap() + more;
                let n = array.run_until_output(cfg, "y", count, 600);
                rec.idle_cycles.push(outcome(n));
            }
            Drive::UntilSum(more) => {
                let count = array.output_len(cfg, "s0").unwrap() + more;
                let n = array.run_until_output(cfg, "s0", count, 600);
                rec.idle_cycles.push(outcome(n));
            }
            Drive::Drain => drain(&mut array, &mut rec),
        }
    }
    drain(&mut array, &mut rec);
    let fires = array.object_fire_counts(cfg).unwrap();
    let schedule = array.schedule_stats();
    (rec.finish(&array), fires, schedule, array.block_cycles())
}

/// Runs a generated scenario on the reference stepper, on the dense
/// stepper with no blocks, and with blocks of at most 1, 7 and 64 cycles:
/// every run must agree on outputs, `run_until_*` results, per-object
/// fires, `ArrayStats` (cycles included), and the production runs on
/// `ScheduleStats`. Returns the cycles the 64-cycle arm stepped in blocks.
fn assert_blocks_agree(capacity: usize, stages: &[Rate], script: &[Drive]) -> u64 {
    assert_runs_agree(|| full_rate_scenario(capacity, stages, script))
}

/// [`assert_blocks_agree`] for any driven scenario.
fn assert_runs_agree(run: impl Fn() -> Driven) -> u64 {
    let slow = with_reference_stepper(&run);
    let dense = with_block_cap(0, &run);
    assert_eq!(dense.3, 0);
    assert_eq!(
        (&dense.0, &dense.1),
        (&slow.0, &slow.1),
        "dense vs reference"
    );
    let mut blocked = 0;
    for cap in [1, 7, 64] {
        let fast = with_block_cap(cap, &run);
        assert_eq!(
            (&fast.0, &fast.1, &fast.2),
            (&dense.0, &dense.1, &dense.2),
            "blocks of at most {cap} cycles vs the dense stepper"
        );
        blocked = fast.3;
    }
    blocked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random full-rate eligible netlists — pipelines with one-, two- and
    /// wide fan-out, FIFO delay lines, ring FIFOs, self-loop accumulators,
    /// constants, select/swap and event converters at any channel capacity
    /// from 1 to 8 — driven by random pushes of every size, runs,
    /// `run_until_idle`, `run_until_output` and drains, observe the same
    /// on the reference stepper, on the dense stepper and in blocks of any
    /// length.
    #[test]
    fn full_rate_blocks_are_stepper_invariant(
        capacity in 1usize..=8,
        stages in proptest::collection::vec(arb_rate(), 1..8),
        script in proptest::collection::vec(arb_drive(), 1..14),
    ) {
        assert_blocks_agree(capacity, &stages, &script);
    }
}

/// Power guard for the property above: a netlist with every stage kind,
/// streamed with both queues full, spends most of its cycles in blocks,
/// and agrees everywhere.
#[test]
fn every_full_rate_stage_runs_in_blocks_and_agrees() {
    // Select and swap against a constant below every value the stream
    // takes, so they pass every difference upstream through to `y`. (A
    // pipeline delay pairs tokens by order, so `Combine` with `Sub` would
    // be all zeros: it adds here.)
    let stages = [
        Rate::Unary(0, 7),
        Rate::Combine(0, 2),
        Rate::Wide(1),
        Rate::Fifo(16),
        Rate::Ring(3),
        Rate::Accum,
        Rate::Select(-8_000_000),
        Rate::Swap(-8_000_000),
        Rate::Events(true),
        Rate::Events(false),
    ];
    let script = [
        Drive::Push(
            (0..700).map(|i| i * 37 % 2000 - 1000).collect(),
            (0..650).map(|i| i % 3 != 0).collect(),
        ),
        Drive::Until(400),
        Drive::Run(150),
        Drive::Drain,
        Drive::PushE(vec![true; 100]),
        Drive::Idle,
    ];
    let blocked = assert_blocks_agree(8, &stages, &script);
    assert!(blocked > 500, "{blocked} cycles in blocks");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dump horizons: generated pipelines with one to three accumulators
    /// behind them, each dumped by a counter lane of random period, phase
    /// and test (one firing, all but one, or a run of passes per period),
    /// some lanes sharing one event, driven as above and by
    /// `run_until_output` on a port behind a dump, observe the same on the
    /// reference stepper, on the dense stepper and in blocks of any length
    /// — outputs, `run_until_*` results, per-object fires and
    /// `ArrayStats`.
    #[test]
    fn dump_horizons_are_stepper_invariant(
        capacity in 1usize..=8,
        stages in proptest::collection::vec(arb_rate(), 0..4),
        lanes in proptest::collection::vec(arb_lane(), 1..4),
        script in proptest::collection::vec(arb_horizon_drive(), 1..14),
    ) {
        let netlist = horizon_netlist(capacity, &stages, &lanes);
        assert_runs_agree(|| driven_scenario(&netlist, lanes.len(), &script));
    }
}

/// Power guard for the property above: lanes dumping once per 16 and
/// once per 40 passes, one sharing its event, streamed with both queues
/// full, spend most of their cycles in blocks, and agree everywhere.
#[test]
fn dump_horizon_lanes_run_in_blocks_and_agree() {
    let lane = |sf, shared| Lane {
        sf,
        start: 0,
        shift: 0,
        k: sf as i32 - 1,
        ge: false,
        not: false,
        shared,
    };
    let lanes = [lane(16, false), lane(16, true), lane(40, false)];
    let netlist = horizon_netlist(4, &[Rate::Unary(0, 3), Rate::Fifo(4)], &lanes);
    let script = [
        Drive::Push(
            (0..700).map(|i| i * 37 % 2000 - 1000).collect(),
            vec![true; 700],
        ),
        Drive::UntilSum(30),
        Drive::Run(150),
        Drive::Drain,
        Drive::Idle,
    ];
    let blocked = assert_runs_agree(|| driven_scenario(&netlist, lanes.len(), &script));
    assert!(blocked > 400, "{blocked} cycles in blocks");
}
