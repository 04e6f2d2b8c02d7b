//! Raw array-stepping throughput: how many simulated cycles per second
//! `Array::step` sustains, and what one object visit costs on each of the
//! engine's kernels.
//!
//! Five shapes, each measured on two steppers — production (every object
//! of every awake configuration each cycle, as rule-specialised runs; a
//! pass that fires nothing puts the configuration to sleep until input
//! wakes it) and the retained scan-the-world reference stepper, which
//! steps every enabled configuration every cycle through the general
//! firing rule, object by object in node order:
//!
//! * `saturated` — a resident FFT64 plus an 8-finger multiplexed
//!   despreader, input queues never running dry: every object fires as
//!   often as the token handshake allows, and both configurations stay
//!   awake, so both steppers visit the same objects every cycle and the
//!   ratio is what the specialised runs save over the general rule.
//! * `rate_matched` — the same pair, data arriving at the over-the-air
//!   rate while the array clock runs free, the regime the paper's
//!   terminals actually operate in (an XPP clocked at tens of MHz against
//!   3.84 Mcps W-CDMA chips and 250 kbaud OFDM symbols spends most cycles
//!   waiting for data). Each configuration sleeps through the wait, which
//!   costs the production stepper nothing and the scan a full sweep per
//!   cycle.
//! * `finger`, `detector`, `demodulator` — the engine's three kernels,
//!   each resident and warm on its own array and run one job per call as
//!   the engine runs it: the rake finger (`finger_netlist(128, 17)`, Fig. 5
//!   streaming into Fig. 6) on a 2,048-chip job, the preamble detector
//!   (2a) on 640 samples, the demodulator (2b) on 48 subcarriers. Besides
//!   ns per object visit (job time over job cycles times objects) each
//!   reports its ratio to the kernel's golden software function, timed in
//!   the same slices; the golden shares no code with either stepper, so
//!   that ratio normalises out the host. The three kernels are full-rate
//!   eligible, so production steps most of their jobs in op-major blocks
//!   (the finger to each dump of its accumulators); both `saturated`
//!   configurations are not, so that shape measures the dense pass alone.
//!
//! `main` first checks that both steppers end the `saturated` and
//! `rate_matched` shapes with identical stats, then times the steppers in
//! interleaved slices, prints the figures recorded in `BENCH_ARRAY.json`
//! and EXPERIMENTS.md, and CI-fails if production falls below a floor
//! over the reference on `saturated`, `rate_matched`, `finger` or
//! `detector`. Each floor is a gate: the `rate_matched` one fails if the
//! sleep rule breaks, the `saturated` one if the production runs lose what
//! they gain over the general rule, the `detector` one if the full-rate
//! blocks stop running and the `finger` one if its blocks stop stepping to
//! the dump horizon.

use std::rc::Rc;

use sdr_dsp::Cplx;
use sdr_ofdm::rx::autocorr_metric;
use sdr_ofdm::xpp_map::{
    demodulator_netlist, drive_demodulator, drive_preamble_detector, fft64_netlist,
    preamble_detector_netlist,
};
use sdr_wcdma::rake::finger::{descramble, despread};
use sdr_wcdma::xpp_map::{despreader_multiplexed_netlist, drive_finger, finger_netlist};
use sdr_wcdma::ScramblingCode;
use xpp_array::array::with_reference_stepper;
use xpp_array::{Array, ConfigId, Netlist, Word};

/// Cycles each workload shape runs in the equivalence check.
const CYCLES: u64 = 20_000;

/// Rate-matched shape: bursts per check and array cycles per burst.
const SLOTS: u64 = 5;
const SLOT_CYCLES: u64 = CYCLES / SLOTS;

/// Minimum `reference time ÷ production time` per shape (best-round
/// median slice), each about 0.9× the lowest of the runs it was set from
/// on a 2-core host: `saturated` 1.38–1.58× (before the production pass
/// had its own rule loops it read 1.02–1.05×); `rate_matched` was set
/// from 7.8–8.1× and now reads 11.1–14.2×; `detector` from 9.08–11.61× in
/// ten runs (1.25–1.58× before the full-rate blocks); `finger` from
/// 7.40–8.08× in ten runs (1.33–1.76× before it stepped in blocks).
const FLOORS: [(&str, f64); 4] = [
    ("saturated", 1.2),
    ("rate_matched", 4.0),
    ("finger", 6.6),
    ("detector", 8.0),
];

fn stream(seed: i32, n: i32) -> impl Iterator<Item = Word> {
    (0..n).map(move |i| Word::new(((i * 131 + seed * 7) % 4096) - 2048))
}

/// Spreading-code chips for the despreader's `code` port: ±1.
fn code(seed: i32, n: i32) -> impl Iterator<Item = Word> {
    (0..n).map(move |i| Word::new(if (i * 7 + seed) % 3 == 0 { -1 } else { 1 }))
}

/// Builds an array with both workload configurations resident and fully
/// loaded (configuration-bus phase finished), but no data queued.
fn loaded_array() -> (Array, ConfigId, ConfigId) {
    let mut array = Array::xpp64a();
    let fft = array.configure(&fft64_netlist(2)).expect("fft64 placement");
    let dsp = array
        .configure(&despreader_multiplexed_netlist(8, 32))
        .expect("despreader placement");
    while !(array.is_running(fft) && array.is_running(dsp)) {
        array.step();
    }
    (array, fft, dsp)
}

/// Queues `words` tokens on every input port of both configurations.
fn feed(array: &mut Array, fft: ConfigId, dsp: ConfigId, seed: i32, words: [i32; 2]) {
    let [fft_words, dsp_words] = words;
    let ports = [
        (fft, "i_in", stream(seed + 13, fft_words)),
        (fft, "q_in", stream(seed + 29, fft_words)),
        (dsp, "i_in", stream(seed, dsp_words)),
        (dsp, "q_in", stream(seed + 7, dsp_words)),
    ];
    for (cfg, port, words) in ports {
        array.push_input(cfg, port, words).expect("input port");
    }
    array
        .push_input(dsp, "code", code(seed, dsp_words))
        .expect("dsp code");
}

/// Queues `words` tokens on every input port so the array stays busy for
/// the whole measured window.
fn saturated_array(words: i32) -> Array {
    let (mut array, fft, dsp) = loaded_array();
    feed(&mut array, fft, dsp, 1, [words, words]);
    array
}

/// One slot of the rate-matched shape: a chip burst for the despreader and
/// one OFDM symbol for the FFT, then a fixed slot's worth of array cycles
/// (the real-time clock keeps ticking whether or not data is present).
fn run_slot(array: &mut Array, fft: ConfigId, dsp: ConfigId, slot: u64) {
    feed(array, fft, dsp, slot as i32, [64, 128]);
    array.run(SLOT_CYCLES);
}

/// Not a measurement: both steppers must end each workload shape with
/// identical stats, so the ratios [`report`] prints compare like for like.
fn check_equivalence() {
    let saturated = || saturated_array(28_000);
    let [mut fast, mut slow] = [saturated(), with_reference_stepper(saturated)];
    fast.run(CYCLES);
    slow.run(CYCLES);
    assert_eq!(fast.stats(), slow.stats(), "saturated");
    let [mut fast, mut slow] = [loaded_array(), with_reference_stepper(loaded_array)];
    for slot in 0..SLOTS {
        for (array, fft, dsp) in [&mut fast, &mut slow] {
            run_slot(array, *fft, *dsp, slot);
        }
    }
    assert_eq!(fast.0.stats(), slow.0.stats(), "rate_matched");
}

/// Interleaved slices per round and rounds per shape of the report
/// measurement.
const SLICES: u64 = 10;
const ROUNDS: usize = 3;

/// What the report measured for one shape.
struct ShapeReport {
    /// Simulated cycles per host second: production, reference (totals
    /// over every slice of every round).
    cycles_per_s: [f64; 2],
    /// Best round's median per-slice `reference time ÷ production time`.
    production_vs_reference: f64,
}

/// Times `slice` on the two arrays `setup` builds (production, then
/// reference), in short alternating slices so slow machine-level drift
/// (frequency scaling, co-tenant noise) hits both steppers equally.
/// `slice` runs `cycles` simulated cycles per call. The gate figure is the
/// best round's *median* per-slice ratio: a co-tenant spike landing on one
/// stepper's slice is an outlier the median discards (where a totals ratio
/// would absorb it), and sustained contention across a whole round only
/// depresses that round's median, so the best of [`ROUNDS`] is the
/// least-polluted estimate of the true gap.
fn measure<A>(cycles: u64, setup: impl Fn() -> A, slice: impl Fn(&mut A, u64)) -> ShapeReport {
    let mut secs = [0.0f64; 2];
    let mut best_median = f64::NEG_INFINITY;
    for _ in 0..ROUNDS {
        let mut arms = [setup(), with_reference_stepper(&setup)];
        let mut ratios = Vec::new();
        for k in 0..SLICES {
            let mut took = [0.0f64; 2];
            // Whichever goes second finds the caches warm, so the two arms
            // take turns going first.
            let order = if k % 2 == 0 { [0, 1] } else { [1, 0] };
            for arm in order {
                let t = std::time::Instant::now();
                slice(&mut arms[arm], k);
                took[arm] = t.elapsed().as_secs_f64();
            }
            ratios.push(took[1] / took[0]);
            for (total, took) in secs.iter_mut().zip(took) {
                *total += took;
            }
        }
        ratios.sort_by(f64::total_cmp);
        best_median = best_median.max(ratios[ratios.len() / 2]);
    }
    let total_cycles = (ROUNDS as u64 * SLICES * cycles) as f64;
    ShapeReport {
        cycles_per_s: secs.map(|s| total_cycles / s),
        production_vs_reference: best_median,
    }
}

/// One engine kernel as the report times it: a job run on a resident,
/// warm configuration, and the golden function it must equal.
struct Kernel {
    name: &'static str,
    netlist: Netlist,
    job: Job,
    /// The kernel's golden software function on the same job.
    golden: Box<dyn Fn() -> Vec<i32>>,
}

/// Runs one job on the kernel resident at `cfg`; returns its output.
type Job = Box<dyn Fn(&mut Array, ConfigId) -> Vec<i32>>;

/// Samples with 12-bit components, as the receivers' ADCs deliver them.
fn samples(n: usize, seed: i32) -> Vec<Cplx<i32>> {
    (0..n as i32)
        .map(|i| {
            Cplx::new(
                (i * 37 + seed) % 4095 - 2047,
                (i * 91 + 3 * seed) % 4095 - 2047,
            )
        })
        .collect()
}

fn flatten(v: &[Cplx<i32>]) -> Vec<i32> {
    v.iter().flat_map(|c| [c.re, c.im]).collect()
}

/// The engine's three kernels on the jobs the engine gives them.
fn kernels() -> [Kernel; 3] {
    const SF: usize = 128;
    const CODE_INDEX: usize = 17;
    const CHIPS: usize = 2_048;
    const DELAY: usize = 5;
    let rx = Rc::new(samples(CHIPS + 64, 1));
    let code = Rc::new(ScramblingCode::downlink(0));
    let (rx2, code2) = (rx.clone(), code.clone());
    let finger = Kernel {
        name: "finger",
        netlist: finger_netlist(SF, CODE_INDEX),
        job: Box::new(move |array, cfg| {
            let out = drive_finger(array, cfg, &rx, &code, DELAY, 0, CHIPS, SF);
            flatten(&out.expect("finger job"))
        }),
        golden: Box::new(move || {
            let chips = descramble(&rx2, &code2, DELAY, 0, CHIPS);
            flatten(&despread(&chips, SF, CODE_INDEX))
        }),
    };
    let x = Rc::new(samples(640, 2));
    let x2 = x.clone();
    let detector = Kernel {
        name: "detector",
        netlist: preamble_detector_netlist(),
        job: Box::new(move |array, cfg| drive_preamble_detector(array, cfg, &x).expect("2a job")),
        golden: Box::new(move || autocorr_metric(&x2)),
    };
    let y = Rc::new(samples(48, 3));
    let w: Rc<Vec<_>> = Rc::new((0..48).map(|k| Cplx::new(400 - k, k - 200)).collect());
    let (y2, w2) = (y.clone(), w.clone());
    let bits = |b: Vec<(u8, u8)>| {
        b.into_iter()
            .flat_map(|(b0, b1)| [b0.into(), b1.into()])
            .collect()
    };
    let demodulator = Kernel {
        name: "demodulator",
        netlist: demodulator_netlist(),
        job: Box::new(move |array, cfg| {
            bits(drive_demodulator(array, cfg, &y, &w).expect("2b job"))
        }),
        golden: Box::new(move || {
            let z = y2
                .iter()
                .zip(w2.iter())
                .map(|(y, w)| y.cmul_shr(w.conj(), 9));
            z.flat_map(|z| [i32::from(z.re < 0), i32::from(z.im < 0)])
                .collect()
        }),
    };
    [finger, detector, demodulator]
}

/// Jobs per stepper per slice of a kernel shape.
const JOBS: u64 = 3;

/// What the report measured for one kernel shape.
struct KernelReport {
    /// ns per object visit: production, reference (totals over every slice
    /// of every round).
    ns_per_visit: [f64; 2],
    /// Best round's median per-slice `reference time ÷ production time`.
    production_vs_reference: f64,
    /// Median over every slice of `production time ÷ golden time`.
    production_vs_golden: f64,
}

/// Times `kernel`'s job on a production and a reference array (each with
/// the kernel resident and warmed by one job, checked against the golden)
/// and its golden function, [`JOBS`] calls each per slice, the three
/// taking turns going first. Gate figure as in [`measure`].
fn measure_kernel(kernel: &Kernel) -> KernelReport {
    let resident = || {
        let mut array = Array::xpp64a();
        let cfg = array.configure(&kernel.netlist).expect("kernel placement");
        while !array.is_running(cfg) {
            array.step();
        }
        assert_eq!(
            (kernel.job)(&mut array, cfg),
            (kernel.golden)(),
            "{}",
            kernel.name
        );
        (array, cfg)
    };
    let mut secs = [0.0f64; 3];
    let mut visits = 0u64;
    let mut best_median = f64::NEG_INFINITY;
    let mut golden_ratios = Vec::new();
    for _ in 0..ROUNDS {
        let mut arms = [resident(), with_reference_stepper(resident)];
        let mut ratios = Vec::new();
        for k in 0..SLICES {
            let mut took = [0.0f64; 3];
            for arm in [0, 1, 2].map(|a| (a + k as usize) % 3) {
                let t = std::time::Instant::now();
                for _ in 0..JOBS {
                    match arms.get_mut(arm) {
                        Some((array, cfg)) => {
                            let cycles = array.stats().cycles;
                            std::hint::black_box((kernel.job)(array, *cfg));
                            if arm == 0 {
                                visits += (array.stats().cycles - cycles)
                                    * kernel.netlist.object_count() as u64;
                            }
                        }
                        None => {
                            std::hint::black_box((kernel.golden)());
                        }
                    }
                }
                took[arm] = t.elapsed().as_secs_f64();
            }
            ratios.push(took[1] / took[0]);
            golden_ratios.push(took[0] / took[2]);
            for (total, took) in secs.iter_mut().zip(took) {
                *total += took;
            }
        }
        let [production, reference] = &arms;
        assert_eq!(production.0.stats(), reference.0.stats(), "{}", kernel.name);
        ratios.sort_by(f64::total_cmp);
        best_median = best_median.max(ratios[ratios.len() / 2]);
    }
    golden_ratios.sort_by(f64::total_cmp);
    KernelReport {
        ns_per_visit: [secs[0], secs[1]].map(|s| s * 1e9 / visits as f64),
        production_vs_reference: best_median,
        production_vs_golden: golden_ratios[golden_ratios.len() / 2],
    }
}

/// Times both steppers on every shape, prints the BENCH_ARRAY.json report
/// numbers, and asserts each floored shape's floor over the reference.
fn report() {
    /// Saturated warm-up before the timed window (pipelines full) and
    /// cycles per slice.
    const WARM_CYCLES: u64 = 4_000;
    const SLICE: u64 = 2_000;
    let words = (WARM_CYCLES + SLICES * SLICE + 4_000) as i32;
    let saturated = measure(
        SLICE,
        || {
            let mut a = saturated_array(words);
            a.run(WARM_CYCLES);
            a
        },
        |a, _| a.run(SLICE),
    );
    let rate_matched = measure(SLOT_CYCLES, loaded_array, |(a, fft, dsp), slot| {
        run_slot(a, *fft, *dsp, slot)
    });
    let kernels = kernels().map(|k| (k.name, measure_kernel(&k)));

    eprintln!(
        "array_step/report ({ROUNDS} rounds x {SLICES} interleaved slices per stepper; \
         saturated: {SLICE} steady-state cycles per slice; rate_matched: one \
         {SLOT_CYCLES}-cycle slot per slice; kernels: {JOBS} jobs per slice):"
    );
    let floor = |shape: &str| FLOORS.iter().find(|(s, _)| *s == shape).map(|&(_, f)| f);
    let floor_note =
        |shape: &str| floor(shape).map_or("no floor".into(), |f| format!("floor {f}x"));
    let mut measured = Vec::new();
    for (shape, r) in [("saturated", &saturated), ("rate_matched", &rate_matched)] {
        let [production, reference] = r.cycles_per_s;
        eprintln!(
            "  {shape:<13} production {production:>10.0}  reference {reference:>10.0} \
             cycles/s   production vs reference {:.2}x (best round median slice; \
             {})",
            r.production_vs_reference,
            floor_note(shape),
        );
        measured.push((shape, r.production_vs_reference));
    }
    for (shape, r) in &kernels {
        let [production, reference] = r.ns_per_visit;
        eprintln!(
            "  {shape:<13} production {production:>7.2}  reference {reference:>7.2} \
             ns/object visit   production vs reference {:.2}x (best round median \
             slice; {})   production vs golden {:.1}x (median slice)",
            r.production_vs_reference,
            floor_note(shape),
            r.production_vs_golden,
        );
        measured.push((shape, r.production_vs_reference));
    }
    for (shape, ratio) in measured {
        if let Some(floor) = floor(shape) {
            assert!(
                ratio >= floor,
                "the production stepper must hold >= {floor}x the reference on the \
                 {shape} shape: median slice ratio {ratio:.2}x"
            );
        }
    }
}

fn main() {
    check_equivalence();
    report();
}
