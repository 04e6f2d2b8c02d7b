//! Kernels resident together on one array, driven through the same public
//! `drive_*` functions the engine uses. Two shards: the engine's three
//! kernels — the rake finger (Fig. 5 streaming into Fig. 6 in one
//! configuration), 2a and 2b — on a stock XPP-64A, where they take 15 of
//! its 16 I/O channels (the benchmark's `backpressure_1x1` shard); and the
//! four stand-alone kernels the finger was split into before, which need
//! 19 logical I/O streams and so run on an XPP-64A with the I/O widened.
//!
//! Three properties, all about *how the stepper ran* and none about what
//! it computed differently (nothing may):
//!
//! * the outputs, `ArrayStats` and per-object fire counts of every kernel
//!   are identical under the production stepper and the reference scan
//!   stepper — and, on the engine shard, for any order of jobs (repeats
//!   back to back, finger jobs at any delay and code phase with a trailing
//!   partial symbol) in blocks of any length;
//! * a kernel that stays resident wakes once per job, is stepped every
//!   cycle of it, and falls asleep once when its stream ends. The
//!   detected-schedule replay of earlier versions stopped replaying for
//!   good after about six jobs on a never-reconfigured array (each end of
//!   stream tripped a guard that doubled the evidence the detector
//!   wanted);
//! * the engine's three kernels spend most of each job in full-rate
//!   blocks: the finger at least 90 % of its cycles, stepping to each dump
//!   of its accumulators; 2a at least 95 %; 2b at least 70 %.

use proptest::prelude::*;
use xpp_array::array::{with_block_cap, with_reference_stepper};
use xpp_array::{Array, ArrayStats, CompiledConfig, ConfigId, Geometry};
use xpp_sdr::dsp::Cplx;
use xpp_sdr::ofdm::rx::autocorr_metric;
use xpp_sdr::ofdm::xpp_map::{
    demodulator_netlist, drive_demodulator, drive_preamble_detector, preamble_detector_netlist,
};
use xpp_sdr::wcdma::rake::finger::{descramble, despread};
use xpp_sdr::wcdma::xpp_map::{
    descrambler_netlist, despreader_single_netlist, drive_descrambler, drive_despreader,
    drive_finger, finger_netlist,
};
use xpp_sdr::wcdma::ScramblingCode;

const SF: usize = 128;
/// The DPCH's OVSF code index.
const CODE_INDEX: usize = 17;
/// Chips per W-CDMA job: what one engine frame feeds each kernel.
const CHIPS: usize = 16 * SF;

/// A deterministic 12-bit sample stream.
fn samples(n: usize, seed: i32) -> Vec<Cplx<i32>> {
    (0..n as i32)
        .map(|i| {
            Cplx::new(
                (i * 131 + seed * 7) % 4096 - 2048,
                (i * 73 + seed * 29) % 4096 - 2048,
            )
        })
        .collect()
}

/// One array with the four kernels resident and loaded.
struct Shard {
    array: Array,
    descrambler: ConfigId,
    despreader: ConfigId,
    detector: ConfigId,
    demodulator: ConfigId,
    code: ScramblingCode,
}

impl Shard {
    fn new() -> Self {
        let mut array = Array::with_geometry(Geometry {
            io_channels: 19,
            ..Geometry::xpp64a()
        });
        let mut load = |netlist| {
            array
                .configure_compiled(&CompiledConfig::compile(&netlist))
                .expect("the four kernels fit the widened array together")
        };
        let descrambler = load(descrambler_netlist());
        let despreader = load(despreader_single_netlist(SF, CODE_INDEX));
        let detector = load(preamble_detector_netlist());
        let demodulator = load(demodulator_netlist());
        while !array.is_running(demodulator) {
            array.step();
        }
        Shard {
            array,
            descrambler,
            despreader,
            detector,
            demodulator,
            code: ScramblingCode::downlink(0),
        }
    }

    fn descramble(&mut self, job: usize) -> Vec<Cplx<i32>> {
        let rx = samples(CHIPS + 8, job as i32);
        let (array, cfg) = (&mut self.array, self.descrambler);
        drive_descrambler(array, cfg, &rx, &self.code, job % 8, 0, CHIPS).unwrap()
    }

    fn despread(&mut self, job: usize) -> Vec<Cplx<i32>> {
        let chips = samples(CHIPS, 100 + job as i32);
        drive_despreader(&mut self.array, self.despreader, &chips, SF).unwrap()
    }

    fn detect(&mut self, job: usize) -> Vec<i32> {
        detect(&mut self.array, self.detector, job)
    }

    fn demodulate(&mut self, job: usize) -> Vec<(u8, u8)> {
        demodulate(&mut self.array, self.demodulator, job)
    }
}

fn detect(array: &mut Array, detector: ConfigId, job: usize) -> Vec<i32> {
    let rx = samples(600, 200 + job as i32);
    drive_preamble_detector(array, detector, &rx).unwrap()
}

fn demodulate(array: &mut Array, demodulator: ConfigId, job: usize) -> Vec<(u8, u8)> {
    let carriers = samples(48, 300 + job as i32);
    let weights = vec![Cplx::new(512, 0); carriers.len()];
    drive_demodulator(array, demodulator, &carriers, &weights).unwrap()
}

/// Everything observable about three rounds of all four kernels.
#[derive(Debug, PartialEq)]
struct Observed {
    chips: Vec<Vec<Cplx<i32>>>,
    symbols: Vec<Vec<Cplx<i32>>>,
    metrics: Vec<Vec<i32>>,
    bits: Vec<Vec<(u8, u8)>>,
    stats: ArrayStats,
    object_fires: Vec<Vec<(String, u64)>>,
}

/// Runs the scenario; also returns how often a configuration was woken.
fn four_kernel_scenario() -> (Observed, u64) {
    let mut shard = Shard::new();
    let rounds = 0..3;
    let observed = Observed {
        chips: rounds.clone().map(|j| shard.descramble(j)).collect(),
        symbols: rounds.clone().map(|j| shard.despread(j)).collect(),
        metrics: rounds.clone().map(|j| shard.detect(j)).collect(),
        bits: rounds.map(|j| shard.demodulate(j)).collect(),
        stats: shard.array.stats(),
        object_fires: [
            shard.descrambler,
            shard.despreader,
            shard.detector,
            shard.demodulator,
        ]
        .map(|cfg| shard.array.object_fire_counts(cfg).unwrap())
        .to_vec(),
    };
    (observed, shard.array.schedule_stats().captured)
}

#[test]
fn four_resident_kernels_agree_on_all_steppers() {
    let (production, wakes) = four_kernel_scenario();
    assert!(production.chips.iter().all(|c| c.len() == CHIPS));
    assert!(production.symbols.iter().all(|s| s.len() == CHIPS / SF));
    assert!(production.metrics.iter().all(|m| m.len() == 600));
    assert!(production.bits.iter().all(|b| b.len() == 48));
    // Power guard: the four loads woke each kernel once, and each of the
    // twelve jobs woke its kernel once more from sleep.
    assert_eq!(wakes, 4 + 12);
    let (reference, _) = with_reference_stepper(four_kernel_scenario);
    assert_eq!(
        production, reference,
        "production and reference steppers diverged"
    );
}

/// Runs one job; returns its awake cycles ÷ its cycles.
fn awake_share(shard: &mut Shard, job: impl FnOnce(&mut Shard)) -> f64 {
    let mark = |a: &Array| (a.stats().cycles, a.schedule_stats().replay_cycles);
    let (cycles, awake) = mark(&shard.array);
    job(shard);
    let (cycles_after, awake_after) = mark(&shard.array);
    (awake_after - awake) as f64 / (cycles_after - cycles) as f64
}

#[test]
fn resident_kernels_stay_dense_job_after_job() {
    let mut shard = Shard::new();
    for job in 0..20 {
        let before = shard.array.schedule_stats();
        let share = awake_share(&mut shard, |s| drop(s.descramble(job)));
        assert!(
            share >= 0.95,
            "descrambler job {job}: awake share {share:.3}"
        );
        let share = awake_share(&mut shard, |s| drop(s.despread(job)));
        assert!(
            share >= 0.95,
            "despreader job {job}: awake share {share:.3}"
        );
        // One wake and one sleep per job: no flapping.
        let s = shard.array.schedule_stats().delta_since(&before);
        assert_eq!((s.captured, s.invalidations), (2, 2), "job {job}: {s:?}");
    }
}

/// The engine's shard: the finger, 2a and 2b resident on a stock XPP-64A.
struct EngineShard {
    array: Array,
    finger: ConfigId,
    detector: ConfigId,
    demodulator: ConfigId,
    code: ScramblingCode,
}

impl EngineShard {
    fn new() -> Self {
        let mut array = Array::xpp64a();
        let mut load = |netlist| {
            array
                .configure_compiled(&CompiledConfig::compile(&netlist))
                .expect("the engine's three kernels fit a stock XPP-64A together")
        };
        let finger = load(finger_netlist(SF, CODE_INDEX));
        let detector = load(preamble_detector_netlist());
        let demodulator = load(demodulator_netlist());
        while !array.is_running(demodulator) {
            array.step();
        }
        EngineShard {
            array,
            finger,
            detector,
            demodulator,
            code: ScramblingCode::downlink(0),
        }
    }

    /// One frame's finger job, checked against the golden chain.
    fn track(&mut self, job: usize) -> Vec<Cplx<i32>> {
        let (rx, delay) = (samples(CHIPS + 8, job as i32), job % 8);
        let (array, cfg) = (&mut self.array, self.finger);
        let symbols = drive_finger(array, cfg, &rx, &self.code, delay, 0, CHIPS, SF).unwrap();
        let chips = descramble(&rx, &self.code, delay, 0, CHIPS);
        assert_eq!(symbols, despread(&chips, SF, CODE_INDEX), "job {job}");
        symbols
    }
}

/// Everything observable about three rounds of the engine's three kernels.
#[derive(Debug, PartialEq)]
struct EngineObserved {
    symbols: Vec<Vec<Cplx<i32>>>,
    metrics: Vec<Vec<i32>>,
    bits: Vec<Vec<(u8, u8)>>,
    stats: ArrayStats,
    object_fires: Vec<Vec<(String, u64)>>,
}

/// Runs the engine-shard scenario; also returns how often a configuration
/// was woken.
fn engine_kernel_scenario() -> (EngineObserved, u64) {
    let mut shard = EngineShard::new();
    let rounds = 0..3;
    let observed = EngineObserved {
        symbols: rounds.clone().map(|j| shard.track(j)).collect(),
        metrics: rounds
            .clone()
            .map(|j| detect(&mut shard.array, shard.detector, j))
            .collect(),
        bits: rounds
            .map(|j| demodulate(&mut shard.array, shard.demodulator, j))
            .collect(),
        stats: shard.array.stats(),
        object_fires: [shard.finger, shard.detector, shard.demodulator]
            .map(|cfg| shard.array.object_fire_counts(cfg).unwrap())
            .to_vec(),
    };
    (observed, shard.array.schedule_stats().captured)
}

#[test]
fn engine_kernels_share_a_stock_array_and_agree_on_all_steppers() {
    let shard = EngineShard::new();
    let io: usize = [shard.finger, shard.detector, shard.demodulator]
        .map(|cfg| shard.array.placement(cfg).unwrap().counts.io)
        .iter()
        .sum();
    assert_eq!(io, 15, "I/O channels the three kernels take of 16");
    let (production, wakes) = engine_kernel_scenario();
    assert!(production.symbols.iter().all(|s| s.len() == CHIPS / SF));
    // Three loads woke each kernel once, and each of the nine jobs woke
    // its kernel once more from sleep.
    assert_eq!(wakes, 3 + 9);
    let (reference, _) = with_reference_stepper(engine_kernel_scenario);
    assert_eq!(
        production, reference,
        "production and reference steppers diverged"
    );
}

#[test]
fn the_resident_finger_stays_dense_job_after_job() {
    let mut shard = EngineShard::new();
    for job in 0..20 {
        let (before, cycles) = (shard.array.schedule_stats(), shard.array.stats().cycles);
        shard.track(job);
        let s = shard.array.schedule_stats().delta_since(&before);
        let share = s.replay_cycles as f64 / (shard.array.stats().cycles - cycles) as f64;
        assert!(share >= 0.95, "finger job {job}: awake share {share:.3}");
        // One wake and one sleep per job: no flapping.
        assert_eq!((s.captured, s.invalidations), (1, 1), "job {job}: {s:?}");
    }
}

/// The share of a job's cycles the array stepped in full-rate blocks.
fn block_share(array: &mut Array, job: impl FnOnce(&mut Array)) -> f64 {
    let (cycles, blocked) = (array.stats().cycles, array.block_cycles());
    job(array);
    (array.block_cycles() - blocked) as f64 / (array.stats().cycles - cycles) as f64
}

/// Power guard for the full-rate blocks: the engine's three kernels are
/// full-rate eligible and spend most of each job in blocks. The finger
/// (96 % of its cycles) steps to the next dump of its accumulators and
/// leaves only each dump pass and the drain behind it to the dense
/// stepper; the 2a detector (97 %) and the 2b demodulator (78 %) have no
/// dump.
#[test]
fn engine_kernels_step_in_blocks() {
    let mut shard = EngineShard::new();
    for job in 0..5 {
        let (finger, code) = (shard.finger, shard.code.clone());
        let share = block_share(&mut shard.array, |array| {
            let (rx, delay) = (samples(CHIPS + 8, job as i32), job % 8);
            drive_finger(array, finger, &rx, &code, delay, 0, CHIPS, SF).unwrap();
        });
        assert!(share >= 0.9, "finger job {job}: block share {share:.3}");
        let detector = shard.detector;
        let share = block_share(&mut shard.array, |a| drop(detect(a, detector, job)));
        assert!(share >= 0.95, "detector job {job}: block share {share:.3}");
        let demodulator = shard.demodulator;
        let share = block_share(&mut shard.array, |a| drop(demodulate(a, demodulator, job)));
        assert!(
            share >= 0.7,
            "demodulator job {job}: block share {share:.3}"
        );
    }
}

/// One job of a generated sequence on the engine shard.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// A finger job of `symbols · SF + tail` chips: the golden drops the
    /// trailing partial symbol, and so does the drive function, which
    /// never pushes its chips.
    Finger {
        symbols: usize,
        tail: usize,
        delay: usize,
        phase: usize,
        seed: i32,
    },
    /// A 2a job over `len` samples.
    Detect { len: usize, seed: i32 },
    /// A 2b job over `len` subcarriers.
    Demodulate { len: usize, seed: i32 },
}

fn arb_job() -> impl Strategy<Value = Job> {
    prop_oneof![
        (
            0usize..4,
            0usize..SF,
            0usize..16,
            0usize..40_000,
            0i32..1_000
        )
            .prop_map(|(symbols, tail, delay, phase, seed)| Job::Finger {
                symbols,
                tail,
                delay,
                phase,
                seed,
            }),
        (1usize..700, 0i32..1_000).prop_map(|(len, seed)| Job::Detect { len, seed }),
        (1usize..60, 0i32..1_000).prop_map(|(len, seed)| Job::Demodulate { len, seed }),
    ]
}

/// 2a's and 2b's input amplitude: an ADC's 10 bits.
fn ofdm_samples(n: usize, seed: i32) -> Vec<Cplx<i32>> {
    samples(n, seed)
        .into_iter()
        .map(|c| Cplx::new(c.re / 4, c.im / 4))
        .collect()
}

/// Every job's output as words, the final `ArrayStats` and the three
/// kernels' per-object fire counts.
type Sequenced = (Vec<Vec<i32>>, ArrayStats, Vec<Vec<(String, u64)>>);

/// Runs `jobs` in order on a fresh engine shard, checking each against its
/// golden.
fn job_sequence(jobs: &[Job]) -> Sequenced {
    let mut shard = EngineShard::new();
    let flat = |v: &[Cplx<i32>]| v.iter().flat_map(|c| [c.re, c.im]).collect::<Vec<_>>();
    let outputs = (jobs.iter().enumerate())
        .map(|(k, job)| match *job {
            Job::Finger {
                symbols,
                tail,
                delay,
                phase,
                seed,
            } => {
                let n = symbols * SF + tail;
                let rx = samples(n + delay, seed);
                let (array, cfg, code) = (&mut shard.array, shard.finger, &shard.code);
                let out = drive_finger(array, cfg, &rx, code, delay, phase, n, SF).unwrap();
                let chips = descramble(&rx, code, delay, phase, n);
                assert_eq!(out, despread(&chips, SF, CODE_INDEX), "job {k}: {job:?}");
                flat(&out)
            }
            Job::Detect { len, seed } => {
                let rx = ofdm_samples(len, seed);
                let out = drive_preamble_detector(&mut shard.array, shard.detector, &rx).unwrap();
                assert_eq!(out, autocorr_metric(&rx), "job {k}: {job:?}");
                out
            }
            Job::Demodulate { len, seed } => {
                let (y, w) = (ofdm_samples(len, seed), ofdm_samples(len, seed + 1));
                let (array, cfg) = (&mut shard.array, shard.demodulator);
                let bits = drive_demodulator(array, cfg, &y, &w).unwrap();
                // The slicer: the sign bits of y·conj(w) >> 9.
                let golden: Vec<(u8, u8)> = (y.iter().zip(&w))
                    .map(|(y, w)| y.cmul_shr(w.conj(), 9))
                    .map(|z| (u8::from(z.re < 0), u8::from(z.im < 0)))
                    .collect();
                assert_eq!(bits, golden, "job {k}: {job:?}");
                bits.iter()
                    .flat_map(|&(b0, b1)| [b0.into(), b1.into()])
                    .collect()
            }
        })
        .collect();
    let fires = [shard.finger, shard.detector, shard.demodulator]
        .map(|cfg| shard.array.object_fire_counts(cfg).unwrap())
        .to_vec();
    (outputs, shard.array.stats(), fires)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine shard as the thread driver uses it: the three kernels
    /// resident on one array, run in whatever order the jobs come, with
    /// back-to-back repeats, and finger jobs at any path delay and code
    /// phase with a trailing partial symbol. Every job matches its golden
    /// in blocks of at most 1, 7, 64 and the largest number of cycles,
    /// and on the reference stepper; all five runs end with the same
    /// `ArrayStats` and per-object fire counts.
    #[test]
    fn any_job_order_on_the_engine_shard_agrees_on_all_steppers(
        jobs in proptest::collection::vec(arb_job(), 1..10),
    ) {
        let reference = with_reference_stepper(|| job_sequence(&jobs));
        for cap in [1, 7, 64, usize::MAX] {
            let blocks = with_block_cap(cap, || job_sequence(&jobs));
            prop_assert_eq!(&blocks, &reference, "blocks of at most {} cycles", cap);
        }
    }
}
