//! The four kernels the engine runs, on one array that keeps all of them
//! resident — the benchmark's `backpressure_1x1` shard taken to its limit —
//! driven through the same public `drive_*` functions the engine uses. (The
//! kernels need 19 logical I/O streams between them and an XPP-64A has 16,
//! so the stock device holds any three; the array here is an XPP-64A with
//! the I/O widened to fit the fourth.)
//!
//! Two properties, both about *how the stepper ran* and neither about what
//! it computed differently (nothing may):
//!
//! * the outputs, `ArrayStats` and per-object fire counts of every kernel
//!   are identical under the production stepper and the reference scan
//!   stepper;
//! * a kernel that stays resident wakes once per job, is stepped every
//!   cycle of it, and falls asleep once when its stream ends. The
//!   detected-schedule replay of earlier versions stopped replaying for
//!   good after about six jobs on a never-reconfigured array (each end of
//!   stream tripped a guard that doubled the evidence the detector
//!   wanted).

use xpp_array::array::with_reference_stepper;
use xpp_array::{Array, ArrayStats, CompiledConfig, ConfigId, Geometry};
use xpp_sdr::dsp::Cplx;
use xpp_sdr::ofdm::xpp_map::{
    demodulator_netlist, drive_demodulator, drive_preamble_detector, preamble_detector_netlist,
};
use xpp_sdr::wcdma::xpp_map::{
    descrambler_netlist, despreader_single_netlist, drive_descrambler, drive_despreader,
};
use xpp_sdr::wcdma::ScramblingCode;

const SF: usize = 128;
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
        let despreader = load(despreader_single_netlist(SF, 17));
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
        let rx = samples(600, 200 + job as i32);
        drive_preamble_detector(&mut self.array, self.detector, &rx).unwrap()
    }

    fn demodulate(&mut self, job: usize) -> Vec<(u8, u8)> {
        let carriers = samples(48, 300 + job as i32);
        let weights = vec![Cplx::new(512, 0); carriers.len()];
        drive_demodulator(&mut self.array, self.demodulator, &carriers, &weights).unwrap()
    }
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
