//! Raw array-stepping throughput: how many simulated cycles per second
//! `Array::step` sustains on a loaded basestation-worker array (a resident
//! FFT64 plus an 8-finger multiplexed despreader).
//!
//! Two workload shapes, each measured on three steppers — adaptive (the
//! default: each configuration stepped dense or from its ready list as its
//! activity calls for), the ready-list stepper alone (dense stepping forced
//! off), and the retained scan-the-world reference stepper:
//!
//! * `saturated` — input queues never run dry, every object fires as often
//!   as the token handshake allows. That is still only ≈ 22 % of the
//!   FFT64's 117 objects per cycle (and the despreader, whose `code` port
//!   this bench has never fed, idles), so the shape sits below the activity
//!   at which dense stepping pays and measures what *deciding* costs.
//! * `rate_matched` — data arrives at the over-the-air rate while the array
//!   clock runs free, the regime the paper's terminals actually operate in
//!   (an XPP clocked at tens of MHz against 3.84 Mcps W-CDMA chips and
//!   250 kbaud OFDM symbols spends most cycles waiting for data). Idle
//!   cycles cost the production steppers almost nothing but cost the scan
//!   the full object sweep.
//!
//! The `report` arm times all three in interleaved slices, prints the
//! absolute cycles/s recorded in `BENCH_ARRAY.json` and EXPERIMENTS.md, and
//! CI-fails if adaptive stepping falls below 0.95× the ready-list stepper
//! on either shape: choosing a stepper must never cost more than it saves.
//! (Neither shape turns dense; the kernels that do are measured end to end
//! by `BENCHMARK.json` and pinned by `tests/dense_stepping.rs`.)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sdr_ofdm::xpp_map::fft64_netlist;
use sdr_wcdma::xpp_map::despreader_multiplexed_netlist;
use xpp_array::{with_schedule_capture, Array, ConfigId, Word};

/// Cycles stepped per measured iteration (both workload shapes).
pub const CYCLES: u64 = 20_000;

/// Rate-matched shape: bursts per iteration and array cycles per burst.
const SLOTS: u64 = 5;
const SLOT_CYCLES: u64 = CYCLES / SLOTS;

fn stream(seed: i32, n: i32) -> impl Iterator<Item = Word> {
    (0..n).map(move |i| Word::new(((i * 131 + seed * 7) % 4096) - 2048))
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

/// Queues `words` tokens on every input port so the array stays busy for
/// the whole measured window.
fn saturated_array_n(words: i32) -> Array {
    let (mut array, fft, dsp) = loaded_array();
    array
        .push_input(fft, "i_in", stream(1, words))
        .expect("fft i_in");
    array
        .push_input(fft, "q_in", stream(2, words))
        .expect("fft q_in");
    array
        .push_input(dsp, "i_in", stream(3, words))
        .expect("dsp i_in");
    array
        .push_input(dsp, "q_in", stream(4, words))
        .expect("dsp q_in");
    array
}

/// Default saturated shape: enough input to cover `CYCLES` plus detector
/// warm-up.
fn saturated_array() -> Array {
    saturated_array_n(28_000)
}

/// One slot of the rate-matched shape: a chip burst for the despreader and
/// one OFDM symbol for the FFT, then a fixed slot's worth of array cycles
/// (the real-time clock keeps ticking whether or not data is present).
fn run_slot(array: &mut Array, fft: ConfigId, dsp: ConfigId, slot: u64) {
    let seed = slot as i32;
    array
        .push_input(dsp, "i_in", stream(seed, 128))
        .expect("dsp i_in");
    array
        .push_input(dsp, "q_in", stream(seed + 7, 128))
        .expect("dsp q_in");
    array
        .push_input(fft, "i_in", stream(seed + 13, 64))
        .expect("fft i_in");
    array
        .push_input(fft, "q_in", stream(seed + 29, 64))
        .expect("fft q_in");
    array.run(SLOT_CYCLES);
}

/// One measured iteration of the rate-matched shape: `SLOTS` slots.
fn run_rate_matched(mut array: Array, fft: ConfigId, dsp: ConfigId) -> xpp_array::ArrayStats {
    for slot in 0..SLOTS {
        run_slot(&mut array, fft, dsp, slot);
    }
    array.stats()
}

fn bench_array_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("array_step");
    // The `adaptive` arms measure the shipped configuration, the
    // `ready_list` arms force dense stepping off.
    g.bench_function("adaptive_saturated", |b| {
        b.iter_batched(
            saturated_array,
            |mut a| {
                a.run(CYCLES);
                a.stats()
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("ready_list_saturated", |b| {
        b.iter_batched(
            || with_schedule_capture(false, saturated_array),
            |mut a| {
                a.run(CYCLES);
                a.stats()
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("reference_saturated", |b| {
        b.iter_batched(
            || xpp_array::array::with_reference_stepper(saturated_array),
            |mut a| {
                a.run(CYCLES);
                a.stats()
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("adaptive_rate_matched", |b| {
        b.iter_batched(
            loaded_array,
            |(a, fft, dsp)| run_rate_matched(a, fft, dsp),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("ready_list_rate_matched", |b| {
        b.iter_batched(
            || with_schedule_capture(false, loaded_array),
            |(a, fft, dsp)| run_rate_matched(a, fft, dsp),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("reference_rate_matched", |b| {
        b.iter_batched(
            || xpp_array::array::with_reference_stepper(loaded_array),
            |(a, fft, dsp)| run_rate_matched(a, fft, dsp),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Not a measurement: asserts all three steppers produce identical stats
/// on both workload shapes, so the speedup numbers always compare like
/// for like.
fn bench_sanity(c: &mut Criterion) {
    c.bench_function("array_step/equivalence_check", |b| {
        b.iter_batched(
            || {
                (
                    saturated_array(), // adaptive
                    with_schedule_capture(false, saturated_array),
                    xpp_array::array::with_reference_stepper(saturated_array),
                    loaded_array(),
                    with_schedule_capture(false, loaded_array),
                    xpp_array::array::with_reference_stepper(loaded_array),
                )
            },
            |(mut adaptive, mut ready, mut slow, burst_adaptive, burst_ready, burst_slow)| {
                adaptive.run(CYCLES);
                ready.run(CYCLES);
                slow.run(CYCLES);
                assert_eq!(ready.schedule_stats().replay_cycles, 0);
                assert_eq!(adaptive.stats(), ready.stats());
                assert_eq!(adaptive.stats(), slow.stats());
                let (a, fft, dsp) = burst_adaptive;
                let (b2, fft2, dsp2) = burst_ready;
                let (b3, fft3, dsp3) = burst_slow;
                let r = run_rate_matched(a, fft, dsp);
                assert_eq!(r, run_rate_matched(b2, fft2, dsp2));
                assert_eq!(r, run_rate_matched(b3, fft3, dsp3));
            },
            BatchSize::LargeInput,
        )
    });
}

/// Interleaved slices per round and rounds per shape of the report
/// measurement.
const SLICES: u64 = 10;
const ROUNDS: usize = 3;

/// What the report arm measured for one shape.
struct ShapeReport {
    /// Simulated cycles per host second: adaptive, ready-list, reference
    /// (totals over every slice of every round).
    cycles_per_s: [f64; 3],
    /// Best round's median per-slice `ready-list time ÷ adaptive time`.
    adaptive_vs_ready_list: f64,
}

/// Times `slice` on the three arrays `setup` builds (adaptive, ready-list,
/// reference — in that order), in short alternating slices so slow
/// machine-level drift (frequency scaling, co-tenant noise) hits all
/// steppers equally. `slice` runs `cycles` simulated cycles per call. The
/// gate figure is the best round's *median* per-slice ratio: a co-tenant
/// spike landing on one stepper's slice is an outlier the median discards
/// (where a totals ratio would absorb it), and sustained contention across
/// a whole round only depresses that round's median, so the best of
/// [`ROUNDS`] is the least-polluted estimate of the true gap.
fn measure<A>(cycles: u64, setup: impl Fn() -> A, slice: impl Fn(&mut A, u64)) -> ShapeReport {
    let mut secs = [0.0f64; 3];
    let mut best_median = f64::NEG_INFINITY;
    for _ in 0..ROUNDS {
        let mut arms = [
            setup(),
            with_schedule_capture(false, &setup),
            xpp_array::array::with_reference_stepper(&setup),
        ];
        let mut ratios = Vec::new();
        for k in 0..SLICES {
            let mut took = [0.0f64; 3];
            // The two production steppers run the same code: whichever
            // goes second finds it warm, so they take turns going first.
            let order = if k % 2 == 0 { [0, 1, 2] } else { [1, 0, 2] };
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
        adaptive_vs_ready_list: best_median,
    }
}

/// Not a timing measurement in criterion's sense: times the three steppers
/// inline on both shapes, prints the BENCH_ARRAY.json report numbers, and
/// asserts the acceptance ratio so CI fails if choosing a stepper ever
/// costs more than it saves.
fn bench_report(_c: &mut Criterion) {
    /// Saturated warm-up before the timed window (pipelines full, the
    /// ready-list arm at its high-water state) and cycles per slice.
    const WARM_CYCLES: u64 = 4_000;
    const SLICE: u64 = 2_000;
    let words = (WARM_CYCLES + SLICES * SLICE + 4_000) as i32;
    let saturated = measure(
        SLICE,
        || {
            let mut a = saturated_array_n(words);
            a.run(WARM_CYCLES);
            a
        },
        |a, _| a.run(SLICE),
    );
    let rate_matched = measure(SLOT_CYCLES, loaded_array, |(a, fft, dsp), slot| {
        run_slot(a, *fft, *dsp, slot)
    });

    eprintln!(
        "array_step/report ({ROUNDS} rounds x {SLICES} interleaved slices per stepper; \
         saturated: {SLICE} steady-state cycles per slice; rate_matched: one \
         {SLOT_CYCLES}-cycle slot per slice):"
    );
    for (shape, r) in [("saturated", &saturated), ("rate_matched", &rate_matched)] {
        let [adaptive, ready, reference] = r.cycles_per_s;
        eprintln!(
            "  {shape:<13} adaptive {adaptive:>10.0}  ready-list {ready:>10.0}  \
             reference {reference:>10.0} cycles/s   adaptive vs ready-list {:.2}x \
             (best round median slice)",
            r.adaptive_vs_ready_list
        );
    }
    for (shape, r) in [("saturated", &saturated), ("rate_matched", &rate_matched)] {
        assert!(
            r.adaptive_vs_ready_list >= 0.95,
            "adaptive stepping must hold >= 0.95x the ready-list stepper on the {shape} \
             shape: median slice ratio {:.2}x",
            r.adaptive_vs_ready_list
        );
    }
}

criterion_group! {
    name = array_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_array_step, bench_sanity, bench_report
}
criterion_main!(array_benches);
