//! Raw array-stepping throughput: how many simulated cycles per second
//! `Array::step` sustains on a loaded basestation-worker array (a resident
//! FFT64 plus an 8-finger multiplexed despreader, both fed on every port).
//!
//! Two workload shapes, each measured on two steppers — production (every
//! object of every awake configuration each cycle; a pass that fires
//! nothing puts the configuration to sleep until input wakes it) and the
//! retained scan-the-world reference stepper, which steps every enabled
//! configuration every cycle:
//!
//! * `saturated` — input queues never run dry, every object fires as often
//!   as the token handshake allows, and both configurations stay awake.
//!   The production stepper's gain here is only what it saves over the
//!   oracle's naive loop.
//! * `rate_matched` — data arrives at the over-the-air rate while the array
//!   clock runs free, the regime the paper's terminals actually operate in
//!   (an XPP clocked at tens of MHz against 3.84 Mcps W-CDMA chips and
//!   250 kbaud OFDM symbols spends most cycles waiting for data). Each
//!   configuration sleeps through the wait, which costs the production
//!   stepper nothing and the scan a full sweep per cycle.
//!
//! The `report` arm times both in interleaved slices, prints the absolute
//! cycles/s recorded in `BENCH_ARRAY.json` and EXPERIMENTS.md, and CI-fails
//! if production falls below a floor over the reference on either shape.
//! Only the 4× floor on `rate_matched` is a gate: it fails if the sleep
//! rule breaks. The 0.95× floor on `saturated` is a smoke check, not a
//! regression gate: both steppers visit every object every cycle there,
//! so it fails only if production falls behind the naive loop, and a
//! 10–15 % slowdown of the production pass would pass it.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sdr_ofdm::xpp_map::fft64_netlist;
use sdr_wcdma::xpp_map::despreader_multiplexed_netlist;
use xpp_array::array::with_reference_stepper;
use xpp_array::{Array, ConfigId, Word};

/// Cycles stepped per measured iteration (both workload shapes).
pub const CYCLES: u64 = 20_000;

/// Rate-matched shape: bursts per iteration and array cycles per burst.
const SLOTS: u64 = 5;
const SLOT_CYCLES: u64 = CYCLES / SLOTS;

/// Minimum `reference time ÷ production time` per shape (best-round
/// median slice), set from the measured ratios (1.05–1.14× and 7.8–8.1×
/// over seven runs on a 2-core host) with room for host noise. The
/// `saturated` floor is a smoke bound, not a gate (module docs).
const FLOORS: [(&str, f64); 2] = [("saturated", 0.95), ("rate_matched", 4.0)];

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
fn saturated_array_n(words: i32) -> Array {
    let (mut array, fft, dsp) = loaded_array();
    feed(&mut array, fft, dsp, 1, [words, words]);
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
    feed(array, fft, dsp, slot as i32, [64, 128]);
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
    g.bench_function("production_saturated", |b| {
        b.iter_batched(
            saturated_array,
            |mut a| {
                a.run(CYCLES);
                a.stats()
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("reference_saturated", |b| {
        b.iter_batched(
            || with_reference_stepper(saturated_array),
            |mut a| {
                a.run(CYCLES);
                a.stats()
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("production_rate_matched", |b| {
        b.iter_batched(
            loaded_array,
            |(a, fft, dsp)| run_rate_matched(a, fft, dsp),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("reference_rate_matched", |b| {
        b.iter_batched(
            || with_reference_stepper(loaded_array),
            |(a, fft, dsp)| run_rate_matched(a, fft, dsp),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Not a measurement: asserts both steppers produce identical stats on
/// both workload shapes, so the speedup numbers always compare like for
/// like.
fn bench_sanity(c: &mut Criterion) {
    c.bench_function("array_step/equivalence_check", |b| {
        b.iter_batched(
            || {
                (
                    saturated_array(),
                    with_reference_stepper(saturated_array),
                    loaded_array(),
                    with_reference_stepper(loaded_array),
                )
            },
            |(mut fast, mut slow, burst_fast, burst_slow)| {
                fast.run(CYCLES);
                slow.run(CYCLES);
                assert_eq!(fast.stats(), slow.stats());
                let (a, fft, dsp) = burst_fast;
                let (b, fft2, dsp2) = burst_slow;
                assert_eq!(
                    run_rate_matched(a, fft, dsp),
                    run_rate_matched(b, fft2, dsp2)
                );
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

/// Not a timing measurement in criterion's sense: times both steppers
/// inline on both shapes, prints the BENCH_ARRAY.json report numbers, and
/// asserts each shape's floor over the reference.
fn bench_report(_c: &mut Criterion) {
    /// Saturated warm-up before the timed window (pipelines full) and
    /// cycles per slice.
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
    let shapes = [&saturated, &rate_matched];
    for ((shape, floor), r) in FLOORS.into_iter().zip(shapes) {
        let [production, reference] = r.cycles_per_s;
        eprintln!(
            "  {shape:<13} production {production:>10.0}  reference {reference:>10.0} \
             cycles/s   production vs reference {:.2}x (best round median slice; \
             floor {floor}x)",
            r.production_vs_reference
        );
    }
    for ((shape, floor), r) in FLOORS.into_iter().zip(shapes) {
        assert!(
            r.production_vs_reference >= floor,
            "the production stepper must hold >= {floor}x the reference on the {shape} \
             shape: median slice ratio {:.2}x",
            r.production_vs_reference
        );
    }
}

criterion_group! {
    name = array_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_array_step, bench_sanity, bench_report
}
criterion_main!(array_benches);
