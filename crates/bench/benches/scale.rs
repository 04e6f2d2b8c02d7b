//! Million-terminal scale bench for the session front-end.
//!
//! Closed-loop arrival process: seeded Poisson arrivals (inverse-CDF
//! exponential interarrivals from `sdr_dsp::rng::Rng64`), mixed W-CDMA /
//! OFDM terminals, driven through `sdr_engine::frontend::Frontend` — the
//! parking-lot control plane that shrinks every waiting terminal to a
//! ~40-byte record and materialises only a bounded window over the real
//! `ShardPool`.
//!
//! Arms:
//!
//! * `park_1m` (the headline, asserted by `bench_report` in CI): admit
//!   **1,000,000** terminals as parked records at moderate offered load
//!   (rho ~0.4), hold them all resident, then process a bounded sample
//!   through the real worker pool. Reports peak sessions resident,
//!   heap bytes/parked-session (budget: 64), p99 deadline slack and the
//!   shed rate of the processed window.
//! * `sweep` — offered-load sweep rho in {0.25, 0.5, 1.0, 2.0} with a
//!   smaller population run to completion, reporting p99/min modeled
//!   slack and shed rate per load point (the `BENCH_SCALE.json` table).
//!
//! Criterion times the two hot mechanisms (parking throughput and
//! mid-pipeline rehydration); the scale numbers themselves come from
//! `bench_report`, which is not a timing measurement.
//!
//! Slack and shedding are computed by the front-end's deterministic
//! virtual-time admission model (one virtual server per array,
//! 3 x job_cycles modeled service per frame), so every figure this bench
//! prints is bit-reproducible; kernel outcomes (Done/Failed) come from
//! the real simulated arrays.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sdr_dsp::rng::Rng64;
use sdr_engine::frontend::parking::ParkingLot;
use sdr_engine::frontend::{Frontend, ScaleSummary, OFDM_SERVICE_CYCLES, WCDMA_SERVICE_CYCLES};
use sdr_engine::{EngineConfig, ParkedSession, Session};

/// Headline arm: terminals parked concurrently.
const PARKED_TARGET: u64 = 1_000_000;

/// Frames actually processed through the real pool in the headline arm
/// (the parked mass stays resident the whole time).
const PROCESSED_SAMPLE: u64 = 200;

/// Terminals per offered-load sweep point (each run to completion).
const SWEEP_TERMINALS: u64 = 256;

/// Worker set both arms multiplex over: 4 shards x 1 array.
const WORKERS: u64 = 4;

/// Heap budget per parked session (bytes) the report asserts against.
const BYTES_PER_PARKED_BUDGET: f64 = 64.0;

/// Shed-rate target at moderate load (rho <= 0.5).
const MODERATE_SHED_TARGET: f64 = 0.01;

fn avg_service_cycles() -> f64 {
    (WCDMA_SERVICE_CYCLES + OFDM_SERVICE_CYCLES) as f64 / 2.0
}

fn frontend(parking_capacity: usize) -> Frontend {
    Frontend::new(EngineConfig {
        shards: WORKERS as usize,
        arrays_per_shard: 1,
        queue_depth: 32,
        parking_capacity,
        ..EngineConfig::default()
    })
}

fn open_loop(_: &Session, _: u64) -> Option<ParkedSession> {
    None
}

/// Admits `n` terminals with seeded Poisson arrivals at offered load
/// `rho` (fraction of the worker set's modeled service capacity).
fn admit_poisson(fe: &mut Frontend, seed: u64, n: u64, rho: f64) {
    let mean_interarrival = avg_service_cycles() / (rho * WORKERS as f64);
    let mut rng = Rng64::seed_from_u64(seed);
    let mut arrival = 0u64;
    for id in 0..n {
        let u = rng.next_f64().max(1e-12);
        arrival += (-mean_interarrival * u.ln()).ceil() as u64;
        let rec = if rng.next_u64().is_multiple_of(2) {
            ParkedSession::new_wcdma(id, seed ^ (id.wrapping_mul(0x9e37_79b9)), arrival)
        } else {
            ParkedSession::new_ofdm(id, seed ^ (id.wrapping_mul(0x7f4a_7c15)), arrival)
        };
        fe.admit(rec);
    }
}

/// The headline arm. Returns the run summary plus the bytes/parked
/// figure measured at full (1M) occupancy.
fn run_park_million() -> (ScaleSummary, f64) {
    let mut fe = frontend(PARKED_TARGET as usize);
    admit_poisson(&mut fe, 0x5CA1E, PARKED_TARGET, 0.4);
    let bytes_per_parked = fe.bytes_per_parked().unwrap_or(f64::INFINITY);
    let summary = fe.run_limited(PROCESSED_SAMPLE, &mut open_loop);
    (summary, bytes_per_parked)
}

/// One offered-load sweep point, run to completion.
fn run_sweep_point(rho: f64, seed: u64) -> ScaleSummary {
    let mut fe = frontend(SWEEP_TERMINALS as usize);
    admit_poisson(&mut fe, seed, SWEEP_TERMINALS, rho);
    fe.run(&mut open_loop)
}

fn bench_scale_mechanisms(c: &mut Criterion) {
    let mut g = c.benchmark_group("scale");

    // Parking throughput: how fast terminals shrink into the lot.
    const PARK_BATCH: u64 = 100_000;
    g.bench_function("park_100k", |b| {
        b.iter_batched(
            || {
                let mut rng = Rng64::seed_from_u64(7);
                let records: Vec<ParkedSession> = (0..PARK_BATCH)
                    .map(|id| ParkedSession::new_wcdma(id, rng.next_u64(), id * 100))
                    .collect();
                (ParkingLot::with_capacity(PARK_BATCH as usize), records)
            },
            |(mut lot, records)| {
                for rec in records {
                    lot.park(rec);
                }
                lot.len()
            },
            BatchSize::PerIteration,
        )
    });

    // Rehydration cost: parked record -> full session (capture replayed
    // from the seed, DSP state words restored).
    let mut mid = Session::wcdma(3, 0xD5B);
    // Advance to Tracking so the rehydrate path restores state words.
    let pool_cfg = EngineConfig {
        shards: 1,
        ..Default::default()
    };
    let metrics = std::sync::Arc::new(sdr_engine::Metrics::new());
    let pool = sdr_engine::ShardPool::new(pool_cfg, metrics);
    for _ in 0..2 {
        pool.submit(mid).expect("queue empty");
        mid = pool.recv().expect("worker alive");
    }
    drop(pool);
    let record = mid.park().expect("mid-pipeline sessions park");
    g.bench_function("rehydrate_tracking", |b| {
        b.iter(|| Session::rehydrate(&record))
    });

    g.finish();
}

/// Not a timing measurement: runs the headline arm and the offered-load
/// sweep once, prints every figure `BENCH_SCALE.json` records, and
/// asserts the PR's acceptance criteria so CI fails on regression.
fn bench_report(_c: &mut Criterion) {
    let (headline, bytes_per_parked) = run_park_million();
    eprintln!(
        "scale/report park_1m ({PARKED_TARGET} terminals admitted, rho 0.4, \
         {WORKERS} workers):"
    );
    eprintln!(
        "  peak parked {} | peak resident {} | {bytes_per_parked:.1} heap B/parked \
         (budget {BYTES_PER_PARKED_BUDGET})",
        headline.peak_parked, headline.peak_resident,
    );
    eprintln!(
        "  processed sample: {} frames ({} done, {} failed) | shed {} | \
         p99 slack {:?} cycles | still parked {}",
        headline.frames_completed,
        headline.done,
        headline.failed,
        headline.shed.len(),
        headline.p99_slack(),
        headline.still_parked,
    );

    assert!(
        headline.peak_parked >= PARKED_TARGET,
        "headline: {} parked < {PARKED_TARGET}",
        headline.peak_parked
    );
    assert!(
        bytes_per_parked <= BYTES_PER_PARKED_BUDGET,
        "bytes/parked {bytes_per_parked:.1} over budget"
    );
    assert!(
        headline.frames_completed >= PROCESSED_SAMPLE,
        "processed sample incomplete: {}",
        headline.frames_completed
    );
    assert_eq!(
        headline.frames_completed, headline.done,
        "every processed frame must end Done"
    );
    assert!(
        headline.shed.is_empty(),
        "no shedding at rho 0.4 in the processed window"
    );
    let p99 = headline.p99_slack().unwrap_or(i64::MIN);
    assert!(p99 > 0, "p99 slack must stay positive at rho 0.4: {p99}");

    eprintln!("scale/report sweep ({SWEEP_TERMINALS} terminals per point, run to completion):");
    eprintln!("  rho    offered  completed  shed%   p99 slack  min slack");
    for (i, rho) in [0.25f64, 0.5, 1.0, 2.0].into_iter().enumerate() {
        let s = run_sweep_point(rho, 0xF10 + i as u64);
        eprintln!(
            "  {rho:<5}  {:>7}  {:>9}  {:>5.1}  {:>9}  {:>9}",
            s.offered(),
            s.frames_completed,
            100.0 * s.shed_rate(),
            s.p99_slack().unwrap_or(i64::MIN),
            s.min_slack().unwrap_or(i64::MIN),
        );
        assert_eq!(
            s.frames_completed + s.shed.len() as u64,
            SWEEP_TERMINALS,
            "rho {rho}: every offered frame completes or sheds"
        );
        if rho <= 0.5 {
            assert!(
                s.shed_rate() <= MODERATE_SHED_TARGET,
                "rho {rho}: shed rate {:.3} over the {MODERATE_SHED_TARGET} target",
                s.shed_rate()
            );
        }
    }
}

criterion_group! {
    name = scale_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scale_mechanisms, bench_report
}
criterion_main!(scale_benches);
