//! Deadline rescue vs plain shedding under sustained overload.
//!
//! Both arms drive the same seeded Poisson arrival process — mixed
//! W-CDMA / OFDM terminals at offered load **rho = 2** (twice the worker
//! set's modeled service capacity) — through the front-end. At
//! rho 2 the virtual-time admission model *must* drop frames; the only
//! question is how many.
//!
//! * `overload_rescue_off` — the seed behaviour: any frame whose modeled
//!   completion would land more than `shed_lateness_cycles` past its
//!   deadline is shed outright.
//! * `overload_rescue_on` — the same build with `rescue_migration`
//!   enabled: before shedding, the admission model charges the frame to
//!   the shard it last homed the frame's standard on and admits it there
//!   with the rescue grace (the avoided configuration-load tax), shedding
//!   only when even the warm shard cannot make the extended window.
//!
//! This is an admission-model policy, not a migration mechanism: it
//! decides whether a frame runs, and the router places the admitted frame
//! like any other. The figures below are the model's; the bench never
//! asks the pool where a rescued frame ran.
//!
//! Criterion measures wall time; `bench_report` runs each arm once,
//! prints the counters `BENCH_RESCUE.json` records, and asserts the
//! acceptance criteria: rescue must *strictly* lower the shed count at
//! identical arrivals, with at least one actual rescue. Both arms are
//! pure functions of the admission sequence (the model is virtual-time,
//! not wall-clock), so every figure is bit-reproducible.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sdr_dsp::rng::Rng64;
use sdr_engine::frontend::{Frontend, ScaleSummary, OFDM_SERVICE_CYCLES, WCDMA_SERVICE_CYCLES};
use sdr_engine::{EngineConfig, Metrics, ParkedSession, Session, Snapshot};
use std::sync::Arc;

/// Terminals per arm (each run to completion).
const TERMINALS: u64 = 512;

/// Offered load: twice the worker set's modeled service capacity.
const RHO: f64 = 2.0;

/// Worker set both arms multiplex over: 4 shards x 1 array.
const WORKERS: u64 = 4;

/// Arrival seed shared by both arms — identical arrival sequences is the
/// whole point of the comparison.
const SEED: u64 = 0xE5C0E;

fn avg_service_cycles() -> f64 {
    (WCDMA_SERVICE_CYCLES + OFDM_SERVICE_CYCLES) as f64 / 2.0
}

fn frontend(rescue: bool) -> (Frontend, Arc<Metrics>) {
    let metrics = Arc::new(Metrics::new());
    let fe = Frontend::with_metrics(
        EngineConfig {
            shards: WORKERS as usize,
            arrays_per_shard: 1,
            queue_depth: 32,
            max_resident: 64,
            parking_capacity: TERMINALS as usize,
            rescue_migration: rescue,
            ..EngineConfig::default()
        },
        Arc::clone(&metrics),
    );
    (fe, metrics)
}

fn open_loop(_: &Session, _: u64) -> Option<ParkedSession> {
    None
}

/// Admits `n` terminals with seeded Poisson arrivals at offered load
/// `rho` (the scale bench's arrival process, verbatim).
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

fn run_arm(rescue: bool) -> (ScaleSummary, Snapshot) {
    let (mut fe, metrics) = frontend(rescue);
    admit_poisson(&mut fe, SEED, TERMINALS, RHO);
    let summary = fe.run(&mut open_loop);
    let snap = metrics.snapshot();
    drop(fe);
    (summary, snap)
}

fn bench_rescue(c: &mut Criterion) {
    let mut g = c.benchmark_group("rescue");
    for (label, rescue) in [("overload_rescue_off", false), ("overload_rescue_on", true)] {
        g.bench_function(label, |b| {
            b.iter_batched(
                || frontend(rescue),
                |(mut fe, metrics)| {
                    admit_poisson(&mut fe, SEED, TERMINALS, RHO);
                    let summary = fe.run(&mut open_loop);
                    drop(fe);
                    (
                        summary.frames_completed,
                        metrics.snapshot().deadline_rescues,
                    )
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

/// Not a timing measurement: runs each arm once, prints the counters
/// BENCH_RESCUE.json records, and asserts the PR's acceptance criteria
/// so CI fails if rescue stops paying under overload.
fn bench_report(_c: &mut Criterion) {
    let (off, off_snap) = run_arm(false);
    let (on, on_snap) = run_arm(true);

    eprintln!(
        "rescue/report ({TERMINALS} mixed terminals, Poisson arrivals at rho {RHO}, \
         {WORKERS} workers):"
    );
    eprintln!(
        "  rescue_off: {} done, {} shed (shed rate {:.1}%), p99 slack {:?}",
        off.done,
        off.shed.len(),
        100.0 * off.shed_rate(),
        off.p99_slack(),
    );
    eprintln!(
        "  rescue_on:  {} done, {} shed (shed rate {:.1}%), p99 slack {:?}, \
         {} deadline rescues",
        on.done,
        on.shed.len(),
        100.0 * on.shed_rate(),
        on.p99_slack(),
        on_snap.deadline_rescues,
    );
    eprintln!(
        "  shed reduction: {} -> {} frames ({:.1}% of the seed's sheds rescued)",
        off.shed.len(),
        on.shed.len(),
        100.0 * (off.shed.len() - on.shed.len()) as f64 / off.shed.len().max(1) as f64,
    );

    // Identical arrivals, so the populations reconcile arm-by-arm.
    assert_eq!(
        off.frames_completed + off.shed.len() as u64,
        TERMINALS,
        "rescue_off: every offered frame completes or sheds"
    );
    assert_eq!(
        on.frames_completed + on.shed.len() as u64,
        TERMINALS,
        "rescue_on: every offered frame completes or sheds"
    );
    assert_eq!(off_snap.deadline_rescues, 0, "policy off must never rescue");
    assert!(
        off.shed.len() > on.shed.len(),
        "rescue must strictly lower the shed count at rho {RHO}: \
         {} (off) vs {} (on)",
        off.shed.len(),
        on.shed.len(),
    );
    assert!(
        on_snap.deadline_rescues >= 1,
        "the overload must actually exercise the rescue path"
    );
    assert!(
        on.shed.len() as u64 + on_snap.deadline_rescues >= off.shed.len() as u64,
        "every removed shed must be explained by a rescue"
    );
}

criterion_group! {
    name = rescue_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_rescue, bench_report
}
criterion_main!(rescue_benches);
