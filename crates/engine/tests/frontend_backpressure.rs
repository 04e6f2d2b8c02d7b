//! Front-end flow control and determinism guarantees.
//!
//! 1. Flow control is by credit: the driver rehydrates a record only into
//!    a free slot of `min(64, shards × queue_depth)`, so the pool never
//!    refuses one and each frame is rehydrated exactly once — on every
//!    pool shape and queue depth, for a mixed stream, an all-OFDM burst
//!    and ids an id-hashing placement would pile onto one shard, under
//!    both drivers. The lockstep runs' counters are pinned in
//!    `tests/pins/engine.tsv`.
//! 2. A seeded open-loop Poisson arrival run is bit-deterministic: two
//!    executions produce identical outcome counts, shed lists, and
//!    modeled slack vectors (the virtual-time admission model is a pure
//!    function of the admission sequence, independent of real thread
//!    scheduling).
//! 3. Under overload that model is plain least-loaded admission: a
//!    512-terminal run at twice the modeled capacity sheds exactly the
//!    frames, and reports exactly the slack, that a ten-line oracle over
//!    the same records computes.

mod common;

use std::sync::Arc;

use common::{mixed_records, never_shed, run, skewed_records, Driver, Pins};
use sdr_dsp::rng::Rng64;
use sdr_engine::frontend::{Frontend, ScaleSummary, OFDM_SERVICE_CYCLES, WCDMA_SERVICE_CYCLES};
use sdr_engine::{EngineConfig, Metrics, ParkedSession, Session, Standard};

fn open_loop(_: &Session, _: u64) -> Option<ParkedSession> {
    None
}

#[test]
fn the_window_offers_the_pool_only_what_it_can_take() {
    let narrow_1x1 = EngineConfig {
        shards: 1,
        arrays_per_shard: 1,
        queue_depth: 2,
        ..EngineConfig::default()
    };
    let mut fe = Frontend::lockstep(narrow_1x1, Arc::new(Metrics::new()));
    assert_eq!(fe.window(), 2, "the one two-deep queue");
    for id in 0..6u64 {
        fe.admit(ParkedSession::new_wcdma(id, 100 + id, 0));
    }

    fe.pump(&mut open_loop);
    let snapshot = fe.snapshot();
    assert_eq!((fe.materialised(), fe.parked()), (2, 4));
    assert_eq!(snapshot.rehydrations, 2, "one rehydration per queue slot");
    assert_eq!(snapshot.jobs_rejected, 0);

    let summary = fe.run(&mut open_loop);
    assert_eq!(summary.done, 6);
    assert_eq!(summary.snapshot.rehydrations, 6, "once per frame");

    // The table: every shape and queue depth, three offered streams.
    const FRAMES: u64 = 24;
    let ofdm_burst: Vec<ParkedSession> = (0..FRAMES)
        .map(|id| ParkedSession::new_ofdm(id, 0x0FD + id, 0))
        .collect();
    let workloads = [
        ("mixed", mixed_records(FRAMES)),
        ("ofdm burst", ofdm_burst),
        ("skewed", skewed_records(FRAMES, 2)),
    ];
    let mut pins = Pins::new("the_window_offers_the_pool_only_what_it_can_take");
    for (shards, arrays_per_shard) in [(1, 1), (2, 1), (2, 2), (4, 1)] {
        for queue_depth in [1, 2, 32] {
            let config = EngineConfig {
                shards,
                arrays_per_shard,
                queue_depth,
                ..never_shed()
            };
            for (name, records) in &workloads {
                let key = [name, "-", "-"];
                pins.both(&config, key, &[], records, |driver, _, summary| {
                    let label = format!(
                        "{shards}x{arrays_per_shard} depth {queue_depth} {name} {driver:?}"
                    );
                    let snap = &summary.snapshot;
                    assert_eq!(summary.done, FRAMES, "{label}");
                    assert_eq!(
                        (
                            snap.jobs_rejected,
                            snap.backpressure_parks,
                            snap.rehydrations
                        ),
                        (0, 0, FRAMES),
                        "{label}: nothing refused, one rehydration per frame"
                    );
                    assert!(
                        snap.queue_high_water <= queue_depth as u64,
                        "{label}: a shard owned more than its depth: {snap}"
                    );
                });
            }
        }
    }
    pins.check();
}

/// `n` seeded open-loop Poisson arrivals: exponential interarrivals with
/// the given mean (in array cycles), mixed standards — the arrival process
/// of the scale bench's overload sweep.
fn poisson_records(seed: u64, n: u64, mean_interarrival: f64) -> Vec<ParkedSession> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut arrival = 0u64;
    (0..n)
        .map(|id| {
            // Inverse-CDF exponential draw; clamp the uniform away from 0.
            let u = rng.next_f64().max(1e-12);
            arrival += (-mean_interarrival * u.ln()).ceil() as u64;
            if rng.next_u64().is_multiple_of(2) {
                ParkedSession::new_wcdma(id, seed ^ id.wrapping_mul(0x9e37_79b9), arrival)
            } else {
                ParkedSession::new_ofdm(id, seed ^ id.wrapping_mul(0x7f4a_7c15), arrival)
            }
        })
        .collect()
}

fn poisson_run(seed: u64, n: u64, mean_interarrival: f64) -> ScaleSummary {
    let config = EngineConfig {
        shards: 2,
        queue_depth: 8,
        parking_capacity: n as usize,
        ..EngineConfig::default()
    };
    let records = poisson_records(seed, n, mean_interarrival);
    run(Driver::Threads, config, &[], &records).1
}

#[test]
fn seeded_poisson_arrivals_are_bit_deterministic() {
    let a = poisson_run(0xC0FFEE, 64, 400.0);
    let b = poisson_run(0xC0FFEE, 64, 400.0);

    // Everything the virtual-time model reports must match bit-for-bit.
    // (Peak gauges and the raw metrics snapshot are excluded: they
    // depend on real thread interleaving, not on session outcomes.)
    assert_eq!(a.frames_completed, b.frames_completed);
    assert_eq!(a.done, b.done);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.dead_lettered, b.dead_lettered);
    assert_eq!(a.shed, b.shed, "shed decisions are deterministic");
    assert_eq!(
        a.slack_cycles, b.slack_cycles,
        "modeled slack is bit-identical across executions"
    );
    assert_eq!(a.p99_slack(), b.p99_slack());
    assert_eq!(a.min_slack(), b.min_slack());
    assert_eq!(a.still_parked, 0);
    assert_eq!(b.still_parked, 0);
    assert_eq!(a.frames_completed + a.shed.len() as u64, 64);

    // A different seed genuinely changes the workload (the test is not
    // vacuous).
    let c = poisson_run(0xBEEF, 64, 400.0);
    assert_ne!(a.slack_cycles, c.slack_cycles);
}

/// The admission rule, pinned under overload: 512 mixed terminals offered
/// at twice the modeled capacity of 4 × 1 arrays. The front-end must shed
/// and report slack exactly as plain least-loaded admission does — fresh
/// records in (deadline, id) order, least-loaded virtual server, lowest
/// index on a tie, shed when the modeled completion overruns the deadline
/// by more than `shed_lateness_cycles`.
#[test]
fn overload_admission_is_plain_least_loaded() {
    const WORKERS: usize = 4;
    let config = EngineConfig {
        shards: WORKERS,
        arrays_per_shard: 1,
        queue_depth: 32,
        parking_capacity: 512,
        ..EngineConfig::default()
    };
    let mean_service = (WCDMA_SERVICE_CYCLES + OFDM_SERVICE_CYCLES) as f64 / 2.0;
    let mut records = poisson_records(0xE5C0E, 512, mean_service / (2.0 * WORKERS as f64));
    let summary = run(Driver::Threads, config.clone(), &[], &records).1;

    assert_eq!(summary.done, 287);
    assert_eq!(summary.shed.len(), 225);
    assert_eq!(summary.p99_slack(), Some(-66_639));

    records.sort_by_key(|r| (r.deadline(), r.id()));
    let mut free_at = [0u64; WORKERS];
    let (mut shed, mut slack) = (Vec::new(), Vec::new());
    for r in &records {
        let server = (0..WORKERS).min_by_key(|&i| (free_at[i], i)).unwrap();
        let service = match r.standard() {
            Standard::Wcdma => WCDMA_SERVICE_CYCLES,
            Standard::Ofdm => OFDM_SERVICE_CYCLES,
        };
        let completes = free_at[server].max(r.arrival()) + service;
        if completes.saturating_sub(r.deadline()) > config.shed_lateness_cycles {
            shed.push(r.id());
        } else {
            free_at[server] = completes;
            slack.push(r.deadline() as i64 - completes as i64);
        }
    }
    assert_eq!(summary.shed, shed, "shed decisions match the oracle");
    assert_eq!(
        summary.slack_cycles, slack,
        "modeled slack matches the oracle"
    );
}
