//! Front-end backpressure and determinism guarantees.
//!
//! 1. Flow control is by credit: the driver rehydrates a record only into
//!    a free slot of `min(max_resident, pool capacity)`, so a 1×1 pool —
//!    or any pool behind the affinity router — never refuses one, and each
//!    frame is rehydrated exactly once.
//! 2. The refusal that is left, `WouldBlock` from one full shard queue
//!    under static placement, *parks* the session — no submitter thread
//!    ever blocks. With every worker paused the driver keeps returning
//!    from `pump`, bouncing exactly the records it had credit for;
//!    resuming the pool drains them all to completion, and the driver
//!    waits for a hand-back between passes instead of spinning.
//! 3. A seeded open-loop Poisson arrival run is bit-deterministic: two
//!    executions produce identical outcome counts, shed lists, and
//!    modeled slack vectors (the virtual-time admission model is a pure
//!    function of the admission sequence, independent of real thread
//!    scheduling).
//! 4. Under overload that model is plain least-loaded admission: a
//!    512-terminal run at twice the modeled capacity sheds exactly the
//!    frames, and reports exactly the slack, that a ten-line oracle over
//!    the same records computes.

mod common;

use std::time::Instant;

use common::{mixed_records, skewed_records, under_both_drivers, Driver};
use sdr_dsp::rng::Rng64;
use sdr_engine::frontend::{Frontend, ScaleSummary, OFDM_SERVICE_CYCLES, WCDMA_SERVICE_CYCLES};
use sdr_engine::{EngineConfig, ParkedSession, PlacementPolicy, Session, Standard};

fn open_loop(_: &Session, _: u64) -> Option<ParkedSession> {
    None
}

/// A 1×1 pool with a two-deep queue under an eight-wide `max_resident`:
/// the shape on which the driver used to rehydrate, be refused and re-park
/// thousands of times per completed frame.
fn narrow_1x1() -> EngineConfig {
    EngineConfig {
        shards: 1,
        arrays_per_shard: 1,
        queue_depth: 2,
        max_resident: 8,
        ..EngineConfig::default()
    }
}

/// Two shards with two-deep queues under static placement, offered
/// [`skewed_records`]: shard 0's queue takes everything, shard 1's half of
/// the window (4) is credit the pool cannot honour.
fn static_skew() -> EngineConfig {
    EngineConfig {
        shards: 2,
        arrays_per_shard: 1,
        queue_depth: 2,
        max_resident: 8,
        placement: PlacementPolicy::Static,
        ..EngineConfig::default()
    }
}

#[test]
fn the_window_offers_the_pool_only_what_it_can_take() {
    let mut fe = Frontend::new(EngineConfig {
        start_paused: true,
        ..narrow_1x1()
    });
    assert_eq!(fe.window(), 2, "max_resident 8 clamped to the one queue");
    for id in 0..6u64 {
        fe.admit(ParkedSession::new_wcdma(id, 100 + id, 0));
    }

    fe.pump(&mut open_loop);
    let snapshot = fe.snapshot();
    assert_eq!((fe.materialised(), fe.parked()), (2, 4));
    assert_eq!(snapshot.rehydrations, 2, "one rehydration per queue slot");
    assert_eq!(snapshot.backpressure_parks, 0);
    assert_eq!(snapshot.jobs_rejected, 0);

    fe.pool().resume(0);
    let summary = fe.run(&mut open_loop);
    assert_eq!(summary.done, 6);
    assert_eq!(summary.snapshot.rehydrations, 6, "once per frame");
    assert_eq!(summary.snapshot.backpressure_parks, 0);

    under_both_drivers(&narrow_1x1(), &mixed_records(48), |driver, _, summary| {
        assert_eq!(summary.done, 48, "{driver:?}");
        assert_eq!(summary.snapshot.rehydrations, 48, "once per frame");
        assert_eq!(summary.snapshot.backpressure_parks, 0);
    });
}

#[test]
fn would_block_parks_instead_of_blocking_the_submitter() {
    let mut fe = Frontend::new(EngineConfig {
        start_paused: true,
        ..static_skew()
    });
    assert_eq!(fe.window(), 4);
    for record in skewed_records(6, 2) {
        fe.admit(record);
    }

    // With both workers paused, shard 0's queue takes `queue_depth`
    // submissions; the rest of the window must bounce and park. pump()
    // must return promptly — if WouldBlock blocked the submitter this
    // would hang forever.
    let start = Instant::now();
    fe.pump(&mut open_loop);
    assert!(
        start.elapsed().as_secs() < 5,
        "pump blocked on a full shard queue"
    );

    let snapshot = fe.snapshot();
    assert_eq!(snapshot.rehydrations, 4, "the window's worth, no more");
    assert_eq!(
        (snapshot.backpressure_parks, snapshot.jobs_rejected),
        (2, 2),
        "a window of 4 into a depth-2 queue bounces exactly 2, each a \
         refusal by the shard: one pass bounces a record at most once"
    );
    assert_eq!(fe.materialised(), 2, "the queue's two slots are in flight");
    assert_eq!(fe.parked(), 4, "bounced sessions sit in the parking lot");
    assert!(snapshot.sessions_parked as usize == fe.parked());

    // Every later pass has credit for the two slots shard 1 would hold
    // and bounces exactly those, without blocking and without progress.
    for pass in 2..=4u64 {
        assert_eq!(fe.pump(&mut open_loop), 0, "a bounce is not progress");
        assert_eq!(fe.snapshot().backpressure_parks, 2 * pass);
        assert_eq!((fe.materialised(), fe.parked()), (2, 4));
    }

    // Resume the workers: everything drains to completion.
    fe.pool().resume(0);
    fe.pool().resume(1);
    let summary = fe.run(&mut open_loop);
    assert_eq!(summary.frames_completed, 6);
    assert_eq!(summary.done, 6);
    assert_eq!(summary.still_parked, 0);
    assert!(
        summary.snapshot.rehydrations > 6,
        "re-parks rehydrated again"
    );
}

/// The sleep: a pass that only bounced leaves `run` waiting for a
/// hand-back. While a bounce counted as progress this shape spun through
/// some 48,000 re-parks (1,000 per frame); waiting, it reads a few dozen.
#[test]
fn a_full_shard_is_waited_for_not_spun_on() {
    const FRAMES: u64 = 48;
    // `static_skew()`'s window: 2 shards × 2 slots under `max_resident` 8.
    const WINDOW: u64 = 4;
    // A pass follows a hand-back (3 per frame) or an accepted record and
    // bounces at most window − queue_depth = 2 records, which caps the
    // count near 820 however the threads race (measured: 11 to 250, the
    // latter on an oversubscribed host). Twice `window × 3 × frames` is
    // loose on purpose; a spin overshoots it forty-fold. In lockstep the
    // driver runs a pass after every round, and the count is exact.
    let bound = 2 * WINDOW * 3 * FRAMES;
    under_both_drivers(
        &static_skew(),
        &skewed_records(FRAMES, 2),
        |driver, outcomes, summary| {
            assert_eq!(outcomes.len() as u64, FRAMES);
            assert_eq!(summary.done, FRAMES);
            let parks = summary.snapshot.backpressure_parks;
            assert!(
                parks <= bound,
                "{driver:?}: {parks} re-parks over {FRAMES} frames (bound {bound}): the driver \
                 is spinning on a full shard queue instead of waiting for a hand-back"
            );
            if driver == Driver::Lockstep {
                assert_eq!(parks, 6, "re-parks in lockstep");
            }
            assert_eq!(
                summary.snapshot.rehydrations,
                FRAMES + parks,
                "one rehydration per frame and one per re-park"
            );
        },
    );
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

/// Admits the records and runs the open loop until every terminal left.
fn run_records(config: EngineConfig, records: &[ParkedSession]) -> ScaleSummary {
    let mut fe = Frontend::new(EngineConfig {
        parking_capacity: records.len(),
        ..config
    });
    for &record in records {
        fe.admit(record);
    }
    fe.run(&mut open_loop)
}

fn poisson_run(seed: u64, n: u64, mean_interarrival: f64) -> ScaleSummary {
    let config = EngineConfig {
        shards: 2,
        queue_depth: 8,
        max_resident: 16,
        ..EngineConfig::default()
    };
    run_records(config, &poisson_records(seed, n, mean_interarrival))
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
        max_resident: 64,
        ..EngineConfig::default()
    };
    let mean_service = (WCDMA_SERVICE_CYCLES + OFDM_SERVICE_CYCLES) as f64 / 2.0;
    let mut records = poisson_records(0xE5C0E, 512, mean_service / (2.0 * WORKERS as f64));
    let summary = run_records(config.clone(), &records);

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
