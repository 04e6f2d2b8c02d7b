//! Front-end backpressure and determinism guarantees.
//!
//! 1. `WouldBlock` from a full shard queue *parks* the session — no
//!    submitter thread ever blocks. With every worker paused the driver
//!    keeps returning from `pump` while bounced sessions pile up in the
//!    parking lot with growing backoff; resuming the pool drains them
//!    all to completion.
//! 2. A seeded open-loop Poisson arrival run is bit-deterministic: two
//!    executions produce identical outcome counts, shed lists, and
//!    modeled slack vectors (the virtual-time admission model is a pure
//!    function of the admission sequence, independent of real thread
//!    scheduling).

use std::time::Instant;

use sdr_dsp::rng::Rng64;
use sdr_engine::frontend::{Frontend, ScaleSummary};
use sdr_engine::{EngineConfig, ParkedSession, Session};

fn open_loop(_: &Session, _: u64) -> Option<ParkedSession> {
    None
}

#[test]
fn would_block_parks_instead_of_blocking_the_submitter() {
    let mut fe = Frontend::new(EngineConfig {
        shards: 1,
        arrays_per_shard: 1,
        queue_depth: 2,
        max_resident: 8,
        start_paused: true,
        ..EngineConfig::default()
    });
    for id in 0..6u64 {
        fe.admit(ParkedSession::new_wcdma(id, 100 + id, 0));
    }

    // With the only worker paused, at most `queue_depth` submissions fit;
    // the rest must bounce and park. pump() must return promptly — if
    // WouldBlock blocked the submitter this would hang forever.
    let start = Instant::now();
    fe.pump(&mut open_loop);
    assert!(
        start.elapsed().as_secs() < 5,
        "pump blocked on a full shard queue"
    );

    let snapshot = fe.snapshot();
    assert_eq!(
        snapshot.backpressure_parks, 4,
        "6 sessions into a depth-2 queue bounce exactly 4 times: one pass \
         bounces a record at most once"
    );
    assert!(
        snapshot.jobs_rejected >= 1,
        "the pool/driver must register rejected submissions"
    );
    assert_eq!(fe.materialised(), 2, "the queue's two slots are in flight");
    assert_eq!(fe.parked(), 4, "bounced sessions sit in the parking lot");
    // Bounced records carry backoff state and a deferred deadline.
    assert!(snapshot.sessions_parked as usize == fe.parked());

    // Resume the worker: everything drains to completion.
    fe.pool().resume(0);
    let summary = fe.run(&mut open_loop);
    assert_eq!(summary.frames_completed, 6);
    assert_eq!(summary.done, 6);
    assert_eq!(summary.still_parked, 0);
    assert!(
        summary.snapshot.rehydrations > 6,
        "re-parks rehydrated again"
    );
}

/// One seeded open-loop Poisson run: `n` terminals, exponential
/// interarrivals with the given mean (in array cycles), mixed standards.
fn poisson_run(seed: u64, n: u64, mean_interarrival: f64) -> ScaleSummary {
    let mut fe = Frontend::new(EngineConfig {
        shards: 2,
        queue_depth: 8,
        max_resident: 16,
        parking_capacity: n as usize,
        ..EngineConfig::default()
    });
    let mut rng = Rng64::seed_from_u64(seed);
    let mut arrival = 0u64;
    for id in 0..n {
        // Inverse-CDF exponential draw; clamp the uniform away from 0.
        let u = rng.next_f64().max(1e-12);
        arrival += (-mean_interarrival * u.ln()).ceil() as u64;
        let rec = if rng.next_u64().is_multiple_of(2) {
            ParkedSession::new_wcdma(id, seed ^ (id * 0x9e37), arrival)
        } else {
            ParkedSession::new_ofdm(id, seed ^ (id * 0x79b9), arrival)
        };
        fe.admit(rec);
    }
    fe.run(&mut open_loop)
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
