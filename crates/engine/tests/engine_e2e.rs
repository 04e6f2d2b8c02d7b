//! Engine integration tests: the Fig. 10 reconfiguration served from the
//! configuration cache, pool backpressure, clean shutdown with in-flight
//! jobs, every hand-back releasing its shard's credit, and a
//! mixed-standard stress run. The front-end rows' lockstep counters are
//! pinned in `tests/pins/engine.tsv`.

mod common;

use std::sync::Arc;

use common::{mixed_records, never_shed, quiet_injected_panics, run, Driver, Pins};
use sdr_engine::metrics::KernelKind;
use sdr_engine::{
    EngineConfig, Metrics, ParkedSession, Session, SessionState, ShardPool, Standard, SubmitError,
};
use xpp_array::fault::{FaultKind, FaultPlan, FaultSpec};

/// End to end on one worker: an OFDM session detects the preamble on
/// configuration 2a, loads 2b beside it on the *same* array, and decodes
/// its frame; a second session then repeats the cycle on both resident
/// configurations — two builds and two loads total, never a rebuild.
#[test]
fn ofdm_reconfiguration_is_served_from_the_cache() {
    let config = EngineConfig {
        shards: 1,
        queue_depth: 8,
        ..never_shed()
    };
    let records = [
        ParkedSession::new_ofdm(0, 11, 0),
        ParkedSession::new_ofdm(1, 12, 1),
    ];
    let mut pins = Pins::new("ofdm_reconfiguration_is_served_from_the_cache");
    let key = ["ofdm", "-", "-"];
    pins.both(&config, key, &[], &records, |_, completed, summary| {
        assert_eq!(completed.len(), 2);
        for (id, _, state) in completed {
            assert_eq!(*state, SessionState::Done, "session {id} failed");
        }
        let snap = &summary.snapshot;
        // Two distinct netlists (2a detector, 2b demodulator) were ever built…
        assert_eq!(
            snap.cache_misses, 2,
            "each configuration built exactly once"
        );
        // …yet both sessions activated both: the second session's
        // activations were cache hits (2a and 2b both still resident).
        assert!(
            snap.cache_hits >= 2,
            "second session not served from cache: {snap}"
        );
        assert!(
            snap.config_bus_cycles > 0,
            "loads must pay serial-bus cycles"
        );
        assert_eq!(snap.kernel_jobs[KernelKind::PreambleDetector.index()], 2);
        assert_eq!(snap.kernel_jobs[KernelKind::Demodulator.index()], 2);
    });
    pins.check();
}

/// W-CDMA frames `ids`, each arriving at the cycle of its id.
fn wcdma_records(ids: std::ops::Range<u64>) -> Vec<ParkedSession> {
    ids.map(|id| ParkedSession::new_wcdma(id, 100 + id, id))
        .collect()
}

/// W-CDMA only on one array: after the first frame has loaded the finger
/// the configuration bus is done — every later frame finds it resident (a
/// store hit, no build) and streams nothing.
#[test]
fn wcdma_frames_stream_no_config_words_after_the_first() {
    let config = EngineConfig {
        shards: 1,
        ..never_shed()
    };
    let (warm, timed) = (wcdma_records(0..1), wcdma_records(1..9));
    let (_, later) = run(Driver::Threads, config, &warm, &timed);
    let snap = &later.snapshot;
    assert_eq!(later.done, 8);
    assert_eq!(
        (
            snap.config_words_streamed,
            snap.cache_misses,
            snap.cache_hits
        ),
        (0, 0, 8),
        "a later frame re-streamed a configuration that should be resident"
    );
}

/// The same population on two single-array shards under the default
/// router: a shard that has tracked a frame still holds the finger, so
/// once a first wave has warmed the pool every later frame's kernel step
/// is routed to a shard holding its kernel.
#[test]
fn wcdma_frames_route_by_affinity_on_two_shards() {
    let config = EngineConfig {
        shards: 2,
        ..never_shed()
    };
    let (warm, timed) = (wcdma_records(0..4), wcdma_records(4..12));
    let (_, later) = run(Driver::Threads, config, &warm, &timed);
    assert_eq!(later.done, 8);
    assert_eq!(
        later.snapshot.router_affinity_hits, 8,
        "one kernel step per frame, each routed to a shard holding the finger"
    );
}

/// A full shard queue rejects with `WouldBlock` and hands the session
/// back; the rejection is counted, and the queued sessions still run. A
/// lockstep pool steps nothing until `recv`, so the queue is exactly full.
#[test]
fn full_shard_returns_would_block() {
    let metrics = Arc::new(Metrics::new());
    let pool = ShardPool::lockstep(
        EngineConfig {
            shards: 1,
            queue_depth: 2,
            ..EngineConfig::default()
        },
        Arc::clone(&metrics),
    );

    assert!(pool.submit(Session::wcdma(0, 1)).is_ok());
    assert!(pool.submit(Session::wcdma(1, 2)).is_ok());
    assert_eq!(pool.queue_depth(0), 2);
    match pool.submit(Session::wcdma(2, 3)) {
        Err(SubmitError::WouldBlock(s, shard)) => {
            assert_eq!((s.id(), shard), (2, 0), "same session handed back")
        }
        other => panic!("expected WouldBlock, got {other:?}"),
    }
    assert_eq!(metrics.snapshot().jobs_rejected, 1);
    assert_eq!(metrics.snapshot().queue_high_water, 2);

    let a = pool.recv().expect("first queued session steps");
    let b = pool.recv().expect("second queued session steps");
    assert_eq!(metrics.snapshot().jobs_run, 2);
    assert!(
        !a.is_terminal() && !b.is_terminal(),
        "one step each, not run to completion"
    );
}

/// Shutting down with queued jobs is clean: every in-flight session is
/// stepped exactly once by its shard while draining, then returned. On a
/// lockstep pool nothing steps before `shutdown`, which drains the shards
/// on the calling thread.
#[test]
fn shutdown_drains_in_flight_jobs() {
    let metrics = Arc::new(Metrics::new());
    let pool = ShardPool::lockstep(
        EngineConfig {
            shards: 2,
            queue_depth: 8,
            ..EngineConfig::default()
        },
        Arc::clone(&metrics),
    );
    for id in 0..6 {
        pool.submit(Session::wcdma(id, 10 + id)).unwrap();
    }

    let leftover = pool.shutdown();
    assert_eq!(leftover.len(), 6, "every in-flight session handed back");
    for s in &leftover {
        assert_eq!(*s.state(), SessionState::Searching, "stepped exactly once");
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.jobs_run, 6);
    assert_eq!(snap.sessions_completed + snap.sessions_failed, 0);
}

/// A shard owns a session from `submit` until it hands it back, and every
/// hand-back path releases exactly one credit: a clean step, a step whose
/// worker panicked (the array is rebuilt and the session comes back
/// marked crashed), and a step the shutdown drain runs. On a lockstep pool
/// each `recv` runs one round, so what the shards own is exact after every
/// hand-back: nothing while one session at a time is in flight, and the
/// sessions not yet handed back while a full pool drains.
#[test]
fn every_hand_back_releases_its_credit() {
    quiet_injected_panics();
    let metrics = Arc::new(Metrics::new());
    let pool = ShardPool::lockstep(
        EngineConfig {
            shards: 2,
            queue_depth: 4,
            fault_plan: Some(FaultPlan {
                faults: vec![FaultSpec {
                    kind: FaultKind::WorkerPanic,
                    at_load: 1,
                }],
            }),
            ..EngineConfig::default()
        },
        Arc::clone(&metrics),
    );
    let owned = |pool: &ShardPool| [pool.queue_depth(0), pool.queue_depth(1)];
    let mut crashes = 0;
    for id in 0..8 {
        let mut session = if id % 2 == 0 {
            Session::wcdma(id, 100 + id)
        } else {
            Session::ofdm(id, 0x0FD + id)
        };
        while !session.is_terminal() {
            let shard = pool.submit(session).expect("an empty pool has room");
            assert_eq!(pool.queue_depth(shard), 1, "session {id}");
            session = pool.recv().expect("the shard hands it back");
            assert_eq!(owned(&pool), [0, 0], "session {id}");
            crashes += u64::from(session.take_crashed());
        }
        assert_eq!(*session.state(), SessionState::Done, "session {id}");
    }
    assert_eq!(crashes, 1, "the planned panic struck one step");
    assert_eq!(metrics.snapshot().worker_restarts, 1);

    // A full pool drained round by round: every hand-back releases one.
    for id in 8..16 {
        pool.submit(Session::wcdma(id, 100 + id))
            .expect("eight fit in two shards of four");
    }
    assert_eq!(owned(&pool), [4, 4]);
    for outstanding in (0..8u64).rev() {
        pool.recv().expect("a queued session steps");
        assert_eq!(owned(&pool).iter().sum::<u64>(), outstanding);
    }

    // The shutdown drain hands back what it steps.
    for id in 16..24 {
        pool.submit(Session::wcdma(id, 100 + id))
            .expect("eight fit in two shards of four");
    }
    let view = Arc::clone(pool.residency_view());
    assert_eq!(pool.shutdown().len(), 8);
    assert_eq!(
        [view.status(0).queue_depth(), view.status(1).queue_depth()],
        [0, 0]
    );
}

/// Stress: 64 mixed sessions over 4 shards all reach `Done`, and the
/// metrics ledger stays consistent with what actually happened.
#[test]
fn stress_64_mixed_sessions_over_4_shards() {
    let config = EngineConfig {
        shards: 4,
        queue_depth: 8, // the window (32) keeps half the workload parked
        ..never_shed()
    };
    let mut pins = Pins::new("stress_64_mixed_sessions_over_4_shards");
    let records = mixed_records(64);
    let key = ["mixed", "-", "-"];
    pins.both(&config, key, &[], &records, |_, completed, summary| {
        assert_eq!(
            completed.len(),
            64,
            "every session reached a terminal state"
        );
        for (id, standard, state) in completed {
            assert_eq!(
                *state,
                SessionState::Done,
                "session {id} ({standard:?}) failed"
            );
        }
        let wcdma = completed
            .iter()
            .filter(|(_, standard, _)| *standard == Standard::Wcdma)
            .count();
        assert_eq!(wcdma, 32);

        let snap = &summary.snapshot;
        assert_eq!(snap.sessions_started, 64);
        assert_eq!(snap.sessions_completed, 64);
        assert_eq!(snap.sessions_failed, 0);
        // Every session takes exactly 3 steps (capture, acquire, demodulate).
        assert_eq!(snap.jobs_run, 3 * 64);
        // 3 distinct configurations, built at most once per shard.
        assert!(
            snap.cache_misses <= 12,
            "too many rebuilds: {}",
            snap.cache_misses
        );
        assert!(
            snap.cache_hits > snap.cache_misses,
            "cache mostly hits: {snap}"
        );
        assert!(snap.queue_high_water >= 1);
        // Each standard's kernels all ran: the finger, 2a and 2b.
        for kind in KernelKind::ALL {
            assert!(
                snap.kernel_jobs[kind.index()] > 0,
                "{} never ran",
                kind.name()
            );
            assert!(
                snap.kernel_cycles[kind.index()] > 0,
                "{} spent no cycles",
                kind.name()
            );
        }
        assert!(snap.cache_hit_rate() > 0.5);
    });
    pins.check();
}

/// More shards than sessions: the idle shards change nothing, every
/// session finishes. Its lockstep row reads six routed steps, none of
/// which finds its kernel resident on a shard: four are host-only, and
/// the detector and the demodulator are cold (nothing loads 2b ahead of
/// its step), so all fall back to the least-loaded shard.
#[test]
fn idle_shards_admit_trivially() {
    let config = EngineConfig {
        shards: 8,
        ..never_shed()
    };
    let records = [
        ParkedSession::new_wcdma(0, 7, 0),
        ParkedSession::new_ofdm(1, 8, 1),
    ];
    let mut pins = Pins::new("idle_shards_admit_trivially");
    let key = ["mixed", "-", "-"];
    pins.both(&config, key, &[], &records, |_, _, summary| {
        assert_eq!(summary.done, 2);
    });
    pins.check();
}
