//! Seeded chaos runs: a mixed W-CDMA/OFDM workload driven through the
//! [`Frontend`](sdr_engine::Frontend) under a deterministic [`FaultPlan`]
//! must terminate every session in an accounted-for state, with the fault
//! ledger reconciling exactly — every fault the injector fired was
//! detected somewhere, and every detection was answered by a recovery or
//! a dead-letter.

mod common;

use common::{
    chaos_plan, mixed_records, quiet_injected_panics, run_to_completion, skewed_records,
    under_both_drivers, Driver,
};
use sdr_engine::{EngineConfig, ParkedSession, RecoveryPolicy, Session, SessionState};
use xpp_array::fault::{FaultKind, FaultPlan, FaultSpec};

/// What a chaos row reads in lockstep, where the load order — and so
/// which load each planned fault strikes — is the same every run: faults
/// injected, recoveries, worker restarts, dead letters.
type Ledger = [u64; 4];

/// One full chaos run: seeded recoverable faults plus an explicit worker
/// panic, every invariant checked.
fn chaos_run(seed: u64, exact: Ledger) {
    chaos_run_full(seed, 1, false, exact);
}

/// Same invariants, parameterised over the shard gang size so gang shards
/// run under the identical fault ledger checks, with or without
/// backpressure, under both drivers. Without backpressure, 16-deep queues
/// hold the whole workload. With, two-deep queues make a window of 4 for
/// 24 frames whose ids are all even, so crash retries re-enter a pool the
/// credit window keeps full — and the pool must still refuse nothing.
fn chaos_run_full(seed: u64, arrays_per_shard: usize, backpressure: bool, exact: Ledger) {
    quiet_injected_panics();
    let plan = chaos_plan(seed, 6, 8);
    let injected_planned = plan.faults.len();
    let config = EngineConfig {
        shards: 2,
        arrays_per_shard,
        queue_depth: 16,
        recovery: RecoveryPolicy {
            max_kernel_attempts: 4,
            ..RecoveryPolicy::default()
        },
        fault_plan: Some(plan),
        ..EngineConfig::default()
    };
    let (config, records) = if backpressure {
        (
            EngineConfig {
                queue_depth: 2,
                ..config
            },
            skewed_records(24, 2),
        )
    } else {
        (config, mixed_records(24))
    };
    under_both_drivers(&config, &records, |driver, completed, summary| {
        // Every session terminated, none hung, none reported wrong bits: a
        // platform fault may cost a session (dead-letter) but never corrupts
        // a surviving one's payload.
        assert_eq!(completed.len(), 24, "seed {seed}: sessions lost");
        for (id, _, state) in completed {
            match state {
                SessionState::Done | SessionState::DeadLettered(_) => {}
                other => panic!("seed {seed}: session {id} ended {other:?}"),
            }
        }
        assert_eq!(
            summary.done + summary.dead_lettered,
            24,
            "seed {seed}: outcome accounting"
        );

        let snap = &summary.snapshot;
        // The plan actually fired (the guaranteed-ordinal panic at minimum),
        // and the ledger reconciles.
        assert!(
            snap.faults_injected > 0,
            "seed {seed}: no faults fired — plan or horizon is wrong"
        );
        assert!(
            snap.faults_injected <= injected_planned as u64,
            "seed {seed}: injector fired more than the plan holds"
        );
        assert_eq!(
            snap.faults_injected, snap.faults_detected,
            "seed {seed}: injected faults went undetected (or double-counted): {snap}"
        );
        assert!(
            snap.faults_detected <= snap.recoveries + snap.dead_letters,
            "seed {seed}: detections unanswered: {snap}"
        );
        assert!(
            snap.recoveries >= snap.faults_detected.saturating_sub(snap.dead_letters),
            "seed {seed}: recovery ledger inconsistent: {snap}"
        );
        assert!(
            snap.worker_restarts >= 1,
            "seed {seed}: the planned panic never restarted a shard"
        );
        assert_eq!(
            snap.sessions_completed, summary.done,
            "seed {seed}: completion counter drift"
        );
        assert_eq!(
            (snap.jobs_rejected, snap.backpressure_parks),
            (0, 0),
            "seed {seed}: the pool refused the driver: {snap}"
        );
        if driver == Driver::Lockstep {
            assert_eq!(
                [
                    snap.faults_injected,
                    snap.recoveries,
                    snap.worker_restarts,
                    snap.dead_letters
                ],
                exact,
                "seed {seed}: {snap}"
            );
        }
    });
}

#[test]
fn chaos_seed_1() {
    chaos_run(1, [6, 6, 1, 0]);
}

#[test]
fn chaos_seed_2() {
    chaos_run(2, [5, 5, 1, 0]);
}

#[test]
fn chaos_seed_3() {
    chaos_run(3, [5, 5, 1, 0]);
}

/// Chaos under backpressure: two two-deep shard queues, a window of 4 and
/// 24 frames, so the ledger is checked while the driver keeps the pool
/// full — crash retries included, since a crashed session re-enters
/// through the same credit.
#[test]
fn chaos_backpressure_seed_1() {
    chaos_run_full(1, 1, true, [6, 6, 1, 0]);
}

#[test]
fn chaos_backpressure_gang_seed_1() {
    chaos_run_full(1, 3, true, [6, 6, 1, 0]);
}

/// Gang shards under chaos: crash containment rebuilds only the struck
/// member, but the fault ledger must reconcile exactly
/// the same way it does for single-array shards.
#[test]
fn chaos_gang_seed_1() {
    chaos_run_full(1, 3, false, [6, 6, 1, 0]);
}

#[test]
fn chaos_gang_seed_2() {
    chaos_run_full(2, 3, false, [5, 5, 1, 0]);
}

/// Gang dispatch stays deterministic per seed: one shard owns the whole
/// gang, and on a lockstep pool each round steps one session in EDF order
/// on the member `route` picks, so the load order, and therefore the fault
/// ledger, replays exactly.
#[test]
fn chaos_gang_is_deterministic_per_seed() {
    use sdr_engine::{Metrics, ShardPool};
    use std::sync::Arc;

    quiet_injected_panics();
    let run = |seed: u64| {
        let metrics = Arc::new(Metrics::new());
        let pool = ShardPool::lockstep(
            EngineConfig {
                shards: 1, // one shard: a single total load order
                arrays_per_shard: 4,
                queue_depth: 32,
                // seeded() samples only recoverable kinds, so faults are
                // absorbed inside the worker and sessions always come back
                // (terminal or ready for the next wave).
                fault_plan: Some(FaultPlan::seeded(seed, 5, 10)),
                ..EngineConfig::default()
            },
            Arc::clone(&metrics),
        );
        let mut wave: Vec<Session> = mixed_records(8).iter().map(Session::rehydrate).collect();
        let mut terminal = 0u64;
        while !wave.is_empty() {
            let n = wave.len();
            for s in wave.drain(..) {
                pool.submit(s).expect("queue has room");
            }
            for _ in 0..n {
                let s = pool.recv().expect("the shard holds the wave");
                if !s.is_terminal() {
                    wave.push(s);
                } else {
                    terminal += 1;
                }
            }
        }
        let snap = metrics.snapshot();
        drop(pool);
        (
            terminal,
            snap.faults_injected,
            snap.faults_detected,
            snap.batch_warm_hits,
            snap.batch_replications,
            snap.config_words_streamed,
        )
    };
    let ledger = run(11);
    assert_eq!(ledger, run(11));
    assert_eq!(
        ledger,
        (8, 3, 3, 9, 2, 498),
        "(terminal, injected, detected, warm hits, replications, words) at seed 11"
    );
}

/// Identical seeds must produce identical fault ledgers — the whole point
/// of a *seeded* chaos harness is replayability. One shard has a single
/// total load order under either driver; in lockstep the whole metrics
/// block replays with it.
#[test]
fn chaos_is_deterministic_per_seed() {
    quiet_injected_panics();
    for driver in Driver::BOTH {
        let run = |seed: u64| {
            // A horizon of 5: one shard loads each of its three kernels
            // once, so later ordinals never come up.
            let plan = FaultPlan::seeded(seed, 5, 5);
            let (_, summary) = run_to_completion(
                driver,
                EngineConfig {
                    shards: 1, // one shard: a single total load order
                    queue_depth: 32,
                    fault_plan: Some(plan),
                    ..EngineConfig::default()
                },
                mixed_records(8),
            );
            summary
        };
        let (a, b) = (run(9), run(9));
        let ledger = |s: &sdr_engine::ScaleSummary| {
            (
                s.done,
                s.dead_lettered,
                s.snapshot.faults_injected,
                s.snapshot.faults_detected,
            )
        };
        assert_eq!(ledger(&a), ledger(&b), "{driver:?}");
        assert!(a.snapshot.faults_injected > 0, "plan never fired");
        if driver == Driver::Lockstep {
            assert_eq!(a, b, "the full summary, snapshot included");
        }
    }
}

/// A worker that crashes on every early load dead-letters its session
/// after the configured number of re-dispatches instead of retrying
/// forever — and the shard itself survives to serve other sessions.
#[test]
fn repeated_crashes_dead_letter_the_session() {
    quiet_injected_panics();
    let plan = FaultPlan {
        faults: (0..16)
            .map(|at_load| FaultSpec {
                kind: FaultKind::WorkerPanic,
                at_load,
            })
            .collect(),
    };
    // Deep enough for both sessions, then one-deep: the second session
    // waits its turn parked, and the counters must not move.
    for queue_depth in [8, 1] {
        let config = EngineConfig {
            shards: 1,
            queue_depth,
            recovery: RecoveryPolicy {
                max_session_attempts: 1,
                ..RecoveryPolicy::default()
            },
            fault_plan: Some(plan.clone()),
            ..EngineConfig::default()
        };
        // Every count here is exact under either driver.
        under_both_drivers(&config, &mixed_records(2), |_, _, summary| {
            assert_eq!(summary.dead_lettered, 2, "both sessions give up");
            let snap = &summary.snapshot;
            assert_eq!(snap.dead_letters, 2);
            // Each session: crash, one retry, crash again, dead-letter.
            assert_eq!(snap.session_retries, 2);
            assert_eq!(snap.worker_restarts, 4);
            assert_eq!(snap.faults_injected, snap.faults_detected);
        });
    }
}

/// Faults striking while worker arrays step their kernels (the name dates
/// from the schedule replay of earlier versions; the counters kept theirs
/// too, and now count wakes, awake cycles and sleeps): configurations must
/// fall asleep as their bursts end or be unloaded with their arrays, the
/// supervision stack must recover exactly as it always did, and the fault
/// ledger must still reconcile. The stepping counters prove the run
/// genuinely mixed sleeping and waking configurations with injected
/// faults.
#[test]
fn faults_mid_replay_invalidate_and_recover() {
    quiet_injected_panics();
    let config = EngineConfig {
        shards: 2,
        arrays_per_shard: 2,
        queue_depth: 16,
        recovery: RecoveryPolicy {
            max_kernel_attempts: 4,
            ..RecoveryPolicy::default()
        },
        fault_plan: Some(chaos_plan(5, 6, 8)),
        ..EngineConfig::default()
    };
    under_both_drivers(&config, &mixed_records(24), |driver, completed, summary| {
        assert_eq!(completed.len(), 24, "sessions lost");
        assert_eq!(summary.done + summary.dead_lettered, 24);
        let snap = &summary.snapshot;
        // Configurations really woke during this chaos workload…
        assert!(
            snap.schedules_captured >= 1,
            "no configuration ever woke — the test is vacuous: {snap}"
        );
        assert!(
            snap.schedule_replay_cycles > 0,
            "woken configurations never stepped"
        );
        // …and fell asleep with the bursts they served (drained pipelines,
        // evictions, unloads) rather than outliving them.
        assert!(
            snap.schedule_invalidations >= 1,
            "drained or unloaded configurations must fall asleep: {snap}"
        );
        // The ledger invariant is untouched by the stepper.
        assert!(snap.faults_injected > 0, "plan never fired");
        assert_eq!(
            snap.faults_injected, snap.faults_detected,
            "injected faults went undetected: {snap}"
        );
        assert!(
            snap.faults_detected <= snap.recoveries + snap.dead_letters,
            "detections unanswered: {snap}"
        );
        if driver == Driver::Lockstep {
            // Wakes: every load completion (`finish_load` steps a load to
            // running before the job pushes its input, and the completion
            // is a wake) plus the pushes of the 36 kernel jobs (one finger
            // per W-CDMA session, a detection and a demodulation per OFDM
            // one) that found their configuration asleep. Every wake ends
            // in a sleep.
            assert_eq!(
                [
                    snap.schedules_captured,
                    snap.schedule_invalidations,
                    snap.faults_injected,
                    snap.worker_restarts
                ],
                [40, 40, 7, 1],
                "{snap}"
            );
        }
    });
}

/// A hotspot under fault injection: 32 OFDM frames offered at once to
/// two gangs of two, whose detections and demodulations the affinity
/// router sends to the shard already holding their kernel until that
/// holder owns more than eight sessions beyond the other; then they spill
/// — and the planned worker panic strikes mid-run while that is
/// happening. Spilled sessions must complete where they landed, crashed
/// ones must re-dispatch or dead-letter, and the fault ledger (injected ==
/// detected ≤ recoveries + dead_letters) must reconcile on both drivers;
/// in lockstep the ledger and the makespan are exact.
#[test]
fn a_hotspot_under_faults_keeps_the_ledger_intact() {
    quiet_injected_panics();
    let records: Vec<ParkedSession> = (0..32)
        .map(|id| ParkedSession::new_ofdm(id, 0x0FD + id, 0))
        .collect();
    let config = EngineConfig {
        shards: 2,
        arrays_per_shard: 2,
        queue_depth: 64,
        recovery: RecoveryPolicy {
            max_kernel_attempts: 4,
            ..RecoveryPolicy::default()
        },
        fault_plan: Some(chaos_plan(11, 4, 6)),
        ..EngineConfig::default()
    };
    under_both_drivers(&config, &records, |driver, completed, summary| {
        let snap = &summary.snapshot;
        assert_eq!(completed.len(), 32, "{driver:?}");
        assert_eq!(
            summary.done + summary.dead_lettered,
            32,
            "{driver:?}: every session must be accounted for"
        );
        assert_eq!(summary.failed, 0, "{driver:?}");
        assert!(snap.faults_injected > 0, "plan never fired: {snap}");
        assert_eq!(
            snap.faults_injected, snap.faults_detected,
            "{driver:?}: injected faults went undetected: {snap}"
        );
        assert!(
            snap.faults_detected <= snap.recoveries + snap.dead_letters,
            "{driver:?}: detections unanswered: {snap}"
        );
        assert_eq!(
            snap.worker_restarts, 1,
            "the planned panic restarts one worker"
        );
        if driver == Driver::Lockstep {
            assert_eq!(
                [
                    snap.faults_injected,
                    snap.recoveries,
                    snap.worker_restarts,
                    snap.dead_letters,
                    snap.array_makespan_cycles
                ],
                [3, 3, 1, 0, 6_672],
                "ledger and makespan: {snap}"
            );
        }
    });
}

/// The golden-equivalence regression for the engine layer: with the
/// fault machinery *compiled in* but no plan attached, a fault-free run
/// keeps the exact step count and fault counters of the seed build.
#[test]
fn no_plan_changes_nothing() {
    let config = EngineConfig {
        shards: 2,
        queue_depth: 8,
        ..EngineConfig::default() // fault_plan: None
    };
    under_both_drivers(&config, &mixed_records(16), |_, _, summary| {
        assert_eq!(summary.done, 16);
        let snap = &summary.snapshot;
        assert_eq!(snap.jobs_run, 3 * 16, "exact step count as without faults");
        assert_eq!(snap.faults_injected, 0);
        assert_eq!(snap.faults_detected, 0);
        assert_eq!(snap.worker_restarts, 0);
        assert_eq!(snap.dead_letters, 0);
        assert_eq!(snap.watchdog_kicks, 0);
    });
}
