//! Seeded chaos runs: a mixed W-CDMA/OFDM workload driven through the
//! [`Frontend`](sdr_engine::Frontend) under a deterministic [`FaultPlan`]
//! must terminate every session in an accounted-for state, with the fault
//! ledger reconciling exactly — every fault the injector fired was
//! detected somewhere, and every detection was answered by a recovery or
//! a dead-letter.

mod common;

use common::{mixed_records, run_to_completion, skewed_records};
use sdr_engine::{EngineConfig, PlacementPolicy, RecoveryPolicy, Session, SessionState};
use xpp_array::fault::{FaultKind, FaultPlan, FaultSpec};

/// Injected worker panics print through the default hook from worker
/// threads (the harness cannot capture them); silence the hook so chaos
/// output stays readable. Safe to call from every test in this binary.
fn quiet_panics() {
    std::panic::set_hook(Box::new(|info| {
        // Test threads are named after their test; pool workers are
        // unnamed, and theirs are the (expected) injected panics.
        if std::thread::current().name().is_some() {
            eprintln!("{info}");
        }
    }));
}

/// One full chaos run: seeded recoverable faults plus an explicit worker
/// panic, every invariant checked.
fn chaos_run(seed: u64) {
    chaos_run_with(seed, 1);
}

/// Same invariants, parameterised over the shard gang size so the batched
/// dispatcher runs under the identical fault ledger checks.
fn chaos_run_with(seed: u64, arrays_per_shard: usize) {
    chaos_run_full(seed, arrays_per_shard, false);
}

/// Same invariants again with or without backpressure. Without, 16-deep
/// queues hold the whole workload. With, every id is even and placement is
/// static, so shard 0's two-deep queue takes all 24 frames under a window
/// of 4: frames bounce, re-park and rehydrate while the plan strikes, the
/// first two before the paused pool has run anything.
fn chaos_run_full(seed: u64, arrays_per_shard: usize, backpressure: bool) {
    quiet_panics();
    // Always at least one crash, so shard restart + re-dispatch is
    // exercised on every seed (seeded() samples only recoverable kinds).
    // First in the list so no same-ordinal seeded spec can shadow it, and
    // at ordinal 1 because the workload shares configurations heavily —
    // lockstep sessions only load each kernel about once per shard, so
    // only the earliest ordinals are guaranteed to come up.
    let mut faults = vec![FaultSpec {
        kind: FaultKind::WorkerPanic,
        at_load: 1,
    }];
    faults.extend(FaultPlan::seeded(seed, 6, 8).faults);
    let plan = FaultPlan { faults };
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
    let (completed, summary) = if backpressure {
        run_to_completion(
            EngineConfig {
                queue_depth: 2,
                start_paused: true,
                placement: PlacementPolicy::Static,
                ..config
            },
            skewed_records(24, 2),
        )
    } else {
        run_to_completion(config, mixed_records(24))
    };

    // Every session terminated, none hung, none reported wrong bits: a
    // platform fault may cost a session (dead-letter) but never corrupts
    // a surviving one's payload.
    assert_eq!(completed.len(), 24, "seed {seed}: sessions lost");
    for (id, _, state) in &completed {
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
    if backpressure {
        // A window of 4 into one paused two-deep queue bounces 2.
        assert!(
            snap.backpressure_parks >= 2,
            "seed {seed}: no frame ever re-parked — the backpressure row is vacuous"
        );
    }
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
}

#[test]
fn chaos_seed_1() {
    chaos_run(1);
}

#[test]
fn chaos_seed_2() {
    chaos_run(2);
}

#[test]
fn chaos_seed_3() {
    chaos_run(3);
}

/// Chaos under backpressure: one two-deep shard queue under a window of
/// 4, so the ledger is checked while frames bounce, re-park and rehydrate
/// — crash retries included, since a crashed session re-enters through
/// the same full queue.
#[test]
fn chaos_backpressure_seed_1() {
    chaos_run_full(1, 1, true);
}

#[test]
fn chaos_backpressure_gang_seed_1() {
    chaos_run_full(1, 3, true);
}

/// The batched gang dispatcher under chaos: crash containment rebuilds
/// only the struck member, but the fault ledger must reconcile exactly
/// the same way it does for single-array shards.
#[test]
fn chaos_gang_seed_1() {
    chaos_run_with(1, 3);
}

#[test]
fn chaos_gang_seed_2() {
    chaos_run_with(2, 3);
}

/// Gang dispatch stays deterministic per seed: one dispatcher thread owns
/// the whole gang, so with fixed dispatch windows (paused waves) the load
/// order — and therefore the fault ledger — replays exactly.
#[test]
fn chaos_gang_is_deterministic_per_seed() {
    use sdr_engine::{Metrics, ShardPool};
    use std::sync::Arc;

    quiet_panics();
    let run = |seed: u64| {
        let metrics = Arc::new(Metrics::new());
        let pool = ShardPool::new(
            EngineConfig {
                shards: 1, // one shard: a single total load order
                arrays_per_shard: 4,
                queue_depth: 32,
                start_paused: true,
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
            pool.resume(0);
            for _ in 0..n {
                let s = pool.recv().expect("worker alive");
                if !s.is_terminal() {
                    wave.push(s);
                } else {
                    terminal += 1;
                }
            }
            pool.pause(0);
        }
        let snap = metrics.snapshot();
        drop(pool);
        (
            terminal,
            snap.faults_injected,
            snap.faults_detected,
            snap.batches_dispatched,
            snap.batch_warm_hits,
            snap.config_words_streamed,
        )
    };
    assert_eq!(run(11), run(11));
}

/// Identical seeds must produce identical fault ledgers — the whole point
/// of a *seeded* chaos harness is replayability.
#[test]
fn chaos_is_deterministic_per_seed() {
    quiet_panics();
    let run = |seed: u64| {
        let plan = FaultPlan::seeded(seed, 5, 10);
        let (_, summary) = run_to_completion(
            EngineConfig {
                shards: 1, // one shard: a single total load order
                queue_depth: 32,
                fault_plan: Some(plan),
                ..EngineConfig::default()
            },
            mixed_records(8),
        );
        let s = summary.snapshot;
        (
            summary.done,
            summary.dead_lettered,
            s.faults_injected,
            s.faults_detected,
        )
    };
    assert_eq!(run(9), run(9));
}

/// A worker that crashes on every early load dead-letters its session
/// after the configured number of re-dispatches instead of retrying
/// forever — and the shard itself survives to serve other sessions.
#[test]
fn repeated_crashes_dead_letter_the_session() {
    quiet_panics();
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
        let (_, summary) = run_to_completion(
            EngineConfig {
                shards: 1,
                queue_depth,
                recovery: RecoveryPolicy {
                    max_session_attempts: 1,
                    ..RecoveryPolicy::default()
                },
                fault_plan: Some(plan.clone()),
                ..EngineConfig::default()
            },
            mixed_records(2),
        );

        assert_eq!(summary.dead_lettered, 2, "both sessions give up");
        let snap = &summary.snapshot;
        assert_eq!(snap.dead_letters, 2);
        // Each session: crash, one retry, crash again, dead-letter.
        assert_eq!(snap.session_retries, 2);
        assert_eq!(snap.worker_restarts, 4);
        assert_eq!(snap.faults_injected, snap.faults_detected);
    }
}

/// Faults striking while worker arrays step their kernels dense (the name
/// dates from the schedule replay that dense stepping replaced; the
/// counters kept theirs too): configurations must leave dense mode as
/// their bursts end or their arrays are torn down, the supervision stack
/// must recover exactly as it always did, and the fault ledger must still
/// reconcile. The stepping counters prove the run genuinely mixed dense
/// stepping with injected faults rather than vacuously passing on a pure
/// ready-list run.
#[test]
fn faults_mid_replay_invalidate_and_recover() {
    quiet_panics();
    let mut faults = vec![FaultSpec {
        kind: FaultKind::WorkerPanic,
        at_load: 1,
    }];
    faults.extend(FaultPlan::seeded(5, 6, 8).faults);
    let (completed, summary) = run_to_completion(
        EngineConfig {
            shards: 2,
            arrays_per_shard: 2,
            queue_depth: 16,
            recovery: RecoveryPolicy {
                max_kernel_attempts: 4,
                ..RecoveryPolicy::default()
            },
            fault_plan: Some(FaultPlan { faults }),
            ..EngineConfig::default()
        },
        mixed_records(24),
    );

    assert_eq!(completed.len(), 24, "sessions lost");
    assert_eq!(summary.done + summary.dead_lettered, 24);
    let snap = &summary.snapshot;
    // Dense stepping really ran during this chaos workload…
    assert!(
        snap.schedules_captured >= 1,
        "no configuration ever turned dense — the test is vacuous: {snap}"
    );
    assert!(
        snap.schedule_replay_cycles > 0,
        "dense entries never stepped"
    );
    // …and ended with the bursts it served (drained pipelines, swaps,
    // unloads) rather than outliving them.
    assert!(
        snap.schedule_invalidations >= 1,
        "drained or unloaded configurations must leave dense mode: {snap}"
    );
    // The ledger invariant is untouched by the stepper.
    assert!(snap.faults_injected > 0, "plan never fired");
    assert_eq!(
        snap.faults_injected, snap.faults_detected,
        "injected faults went undetected under dense stepping: {snap}"
    );
    assert!(
        snap.faults_detected <= snap.recoveries + snap.dead_letters,
        "detections unanswered under dense stepping: {snap}"
    );
}

/// Cross-shard stealing under fault injection: the whole offered load is
/// statically pinned to shard 0 (every id is even), so shard 1 only ever
/// works by claiming steal offers — and the planned worker panic strikes
/// mid-batch while that is happening. Stolen-away sessions must complete
/// on the thief, crashed ones must re-dispatch or dead-letter, and the
/// fault ledger (injected == detected ≤ recoveries + dead_letters) must
/// reconcile exactly as it does without stealing.
#[test]
fn steal_during_faults_keeps_the_ledger_intact() {
    use sdr_engine::{Metrics, PlacementPolicy, ShardPool};
    use std::sync::Arc;

    quiet_panics();
    let metrics = Arc::new(Metrics::new());
    let max_attempts = RecoveryPolicy::default().max_session_attempts;
    let mut faults = vec![FaultSpec {
        kind: FaultKind::WorkerPanic,
        at_load: 1,
    }];
    faults.extend(FaultPlan::seeded(11, 4, 6).faults);
    let pool = ShardPool::new(
        EngineConfig {
            shards: 2,
            arrays_per_shard: 2,
            queue_depth: 64,
            start_paused: true,
            placement: PlacementPolicy::Static,
            steal_threshold: 4,
            recovery: RecoveryPolicy {
                max_kernel_attempts: 4,
                ..RecoveryPolicy::default()
            },
            fault_plan: Some(FaultPlan { faults }),
            ..EngineConfig::default()
        },
        Arc::clone(&metrics),
    );

    // All-even session ids: the static hash sends everything to shard 0.
    // Kernels still mix (W-CDMA/OFDM alternate), so a saturated round
    // forms several batches and exposes its coldest one.
    let cohort = |base: u64| -> Vec<Session> {
        (0..16u64)
            .map(|i| {
                let id = base + 2 * i;
                if i % 2 == 0 {
                    Session::wcdma(id, 1_000 + id)
                } else {
                    Session::ofdm(id, 2_000 + id)
                }
            })
            .collect()
    };

    let mut done = 0u64;
    let mut dead = 0u64;
    let mut cohorts = 0u64;
    // Stealing needs the thief's idle poll to land inside the offer's
    // grace window, so retry fresh cohorts (bounded) until one is stolen.
    while metrics.snapshot().batches_stolen == 0 && cohorts < 20 {
        let mut wave = cohort(1_000 * cohorts);
        cohorts += 1;
        while !wave.is_empty() {
            let n = wave.len();
            for s in wave.drain(..) {
                pool.submit(s).expect("queue has room");
            }
            pool.resume(0);
            pool.resume(1);
            for _ in 0..n {
                let mut s = pool.recv().expect("workers alive");
                if s.take_crashed() {
                    if s.attempts() > max_attempts {
                        s.mark_dead_lettered(format!("crashed {} times", s.attempts()));
                        Metrics::incr(&metrics.dead_letters);
                        dead += 1;
                    } else {
                        // The struck member was already rebuilt; mirror the
                        // front-end's supervision and re-dispatch next wave.
                        Metrics::incr(&metrics.session_retries);
                        Metrics::incr(&metrics.recoveries);
                        wave.push(s);
                    }
                } else if s.is_terminal() {
                    assert!(
                        !matches!(s.state(), SessionState::Failed(_)),
                        "session {} failed: {:?}",
                        s.id(),
                        s.state()
                    );
                    done += 1;
                } else {
                    wave.push(s);
                }
            }
            pool.pause(0);
            pool.pause(1);
        }
    }

    let snap = metrics.snapshot();
    assert!(
        snap.batches_stolen >= 1,
        "shard 1 never stole from the pinned shard: {snap}"
    );
    assert!(
        snap.steal_sessions >= 1,
        "stolen batches carried no sessions"
    );
    assert_eq!(
        done + dead,
        16 * cohorts,
        "every session (stolen or not) must be accounted for"
    );
    // The fault ledger reconciles exactly as without stealing.
    assert!(snap.faults_injected > 0, "plan never fired: {snap}");
    assert_eq!(
        snap.faults_injected, snap.faults_detected,
        "injected faults went undetected under stealing: {snap}"
    );
    assert!(
        snap.faults_detected <= snap.recoveries + snap.dead_letters,
        "detections unanswered under stealing: {snap}"
    );
    assert!(
        snap.worker_restarts >= 1,
        "the planned panic never restarted a worker"
    );
    drop(pool);
}

/// The golden-equivalence regression for the engine layer: with the
/// fault machinery *compiled in* but no plan attached, a fault-free run
/// keeps the exact step count and fault counters of the seed build.
#[test]
fn no_plan_changes_nothing() {
    let (_, summary) = run_to_completion(
        EngineConfig {
            shards: 2,
            queue_depth: 8,
            ..EngineConfig::default() // fault_plan: None
        },
        mixed_records(16),
    );
    assert_eq!(summary.done, 16);
    let snap = &summary.snapshot;
    assert_eq!(snap.jobs_run, 3 * 16, "exact step count as without faults");
    assert_eq!(snap.faults_injected, 0);
    assert_eq!(snap.faults_detected, 0);
    assert_eq!(snap.worker_restarts, 0);
    assert_eq!(snap.dead_letters, 0);
    assert_eq!(snap.watchdog_kicks, 0);
}
