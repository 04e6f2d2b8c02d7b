//! The lockstep driver's promise: no OS thread decides anything, so two
//! runs of one workload give the same `ScaleSummary` — the full metrics
//! `Snapshot` included — and complete their frames in the same order, on
//! every pool shape, with and without a fault plan striking. (What holds
//! on the pool's threads is less: outcomes and the admission model repeat,
//! counters that follow placement do not —
//! `frontend_backpressure::seeded_poisson_arrivals_are_bit_deterministic`.)

mod common;

use common::{chaos_plan, mixed_records, quiet_injected_panics, run_in_completion_order, Driver};
use sdr_engine::{EngineConfig, RecoveryPolicy, Snapshot};
use xpp_array::fault::FaultPlan;

/// Runs 48 mixed frames on a `shards × arrays_per_shard` lockstep pool
/// twice, asserts the two runs are indistinguishable, and returns the
/// snapshot. Queues are 16 deep and a shard with more than eight sessions
/// pending exposes work to thieves, so every dispatch mechanism has cause
/// to fire.
fn repeatable_run(shards: usize, arrays_per_shard: usize, plan: Option<FaultPlan>) -> Snapshot {
    let run = || {
        run_in_completion_order(
            Driver::Lockstep,
            EngineConfig {
                shards,
                arrays_per_shard,
                queue_depth: 16,
                recovery: RecoveryPolicy {
                    max_kernel_attempts: 4,
                    ..RecoveryPolicy::default()
                },
                fault_plan: plan.clone(),
                ..EngineConfig::default()
            },
            mixed_records(48),
        )
    };
    let (order, summary) = run();
    let (order_again, summary_again) = run();
    let label = format!("{shards}x{arrays_per_shard}, plan {plan:?}");
    assert_eq!(order.len(), 48, "{label}: frames lost");
    assert_eq!(order, order_again, "{label}: completion order");
    assert_eq!(summary, summary_again, "{label}: summary and snapshot");
    summary.snapshot
}

const SHAPES: [(usize, usize); 5] = [(1, 1), (2, 1), (4, 1), (2, 2), (1, 4)];

#[test]
fn two_lockstep_runs_are_identical_on_every_shape() {
    let mut total = Snapshot::default();
    for (shards, arrays) in SHAPES {
        let snap = repeatable_run(shards, arrays, None);
        assert_eq!(snap.sessions_completed, 48);
        total.batches_stolen += snap.batches_stolen;
        total.router_affinity_hits += snap.router_affinity_hits;
        total.batch_warm_hits += snap.batch_warm_hits;
        total.batch_replications += snap.batch_replications;
    }
    // Repeating nothing would be easy: across the shapes every mechanism
    // whose counters vary on the thread driver has fired.
    assert!(total.batches_stolen > 0, "no shape ever stole");
    assert!(total.router_affinity_hits > 0, "no route hit its kernel");
    assert!(total.batch_warm_hits > 0, "no step found a warm member");
    assert!(total.batch_replications > 0, "no hot kernel was split");
}

/// Per chaos seed, per shape in `SHAPES` order: the zero-fire watchdog's
/// kicks. Only a fault plan reaches the watchdog (it kicks a stalled
/// load), so these rows are where it is seen to fire.
const WATCHDOG_KICKS: [[u64; 5]; 3] = [[2, 2, 2, 2, 2], [1, 1, 1, 1, 1], [4, 4, 4, 4, 4]];

#[test]
fn two_lockstep_runs_are_identical_under_the_chaos_plans() {
    // The chaos suite's plans: a panic, then six faults over eight loads.
    quiet_injected_panics();
    for (seed, kicks) in [1, 2, 3].into_iter().zip(WATCHDOG_KICKS) {
        for ((shards, arrays), kicks) in SHAPES.into_iter().zip(kicks) {
            let label = format!("seed {seed} on {shards}x{arrays}");
            let snap = repeatable_run(shards, arrays, Some(chaos_plan(seed, 6, 8)));
            assert!(snap.faults_injected > 1, "{label}: only the panic fired");
            // The ledger, read after the pool shut down: a faulted load that
            // nothing used again is swept when its shard closes (ROADMAP
            // F(b); seed 3 on 4x1 leaves one).
            assert_eq!(snap.faults_injected, snap.faults_detected, "{label}");
            assert!(
                snap.faults_detected <= snap.recoveries + snap.dead_letters,
                "{label}: detections unanswered"
            );
            // The planned panic restarts one worker and its session is
            // re-dispatched once; a stalled load is kicked by the watchdog.
            assert_eq!(
                (
                    snap.worker_restarts,
                    snap.session_retries,
                    snap.watchdog_kicks
                ),
                (1, 1, kicks),
                "{label}"
            );
        }
    }
}
