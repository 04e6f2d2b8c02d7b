//! The lockstep driver's promise: no OS thread decides anything, so two
//! runs of one workload give the same `ScaleSummary` — the full metrics
//! `Snapshot` included — and complete their frames in the same order, on
//! every pool shape, with and without a fault plan striking. (What holds
//! on the pool's threads is less: outcomes and the admission model repeat,
//! counters that follow placement do not —
//! `frontend_backpressure::seeded_poisson_arrivals_are_bit_deterministic`.)

mod common;

use common::{
    chaos_plan, mixed_records, quiet_injected_panics, run_in_completion_order, Driver, Outcome,
};
use sdr_engine::{EngineConfig, RecoveryPolicy, ScaleSummary, Snapshot};
use xpp_array::fault::FaultPlan;

/// Runs 48 mixed frames on a `shards × arrays_per_shard` lockstep pool.
/// Arrays may own 16 sessions each and a holder more than eight ahead of
/// the least-loaded array spills, so every dispatch mechanism has cause to
/// fire.
fn lockstep_run(
    (shards, arrays_per_shard): (usize, usize),
    plan: Option<FaultPlan>,
) -> (Vec<Outcome>, ScaleSummary) {
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
            fault_plan: plan,
            ..EngineConfig::default()
        },
        mixed_records(48),
    )
}

/// Runs [`lockstep_run`] twice, asserts the two runs are
/// indistinguishable, and returns the snapshot.
fn repeatable_run(shards: usize, arrays_per_shard: usize, plan: Option<FaultPlan>) -> Snapshot {
    let shape = (shards, arrays_per_shard);
    let (order, summary) = lockstep_run(shape, plan.clone());
    let (order_again, summary_again) = lockstep_run(shape, plan.clone());
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
        total.router_fallbacks += snap.router_fallbacks;
        total.router_affinity_hits += snap.router_affinity_hits;
        total.config_words_streamed += snap.config_words_streamed;
        if shards * arrays > 1 {
            assert!(
                snap.array_makespan_cycles < snap.array_cycles_run,
                "{shards}x{arrays}: one array ran everything"
            );
        }
    }
    // Repeating nothing would be easy: across the shapes every mechanism
    // whose counters vary on the thread driver has fired.
    assert!(total.router_fallbacks > 0, "no step spilled");
    assert!(total.router_affinity_hits > 0, "no route hit its kernel");
    assert!(total.config_words_streamed > 0, "no configuration loaded");
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

/// The array is the unit of placement, and grouping arrays onto threads is
/// the driver's business: on lockstep, `shards × arrays_per_shard` arrays
/// are the pool of as many single arrays — the same completion order and
/// the same full `ScaleSummary`, snapshot included — with and without a
/// fault plan striking.
#[test]
fn a_gang_runs_as_its_flat_pool() {
    quiet_injected_panics();
    let plans = [None, Some(chaos_plan(1, 6, 8)), Some(chaos_plan(3, 6, 8))];
    for (gang, flat) in [((2, 2), (4, 1)), ((1, 4), (4, 1)), ((2, 4), (8, 1))] {
        for plan in &plans {
            let label = format!("{gang:?} against {flat:?}, plan {plan:?}");
            let (order, summary) = lockstep_run(gang, plan.clone());
            let (flat_order, flat_summary) = lockstep_run(flat, plan.clone());
            assert_eq!(order.len(), 48, "{label}: frames lost");
            assert_eq!(order, flat_order, "{label}: completion order");
            assert_eq!(summary, flat_summary, "{label}: summary and snapshot");
        }
    }
}
