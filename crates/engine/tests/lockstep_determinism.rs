//! The lockstep driver's promise: no OS thread decides anything, so two
//! runs of one workload give the same `ScaleSummary` — the full metrics
//! `Snapshot` included — and complete their frames in the same order, on
//! every pool shape, with and without a fault plan striking. (What holds
//! on the pool's threads is less: outcomes and the admission model repeat,
//! counters that follow placement do not —
//! `frontend_backpressure::seeded_poisson_arrivals_are_bit_deterministic`.)
//! Each shape's and plan's snapshot is pinned in `tests/pins/engine.tsv`.

mod common;

use common::{
    assert_ledger, chaos_config, chaos_plan, mixed_records, quiet_injected_panics, run, Driver,
    Pins,
};
use sdr_engine::{EngineConfig, Snapshot};
use xpp_array::fault::FaultPlan;

/// The pool the rows run: `shards × arrays_per_shard` arrays that may own
/// 16 sessions each, where a holder more than eight ahead of the
/// least-loaded array spills, so every dispatch mechanism has cause to
/// fire.
fn config((shards, arrays_per_shard): (usize, usize), plan: Option<FaultPlan>) -> EngineConfig {
    EngineConfig {
        shards,
        arrays_per_shard,
        ..chaos_config(plan)
    }
}

/// Runs 48 mixed frames on `config` in lockstep twice, asserts the two
/// runs are indistinguishable, pins the run as the row keyed by `seed`
/// and `plan` and returns its snapshot.
fn repeatable_run(pins: &mut Pins, config: EngineConfig, [seed, plan]: [&str; 2]) -> Snapshot {
    let records = mixed_records(48);
    let (order, summary) = run(Driver::Lockstep, config.clone(), &[], &records);
    let (order_again, summary_again) = run(Driver::Lockstep, config.clone(), &[], &records);
    let label = format!("{}x{}, plan {plan}", config.shards, config.arrays_per_shard);
    assert_eq!(order.len(), 48, "{label}: frames lost");
    assert_eq!(order, order_again, "{label}: completion order");
    assert_eq!(summary, summary_again, "{label}: summary and snapshot");
    pins.row(&config, ["mixed", seed, plan], &summary);
    summary.snapshot
}

const SHAPES: [(usize, usize); 5] = [(1, 1), (2, 1), (4, 1), (2, 2), (1, 4)];

#[test]
fn two_lockstep_runs_are_identical_on_every_shape() {
    let mut pins = Pins::new("two_lockstep_runs_are_identical_on_every_shape");
    let mut total = Snapshot::default();
    for (shards, arrays) in SHAPES {
        let snap = repeatable_run(&mut pins, config((shards, arrays), None), ["-", "-"]);
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
    pins.check();
}

/// Only a fault plan reaches the zero-fire watchdog (it kicks a stalled
/// load), so these rows are where it is seen to fire.
#[test]
fn two_lockstep_runs_are_identical_under_the_chaos_plans() {
    // The chaos suite's plans: a panic, then six faults over eight loads.
    quiet_injected_panics();
    let mut pins = Pins::new("two_lockstep_runs_are_identical_under_the_chaos_plans");
    let mut kicks = 0;
    for seed in [1, 2, 3] {
        let plan = format!("chaos_plan({seed}, 6, 8)");
        for (shards, arrays) in SHAPES {
            let label = format!("seed {seed} on {shards}x{arrays}");
            let config = config((shards, arrays), Some(chaos_plan(seed, 6, 8)));
            let snap = repeatable_run(&mut pins, config, [&seed.to_string(), &plan]);
            assert!(snap.faults_injected > 1, "{label}: only the panic fired");
            // The ledger, read after the pool shut down: a faulted load that
            // nothing used again is swept when its shard closes (ROADMAP
            // F(b); seed 3 on 4x1 leaves one).
            assert_ledger(&snap, &label);
            // The planned panic restarts one worker and its session is
            // re-dispatched once.
            assert_eq!(
                (snap.worker_restarts, snap.session_retries),
                (1, 1),
                "{label}"
            );
            kicks += snap.watchdog_kicks;
        }
    }
    assert!(kicks > 0, "the watchdog never kicked a stalled load");
    pins.check();
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
            let records = mixed_records(48);
            let lockstep =
                |shape| run(Driver::Lockstep, config(shape, plan.clone()), &[], &records);
            let (order, summary) = lockstep(gang);
            let (flat_order, flat_summary) = lockstep(flat);
            assert_eq!(order.len(), 48, "{label}: frames lost");
            assert_eq!(order, flat_order, "{label}: completion order");
            assert_eq!(summary, flat_summary, "{label}: summary and snapshot");
        }
    }
}
