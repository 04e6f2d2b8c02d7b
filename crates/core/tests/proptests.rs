//! Property-based tests for the platform models.

use proptest::prelude::*;
use sdr_core::dsp::DspModel;
use sdr_core::scheduler::{schedule_edf, Job};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// EDF is optimal on a single resource: any implicit-deadline periodic
    /// set with total utilization ≤ 1 is schedulable, and any set with
    /// utilization > 1 must eventually miss.
    #[test]
    fn edf_feasibility_matches_utilization(
        specs in proptest::collection::vec((1u64..200, 1u64..8), 1..5),
    ) {
        // periods are multiples of 64 so the hyperperiod stays small.
        let jobs: Vec<Job> = specs
            .iter()
            .enumerate()
            .map(|(i, &(c, p_mult))| {
                let period = 64 * p_mult;
                Job::new(format!("j{i}"), c.min(period), period)
            })
            .collect();
        let u: f64 = jobs.iter().map(Job::utilization).sum();
        let hyper: u64 = 64 * specs.iter().map(|&(_, p)| p).product::<u64>().max(1);
        let report = schedule_edf(&jobs, 4 * hyper.min(100_000));
        if u <= 1.0 {
            prop_assert!(report.feasible(), "u={u} but misses: {:?}", report.misses);
        } else {
            prop_assert!(!report.feasible(), "u={u} yet no misses over the horizon");
        }
    }

    /// Busy time never exceeds the horizon and matches the timeline.
    #[test]
    fn edf_accounting_is_consistent(
        specs in proptest::collection::vec((1u64..100, 1u64..6), 1..4),
        horizon in 500u64..5_000,
    ) {
        let jobs: Vec<Job> = specs
            .iter()
            .enumerate()
            .map(|(i, &(c, p))| Job::new(format!("j{i}"), c.min(32 * p), 32 * p))
            .collect();
        let report = schedule_edf(&jobs, horizon);
        prop_assert!(report.busy <= horizon);
        let timeline_busy: u64 = report.timeline.iter().map(|s| s.len).sum();
        prop_assert_eq!(timeline_busy, report.busy);
        for s in &report.timeline {
            prop_assert!(s.start + s.len <= horizon + jobs.iter().map(|j| j.cycles).max().unwrap_or(0));
        }
    }

    /// DSP accounting is additive and utilization scales linearly.
    #[test]
    fn dsp_accounting_additive(charges in proptest::collection::vec(1u64..1_000_000, 1..20)) {
        let mut dsp = DspModel::new(1000.0);
        for (i, &c) in charges.iter().enumerate() {
            dsp.charge(&format!("t{}", i % 3), c);
        }
        let total: u64 = charges.iter().sum();
        prop_assert_eq!(dsp.total_instructions(), total);
        let per_task: u64 = dsp.task_breakdown().values().sum();
        prop_assert_eq!(per_task, total);
        let window = 1.0;
        prop_assert!((dsp.demand_mips_over(window) - total as f64 / 1e6).abs() < 1e-9);
    }
}
