//! Plumbing shared by the driver-level suites (`chaos`, `engine_e2e`,
//! `frontend_backpressure`, `gang_golden`, `router_golden`): the mixed
//! workload they all offer and the one way they run it — through
//! [`Frontend`], the driver that ships.

// Each suite compiles this module on its own and uses part of it.
#![allow(dead_code)]

use std::sync::Arc;

use sdr_engine::{
    EngineConfig, Frontend, Metrics, ParkedSession, ScaleSummary, Session, SessionState, Standard,
};
use xpp_array::fault::{FaultKind, FaultPlan, FaultSpec};

/// One terminal's outcome as the completion hook saw it.
pub type Outcome = (u64, Standard, SessionState);

/// Mixed workload: even ids W-CDMA rake terminals, odd ids 802.11a OFDM
/// terminals, seeds derived from the id both ways. Record `id` arrives at
/// cycle `id` — exactly what `Session::wcdma(id, seed)` rehydrates.
pub fn mixed_records(n: u64) -> Vec<ParkedSession> {
    skewed_records(n, 1)
}

/// The same alternating mix with every id a multiple of `shards`: the
/// stream an `id % shards` placement would pile onto shard 0. The affinity
/// router places by kernel, not by id, and the suites offer it to check
/// that no id pattern makes a shard refuse the driver.
pub fn skewed_records(n: u64, shards: u64) -> Vec<ParkedSession> {
    (0..n)
        .map(|i| {
            let id = i * shards;
            if i % 2 == 0 {
                ParkedSession::new_wcdma(id, 1_000 + id, id)
            } else {
                ParkedSession::new_ofdm(id, 2_000 + id, id)
            }
        })
        .collect()
}

/// Who steps the shards under the [`Frontend`]: the OS threads that ship,
/// or the calling thread in virtual-clock order (`Frontend::lockstep`),
/// where every counter of a run is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    Threads,
    Lockstep,
}

impl Driver {
    pub const BOTH: [Driver; 2] = [Driver::Threads, Driver::Lockstep];

    pub fn frontend(self, config: EngineConfig, metrics: Arc<Metrics>) -> Frontend {
        match self {
            Driver::Threads => Frontend::with_metrics(config, metrics),
            Driver::Lockstep => Frontend::lockstep(config, metrics),
        }
    }
}

/// Admits `records` and runs the front-end until every terminal has left,
/// collecting each outcome through the completion hook, in completion
/// order. Admission never sheds here: these suites pin what the *pool*
/// does to a frame, so the virtual-time model must let every frame through.
///
/// The summary's `snapshot` is read after [`Frontend::shutdown`], not at
/// the end of `run`: a closing shard sweeps the fault records still
/// pending on its arrays into the ledger, so only then does every
/// injected fault show up as detected.
pub fn run_in_completion_order(
    driver: Driver,
    config: EngineConfig,
    records: Vec<ParkedSession>,
) -> (Vec<Outcome>, ScaleSummary) {
    let metrics = Arc::new(Metrics::new());
    let mut frontend = driver.frontend(
        EngineConfig {
            shed_lateness_cycles: u64::MAX,
            ..config
        },
        Arc::clone(&metrics),
    );
    for record in records {
        frontend.admit(record);
    }
    let mut outcomes = Vec::new();
    let mut hook = |session: &Session, _| {
        outcomes.push((session.id(), session.standard(), session.state().clone()));
        None
    };
    let summary = frontend.run(&mut hook);
    frontend.shutdown();
    let snapshot = metrics.snapshot();
    (
        outcomes,
        ScaleSummary {
            snapshot,
            ..summary
        },
    )
}

/// [`run_in_completion_order`] with the outcomes sorted by id.
pub fn run_to_completion(
    driver: Driver,
    config: EngineConfig,
    records: Vec<ParkedSession>,
) -> (Vec<Outcome>, ScaleSummary) {
    let (mut outcomes, summary) = run_in_completion_order(driver, config, records);
    outcomes.sort_by_key(|(id, _, _)| *id);
    (outcomes, summary)
}

/// Runs one row under both drivers, hands each run to `check` — bounds
/// for the threads, exact counts where `driver` is lockstep — asserts
/// that the two agree on every session's outcome, and returns those
/// outcomes sorted by id.
pub fn under_both_drivers(
    config: &EngineConfig,
    records: &[ParkedSession],
    mut check: impl FnMut(Driver, &[Outcome], &ScaleSummary),
) -> Vec<Outcome> {
    let [threads, lockstep] = Driver::BOTH.map(|driver| {
        let (outcomes, summary) = run_to_completion(driver, config.clone(), records.to_vec());
        check(driver, &outcomes, &summary);
        outcomes
    });
    assert_eq!(threads, lockstep, "the two drivers disagree on an outcome");
    threads
}

/// The chaos plan for `seed`: `count` seeded recoverable faults over the
/// first `horizon` loads, behind one worker panic so that shard restart +
/// re-dispatch is exercised on every seed (`seeded()` samples only
/// recoverable kinds). The panic is first in the list so no same-ordinal
/// seeded spec can shadow it, and at ordinal 1 because the workload shares
/// configurations heavily — sessions only load each kernel about once per
/// shard, so only the earliest ordinals are guaranteed to come up.
pub fn chaos_plan(seed: u64, count: usize, horizon: u64) -> FaultPlan {
    let mut faults = vec![FaultSpec {
        kind: FaultKind::WorkerPanic,
        at_load: 1,
    }];
    faults.extend(FaultPlan::seeded(seed, count, horizon).faults);
    FaultPlan { faults }
}

/// Injected worker panics would print through the default hook — from
/// pool threads the harness cannot capture, and in lockstep from the test
/// thread itself; silence exactly those so chaos output stays readable.
/// Safe to call from every test in a binary.
pub fn quiet_injected_panics() {
    std::panic::set_hook(Box::new(|info| {
        let message = info.payload().downcast_ref::<String>();
        if !message.is_some_and(|m| m.starts_with("injected fault")) {
            eprintln!("{info}");
        }
    }));
}
