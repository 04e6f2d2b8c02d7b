//! Plumbing shared by the driver-level suites (`chaos`,
//! `dispatch_figures`, `engine_e2e`, `frontend_backpressure`,
//! `lockstep_determinism`, `router_golden`, and the bench crate's
//! `workload_shapes`): the mixed workload they all offer, the chaos plans,
//! and ([`pins`]) the one way they run it — through
//! [`Frontend`](sdr_engine::Frontend), the driver that ships — and the
//! table their lockstep counts are pinned in.

// Each suite compiles this module on its own and uses part of it.
#![allow(dead_code)]

mod pins;

pub use pins::*;

use sdr_engine::{EngineConfig, ParkedSession, RecoveryPolicy, Session, ShardPool};
use xpp_array::fault::{FaultKind, FaultPlan, FaultSpec};

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

/// The engine's defaults with admission that never sheds: these suites
/// pin what the *pool* does to a frame, so the virtual-time model must
/// let every frame through.
pub fn never_shed() -> EngineConfig {
    EngineConfig {
        shed_lateness_cycles: u64::MAX,
        ..EngineConfig::default()
    }
}

/// The chaos suites' pool: two worker threads of one array each,
/// 16-deep queues and four attempts per kernel, under `plan`.
pub fn chaos_config(plan: Option<FaultPlan>) -> EngineConfig {
    EngineConfig {
        shards: 2,
        queue_depth: 16,
        recovery: RecoveryPolicy {
            max_kernel_attempts: 4,
            ..RecoveryPolicy::default()
        },
        fault_plan: plan,
        ..never_shed()
    }
}

/// Steps sessions on a lockstep pool in waves until every one has ended,
/// and returns them in the order they ended. A wave submits the sessions
/// still in flight plus the next cohort (`cohorts` is popped from the
/// back) whole, and takes each back; a lockstep pool runs a round only
/// when `recv` finds nothing handed back, so after a wave it holds
/// nothing.
pub fn run_waves(pool: &ShardPool, mut cohorts: Vec<Vec<Session>>) -> Vec<Session> {
    let (mut wave, mut ended) = (Vec::new(), Vec::new());
    while !(wave.is_empty() && cohorts.is_empty()) {
        wave.extend(cohorts.pop().unwrap_or_default());
        let n = wave.len();
        for session in wave.drain(..) {
            pool.submit(session).expect("the queues have room");
        }
        for _ in 0..n {
            let session = pool.recv().expect("the arrays hold the wave");
            if session.is_terminal() {
                ended.push(session);
            } else {
                wave.push(session);
            }
        }
        assert!(pool.recv().is_none(), "an empty pool has nothing to run");
    }
    ended
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
