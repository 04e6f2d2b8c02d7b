//! Shard-gang golden equivalence: a gang re-orders *dispatch*, never
//! *results*. A mixed rake + OFDM workload run on a 4-array gang must
//! produce exactly the per-session outcomes of the single-array seed
//! configuration — same terminal state for every session id, compared
//! order-independently (member routing legitimately changes completion
//! order). Both runs go through the `Frontend`, the driver that ships,
//! once over the pool's threads and once in lockstep, where the routing
//! counters are pinned exactly.
//!
//! This is the engine-layer counterpart of the bit-exact golden tests in
//! `xpp_array`: each session's signal path runs on *some* array with the
//! same kernels, seeds and data either way, so its payload verdict cannot
//! depend on which gang member it landed on.

mod common;

use common::{mixed_records, under_both_drivers, Driver, Outcome};
use sdr_engine::{EngineConfig, SessionState};

/// Runs the workload under both drivers (which must agree) and returns
/// each terminal's outcome sorted by id. `exact` is what the lockstep run
/// must read: steps routed to a warm member, kernel replications,
/// configuration words streamed.
fn outcomes(arrays_per_shard: usize, n: u64, exact: (u64, u64, u64)) -> Vec<Outcome> {
    let config = EngineConfig {
        shards: 1,
        arrays_per_shard,
        queue_depth: 64,
        ..EngineConfig::default()
    };
    under_both_drivers(&config, &mixed_records(n), |driver, outcomes, summary| {
        assert_eq!(
            outcomes.len() as u64,
            n,
            "gang={arrays_per_shard} {driver:?}: sessions lost"
        );
        let snap = &summary.snapshot;
        if driver == Driver::Lockstep {
            assert_eq!(
                (
                    snap.batch_warm_hits,
                    snap.batch_replications,
                    snap.config_words_streamed
                ),
                exact,
                "gang={arrays_per_shard}: {snap}"
            );
        }
    })
}

#[test]
fn gang_of_four_matches_single_array_outcomes() {
    let n = 48;
    let seed = outcomes(1, n, (69, 0, 210));
    let gang = outcomes(4, n, (69, 4, 534));
    assert_eq!(seed.len(), gang.len());
    for ((seed_id, seed_std, seed_state), (gang_id, gang_std, gang_state)) in
        seed.iter().zip(gang.iter())
    {
        assert_eq!((seed_id, seed_std), (gang_id, gang_std));
        assert_eq!(
            seed_state, gang_state,
            "session {seed_id}: gang dispatch changed the outcome"
        );
    }
    // The workload is fault-free and feasible: every session finishes.
    assert!(
        seed.iter().all(|(_, _, s)| *s == SessionState::Done),
        "baseline must complete cleanly for the comparison to mean much"
    );
}
