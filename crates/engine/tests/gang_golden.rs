//! Shard-gang golden equivalence: batching re-orders *dispatch*, never
//! *results*. A mixed rake + OFDM workload run on a 4-array gang must
//! produce exactly the per-session outcomes of the single-array seed
//! configuration — same terminal state for every session id, compared
//! order-independently (batching legitimately changes completion order).
//! Both runs go through the `Frontend`, the driver that ships.
//!
//! This is the engine-layer counterpart of the bit-exact golden tests in
//! `xpp_array`: each session's signal path runs on *some* array with the
//! same kernels, seeds and data either way, so its payload verdict cannot
//! depend on which gang member it landed on.

mod common;

use common::{mixed_records, run_to_completion, Outcome};
use sdr_engine::{EngineConfig, SessionState};

/// Runs the workload and returns each terminal's outcome sorted by id.
fn outcomes(arrays_per_shard: usize, n: u64) -> Vec<Outcome> {
    let (out, _) = run_to_completion(
        EngineConfig {
            shards: 1,
            arrays_per_shard,
            queue_depth: 64,
            ..EngineConfig::default()
        },
        mixed_records(n),
    );
    assert_eq!(
        out.len() as u64,
        n,
        "gang={arrays_per_shard}: sessions lost"
    );
    out
}

#[test]
fn gang_of_four_matches_single_array_outcomes() {
    let n = 48;
    let seed = outcomes(1, n);
    let gang = outcomes(4, n);
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
