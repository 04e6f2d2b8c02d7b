//! Shard-gang golden equivalence: batching re-orders *dispatch*, never
//! *results*. A mixed rake + OFDM workload run on a 4-array gang must
//! produce exactly the per-session outcomes of the single-array seed
//! configuration — same terminal state for every session id, compared
//! order-independently (batching legitimately changes completion order).
//!
//! This is the engine-layer counterpart of the bit-exact golden tests in
//! `xpp_array`: each session's signal path runs on *some* array with the
//! same kernels, seeds and data either way, so its payload verdict cannot
//! depend on which gang member it landed on.

use sdr_engine::{Engine, EngineConfig, Session, SessionState};

/// Mixed workload: even ids W-CDMA rake terminals, odd ids 802.11a OFDM
/// terminals, seeds derived from the id both ways.
fn mixed_sessions(n: u64) -> Vec<Session> {
    (0..n)
        .map(|id| {
            if id % 2 == 0 {
                Session::wcdma(id, 1_000 + id)
            } else {
                Session::ofdm(id, 2_000 + id)
            }
        })
        .collect()
}

/// Runs the workload and returns `(id, terminal state)` sorted by id.
fn outcomes(arrays_per_shard: usize, n: u64) -> Vec<(u64, SessionState)> {
    outcomes_full(arrays_per_shard, n, false)
}

fn outcomes_full(arrays_per_shard: usize, n: u64, delta_loading: bool) -> Vec<(u64, SessionState)> {
    let mut engine = Engine::new(EngineConfig {
        shards: 1,
        arrays_per_shard,
        queue_depth: 64,
        cache_capacity: 8,
        delta_loading,
        ..EngineConfig::default()
    });
    let summary = engine.run(mixed_sessions(n));
    assert_eq!(
        summary.completed.len() as u64,
        n,
        "gang={arrays_per_shard}: sessions lost"
    );
    let mut out: Vec<(u64, SessionState)> = summary
        .completed
        .iter()
        .map(|s| (s.id(), s.state().clone()))
        .collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

#[test]
fn gang_of_four_matches_single_array_outcomes() {
    let n = 48;
    let seed = outcomes(1, n);
    let gang = outcomes(4, n);
    assert_eq!(seed.len(), gang.len());
    for ((seed_id, seed_state), (gang_id, gang_state)) in seed.iter().zip(gang.iter()) {
        assert_eq!(seed_id, gang_id);
        assert_eq!(
            seed_state, gang_state,
            "session {seed_id}: gang dispatch changed the outcome"
        );
    }
    // The workload is fault-free and feasible: every session finishes.
    assert!(
        seed.iter().all(|(_, s)| *s == SessionState::Done),
        "baseline must complete cleanly for the comparison to mean much"
    );
}

/// Differential loading changes *how* configurations reach the array —
/// word deltas against the evicted resident instead of full streams —
/// never *what* they compute: a delta-loaded configuration is bit-exact
/// (pinned in the workspace golden suite), so every session outcome must
/// match the full-load run, on the seed single-array shape and the gang.
#[test]
fn delta_loading_does_not_change_outcomes() {
    let n = 32;
    for gang in [1usize, 4] {
        let off = outcomes_full(gang, n, false);
        let on = outcomes_full(gang, n, true);
        assert_eq!(off.len(), on.len());
        for ((id_off, state_off), (id_on, state_on)) in off.iter().zip(on.iter()) {
            assert_eq!(id_off, id_on);
            assert_eq!(
                state_off, state_on,
                "session {id_off} (gang={gang}): differential loading changed the outcome"
            );
        }
    }
}
