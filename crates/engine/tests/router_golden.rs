//! Router golden equivalence: the two-level scheduler re-orders
//! *placement*, never *results*. Whatever shard a session's step lands on
//! — the holder of its kernel, or the least-loaded shard it spilled to —
//! its signal path runs the same kernels with the same seeds and data, so
//! its terminal state must be bit-identical to a run of the same session
//! on a private single array. The rows cover single arrays and gangs on
//! two and four shards, and two-deep queues under the credit window, each
//! with its routing counters pinned in lockstep.

mod common;

use std::sync::Arc;

use common::{mixed_records, skewed_records, under_both_drivers, Driver, Outcome};
use sdr_engine::{EngineConfig, Metrics, ParkedSession, Session, SessionState, WorkerArray};

/// Steps every session to a terminal state on its own private array:
/// the strongest reference — no pool, no router, no gang — that every
/// routed configuration must reproduce.
fn single_array_reference(records: &[ParkedSession]) -> Vec<Outcome> {
    let metrics = Arc::new(Metrics::new());
    let mut out = Vec::new();
    for mut session in records.iter().map(Session::rehydrate) {
        let mut worker = WorkerArray::new(8, Arc::clone(&metrics));
        for _ in 0..64 {
            if session.is_terminal() {
                break;
            }
            session.step(&mut worker);
        }
        assert!(
            session.is_terminal(),
            "session {} never reached a terminal state on the reference array",
            session.id()
        );
        out.push((session.id(), session.standard(), session.state().clone()));
    }
    out
}

/// Runs the workload through the front-end on the given pool shape, under
/// both drivers (which must agree), and returns each terminal's outcome
/// sorted by id. `exact` is what the lockstep run must read: affinity
/// hits, fallbacks, configuration words.
fn routed_outcomes(
    (shards, arrays_per_shard): (usize, usize),
    n: u64,
    exact: [u64; 3],
) -> Vec<Outcome> {
    let config = EngineConfig {
        shards,
        arrays_per_shard,
        queue_depth: 64,
        ..EngineConfig::default()
    };
    let label = format!("shards={shards} gang={arrays_per_shard}");
    under_both_drivers(&config, &mixed_records(n), |driver, outcomes, summary| {
        assert_eq!(
            outcomes.len() as u64,
            n,
            "{label} {driver:?}: sessions lost"
        );
        let snap = &summary.snapshot;
        if driver == Driver::Lockstep {
            assert_eq!(
                [
                    snap.router_affinity_hits,
                    snap.router_fallbacks,
                    snap.config_words_streamed
                ],
                exact,
                "{label}: {snap}"
            );
        }
    })
}

fn assert_matches_reference(label: &str, got: &[Outcome], want: &[Outcome]) {
    assert_eq!(got.len(), want.len(), "{label}: session count diverged");
    for ((id, standard, state), (ref_id, ref_standard, ref_state)) in got.iter().zip(want.iter()) {
        assert_eq!(
            (id, standard),
            (ref_id, ref_standard),
            "{label}: session id order diverged"
        );
        assert_eq!(
            state, ref_state,
            "{label}: session {id} outcome diverged from the single-array reference"
        );
    }
}

/// Affinity routing with its hotspot spill: placement changes *where* a
/// session's step runs, never *what* it computes — every outcome still
/// matches the single-array reference.
#[test]
fn affinity_routing_matches_the_reference() {
    let n = 48;
    let reference = single_array_reference(&mixed_records(n));
    assert!(
        reference.iter().all(|(_, _, s)| *s == SessionState::Done),
        "reference workload must complete cleanly for the comparison to mean much"
    );
    for (shape, exact) in [
        ((2usize, 1usize), [18, 126, 396]),
        ((2, 2), [18, 126, 696]),
        ((2, 4), [18, 126, 1_044]),
        ((4, 1), [45, 99, 612]),
        ((4, 2), [44, 100, 1_050]),
        ((4, 4), [45, 99, 1_212]),
    ] {
        let routed = routed_outcomes(shape, n, exact);
        assert_matches_reference(&format!("affinity {shape:?}"), &routed, &reference);
    }
}

/// Two-deep queues under the credit window: the driver offers the pool
/// only what its queues can take, so no frame is refused or re-parked —
/// whether the ids alternate or all share one residue — and every outcome
/// equals the never-parked single-array reference.
#[test]
fn two_deep_queues_match_the_reference() {
    let n = 48;
    for (name, records) in [
        ("mixed", mixed_records(n)),
        ("skewed", skewed_records(n, 2)),
    ] {
        let reference = single_array_reference(&records);
        for (shards, gang) in [(1usize, 1usize), (2, 1), (2, 2)] {
            let config = EngineConfig {
                shards,
                arrays_per_shard: gang,
                queue_depth: 2,
                ..EngineConfig::default()
            };
            under_both_drivers(&config, &records, |driver, routed, summary| {
                let label = format!("{name} shards={shards} gang={gang} {driver:?}");
                assert_matches_reference(&label, routed, &reference);
                assert_eq!(
                    (
                        summary.snapshot.jobs_rejected,
                        summary.snapshot.backpressure_parks
                    ),
                    (0, 0),
                    "{label}: the window offered more than the pool could take"
                );
            });
        }
    }
}
