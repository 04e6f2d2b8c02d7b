//! Router golden equivalence: placement re-orders *where* steps run,
//! never *results*. Whatever array a session's step lands on — the holder
//! of its kernel, or the least-loaded array it spilled to — its signal
//! path runs the same kernels with the same seeds and data, so its
//! terminal state must be bit-identical to a run of the same session on a
//! private single array. The rows cover two to sixteen arrays, one to four
//! per worker thread, and two-deep queues under the credit window, each
//! with its lockstep counters pinned in `tests/pins/engine.tsv`. A
//! lockstep pool of `shards × arrays_per_shard` arrays is the pool of as
//! many single arrays, so rows with the same array count pin the same
//! counters.

mod common;

use std::sync::Arc;

use common::{mixed_records, never_shed, skewed_records, Outcome, Pins};
use sdr_engine::{EngineConfig, Metrics, ParkedSession, Session, SessionState, WorkerArray};

/// Steps every session to a terminal state on its own private array:
/// the strongest reference — no pool, no router — that every
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
/// matches the single-array reference, on one thread of four arrays as
/// on four threads of one.
#[test]
fn affinity_routing_matches_the_reference() {
    let n = 48;
    let records = mixed_records(n);
    let reference = single_array_reference(&records);
    assert!(
        reference.iter().all(|(_, _, s)| *s == SessionState::Done),
        "reference workload must complete cleanly for the comparison to mean much"
    );
    let mut pins = Pins::new("affinity_routing_matches_the_reference");
    for (shards, arrays_per_shard) in [(2, 1), (1, 4), (2, 2), (4, 1), (2, 4), (4, 2), (4, 4)] {
        let config = EngineConfig {
            shards,
            arrays_per_shard,
            queue_depth: 64,
            ..never_shed()
        };
        let label = format!("affinity {shards}x{arrays_per_shard}");
        let key = ["mixed", "-", "-"];
        let routed = pins.both(&config, key, &[], &records, |driver, outcomes, _| {
            assert_eq!(
                outcomes.len() as u64,
                n,
                "{label} {driver:?}: sessions lost"
            );
        });
        assert_matches_reference(&label, &routed, &reference);
    }
    pins.check();
}

/// Two-deep queues under the credit window: the driver offers the pool
/// only what its queues can take, so no frame is refused or re-parked —
/// whether the ids alternate or all share one residue — and every outcome
/// equals the never-parked single-array reference.
#[test]
fn two_deep_queues_match_the_reference() {
    let n = 48;
    let mut pins = Pins::new("two_deep_queues_match_the_reference");
    for (name, records) in [
        ("mixed", mixed_records(n)),
        ("skewed", skewed_records(n, 2)),
    ] {
        let reference = single_array_reference(&records);
        for (shards, arrays) in [(1usize, 1usize), (2, 1), (2, 2)] {
            let config = EngineConfig {
                shards,
                arrays_per_shard: arrays,
                queue_depth: 2,
                ..never_shed()
            };
            let key = [name, "-", "-"];
            pins.both(&config, key, &[], &records, |driver, routed, summary| {
                let label = format!("{name} shards={shards} arrays={arrays} {driver:?}");
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
    pins.check();
}
