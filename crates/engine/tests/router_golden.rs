//! Router golden equivalence: the two-level scheduler re-orders
//! *placement*, never *results*. Whatever shard a session lands on —
//! picked by the static oracle, the residency-affinity router, or a
//! mid-flight steal — its signal path runs the same kernels with the
//! same seeds and data, so its terminal state must be bit-identical to
//! a run of the same session on a private single array.
//!
//! Two layers are pinned here:
//!
//! 1. **Routing** — with affinity and stealing disabled, the
//!    `Placement` trait path must place every submission on exactly the
//!    shard the seed's `id % shards` oracle names, so the refactor is
//!    invisible to the golden suites that predate it.
//! 2. **Outcomes** — with affinity routing and stealing enabled, every
//!    per-session outcome must still match the single-array reference,
//!    on the same mixed rake + OFDM workload the gang-golden suite uses.

mod common;

use std::sync::Arc;

use common::{mixed_records, skewed_records, under_both_drivers, Driver, Outcome};
use sdr_engine::{
    EngineConfig, Metrics, ParkedSession, PlacementPolicy, Session, SessionState, ShardPool,
    WorkerArray,
};

/// Steps every session to a terminal state on its own private array:
/// the strongest reference — no pool, no router, no gang, no
/// stealing — that every routed configuration must reproduce.
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

/// Runs the workload through the front-end with the given routing
/// configuration, under both drivers (which must agree), and returns each
/// terminal's outcome sorted by id. `exact` is what the lockstep run must
/// read: affinity hits, fallbacks, offers claimed, configuration words.
fn routed_outcomes(
    (shards, arrays_per_shard): (usize, usize),
    placement: PlacementPolicy,
    work_stealing: bool,
    n: u64,
    exact: [u64; 4],
) -> Vec<Outcome> {
    let config = EngineConfig {
        shards,
        arrays_per_shard,
        queue_depth: 64,
        placement,
        work_stealing,
        ..EngineConfig::default()
    };
    let label =
        format!("shards={shards} gang={arrays_per_shard} {placement:?} steal={work_stealing}");
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
                    snap.batches_stolen,
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

/// The `Placement` trait path under `PlacementPolicy::Static` must name
/// exactly the shard the seed oracle (`ShardPool::shard_of`) names, for
/// every submission — the routing layer is bit-invisible when disabled.
#[test]
fn static_placement_routes_like_the_seed_oracle() {
    let metrics = Arc::new(Metrics::new());
    let pool = ShardPool::lockstep(
        EngineConfig {
            shards: 3,
            arrays_per_shard: 1,
            queue_depth: 64,
            placement: PlacementPolicy::Static,
            work_stealing: false,
            ..EngineConfig::default()
        },
        Arc::clone(&metrics),
    );
    for session in mixed_records(24).iter().map(Session::rehydrate) {
        let oracle = pool.shard_of(&session);
        let routed = pool
            .submit(session)
            .expect("a pool with room must accept the submission");
        assert_eq!(
            routed, oracle,
            "static placement diverged from the id % shards oracle"
        );
    }
    // Nothing ran (a lockstep pool steps only in `recv` and `shutdown`);
    // every session drains unharmed.
    let leftover = pool.shutdown();
    assert_eq!(leftover.len(), 24, "shutdown must return everything");
    let snapshot = metrics.snapshot();
    assert_eq!(
        snapshot.router_affinity_hits, 0,
        "static placement must never consult the residency view"
    );
    assert_eq!(snapshot.router_fallbacks, 0);
}

/// Static placement with stealing off, on a multi-shard gang: the new
/// scheduler layer in its "seed mode" must reproduce the gang-golden
/// outcomes bit-for-bit.
#[test]
fn static_routing_without_stealing_matches_the_reference() {
    let n = 48;
    let reference = single_array_reference(&mixed_records(n));
    assert!(
        reference.iter().all(|(_, _, s)| *s == SessionState::Done),
        "reference workload must complete cleanly for the comparison to mean much"
    );
    // Static placement never consults the view; only the words differ.
    for (shape, words) in [((2usize, 1usize), 210), ((2, 4), 534), ((4, 2), 744)] {
        let routed = routed_outcomes(shape, PlacementPolicy::Static, false, n, [0, 0, 0, words]);
        assert_matches_reference(&format!("static {shape:?}"), &routed, &reference);
    }
}

/// Affinity routing plus cross-shard stealing enabled: placement and
/// mid-flight migration change *where* a session runs, never *what* it
/// computes — every outcome still matches the single-array reference.
#[test]
fn affinity_routing_with_stealing_matches_the_reference() {
    let n = 48;
    let reference = single_array_reference(&mixed_records(n));
    for (shape, exact) in [
        ((2usize, 2usize), [42, 102, 4, 942]),
        ((4, 1), [58, 86, 10, 684]),
        ((4, 4), [58, 86, 10, 1_800]),
    ] {
        let routed = routed_outcomes(shape, PlacementPolicy::Affinity, true, n, exact);
        assert_matches_reference(&format!("affinity {shape:?}"), &routed, &reference);
    }
}

/// Backpressure at the driver, two-deep queues under a wider
/// `max_resident`. Behind the affinity router the credit window paces the
/// driver and no frame ever bounces; under static placement with every id
/// on shard 0, that shard's queue refuses what the window still offers,
/// and frames re-park and rehydrate; in lockstep, which steps nothing until
/// `recv`, the first two before the pool has run a round. Either way every
/// outcome equals the never-parked single-array reference.
#[test]
fn reparked_frames_match_the_reference() {
    let n = 48;
    let reference = single_array_reference(&mixed_records(n));
    for (shards, gang, max_resident) in [(1usize, 1usize, 8usize), (2, 2, 16)] {
        let config = EngineConfig {
            shards,
            arrays_per_shard: gang,
            queue_depth: 2,
            max_resident,
            ..EngineConfig::default()
        };
        under_both_drivers(&config, &mixed_records(n), |driver, routed, summary| {
            assert_matches_reference(
                &format!("credit shards={shards} gang={gang} {driver:?}"),
                routed,
                &reference,
            );
            assert_eq!(
                summary.snapshot.backpressure_parks, 0,
                "shards={shards} gang={gang} {driver:?}: the window offered more than the pool could take"
            );
        });
    }

    let skewed = skewed_records(n, 2);
    let reference = single_array_reference(&skewed);
    for (gang, exact_parks) in [(1usize, 6), (2, 6)] {
        let config = EngineConfig {
            shards: 2,
            arrays_per_shard: gang,
            queue_depth: 2,
            max_resident: 16,
            placement: PlacementPolicy::Static,
            ..EngineConfig::default()
        };
        under_both_drivers(&config, &skewed, |driver, routed, summary| {
            assert_matches_reference(
                &format!("static skew gang={gang} {driver:?}"),
                routed,
                &reference,
            );
            if driver == Driver::Lockstep {
                assert_eq!(
                    summary.snapshot.backpressure_parks, exact_parks,
                    "gang={gang}: re-parks in lockstep"
                );
            }
        });
    }
}
