//! The dispatch figures, as exact tests.
//!
//! What a gang, cross-shard stealing and affinity routing buy is stated in
//! the paper's own currency — configuration-bus words and array cycles —
//! so it is a *modeled* figure, and a modeled figure is a test, not a
//! bench. Each row drives its workload through `Frontend::lockstep`, where
//! the shards step in virtual-clock order on this thread and every counter
//! repeats exactly, pins the counters as integers, asserts that the
//! mechanism it measures fired, and keeps the acceptance ratio the row was
//! first accepted on as a derived floor, so a re-baseline of the integers
//! still has something to clear. The last row pins the residency rule
//! rather than a figure: a configuration stays until placement pressure
//! evicts it, so a single array keeps both Fig. 10 configurations.

mod common;

use std::sync::Arc;

use common::{run_to_completion, Driver};
use sdr_engine::{
    EngineConfig, Metrics, ParkedSession, PlacementPolicy, Session, SessionState, ShardPool,
    Snapshot,
};

/// `n` OFDM frames (capture → detect → demodulate), ids `stride` apart.
fn ofdm_records(n: u64, stride: u64) -> Vec<ParkedSession> {
    (0..n)
        .map(|i| ParkedSession::new_ofdm(i * stride, 0x0FD + i, i * stride))
        .collect()
}

/// Runs `records` to completion in lockstep; every frame must end `Done`.
fn figures(config: EngineConfig, records: Vec<ParkedSession>) -> Snapshot {
    let n = records.len() as u64;
    let (_, summary) = run_to_completion(Driver::Lockstep, config, records);
    assert_eq!(summary.done, n, "{}", summary.snapshot);
    summary.snapshot
}

/// A gang of four against a single array: 64 OFDM frames, at most eight
/// in flight (the regime a shard actually sees). Both shapes keep 2a and
/// 2b resident, so the single array streams only their first loads (108
/// words). The gang runs each step on a member holding its kernel and
/// twice replicates a hot one onto an idle member (228 words), which buys
/// the modeled throughput.
#[test]
fn gang_batching_amortises_configuration_loads() {
    let arm = |arrays_per_shard| {
        figures(
            EngineConfig {
                shards: 1,
                arrays_per_shard,
                queue_depth: 32,
                max_resident: 8,
                ..EngineConfig::default()
            },
            ofdm_records(64, 1),
        )
    };
    let (single, gang) = (arm(1), arm(4));

    assert_eq!(
        (single.batch_warm_hits, single.batch_replications),
        (126, 0),
        "every step but the first detection and demodulation is warm"
    );
    assert_eq!(
        (single.config_words_streamed, single.array_makespan_cycles),
        (108, 48_604)
    );
    assert_eq!((gang.batch_warm_hits, gang.batch_replications), (126, 2));
    assert_eq!(
        (gang.config_words_streamed, gang.array_makespan_cycles),
        (228, 15_523)
    );
    // The floor: ≥ 1.5× modeled throughput.
    assert!(2 * single.array_makespan_cycles >= 3 * gang.array_makespan_cycles);
}

/// Cross-shard stealing against a hotspot: every id is a multiple of the
/// shard count, so static placement funnels all 256 OFDM frames — offered
/// at once, the saturated heap is the point — onto shard 0 of four.
/// Without stealing it grinds through them alone; with it, its
/// latest-deadline half goes on offer, idle shards claim and re-offer, and
/// the work diffuses without recompiling anything.
#[test]
fn stealing_spreads_a_hotspot() {
    let arm = |work_stealing| {
        figures(
            EngineConfig {
                shards: 4,
                arrays_per_shard: 1,
                queue_depth: 256,
                max_resident: 256,
                placement: PlacementPolicy::Static,
                work_stealing,
                steal_threshold: 2,
                ..EngineConfig::default()
            },
            ofdm_records(256, 4),
        )
    };
    let (off, on) = (arm(false), arm(true));

    assert_eq!(
        (off.batches_stolen, off.array_makespan_cycles),
        (0, 194_236)
    );
    assert_eq!(
        (
            on.batches_stolen,
            on.steal_sessions,
            on.array_makespan_cycles
        ),
        (51, 997, 48_924)
    );
    assert_eq!(
        off.array_cycles_run, off.array_makespan_cycles,
        "without stealing one array does all the work"
    );
    // The floor: ≥ 2× modeled makespan.
    assert!(off.array_makespan_cycles >= 2 * on.array_makespan_cycles);
}

/// Residency-affinity routing against the static oracle: 128 frames, two
/// W-CDMA then two OFDM, so `id % 2` interleaves the standards on both
/// shards (the most configuration churn static placement can produce),
/// eight in flight, stealing off. The router may follow each frame's next
/// kernel to the shard that already holds it.
#[test]
fn affinity_routing_streams_fewer_words_than_static_placement() {
    let records: Vec<ParkedSession> = (0..128)
        .map(|id| {
            if id % 4 < 2 {
                ParkedSession::new_wcdma(id, 1_000 + id, id)
            } else {
                ParkedSession::new_ofdm(id, 2_000 + id, id)
            }
        })
        .collect();
    let arm = |placement| {
        figures(
            EngineConfig {
                shards: 2,
                arrays_per_shard: 1,
                queue_depth: 64,
                max_resident: 8,
                placement,
                work_stealing: false,
                ..EngineConfig::default()
            },
            records.clone(),
        )
    };
    let (fixed, routed) = (arm(PlacementPolicy::Static), arm(PlacementPolicy::Affinity));

    assert_eq!(
        (
            fixed.router_affinity_hits + fixed.router_fallbacks,
            fixed.config_words_streamed
        ),
        (0, 420),
        "static placement never consults the view"
    );
    assert_eq!(
        (
            routed.router_affinity_hits,
            routed.router_fallbacks,
            routed.config_words_streamed
        ),
        (185, 199, 258)
    );
    // The floor: strictly fewer words.
    assert!(routed.config_words_streamed < fixed.config_words_streamed);
}

/// The residency rule on one array: the first OFDM frame loads 2a and 2b
/// side by side, and with nothing pressing for room both stay resident, so
/// the fifteen frames after it stream no configuration word.
#[test]
fn a_single_array_keeps_2a_and_2b_resident() {
    let metrics = Arc::new(Metrics::new());
    let pool = ShardPool::lockstep(
        EngineConfig {
            shards: 1,
            ..EngineConfig::default()
        },
        Arc::clone(&metrics),
    );
    let run = |id| {
        let mut session = Session::ofdm(id, 0x0FD + id);
        while !session.is_terminal() {
            pool.submit(session).expect("the queue has room");
            session = pool.recv().expect("the shard steps it");
        }
        assert_eq!(*session.state(), SessionState::Done, "frame {id}");
    };
    run(0);
    let warm = metrics.snapshot();
    for id in 1..16 {
        run(id);
    }
    let snap = metrics.snapshot();
    assert_eq!(
        (warm.config_words_streamed, warm.cache_misses),
        (108, 2),
        "the warm-up loads both configurations once: 60 + 48 words"
    );
    assert_eq!(
        (
            snap.config_words_streamed - warm.config_words_streamed,
            snap.cache_evictions,
            snap.prefetches,
            snap.reconfigurations
        ),
        (0, 0, 0, 0)
    );
    let status = pool.residency_view().status(0);
    assert!(status.holds("fig10-config2a-detector"));
    assert!(status.holds("fig10-config2b-demodulator"));
}
