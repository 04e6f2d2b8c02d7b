//! The dispatch figures, as exact tests.
//!
//! What a gang and cross-shard stealing do is stated in the paper's own
//! currency — configuration-bus words and array cycles — so it is a
//! *modeled* figure, and a modeled figure is a test, not a bench. Each row
//! drives its workload through `Frontend::lockstep`, where the shards step
//! in virtual-clock order on this thread and every counter repeats
//! exactly, pins the counters as integers and asserts that the mechanism
//! it measures fired; the gang row keeps the acceptance ratio it was first
//! accepted on as a derived floor, so a re-baseline of the integers still
//! has something to clear. (What stealing and affinity routing buy over
//! the placements they replaced is recorded in EXPERIMENTS.md, "The last
//! two flags".) The last row pins the residency rule rather than a
//! figure: a configuration stays until placement pressure evicts it, so a
//! single array keeps both Fig. 10 configurations.

mod common;

use std::sync::Arc;

use common::{run_to_completion, Driver};
use sdr_engine::{
    EngineConfig, Metrics, ParkedSession, Session, SessionState, ShardPool, Snapshot,
};

/// `n` OFDM frames (capture → detect → demodulate), arriving a cycle
/// apart.
fn ofdm_records(n: u64) -> Vec<ParkedSession> {
    (0..n)
        .map(|i| ParkedSession::new_ofdm(i, 0x0FD + i, i))
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
/// in flight (the regime a shard actually sees: an eight-deep queue makes
/// an eight-wide window). Both shapes keep 2a and
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
                queue_depth: 8,
                ..EngineConfig::default()
            },
            ofdm_records(64),
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

/// Cross-shard stealing against a hotspot the affinity router builds:
/// 256 OFDM frames offered at once to four shards. Captures are host-only
/// and spread over the least-loaded shards, but every detection and
/// demodulation is routed to a shard already holding its kernel, so the
/// first holder's heap saturates. Its latest-deadline half goes on offer,
/// idle shards claim it, load the kernel and become holders in turn, and
/// the work diffuses without recompiling anything.
#[test]
fn stealing_spreads_a_hotspot() {
    let snap = figures(
        EngineConfig {
            shards: 4,
            arrays_per_shard: 1,
            queue_depth: 64,
            ..EngineConfig::default()
        },
        ofdm_records(256),
    );
    assert!(snap.router_affinity_hits > 0, "no step followed its kernel");
    assert_eq!(
        (
            snap.batches_stolen,
            snap.steal_sessions,
            snap.array_makespan_cycles
        ),
        (16, 164, 52_197)
    );
    // The work diffused: no array ran as much as half of it.
    assert!(2 * snap.array_makespan_cycles < snap.array_cycles_run);
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
