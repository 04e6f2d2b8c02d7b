//! The dispatch figures, as exact tests.
//!
//! What more arrays and the router's hotspot spill do is stated in the
//! paper's own currency — configuration-bus words and array cycles — so it
//! is a *modeled* figure, and a modeled figure is a test, not a bench.
//! Each row drives its workload through `Frontend::lockstep`, where the
//! arrays step in virtual-clock order on this thread and every counter
//! repeats exactly, pins the counters as integers and asserts that the
//! mechanism it measures fired; the four-array row keeps the acceptance
//! ratio the gang it replaced was first accepted on as a derived floor, so
//! a re-baseline of the integers still has something to clear. (What
//! affinity routing buys over the placement it replaced is recorded in
//! EXPERIMENTS.md, "The last two flags"; what the spill buys over the work
//! stealing it replaced, in "Stealing verdict".) The last row pins the
//! residency rule rather than a figure: a configuration stays until
//! placement pressure evicts it, so a single array keeps both Fig. 10
//! configurations.

mod common;

use std::sync::Arc;

use common::{run_to_completion, Driver};
use sdr_engine::{
    EngineConfig, Metrics, ParkedSession, Session, SessionState, ShardPool, Snapshot,
};
use sdr_ofdm::xpp_map::OfdmKernel;

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

/// Four arrays against one: 64 OFDM frames, at most eight in flight per
/// array (the regime an array actually sees: an eight-deep queue). One
/// array keeps 2a and 2b resident, so it streams only their first loads
/// (108 words). Four arrays each load both as the router spreads the
/// frames over them (432 words), which buys the modeled throughput. One
/// thread stepping four arrays and four threads of one are the same pool
/// to the lockstep driver.
#[test]
fn four_arrays_against_one() {
    let arm = |shards, arrays_per_shard| {
        figures(
            EngineConfig {
                shards,
                arrays_per_shard,
                queue_depth: 8,
                ..EngineConfig::default()
            },
            ofdm_records(64),
        )
    };
    let single = arm(1, 1);
    assert_eq!(
        (single.config_words_streamed, single.array_makespan_cycles),
        (108, 48_604),
        "the warm-up loads 2a and 2b once: 60 + 48 words"
    );
    for (shards, arrays_per_shard) in [(1, 4), (4, 1)] {
        let four = arm(shards, arrays_per_shard);
        let label = format!("{shards}x{arrays_per_shard}");
        assert_eq!(
            (
                four.router_affinity_hits,
                four.router_fallbacks,
                four.config_words_streamed,
                four.array_makespan_cycles
            ),
            (64, 128, 432, 12_259),
            "{label}"
        );
        // The floor: ≥ 1.5× modeled throughput.
        assert!(
            2 * single.array_makespan_cycles >= 3 * four.array_makespan_cycles,
            "{label}"
        );
    }
}

/// The router against a hotspot it would build by affinity alone: 256
/// OFDM frames offered at once to four shards. Captures are host-only and
/// spread over the least-loaded shards, and every detection and
/// demodulation goes to a shard already holding its kernel — until that
/// holder owns more than eight sessions beyond the least-loaded shard.
/// Then the step spills there, that shard loads the kernel and becomes a
/// holder in turn, and the work diffuses without recompiling anything.
#[test]
fn the_router_spreads_a_hotspot() {
    let snap = figures(
        EngineConfig {
            shards: 4,
            arrays_per_shard: 1,
            queue_depth: 64,
            ..EngineConfig::default()
        },
        ofdm_records(256),
    );
    assert_eq!(
        (
            snap.router_affinity_hits,
            snap.router_fallbacks,
            snap.array_makespan_cycles
        ),
        (429, 339, 51_017)
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
    let view = pool.residency_view();
    for kernel in [OfdmKernel::PreambleDetector, OfdmKernel::Demodulator] {
        assert_eq!(view.holder_of(&kernel.into()), Some(0), "{kernel:?}");
    }
}
