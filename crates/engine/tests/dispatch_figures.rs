//! The dispatch figures, as exact tests.
//!
//! What more arrays and the router's hotspot spill do is stated in the
//! paper's own currency — configuration-bus words and array cycles — so it
//! is a *modeled* figure, and a modeled figure is a test, not a bench.
//! Each row drives its workload on the lockstep driver, where the arrays
//! step in virtual-clock order on this thread and every counter repeats
//! exactly, and asserts that the mechanism it measures fired. The
//! integers themselves live in `tests/pins/engine.tsv`, in the sections
//! of this binary's tests (`dispatch_figures::*`), one row per run; a
//! change that moves one fails with the old → new cells and the fresh
//! section to paste. The four-array row keeps the acceptance ratio the
//! gang it replaced was first accepted on as a derived floor, so a
//! re-pin still has something to clear. (What affinity routing buys over
//! the placement it replaced is recorded in EXPERIMENTS.md, "The last two
//! flags"; what the spill buys over the work stealing it replaced, in
//! "Stealing verdict".) The residency rows pin a rule rather than a
//! figure: a configuration stays until placement pressure evicts it, so a
//! single array keeps both Fig. 10 configurations, and four arrays serve
//! a later wave warm.

mod common;

use std::sync::Arc;

use common::{never_shed, run, run_waves, Driver, Pins};
use sdr_engine::{EngineConfig, Metrics, ParkedSession, Session, SessionState, ShardPool};
use sdr_ofdm::xpp_map::OfdmKernel;

/// `n` OFDM frames (capture → detect → demodulate), arriving a cycle
/// apart.
fn ofdm_records(n: u64) -> Vec<ParkedSession> {
    (0..n)
        .map(|i| ParkedSession::new_ofdm(i, 0x0FD + i, i))
        .collect()
}

/// Runs `records` to completion in lockstep, pins the run as the
/// `scenario` row and returns its snapshot; every frame must end `Done`.
fn figures(
    pins: &mut Pins,
    scenario: &str,
    config: EngineConfig,
    records: &[ParkedSession],
) -> sdr_engine::Snapshot {
    let (_, summary) = run(Driver::Lockstep, config.clone(), &[], records);
    assert_eq!(summary.done, records.len() as u64, "{}", summary.snapshot);
    pins.row(&config, [scenario, "-", "-"], &summary);
    summary.snapshot
}

/// One frame of each standard on one array at a fixed seed spends exactly
/// the array cycles and object fires its row pins. OFDM's are the figures
/// from before the stage-table refactor; W-CDMA's finger is the two-job
/// chain's 2 × 2,054 cycles and 36,868 + 20,556 fires less the host round
/// trip: 2,058 cycles, and 8,192 fewer fires for the four I/O objects
/// (2,048 chips each) the join removed.
#[test]
fn one_frame_of_each_standard() {
    let mut pins = Pins::new("one_frame_of_each_standard");
    let config = EngineConfig {
        shards: 1,
        ..never_shed()
    };
    for (scenario, record) in [
        ("wcdma", ParkedSession::new_wcdma(0, 42, 0)),
        ("ofdm", ParkedSession::new_ofdm(1, 7, 1)),
    ] {
        figures(&mut pins, scenario, config.clone(), &[record]);
    }
    pins.check();
}

/// Four arrays against one: 64 OFDM frames, at most eight in flight per
/// array (the regime an array actually sees: an eight-deep queue). One
/// array keeps 2a and 2b resident, so it streams only their first loads
/// (60 + 48 = 108 words). Four arrays each load both as the router
/// spreads the frames over them (4 × 108 = 432 words), which buys the
/// modeled throughput. One thread stepping four arrays and four threads
/// of one are the same pool to the lockstep driver, so their rows match.
#[test]
fn four_arrays_against_one() {
    let mut pins = Pins::new("four_arrays_against_one");
    let records = ofdm_records(64);
    let mut arm = |shards, arrays_per_shard| {
        let config = EngineConfig {
            shards,
            arrays_per_shard,
            queue_depth: 8,
            ..never_shed()
        };
        figures(&mut pins, "ofdm", config, &records)
    };
    let single = arm(1, 1);
    for (shards, arrays_per_shard) in [(1, 4), (4, 1)] {
        let four = arm(shards, arrays_per_shard);
        // The floor: ≥ 1.5× modeled throughput.
        assert!(
            2 * single.array_makespan_cycles >= 3 * four.array_makespan_cycles,
            "{shards}x{arrays_per_shard}"
        );
    }
    pins.check();
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
    let mut pins = Pins::new("the_router_spreads_a_hotspot");
    let config = EngineConfig {
        shards: 4,
        arrays_per_shard: 1,
        queue_depth: 64,
        ..never_shed()
    };
    let snap = figures(&mut pins, "ofdm", config, &ofdm_records(256));
    // The work diffused: no array ran as much as half of it.
    assert!(2 * snap.array_makespan_cycles < snap.array_cycles_run);
    pins.check();
}

/// The residency rule on one array: the first OFDM frame loads 2a and 2b
/// side by side (60 + 48 words, two builds), and with nothing pressing
/// for room both stay resident, so the fifteen frames after it stream no
/// configuration word.
#[test]
fn a_single_array_keeps_2a_and_2b_resident() {
    let mut pins = Pins::new("a_single_array_keeps_2a_and_2b_resident");
    let metrics = Arc::new(Metrics::new());
    let config = EngineConfig {
        shards: 1,
        ..EngineConfig::default()
    };
    let pool = ShardPool::lockstep(config.clone(), Arc::clone(&metrics));
    let run = |id| {
        let ended = run_waves(&pool, vec![vec![Session::ofdm(id, 0x0FD + id)]]);
        assert_eq!(*ended[0].state(), SessionState::Done, "frame {id}");
    };
    run(0);
    let warm = metrics.snapshot();
    (1..16).for_each(run);
    let snap = metrics.snapshot();
    pins.pool_row(&config, ["frame 0", "-", "-"], &warm);
    pins.pool_row(&config, ["frames 0-15", "-", "-"], &snap);
    assert_eq!(
        (
            snap.config_words_streamed - warm.config_words_streamed,
            snap.cache_evictions,
            snap.prefetches
        ),
        (0, 0, 0)
    );
    let view = pool.residency_view();
    for kernel in [OfdmKernel::PreambleDetector, OfdmKernel::Demodulator] {
        assert_eq!(view.holder_of(&kernel.into()), Some(0), "{kernel:?}");
    }
    pins.check();
}

/// Four arrays on the lockstep pool, where a round runs only when `recv`
/// finds the result queue empty: each wave is submitted whole, the router
/// sends a step to an array holding its kernel, and a kernel that repeats
/// in a later wave (a second staggered cohort reaching the same pipeline
/// stage) finds the array where it stayed resident. One thread's four
/// arrays and four threads' one array each are the same pool to the
/// lockstep driver.
#[test]
fn four_arrays_step_waves_on_warm_arrays() {
    let mut pins = Pins::new("four_arrays_step_waves_on_warm_arrays");
    for (shards, arrays_per_shard) in [(1, 4), (4, 1)] {
        let config = EngineConfig {
            shards,
            arrays_per_shard,
            queue_depth: 32,
            ..EngineConfig::default()
        };
        let metrics = Arc::new(Metrics::new());
        let pool = ShardPool::lockstep(config.clone(), Arc::clone(&metrics));
        let n = 12u64;
        // Cohort A (8 sessions) arrives a wave ahead of cohort B (4), so
        // wave 3 runs A's demodulation alongside B's preamble detection —
        // the detector loaded for A in wave 2 serves B warm.
        let cohorts = vec![
            (8..n).map(|id| Session::ofdm(id, 0x0FD + id)).collect(),
            (0..8).map(|id| Session::ofdm(id, 0x0FD + id)).collect(),
        ];
        for s in run_waves(&pool, cohorts) {
            let state = s.state();
            assert_eq!(*state, SessionState::Done, "session {}: {state:?}", s.id());
        }

        let snap = metrics.snapshot();
        assert_eq!(snap.jobs_run, 3 * n, "3 steps finish an OFDM session");
        assert_eq!(
            (
                snap.batches_dispatched,
                snap.batch_sessions,
                snap.batch_warm_hits
            ),
            (0, 0, 0),
            "inert in the engine"
        );
        assert!(
            snap.array_makespan_cycles <= snap.array_cycles_run,
            "makespan is one array's share of the total"
        );
        pins.pool_row(&config, ["two cohorts of OFDM waves", "-", "-"], &snap);
    }
    pins.check();
}
