//! The benchmark's four workload shapes as exact lockstep figures.
//!
//! `e2e` runs its workloads on the shipping thread driver, where the
//! modeled counters follow thread timing. Here each shape runs one
//! full-size round — warm-up included, exactly as `e2e` builds it — on
//! `Frontend::lockstep`, where every counter repeats, and the round's
//! array cycles, configuration words and evictions are pinned as
//! integers. A dispatch or residency change that moves a simulated cycle
//! of the benchmark fails here instead of only moving the benchmark.
//!
//! The record generator is the benchmark's own, compiled in from its
//! source so that the two can never drift apart.

#[allow(dead_code)]
#[path = "../src/bin/e2e/workload.rs"]
mod workload;

use std::sync::Arc;

use sdr_engine::session::WCDMA_PERIOD_CYCLES;
use sdr_engine::{EngineConfig, Frontend, Metrics, PlacementPolicy, Session};
use workload::{Workload, WARMUP_ROUND};

/// The timed round's `(array_cycles_run, config_words_streamed,
/// cache_evictions)` for `w` at `seed`, after the warm-up `e2e` runs
/// before it on the same front-end.
fn round(w: &Workload, seed: u64) -> (u64, u64, u64) {
    let frames = w.round_frames;
    let mut fe = Frontend::lockstep(
        EngineConfig {
            shards: w.shards,
            arrays_per_shard: w.arrays_per_shard,
            parking_capacity: frames,
            placement: PlacementPolicy::Affinity,
            work_stealing: true,
            ..EngineConfig::default()
        },
        Arc::new(Metrics::new()),
    );
    let warm = w.records(seed, WARMUP_ROUND, w.warmup_frames(), 0);
    for r in &warm {
        fe.admit(*r);
    }
    let warmed = fe.run(&mut |_: &Session, _| None);
    assert_eq!(warmed.done, warm.len() as u64, "{}: warm-up", w.name);

    let offset = warm.last().map_or(0, |r| r.deadline()) + 10 * WCDMA_PERIOD_CYCLES;
    for r in w.records(seed, 0, frames, offset) {
        fe.admit(r);
    }
    let before = fe.snapshot();
    let summary = fe.run(&mut |_: &Session, _| None);
    assert_eq!(
        (summary.done - warmed.done, summary.shed.len()),
        (frames as u64, 0),
        "{}: every timed frame ends Done",
        w.name
    );
    let after = fe.snapshot();
    (
        after.array_cycles_run - before.array_cycles_run,
        after.config_words_streamed - before.config_words_streamed,
        after.cache_evictions - before.cache_evictions,
    )
}

/// Runs the shape named `name` at seeds 1 and 7 and compares the two
/// rounds with `pinned`.
fn shape(name: &str, pinned: [(u64, u64, u64); 2]) {
    let w = workload::find(name).expect("a benchmark workload");
    assert_eq!([round(w, 1), round(w, 7)], pinned, "{name}");
}

/// 256 frames × 2,058 cycles (one finger job each), plus 90 cycles
/// waiting on the one 90-word finger load that the warm-up left to a
/// cold shard.
#[test]
fn wcdma_steady() {
    shape("wcdma_steady", [(526_938, 90, 0), (526_938, 90, 0)]);
}

/// 2,560 frames. 2a and 2b stay resident side by side, so the round
/// streams one 60-word detector load, which the warm-up left over.
#[test]
fn ofdm_reconfig() {
    shape("ofdm_reconfig", [(1_942_400, 60, 0), (1_941_635, 60, 0)]);
}

/// The engine's three kernels take 15 of an array's 16 I/O channels, so
/// they fit side by side: a hotspot holder still spills to the
/// least-loaded array, which may load the kernel, but nothing is evicted.
/// Two threads of two arrays are, to the lockstep driver, the pool of four
/// single arrays.
#[test]
fn mixed_gang() {
    shape("mixed_gang", [(541_178, 330, 0), (541_410, 390, 0)]);
}

/// One array holds all three kernels after the warm-up: the round
/// streams no configuration word.
#[test]
fn backpressure_1x1() {
    shape("backpressure_1x1", [(270_516, 0, 0), (270_552, 0, 0)]);
}
