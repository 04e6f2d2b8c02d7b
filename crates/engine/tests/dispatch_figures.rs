//! The dispatch figures, as exact tests.
//!
//! What gang batching, cross-shard stealing and affinity routing buy is
//! stated in the paper's own currency — configuration-bus words and array
//! cycles — so it is a *modeled* figure, and a modeled figure is a test,
//! not a bench. Each row drives its workload through `Frontend::lockstep`,
//! where the shards step in virtual-clock order on this thread and every
//! counter repeats exactly, pins the counters as integers, asserts that
//! the mechanism it measures fired, and keeps the acceptance ratio the
//! row was first accepted on as a derived floor, so a re-baseline of the
//! integers still has something to clear. The last row pins a mechanism
//! rather than a figure: the prefetch spill, which of the benchmark's
//! shapes only the one-array mix reaches.

mod common;

use common::{run_to_completion, Driver};
use sdr_dsp::rng::Rng64;
use sdr_engine::{EngineConfig, ParkedSession, PlacementPolicy, Snapshot};

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

/// Batched gang dispatch against the single-array path: 64 OFDM frames,
/// at most eight in flight (the regime a shard actually sees; everything
/// at once would let the EDF heap serialise the load into kernel waves and
/// hide the configuration churn being measured). On one array every frame
/// pays the Fig. 10 detector reload; a gang of four groups each round's
/// window by kernel and runs the groups on warm members.
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

    assert_eq!(single.batches_dispatched, 0, "one array never batches");
    assert_eq!(
        (single.config_words_streamed, single.array_makespan_cycles),
        (3_468, 51_916)
    );
    assert_eq!(
        (
            gang.batches_dispatched,
            gang.batch_sessions,
            gang.batch_warm_hits,
            gang.batch_replications
        ),
        (24, 192, 14, 2)
    );
    assert_eq!(
        (gang.config_words_streamed, gang.array_makespan_cycles),
        (228, 15_511)
    );
    // The floors: ≥ 10× fewer words per session, ≥ 1.5× modeled throughput.
    assert!(single.config_words_streamed >= 10 * gang.config_words_streamed);
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
        (0, 194_188)
    );
    assert_eq!(
        (
            on.batches_stolen,
            on.steal_sessions,
            on.array_makespan_cycles
        ),
        (50, 997, 48_822)
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
        (0, 3_780),
        "static placement never consults the view"
    );
    assert_eq!(
        (
            routed.router_affinity_hits,
            routed.router_fallbacks,
            routed.config_words_streamed
        ),
        (179, 205, 738)
    );
    // The floor: strictly fewer words.
    assert!(routed.config_words_streamed < fixed.config_words_streamed);
}

/// The prefetch spill on the `backpressure_1x1` shape: one array, the
/// alternating mix with Poisson arrivals at that workload's mean
/// interarrival (16,500 modeled cycles), the default queue and window.
/// True deadlines alternate the standards on the one array, so an OFDM
/// detection that prefetches the demodulator finds the array full, and
/// instead of giving up the prefetch reclaims a resident that has fired
/// nothing since the last step.
#[test]
fn a_single_array_spills_quiescent_residents_to_prefetch() {
    let mut rng = Rng64::seed_from_u64(1);
    let mut arrival = 0;
    let records: Vec<ParkedSession> = (0..64)
        .map(|id| {
            arrival += (-16_500.0 * rng.next_f64().max(1e-12).ln()).ceil() as u64;
            if id % 2 == 0 {
                ParkedSession::new_wcdma(id, 1_000 + id, arrival)
            } else {
                ParkedSession::new_ofdm(id, 2_000 + id, arrival)
            }
        })
        .collect();
    let snap = figures(
        EngineConfig {
            shards: 1,
            ..EngineConfig::default()
        },
        records,
    );
    assert_eq!(
        (snap.prefetches, snap.prefetch_spills, snap.cache_evictions),
        (13, 12, 54),
        "12 of 13 prefetches made room by spilling"
    );
}
