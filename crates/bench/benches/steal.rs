//! Cross-shard work stealing vs a hotspotted static placement, plus
//! residency-affinity routing vs the static oracle on a mixed-kernel
//! load.
//!
//! **Steal arms** — a pathologically skewed arrival pattern: every
//! session id is a multiple of the shard count, so the static
//! `id % shards` oracle funnels the entire workload onto shard 0 while
//! the other three shards sit idle.
//!
//! * `skew_4x1_steal_off` — the seed behaviour: shard 0 grinds through
//!   everything alone; the modeled makespan is the whole workload.
//! * `skew_4x1_steal_on` — shard 0's saturated EDF heap exposes its
//!   coldest half as a steal offer; idle shards claim and re-offer, so
//!   the work diffuses across the pool without recompiling anything
//!   (the process-wide `ConfigStore` makes compiled configs
//!   shard-agnostic).
//!
//! **Routing arms** — a mixed rake + OFDM population arranged so the
//! static oracle *interleaves* standards on every shard (maximum
//! configuration churn), while the affinity router may follow each
//! session's next kernel to the shard already holding it.
//!
//! Criterion measures wall time; `bench_report` additionally runs each
//! arm once, prints the counters `BENCH_STEAL.json` records, and
//! asserts the acceptance ratios (≥2× modeled-makespan improvement from
//! stealing, strictly fewer configuration-bus words per session from
//! affinity routing). On a single-core host the wall-clock ratio is
//! near 1 — all shards simulate their cycles on OS threads of one box —
//! so platform speedup is modeled from `array_makespan_cycles` at the
//! array clock, the same convention as `BENCH_BATCH.json`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sdr_engine::{
    EngineConfig, Metrics, PlacementPolicy, Session, ShardPool, Snapshot, SubmitError,
};
use std::sync::Arc;

/// Sessions per steal arm (all OFDM: capture → detect → demodulate).
const SESSIONS: u64 = 256;

/// Shards in the steal arms; every session id is a multiple of this,
/// so static placement pins the whole load to shard 0.
const SHARDS: usize = 4;

/// Sessions per routing arm (mixed W-CDMA / OFDM).
const MIXED_SESSIONS: u64 = 128;

/// Modeled array clock (the convention BENCH_ARRAY.json uses).
const ARRAY_CLOCK_HZ: f64 = 50.0e6;

fn skew_pool(work_stealing: bool) -> (ShardPool, Arc<Metrics>) {
    let metrics = Arc::new(Metrics::new());
    let pool = ShardPool::new(
        EngineConfig {
            shards: SHARDS,
            arrays_per_shard: 1,
            queue_depth: SESSIONS as usize,
            placement: PlacementPolicy::Static,
            work_stealing,
            steal_threshold: 2,
            ..EngineConfig::default()
        },
        Arc::clone(&metrics),
    );
    (pool, metrics)
}

/// All ids ≡ 0 (mod SHARDS): the static oracle maps every one of them
/// to shard 0.
fn skewed_sessions() -> Vec<Session> {
    (0..SESSIONS)
        .map(|i| Session::ofdm(i * SHARDS as u64, 0x0FD + i))
        .collect()
}

fn mixed_pool(placement: PlacementPolicy) -> (ShardPool, Arc<Metrics>) {
    let metrics = Arc::new(Metrics::new());
    let pool = ShardPool::new(
        EngineConfig {
            shards: 2,
            arrays_per_shard: 1,
            queue_depth: 64,
            placement,
            work_stealing: false,
            ..EngineConfig::default()
        },
        Arc::clone(&metrics),
    );
    (pool, metrics)
}

/// Standards arranged so `id % 2` interleaves them on both shards:
/// shard 0 sees W-CDMA, OFDM, W-CDMA, … and so does shard 1 — the
/// worst case for the static oracle, and exactly the shape where
/// following kernel residency pays.
fn mixed_sessions() -> Vec<Session> {
    (0..MIXED_SESSIONS)
        .map(|id| {
            if id % 4 < 2 {
                Session::wcdma(id, 1_000 + id)
            } else {
                Session::ofdm(id, 2_000 + id)
            }
        })
        .collect()
}

/// Driver with at most `window` sessions in flight, recycling
/// non-terminal sessions until all are done.
///
/// The steal arms run it wide open (`window` = everything): the
/// deliberate queue buildup on shard 0 is the point — a saturated EDF
/// heap is what triggers steal offers. The routing arms run a narrow
/// window instead: submitted all at once, the EDF heap would serialise
/// the mixed load into kernel waves and hide exactly the configuration
/// churn affinity routing is supposed to remove (the same regime note
/// as the batch bench).
fn run_to_completion(pool: &ShardPool, sessions: Vec<Session>, window: usize) {
    let total = sessions.len();
    let mut backlog = sessions;
    let mut in_flight = 0usize;
    let mut done = 0usize;
    while done < total {
        while in_flight < window {
            let Some(s) = backlog.pop() else { break };
            match pool.submit(s) {
                Ok(_) => in_flight += 1,
                Err(SubmitError::WouldBlock(s)) => {
                    backlog.push(s);
                    break;
                }
                Err(SubmitError::Shutdown(_)) => unreachable!("pool is alive"),
            }
        }
        let s = pool.recv().expect("worker alive");
        in_flight -= 1;
        if s.is_terminal() {
            assert!(
                matches!(s.state(), sdr_engine::SessionState::Done),
                "session {} ended {:?}",
                s.id(),
                s.state()
            );
            done += 1;
        } else {
            backlog.push(s);
        }
    }
}

/// Closed-loop window for the routing arms (the batch bench's regime).
const MIXED_WINDOW: usize = 8;

fn run_skew_arm(work_stealing: bool) -> Snapshot {
    let (pool, metrics) = skew_pool(work_stealing);
    run_to_completion(&pool, skewed_sessions(), SESSIONS as usize);
    let snap = metrics.snapshot();
    drop(pool);
    snap
}

fn run_mixed_arm(placement: PlacementPolicy) -> Snapshot {
    let (pool, metrics) = mixed_pool(placement);
    run_to_completion(&pool, mixed_sessions(), MIXED_WINDOW);
    let snap = metrics.snapshot();
    drop(pool);
    snap
}

fn bench_steal(c: &mut Criterion) {
    let mut g = c.benchmark_group("steal");
    for (label, stealing) in [("skew_4x1_steal_off", false), ("skew_4x1_steal_on", true)] {
        g.bench_function(label, |b| {
            b.iter_batched(
                || skew_pool(stealing),
                |(pool, metrics)| {
                    run_to_completion(&pool, skewed_sessions(), SESSIONS as usize);
                    drop(pool);
                    metrics.snapshot()
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

/// Not a timing measurement: runs each arm once, prints the counters
/// BENCH_STEAL.json records, and asserts the PR's acceptance ratios so
/// CI fails if stealing or affinity routing regresses.
fn bench_report(_c: &mut Criterion) {
    let steal_off = run_skew_arm(false);
    let steal_on = run_skew_arm(true);

    let makespan_ratio =
        steal_off.array_makespan_cycles as f64 / steal_on.array_makespan_cycles.max(1) as f64;
    let modeled_sessions_per_sec =
        |s: &Snapshot| SESSIONS as f64 * ARRAY_CLOCK_HZ / s.array_makespan_cycles as f64;

    eprintln!("steal/report ({SESSIONS} OFDM sessions, all ids = 0 mod {SHARDS}):");
    eprintln!(
        "  steal_off: makespan {} cycles, modeled {:.0} sessions/s",
        steal_off.array_makespan_cycles,
        modeled_sessions_per_sec(&steal_off),
    );
    eprintln!(
        "  steal_on:  makespan {} cycles, modeled {:.0} sessions/s, \
         {} offers claimed ({} session-steps migrated)",
        steal_on.array_makespan_cycles,
        modeled_sessions_per_sec(&steal_on),
        steal_on.batches_stolen,
        steal_on.steal_sessions,
    );
    eprintln!("  modeled makespan improvement {makespan_ratio:.2}x (target >= 2)");
    assert!(
        steal_on.batches_stolen >= 1,
        "the skewed arrival pattern must actually trigger steals"
    );
    assert!(
        makespan_ratio >= 2.0,
        "stealing must spread the hotspot: {makespan_ratio:.2}x < 2x"
    );

    let static_arm = run_mixed_arm(PlacementPolicy::Static);
    let affinity = run_mixed_arm(PlacementPolicy::Affinity);
    let words_per_session = |s: &Snapshot| s.config_words_streamed as f64 / MIXED_SESSIONS as f64;

    eprintln!("routing/report ({MIXED_SESSIONS} mixed sessions, 2 shards):");
    eprintln!(
        "  static:   {:.1} cfg words/session",
        words_per_session(&static_arm),
    );
    eprintln!(
        "  affinity: {:.1} cfg words/session, {} hits / {} fallbacks (hit rate {:.1}%)",
        words_per_session(&affinity),
        affinity.router_affinity_hits,
        affinity.router_fallbacks,
        100.0 * affinity.affinity_hit_rate(),
    );
    assert!(
        affinity.router_affinity_hits > 0,
        "the mixed workload must exercise the affinity path"
    );
    assert!(
        words_per_session(&affinity) < words_per_session(&static_arm),
        "affinity routing must stream fewer configuration words per session \
         than the static oracle on a mixed-kernel load: {:.1} >= {:.1}",
        words_per_session(&affinity),
        words_per_session(&static_arm),
    );
}

criterion_group! {
    name = steal_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_steal, bench_report
}
criterion_main!(steal_benches);
