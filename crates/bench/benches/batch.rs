//! Batched gang dispatch vs the single-array seed path.
//!
//! Both arms drive the same closed-loop streaming workload — 64 OFDM
//! terminal sessions with at most `WINDOW` in flight, new arrivals
//! replacing completions (the regime a basestation shard actually sees;
//! submitting everything up front would let the EDF heap serialise the
//! workload into kernel waves and hide the configuration churn being
//! measured):
//!
//! * `seed_1x1` — one shard, one array: every session pays the Fig. 10
//!   detector reload, the unbatched baseline.
//! * `gang_1x4` — one shard, a gang of four arrays: the dispatcher
//!   groups each round's window by kernel and runs the groups
//!   back-to-back on warm members, so a configuration loads once per
//!   member instead of once per session.
//!
//! Criterion measures wall time; `bench_report` additionally runs each
//! arm once, prints the counters `BENCH_BATCH.json` records, and asserts
//! the acceptance ratios (≥10× fewer configuration-bus words per
//! session, ≥1.5× modeled platform throughput). On a single-core host
//! the wall-clock ratio is near 1 — both arms simulate the same cycles
//! on one OS thread — so platform throughput is modeled from
//! `array_makespan_cycles` at the array clock, the same convention as
//! `BENCH_ARRAY.json`'s cycles-per-second figures.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sdr_engine::{EngineConfig, Metrics, Session, ShardPool, Snapshot, SubmitError};
use std::sync::Arc;

/// Sessions per measured run (all OFDM: capture → detect → demodulate).
const SESSIONS: u64 = 64;

/// Closed-loop in-flight cap (the dispatch window a shard can batch).
const WINDOW: u64 = 8;

/// Modeled array clock: the paper's XPP runs at tens of MHz; 50 MHz is
/// the figure BENCH_ARRAY.json's rate-matched shape assumes.
const ARRAY_CLOCK_HZ: f64 = 50.0e6;

fn pool(arrays_per_shard: usize) -> (ShardPool, Arc<Metrics>) {
    let metrics = Arc::new(Metrics::new());
    let pool = ShardPool::new(
        EngineConfig {
            shards: 1,
            arrays_per_shard,
            queue_depth: 32,
            ..EngineConfig::default()
        },
        Arc::clone(&metrics),
    );
    (pool, metrics)
}

/// Streams `SESSIONS` OFDM sessions through the pool with at most
/// `WINDOW` in flight; returns once every session is terminal.
fn run_closed_loop(pool: &ShardPool) {
    let mut next_id = 0u64;
    let mut in_flight = 0u64;
    let mut done = 0u64;
    let mut backlog: Vec<Session> = Vec::new();
    while done < SESSIONS {
        while in_flight < WINDOW && (next_id < SESSIONS || !backlog.is_empty()) {
            let s = backlog.pop().unwrap_or_else(|| {
                let id = next_id;
                next_id += 1;
                Session::ofdm(id, 0x0FD + id)
            });
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

/// One full arm, returning its metrics snapshot.
fn run_arm(arrays_per_shard: usize) -> Snapshot {
    let (pool, metrics) = pool(arrays_per_shard);
    run_closed_loop(&pool);
    let snap = metrics.snapshot();
    drop(pool);
    snap
}

fn bench_batch_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_dispatch");
    for (label, arrays) in [("seed_1x1", 1usize), ("gang_1x4", 4usize)] {
        g.bench_function(label, |b| {
            b.iter_batched(
                || pool(arrays),
                |(pool, metrics)| {
                    run_closed_loop(&pool);
                    drop(pool);
                    metrics.snapshot()
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

/// Not a timing measurement: runs each arm once, prints the counters the
/// BENCH_BATCH.json report records, and asserts the PR's acceptance
/// ratios so CI fails if batching regresses.
fn bench_report(_c: &mut Criterion) {
    let seed = run_arm(1);
    let gang = run_arm(4);

    let words_per_session = |s: &Snapshot| s.config_words_streamed as f64 / SESSIONS as f64;
    let modeled_sessions_per_sec =
        |s: &Snapshot| SESSIONS as f64 * ARRAY_CLOCK_HZ / s.array_makespan_cycles as f64;

    let words_ratio = words_per_session(&seed) / words_per_session(&gang);
    let throughput_ratio = modeled_sessions_per_sec(&gang) / modeled_sessions_per_sec(&seed);

    eprintln!("batch_dispatch/report ({SESSIONS} OFDM sessions, window {WINDOW}):");
    eprintln!(
        "  seed_1x1: {:.1} words/session, makespan {} cycles, modeled {:.0} sessions/s, \
         {} batches",
        words_per_session(&seed),
        seed.array_makespan_cycles,
        modeled_sessions_per_sec(&seed),
        seed.batches_dispatched,
    );
    eprintln!(
        "  gang_1x4: {:.1} words/session, makespan {} cycles, modeled {:.0} sessions/s, \
         {} batches (avg {:.1} sessions), {} warm hits, {} replications",
        words_per_session(&gang),
        gang.array_makespan_cycles,
        modeled_sessions_per_sec(&gang),
        gang.batches_dispatched,
        gang.avg_batch_size(),
        gang.batch_warm_hits,
        gang.batch_replications,
    );
    eprintln!(
        "  config-bus words ratio {words_ratio:.1}x (target >= 10), \
         modeled throughput ratio {throughput_ratio:.2}x (target >= 1.5)"
    );
    assert!(
        words_ratio >= 10.0,
        "batching must amortise configuration: {words_ratio:.1}x < 10x"
    );
    assert!(
        throughput_ratio >= 1.5,
        "gang must raise modeled platform throughput: {throughput_ratio:.2}x < 1.5x"
    );
}

criterion_group! {
    name = batch_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_batch_dispatch, bench_report
}
criterion_main!(batch_benches);
