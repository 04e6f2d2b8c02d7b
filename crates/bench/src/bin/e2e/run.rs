//! One timed round of a workload through `Frontend`, driven exactly as
//! `examples/basestation.rs` drives it: records admitted up front as
//! parked sessions with Poisson arrivals in modeled time, then
//! `Frontend::run` drains them (open loop in modeled time, batch drain in
//! host time). The calling thread is the front-end driver and the only
//! load generator.

use std::time::Instant;

use sdr_engine::frontend::{Frontend, FrontendConfig};
use sdr_engine::session::WCDMA_PERIOD_CYCLES;
use sdr_engine::{PlacementPolicy, Session, Snapshot, Standard};

use crate::procfs::{process_cpu_s, thread_cpu_s};
use crate::trace::{SpanId, Tracer};
use crate::workload::{checksum, Workload, WARMUP_ROUND};

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// The `Snapshot` counters the per-layer ratios are built from,
        /// as a timed-region delta that sums across rounds.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct Counters { $(pub $field: u64),* }

        impl Counters {
            fn delta(after: &Snapshot, before: &Snapshot) -> Self {
                Counters { $($field: after.$field.saturating_sub(before.$field)),* }
            }

            pub fn add(&mut self, other: &Counters) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

counters!(
    jobs_run,
    jobs_rejected,
    cache_hits,
    cache_misses,
    cache_evictions,
    prefetches,
    prefetch_hits,
    config_bus_cycles,
    config_words_demand,
    config_words_prefetched,
    rehydrations,
    backpressure_parks,
    batches_dispatched,
    batch_sessions,
    batch_warm_hits,
    delta_words_saved,
    array_cycles_run,
    config_words_streamed,
    // A high-water mark of one gang member's cumulative cycles; its
    // delta is the busiest member's cycles over the timed region.
    array_makespan_cycles,
    schedules_captured,
    schedule_replay_cycles,
    schedule_invalidations,
    router_affinity_hits,
    router_fallbacks,
    steal_sessions,
    residency_view_refreshes,
);

#[derive(Debug, Clone)]
pub struct Round {
    pub traced: bool,
    /// Frames offered to the admission model in the timed region.
    pub offered: u64,
    pub done: u64,
    /// Frames that did not end `Done`: failed, dead-lettered, shed,
    /// lost, or a failed warm-up frame.
    pub failed: u64,
    pub shed: u64,
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub driver_cpu_s: f64,
    pub counters: Counters,
    pub kernel_jobs: u64,
    pub queue_high_water: u64,
    pub p99_slack_cycles: i64,
    pub records_checksum: u64,
}

fn begin(
    t: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
) -> Option<SpanId> {
    t.as_mut().map(|t| t.begin(name, parent, None))
}

fn end(t: &mut Option<&mut Tracer>, id: Option<SpanId>) {
    if let (Some(t), Some(id)) = (t.as_mut(), id) {
        t.end(id);
    }
}

/// Runs warm-up plus one timed batch of `frames` frames on a fresh
/// `Frontend`. With a tracer, the completion hook stamps every finished
/// frame under `round` → `setup`/`admit`/`run` spans.
pub fn run_round(
    w: &Workload,
    seed: u64,
    round: u64,
    frames: usize,
    mut tracer: Option<&mut Tracer>,
) -> Round {
    let root = begin(&mut tracer, "round", None);

    let setup_start = Instant::now();
    let setup_span = begin(&mut tracer, "setup", root);
    // The basestation's configuration: nothing tuned away from defaults.
    let mut fe = Frontend::new(FrontendConfig {
        shards: w.shards,
        arrays_per_shard: w.arrays_per_shard,
        parking_capacity: frames,
        placement: PlacementPolicy::Affinity,
        work_stealing: true,
        delta_loading: true,
        ..FrontendConfig::default()
    });
    // Warm-up on the same front-end: kernels compiled into the store,
    // residents loaded, before anything is timed.
    let warm = w.records(seed, WARMUP_ROUND, w.warmup_frames(), 0);
    for r in &warm {
        fe.admit(*r);
    }
    let warmed = fe.run(&mut |_: &Session, _| None);
    end(&mut tracer, setup_span);

    let admit_span = begin(&mut tracer, "admit", root);
    // Past the warm-up's modeled time, so every virtual server is free.
    let offset = warm.last().map_or(0, |r| r.deadline()) + 10 * WCDMA_PERIOD_CYCLES;
    let records = w.records(seed, round, frames, offset);
    for r in &records {
        fe.admit(*r);
    }
    end(&mut tracer, admit_span);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let before = fe.snapshot();
    let run_span = begin(&mut tracer, "run", root);
    let (cpu0, driver0, t0) = (process_cpu_s(), thread_cpu_s(), Instant::now());
    let summary = match tracer.as_mut() {
        Some(t) => fe.run(&mut |s: &Session, completed_at| {
            let name = match s.standard() {
                Standard::Wcdma => "frame.done.wcdma",
                Standard::Ofdm => "frame.done.ofdm",
            };
            t.stamp(name, run_span, s.id(), completed_at);
            None
        }),
        None => fe.run(&mut |_: &Session, _| None),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let (cpu_s, driver_cpu_s) = (process_cpu_s() - cpu0, thread_cpu_s() - driver0);
    end(&mut tracer, run_span);
    fe.shutdown();
    end(&mut tracer, root);

    // The front-end's outcome counters accumulate across `run` calls;
    // its shed and slack lists are per call.
    let offered = summary.offered();
    let done = summary.done - warmed.done;
    let shed = summary.shed.len() as u64;
    let warm_failed = warm.len() as u64 - warmed.done;
    let after = summary.snapshot;
    Round {
        traced: tracer.is_some(),
        offered,
        done,
        failed: warm_failed + (frames as u64).max(offered) - done,
        shed,
        setup_s,
        wall_s,
        cpu_s,
        driver_cpu_s,
        counters: Counters::delta(&after, &before),
        kernel_jobs: after.kernel_jobs.iter().sum::<u64>() - before.kernel_jobs.iter().sum::<u64>(),
        queue_high_water: after.queue_high_water,
        p99_slack_cycles: summary.p99_slack().unwrap_or(0),
        records_checksum: checksum(&records),
    }
}

/// How long to keep running rounds.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Full-size rounds until this many seconds have passed.
    Seconds(f64),
    /// One half-size round (1/32 of the nominal workload; one per arm
    /// when traced): correctness only.
    Smoke,
}

/// Runs rounds of `w` for the budget. With a tracer, odd rounds are
/// traced and even rounds are not, so the two interleave on one build
/// and one warm machine; at least one of each runs.
pub fn run_workload(
    w: &Workload,
    seed: u64,
    budget: Budget,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Round> {
    let start = Instant::now();
    let frames = match budget {
        Budget::Seconds(_) => w.round_frames,
        Budget::Smoke => w.round_frames / 2,
    };
    let enough = if tracer.is_some() { 2 } else { 1 };
    let mut rounds = Vec::new();
    loop {
        let round = rounds.len() as u64;
        let t = tracer.as_deref_mut().filter(|_| round % 2 == 1);
        rounds.push(run_round(w, seed, round, frames, t));
        let more = match budget {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() < s,
            Budget::Smoke => false,
        };
        if rounds.len() >= enough && !more {
            return rounds;
        }
    }
}
