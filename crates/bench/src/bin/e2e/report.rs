//! Turns rounds and layer samples into named metrics, and prints them.

use sdr_engine::Standard;

use crate::json::Json;
use crate::layers::{Samples, SIM_CYCLE_METRICS};
use crate::procfs::peak_rss_mb;
use crate::run::{Counters, Round};
use crate::spec::{Spec, Stat, Value, END_TO_END, FAILED_SHARE, PER_LAYER};
use crate::stats::median;
use crate::workload::Workload;

#[derive(Debug)]
pub struct WorkloadReport {
    pub workload: &'static Workload,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Every frame ended `Done`, the layer replay matched golden, and
    /// every named metric was produced.
    pub correct: bool,
    pub end_to_end: Vec<Value>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Value>,
    pub deterministic: Json,
    pub warnings: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Layer samples of a traced run, and whether the replay and direct
/// measurements all matched golden.
pub struct Layers {
    pub samples: Samples,
    pub error: Option<String>,
}

pub fn build(w: &'static Workload, rounds: &[Round], layers: Option<Layers>) -> WorkloadReport {
    let mut warnings = Vec::new();
    let attempted: u64 = rounds.iter().map(|r| r.offered).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mut correct = failed == 0 && attempted > 0;

    // End-to-end metrics come from the untraced rounds only.
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let per_round =
        |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { untraced.iter().map(|r| f(r)).collect() };
    let frames = |r: &Round| r.done as f64;
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|&spec| {
            let samples = match spec.name {
                "setup_s" => per_round(&|r| r.setup_s),
                "frames_per_s" => per_round(&|r| ratio(frames(r), r.wall_s)),
                "cpu_ms_per_frame" => per_round(&|r| ratio(1e3 * r.cpu_s, frames(r))),
                "array_cycles_per_frame" => {
                    per_round(&|r| ratio(r.counters.array_cycles_run as f64, frames(r)))
                }
                "modeled_makespan_cycles_per_frame" => {
                    per_round(&|r| ratio(r.counters.array_makespan_cycles as f64, frames(r)))
                }
                "peak_rss_mb" => vec![peak_rss_mb()],
                FAILED_SHARE => vec![ratio(failed as f64, attempted as f64)],
                _ => Vec::new(),
            };
            Value::of(spec, &samples)
        })
        .collect();

    let first = &rounds[0];
    let mut deterministic = vec![
        ("frames_per_round".to_string(), Json::from(first.offered)),
        ("done".to_string(), Json::from(first.done)),
        ("shed".to_string(), Json::from(first.shed)),
        (
            "p99_slack_cycles".to_string(),
            Json::Num(first.p99_slack_cycles as f64),
        ),
        (
            "records_checksum".to_string(),
            Json::Str(format!("{:016x}", first.records_checksum)),
        ),
    ];

    let mut per_layer = Vec::new();
    if let Some(layers) = layers {
        if let Some(e) = layers.error {
            warnings.push(format!("layer replay failed: {e}"));
            correct = false;
        }
        let mut samples = layers.samples;
        for name in SIM_CYCLE_METRICS {
            let total: f64 = samples.get(name).map_or(0.0, |v| v.iter().sum());
            deterministic.push((format!("{name}.total"), Json::Num(total)));
        }
        let derived = derive_layer_metrics(w, rounds, &samples, &mut warnings);
        samples.extend(derived);
        for spec in PER_LAYER {
            match samples.get(spec.name) {
                Some(v) if !v.is_empty() => per_layer.push(Value::of(spec, v)),
                _ => {
                    warnings.push(format!("per-layer metric {} was not produced", spec.name));
                    correct = false;
                }
            }
        }
    }

    WorkloadReport {
        workload: w,
        rounds: rounds.len(),
        attempted,
        failed,
        correct,
        end_to_end,
        per_layer,
        deterministic: Json::Obj(deterministic),
        warnings,
    }
}

/// The per-layer metrics that are ratios of `Snapshot` counters summed
/// over every round, per-round CPU splits, or combinations of the above.
fn derive_layer_metrics(
    w: &Workload,
    rounds: &[Round],
    samples: &Samples,
    warnings: &mut Vec<String>,
) -> Vec<(&'static str, Vec<f64>)> {
    let mut c = Counters::default();
    for r in rounds {
        c.add(&r.counters);
    }
    let frames: f64 = rounds.iter().map(|r| r.done as f64).sum();
    let jobs: f64 = rounds.iter().map(|r| r.kernel_jobs as f64).sum();
    let per_frame = |n: u64| ratio(n as f64, frames);
    let share = |num: u64, den: u64| ratio(num as f64, den as f64);

    let worker_cpu_ms: Vec<f64> = rounds
        .iter()
        .map(|r| ratio(1e3 * (r.cpu_s - r.driver_cpu_s), r.done as f64))
        .collect();
    let driver_cpu_ms: Vec<f64> = rounds
        .iter()
        .map(|r| ratio(1e3 * r.driver_cpu_s, r.done as f64))
        .collect();
    // Like `frames_per_s`, the overhead compares best rounds.
    let best = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let fps = |traced: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| ratio(r.done as f64, r.wall_s))
            .collect()
    };

    // Mix-weighted sum of the replay's per-stage step medians: what one
    // frame costs a worker according to the layer replay.
    let stage_ms = |standard: Standard, stages: [&str; 3]| -> f64 {
        let us: f64 = stages
            .iter()
            .map(|s| samples.get(s).map_or(0.0, |v| median(v)))
            .sum();
        w.mix.weight(standard) * us / 1e3
    };
    let attributed_ms = stage_ms(
        Standard::Wcdma,
        [
            "session.step_us.wcdma.capture",
            "session.step_us.wcdma.search",
            "session.step_us.wcdma.track",
        ],
    ) + stage_ms(
        Standard::Ofdm,
        [
            "session.step_us.ofdm.capture",
            "session.step_us.ofdm.detect",
            "session.step_us.ofdm.demod",
        ],
    );
    let worker_ms = median(&worker_cpu_ms);
    let coverage = ratio(attributed_ms, worker_ms);
    if w.mix.standards().len() == 1 && !(0.85..=1.15).contains(&coverage) {
        warnings.push(format!(
            "attribution.worker_coverage {coverage:.3} outside 0.85-1.15 on {}",
            w.name
        ));
    }

    let single = |v: f64| vec![v];
    vec![
        (
            "xpp.replay_cycle_share",
            single(share(c.schedule_replay_cycles, c.array_cycles_run)),
        ),
        (
            "xpp.schedule_captures_per_job",
            single(ratio(c.schedules_captured as f64, jobs)),
        ),
        (
            "xpp.schedule_invalidations_per_job",
            single(ratio(c.schedule_invalidations as f64, jobs)),
        ),
        (
            "config_manager.words_per_frame",
            single(per_frame(c.config_words_streamed)),
        ),
        (
            "config_manager.demand_words_per_frame",
            single(per_frame(c.config_words_demand)),
        ),
        (
            "config_manager.prefetched_words_per_frame",
            single(per_frame(c.config_words_prefetched)),
        ),
        (
            "config_manager.delta_word_hit_rate",
            single(share(
                c.delta_words_saved,
                c.delta_words_saved + c.config_words_demand + c.config_words_prefetched,
            )),
        ),
        (
            "config_manager.store_hit_rate",
            single(share(c.cache_hits, c.cache_hits + c.cache_misses)),
        ),
        (
            "config_manager.prefetch_hit_rate",
            single(share(c.prefetch_hits, c.prefetches)),
        ),
        (
            "config_manager.evictions_per_kframe",
            single(1e3 * per_frame(c.cache_evictions)),
        ),
        (
            "config_manager.bus_idle_share",
            single(
                1.0 - share(
                    c.config_bus_cycles.min(c.array_cycles_run),
                    c.array_cycles_run,
                ),
            ),
        ),
        ("pool.worker_cpu_ms_per_frame", worker_cpu_ms),
        ("pool.jobs_per_frame", single(per_frame(c.jobs_run))),
        (
            "pool.rejected_per_frame",
            single(per_frame(c.jobs_rejected)),
        ),
        (
            "pool.queue_high_water",
            single(rounds.iter().map(|r| r.queue_high_water).max().unwrap_or(0) as f64),
        ),
        (
            "pool.batch_avg_size",
            single(share(c.batch_sessions, c.batches_dispatched)),
        ),
        (
            "pool.batch_warm_hit_rate",
            single(share(c.batch_warm_hits, c.batches_dispatched)),
        ),
        (
            "pool.steal_rate",
            single(share(c.steal_sessions, c.jobs_run)),
        ),
        (
            "router.affinity_hit_rate",
            single(share(
                c.router_affinity_hits,
                c.router_affinity_hits + c.router_fallbacks,
            )),
        ),
        (
            "router.view_refreshes_per_frame",
            single(per_frame(c.residency_view_refreshes)),
        ),
        ("frontend.driver_cpu_ms_per_frame", driver_cpu_ms),
        (
            "frontend.bounces_per_frame",
            single(per_frame(c.backpressure_parks)),
        ),
        (
            "frontend.rehydrations_per_frame",
            single(per_frame(c.rehydrations)),
        ),
        ("attribution.worker_coverage", single(coverage)),
        (
            "attribution.unattributed_ms_per_frame",
            single(worker_ms - attributed_ms),
        ),
        (
            "trace_overhead_share",
            single(1.0 - ratio(best(&fps(true)), best(&fps(false)))),
        ),
    ]
}

fn value_json(v: &Value) -> Json {
    let mut pairs = vec![
        ("value".to_string(), Json::Num(v.value)),
        ("median".to_string(), Json::Num(v.summary.median)),
        ("unit".to_string(), Json::from(v.spec.unit)),
        ("kind".to_string(), Json::from(v.spec.kind.label())),
        ("n".to_string(), Json::from(v.summary.n as u64)),
    ];
    if let Some((pct, hi)) = v.summary.hi {
        pairs.push(("hi_pct".to_string(), Json::Num(pct)));
        pairs.push(("hi".to_string(), Json::Num(hi)));
    }
    Json::Obj(pairs)
}

impl WorkloadReport {
    fn metrics_json(values: &[Value]) -> Json {
        Json::obj(values.iter().map(|v| (v.spec.name, value_json(v))))
    }

    /// The workload's entry in the report's `timing` section.
    pub fn timing_json(&self) -> Json {
        Json::obj([
            ("rounds", Json::from(self.rounds as u64)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("correct", Json::Bool(self.correct)),
            ("end_to_end", Self::metrics_json(&self.end_to_end)),
            ("per_layer", Self::metrics_json(&self.per_layer)),
        ])
    }

    /// The one-line result the benchmark driver reads: every end-to-end
    /// metric of an untraced run, every per-layer metric of a traced one.
    /// `failed_share` is carried by `attempted`/`failed` instead of as a
    /// metric (it is 0 on a healthy run, and a metric may never be 0).
    pub fn result_line(&self) -> Json {
        let values: Vec<&Value> = if self.per_layer.is_empty() {
            self.end_to_end
                .iter()
                .filter(|v| v.spec.name != FAILED_SHARE)
                .collect()
        } else {
            self.per_layer.iter().collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::obj(values.iter().map(|v| {
                    (
                        v.spec.name,
                        Json::obj([
                            ("value", Json::Num(v.value)),
                            ("unit", Json::from(v.spec.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Every metric by name, with unit, labelled host or modeled.
    pub fn print(&self) {
        println!(
            "== {} ({} shards x {} arrays): {} rounds, {} frames offered, {} failed ==",
            self.workload.name,
            self.workload.shards,
            self.workload.arrays_per_shard,
            self.rounds,
            self.attempted,
            self.failed
        );
        println!("why: {}", self.workload.why);
        println!("end-to-end (tracing off; over rounds)");
        for v in &self.end_to_end {
            print_value(v);
        }
        if !self.per_layer.is_empty() {
            println!("per-layer (traced run: layer replay, direct calls, snapshot deltas)");
            for v in &self.per_layer {
                print_value(v);
            }
        }
        for warning in &self.warnings {
            println!("warning: {warning}");
        }
    }
}

fn print_value(v: &Value) {
    let Spec {
        name, unit, kind, ..
    } = v.spec;
    let hi = v
        .summary
        .hi
        .map_or(String::new(), |(pct, hi)| format!("  p{pct:.1} {hi:.4}"));
    let stat = match v.spec.stat {
        Stat::Median => String::new(),
        Stat::Best => format!("  best round; median {:.4}", v.summary.median),
    };
    println!(
        "  {name:<52} {:>14.4} {unit:<10} [{}]{stat}{hi}  n={}",
        v.value,
        kind.label(),
        v.summary.n
    );
}

/// Cores the host offers; every thread-dependent number is reported with it.
pub fn host_cores() -> u64 {
    std::thread::available_parallelism().map_or(0, |n| n.get() as u64)
}

/// The whole report: `deterministic` (must repeat exactly for a seed)
/// kept apart from `timing` (host noise).
pub fn document(seed: u64, seconds: f64, traced: bool, reports: &[WorkloadReport]) -> Json {
    Json::obj([
        ("bench", Json::from("e2e")),
        ("seed", Json::from(seed)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(traced)),
        ("host_cores", Json::from(host_cores())),
        (
            "deterministic",
            Json::obj(
                reports
                    .iter()
                    .map(|r| (r.workload.name, r.deterministic.clone())),
            ),
        ),
        (
            "timing",
            Json::obj(reports.iter().map(|r| (r.workload.name, r.timing_json()))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn round(traced: bool, done: u64, wall_s: f64) -> Round {
        Round {
            traced,
            offered: done,
            done,
            failed: 0,
            shed: 0,
            setup_s: 0.1,
            wall_s,
            cpu_s: 2.0 * wall_s,
            driver_cpu_s: 0.1 * wall_s,
            counters: Counters {
                array_cycles_run: 4196 * done,
                array_makespan_cycles: 2100 * done,
                ..Counters::default()
            },
            kernel_jobs: 2 * done,
            queue_high_water: 3,
            p99_slack_cycles: 10,
            records_checksum: 0xABC,
        }
    }

    #[test]
    fn end_to_end_metrics_use_untraced_rounds_only() {
        let rounds = [
            round(false, 100, 1.0),
            round(true, 100, 4.0),
            round(false, 100, 1.0),
        ];
        let report = build(&WORKLOADS[0], &rounds, None);
        assert!(report.correct);
        let get = |name: &str| {
            report
                .end_to_end
                .iter()
                .find(|v| v.spec.name == name)
                .map(|v| v.value)
        };
        assert_eq!(get("frames_per_s"), Some(100.0));
        assert_eq!(get("cpu_ms_per_frame"), Some(20.0));
        assert_eq!(get("array_cycles_per_frame"), Some(4196.0));
        assert_eq!(get(FAILED_SHARE), Some(0.0));
        let line = report.result_line();
        let metrics = line.get("metrics").unwrap();
        assert!(
            metrics.get(FAILED_SHARE).is_none(),
            "a metric may never be 0"
        );
        assert_eq!(metrics.entries().len(), END_TO_END.len() - 1);
    }

    #[test]
    fn any_failed_frame_makes_the_run_incorrect() {
        let mut bad = round(false, 100, 1.0);
        bad.done = 99;
        bad.failed = 1;
        let report = build(&WORKLOADS[0], &[bad], None);
        assert!(!report.correct);
        assert_eq!(report.failed, 1);
    }

    #[test]
    fn a_traced_report_needs_every_per_layer_metric() {
        let rounds = [round(false, 100, 1.0), round(true, 100, 1.25)];
        let mut samples = Samples::new();
        let report = build(
            &WORKLOADS[0],
            &rounds,
            Some(Layers {
                samples: samples.clone(),
                error: None,
            }),
        );
        assert!(!report.correct, "replay samples are missing");

        for s in PER_LAYER {
            samples.insert(s.name, vec![1.0]);
        }
        let report = build(
            &WORKLOADS[0],
            &rounds,
            Some(Layers {
                samples,
                error: None,
            }),
        );
        assert!(report.correct, "{:?}", report.warnings);
        assert_eq!(report.per_layer.len(), PER_LAYER.len());
        assert_eq!(
            report.result_line().get("metrics").unwrap().entries().len(),
            PER_LAYER.len()
        );
    }
}
