//! Names, units and directions of every metric the benchmark prints.
//! Later issues refer to these names verbatim; `BENCHMARK.json` and the
//! README glossary list the same tables.

use crate::stats::{summarize, Summary};

/// Whether a number is host time/memory or the paper's modeled currency
/// (array cycles, config-bus words, the virtual-time admission model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Modeled,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Modeled => "modeled",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Which statistic of a metric's per-round samples is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    Median,
    /// The best round (highest or lowest, by the metric's direction).
    /// The benchmark shares its host with other tenants, whose
    /// interference only ever slows a round down and comes in bursts of
    /// seconds to minutes; the fastest round is the closest observation
    /// of the program's own speed. Measured over ten runs per workload on
    /// a busy host, the spread of the per-run median of rounds was 9-21 %
    /// for `frames_per_s` and that of the best round 3-12 %.
    Best,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: Better,
    pub stat: Stat,
    /// Share of the base value by which the metric may worsen before
    /// `compare` calls it a regression (end-to-end metrics only).
    pub bound: f64,
}

/// A measured metric: its spec, the reported statistic, and the summary
/// of the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub spec: Spec,
    pub value: f64,
    pub summary: Summary,
}

impl Value {
    /// Reduces `samples` by the spec's statistic; an empty sample reads 0.
    pub fn of(spec: Spec, samples: &[f64]) -> Value {
        let summary = summarize(samples).unwrap_or(Summary {
            median: 0.0,
            hi: None,
            n: 0,
        });
        let value = match (spec.stat, spec.better) {
            (Stat::Median, _) => summary.median,
            (Stat::Best, Better::Higher) => samples.iter().copied().fold(summary.median, f64::max),
            (Stat::Best, Better::Lower) => samples.iter().copied().fold(summary.median, f64::min),
        };
        Value {
            spec,
            value,
            summary,
        }
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        kind: Kind::Host,
        better,
        stat: Stat::Median,
        bound: 0.0,
    }
}

const fn modeled(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        kind: Kind::Modeled,
        ..host(name, unit, better)
    }
}

/// An end-to-end metric: reported by `stat`, guarded by `bound`.
const fn bounded(spec: Spec, stat: Stat, bound: f64) -> Spec {
    Spec {
        stat,
        bound,
        ..spec
    }
}

use Better::{Higher, Lower};

pub const FAILED_SHARE: &str = "failed_share";

/// Per workload, measured with tracing off.
pub const END_TO_END: [Spec; 7] = [
    bounded(host("setup_s", "s", Lower), Stat::Median, 0.25),
    bounded(host("frames_per_s", "1/s", Higher), Stat::Best, 0.25),
    bounded(host("cpu_ms_per_frame", "ms", Lower), Stat::Best, 0.25),
    bounded(
        modeled("array_cycles_per_frame", "cycles", Lower),
        Stat::Median,
        0.01,
    ),
    bounded(
        modeled("modeled_makespan_cycles_per_frame", "cycles", Lower),
        Stat::Median,
        0.20,
    ),
    bounded(host("peak_rss_mb", "MB", Lower), Stat::Median, 0.20),
    bounded(host(FAILED_SHARE, "ratio", Lower), Stat::Median, 0.0),
];

/// Per layer (layer = module name), from the traced run.
pub const PER_LAYER: [Spec; 79] = [
    host("wcdma.code_gen_us", "us", Lower),
    host("wcdma.tx_synth_us", "us", Lower),
    host("wcdma.channel_us", "us", Lower),
    host("wcdma.search_us", "us", Lower),
    host("wcdma.golden_us", "us", Lower),
    host("ofdm.tx_synth_us", "us", Lower),
    host("ofdm.channel_us", "us", Lower),
    host("ofdm.golden_detect_us", "us", Lower),
    host("ofdm.golden_rx_us", "us", Lower),
    host("dsp.fft64_us", "us", Lower),
    host("xpp.host_us_per_job.descrambler", "us", Lower),
    host("xpp.host_us_per_job.despreader", "us", Lower),
    host("xpp.host_us_per_job.preamble-detector", "us", Lower),
    host("xpp.host_us_per_job.demodulator", "us", Lower),
    modeled("xpp.sim_cycles_per_job.descrambler", "cycles", Lower),
    modeled("xpp.sim_cycles_per_job.despreader", "cycles", Lower),
    modeled("xpp.sim_cycles_per_job.preamble-detector", "cycles", Lower),
    modeled("xpp.sim_cycles_per_job.demodulator", "cycles", Lower),
    host("xpp.mcycles_per_host_s.capture_on", "Mcycles/s", Higher),
    host("xpp.mcycles_per_host_s.capture_off", "Mcycles/s", Higher),
    host("xpp.compile_us.descrambler", "us", Lower),
    host("xpp.compile_us.despreader", "us", Lower),
    host("xpp.compile_us.preamble-detector", "us", Lower),
    host("xpp.compile_us.demodulator", "us", Lower),
    host("xpp.load_ns_per_word", "ns", Lower),
    modeled("xpp.replay_cycle_share", "ratio", Higher),
    modeled("xpp.schedule_captures_per_job", "1/job", Lower),
    modeled("xpp.schedule_invalidations_per_job", "1/job", Lower),
    host("session.step_us.wcdma.capture", "us", Lower),
    host("session.step_us.wcdma.search", "us", Lower),
    host("session.step_us.wcdma.track", "us", Lower),
    host("session.step_us.ofdm.capture", "us", Lower),
    host("session.step_us.ofdm.detect", "us", Lower),
    host("session.step_us.ofdm.demod", "us", Lower),
    host("session.step_self_us.wcdma.capture", "us", Lower),
    host("session.step_self_us.wcdma.search", "us", Lower),
    host("session.step_self_us.wcdma.track", "us", Lower),
    host("session.step_self_us.ofdm.capture", "us", Lower),
    host("session.step_self_us.ofdm.detect", "us", Lower),
    host("session.step_self_us.ofdm.demod", "us", Lower),
    host("session.rehydrate_us.wcdma_track", "us", Lower),
    host("session.rehydrate_us.ofdm_demod", "us", Lower),
    host("session.park_ns", "ns", Lower),
    host("config_manager.activate_us.resident", "us", Lower),
    host("config_manager.activate_us.store_hit_full", "us", Lower),
    host("config_manager.activate_us.delta", "us", Lower),
    host("config_manager.activate_us.cold", "us", Lower),
    modeled(
        "config_manager.words_per_activation.resident",
        "words",
        Lower,
    ),
    modeled(
        "config_manager.words_per_activation.store_hit_full",
        "words",
        Lower,
    ),
    modeled("config_manager.words_per_activation.delta", "words", Lower),
    modeled("config_manager.words_per_activation.cold", "words", Lower),
    host("config_manager.swap_us", "us", Lower),
    modeled("config_manager.words_per_frame", "words", Lower),
    modeled("config_manager.demand_words_per_frame", "words", Lower),
    modeled("config_manager.prefetched_words_per_frame", "words", Lower),
    modeled("config_manager.delta_word_hit_rate", "ratio", Higher),
    modeled("config_manager.store_hit_rate", "ratio", Higher),
    modeled("config_manager.prefetch_hit_rate", "ratio", Higher),
    modeled("config_manager.evictions_per_kframe", "1/kframe", Lower),
    modeled("config_manager.bus_idle_share", "ratio", Higher),
    host("pool.roundtrip_us", "us", Lower),
    host("pool.worker_cpu_ms_per_frame", "ms", Lower),
    modeled("pool.jobs_per_frame", "1/frame", Lower),
    modeled("pool.rejected_per_frame", "1/frame", Lower),
    modeled("pool.queue_high_water", "count", Lower),
    modeled("pool.batch_avg_size", "count", Higher),
    modeled("pool.batch_warm_hit_rate", "ratio", Higher),
    modeled("pool.steal_rate", "ratio", Lower),
    host("router.place_ns", "ns", Lower),
    modeled("router.affinity_hit_rate", "ratio", Higher),
    modeled("router.view_refreshes_per_frame", "1/frame", Lower),
    host("frontend.driver_cpu_ms_per_frame", "ms", Lower),
    modeled("frontend.bounces_per_frame", "1/frame", Lower),
    modeled("frontend.rehydrations_per_frame", "1/frame", Lower),
    host("frontend.admit_ns", "ns", Lower),
    host("frontend.parking_pop_ns", "ns", Lower),
    host("attribution.worker_coverage", "ratio", Higher),
    host("attribution.unattributed_ms_per_frame", "ms", Lower),
    host("trace_overhead_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|s| s.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(well_formed(name), "bad name {name:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric or workload name");
    }

    /// `BENCHMARK.json` at the repository root is the driver's copy of
    /// these tables; a name, unit, direction or bound changed in one place
    /// only would make the driver read a metric the program does not print.
    #[test]
    fn benchmark_json_lists_these_tables() {
        use crate::json::{parse, Json};
        let doc = parse(include_str!("../../../../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: expected a list, found {other:?}"),
        };
        let text = |item: &Json, key: &str| match item.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: expected a string, found {other:?}"),
        };
        let direction = |b: Better| match b {
            Lower => "lower",
            Higher => "higher",
        };

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        // `failed_share` travels as attempted/failed, not as a metric.
        let end_to_end: Vec<Spec> = END_TO_END
            .iter()
            .copied()
            .filter(|s| s.name != FAILED_SHARE)
            .collect();
        for (key, specs) in [
            ("end_to_end", &end_to_end[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (item, spec) in listed.iter().zip(specs) {
                assert_eq!(text(item, "name"), spec.name);
                assert_eq!(text(item, "unit"), spec.unit, "{}", spec.name);
                assert_eq!(
                    text(item, "better"),
                    direction(spec.better),
                    "{}",
                    spec.name
                );
                if key == "end_to_end" {
                    assert_eq!(item.get("bound").and_then(Json::as_f64), Some(spec.bound));
                }
            }
        }
    }

    #[test]
    fn units_and_reasons_fit_the_benchmark_contract() {
        for s in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !s.unit.is_empty()
                    && s.unit.len() <= 16
                    && s.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                s.unit,
                s.name
            );
            assert!((0.0..=0.25).contains(&s.bound));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
