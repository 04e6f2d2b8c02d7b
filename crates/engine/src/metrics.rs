//! Lock-free engine metrics.
//!
//! One [`Metrics`] registry is shared (via `Arc`) between the engine
//! front end and every worker shard. All counters are relaxed atomics —
//! they are statistics, not synchronisation — and a point-in-time
//! [`Snapshot`] can be taken at any moment and rendered as a
//! human-readable report.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of distinct kernel classes tracked by the per-kernel counters.
pub const KERNEL_KINDS: usize = KernelKind::ALL.len();

/// The baseband kernel classes whose array cycles are tracked separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// W-CDMA rake finger: the descrambler (paper Fig. 5) streaming into
    /// the despreader (Fig. 6) in one configuration.
    Finger,
    /// OFDM preamble-detection correlator (configuration 2a).
    PreambleDetector,
    /// OFDM QPSK demodulator (configuration 2b).
    Demodulator,
}

impl KernelKind {
    /// Every kernel kind, in display order.
    pub const ALL: [KernelKind; 3] = [
        KernelKind::Finger,
        KernelKind::PreambleDetector,
        KernelKind::Demodulator,
    ];

    /// Stable index into per-kernel counter arrays.
    pub fn index(self) -> usize {
        match self {
            KernelKind::Finger => 0,
            KernelKind::PreambleDetector => 1,
            KernelKind::Demodulator => 2,
        }
    }

    /// Human-readable kernel name.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Finger => "wcdma-finger",
            KernelKind::PreambleDetector => "ofdm-preamble-detector",
            KernelKind::Demodulator => "ofdm-demodulator",
        }
    }
}

/// Declares every plain counter once: the [`Metrics`] field, the
/// [`Snapshot`] field of the same name (and doc comment) and its copy line
/// in [`Metrics::snapshot`] are all generated from this one list.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// The engine's shared counter registry.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
            /// Array execution cycles per kernel class.
            kernel_cycles: [AtomicU64; KERNEL_KINDS],
            /// Jobs per kernel class.
            kernel_jobs: [AtomicU64; KERNEL_KINDS],
            /// Object fires per kernel class (the array's per-configuration
            /// fire counters, so cycles ÷ fires exposes each kernel's
            /// datapath occupancy).
            kernel_fires: [AtomicU64; KERNEL_KINDS],
        }

        /// A point-in-time copy of the registry, cheap to pass around and
        /// print.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct Snapshot {
            $($(#[$doc])* pub $name: u64,)*
            /// Array cycles per kernel class (indexed by [`KernelKind::index`]).
            pub kernel_cycles: [u64; KERNEL_KINDS],
            /// Jobs per kernel class (indexed by [`KernelKind::index`]).
            pub kernel_jobs: [u64; KERNEL_KINDS],
            /// Object fires per kernel class (indexed by [`KernelKind::index`]).
            pub kernel_fires: [u64; KERNEL_KINDS],
        }

        impl Metrics {
            /// Takes a point-in-time snapshot of every counter.
            pub fn snapshot(&self) -> Snapshot {
                let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
                Snapshot {
                    $($name: load(&self.$name),)*
                    kernel_cycles: std::array::from_fn(|i| load(&self.kernel_cycles[i])),
                    kernel_jobs: std::array::from_fn(|i| load(&self.kernel_jobs[i])),
                    kernel_fires: std::array::from_fn(|i| load(&self.kernel_fires[i])),
                }
            }
        }
    };
}

counters! {
    /// Sessions admitted to the engine.
    sessions_started,
    /// Sessions that reached [`Done`](crate::session::SessionState::Done).
    sessions_completed,
    /// Sessions that reached a failure state.
    sessions_failed,
    /// Jobs executed by workers.
    jobs_run,
    /// Submissions rejected with `WouldBlock` (every array's queue full);
    /// only a direct [`ShardPool::submit`](crate::ShardPool::submit) can
    /// meet one, never the front-end.
    jobs_rejected,
    /// Configuration-cache hits (netlist served without a rebuild).
    cache_hits,
    /// Configuration-cache misses (netlist built and placed).
    cache_misses,
    /// Configurations unloaded from a worker array to make room: a demand
    /// load's least-recently-used eviction.
    cache_evictions,
    /// Always 0: nothing prefetches; the frozen benchmark's `Counters`
    /// name it; ROADMAP T deletes it.
    prefetches,
    /// Always 0: nothing prefetches; the frozen benchmark's `Counters`
    /// name it; ROADMAP T deletes it.
    prefetch_hits,
    /// High-water mark of the sessions any one array owned at once
    /// (submitted to it and not yet handed back), read at each submit;
    /// never more than `queue_depth`.
    queue_high_water,
    /// Configuration-bus cycles spent loading configurations.
    config_bus_cycles,
    /// Configuration words streamed for demand (cold or store-hit)
    /// activations — energy the session waited for.
    config_words_demand,
    /// Always 0: nothing prefetches; the frozen benchmark's `Counters`
    /// name it; ROADMAP T deletes it.
    config_words_prefetched,
    /// Faults injected by an attached fault plan (0 without one), folded
    /// in after every supervised step.
    faults_injected,
    /// Faults the recovery layer detected and surfaced (typed load errors,
    /// cleared stall records, caught worker panics, records a closing
    /// shard sweeps off its arrays).
    faults_detected,
    /// Recovery actions taken: kernel reload retries, watchdog reloads and
    /// crashed-session re-dispatches.
    recoveries,
    /// Zero-fire configurations the watchdog forced out (unload +
    /// re-activate from the store).
    watchdog_kicks,
    /// Crashed sessions re-dispatched to a restarted shard.
    session_retries,
    /// Worker shards restarted with a fresh array after a panic.
    worker_restarts,
    /// Sessions dead-lettered after exhausting their retry budget.
    dead_letters,
    /// Sessions shed under admission pressure (EDF-lowest first).
    sessions_shed,
    /// Sessions currently parked in the front-end's parking lot
    /// (a gauge: set with `Metrics::set`, not accumulated).
    sessions_parked,
    /// High-water mark of resident sessions (parked records plus
    /// materialised in-flight sessions) — the front-end's headline
    /// capacity number.
    peak_resident_sessions,
    /// Parked records rehydrated into full sessions: one per frame.
    rehydrations,
    /// Always 0: the front-end never re-parks a session (its credit window
    /// leaves the pool nothing to refuse); the frozen benchmark reads it;
    /// ROADMAP T deletes it.
    backpressure_parks,
    /// Always 0: inert in the engine; the frozen benchmark reads it;
    /// ROADMAP T deletes it.
    batches_dispatched,
    /// Always 0: inert in the engine; the frozen benchmark reads it;
    /// ROADMAP T deletes it.
    batch_sessions,
    /// Always 0: inert in the engine; the frozen benchmark reads it;
    /// ROADMAP T deletes it.
    batch_warm_hits,
    /// Always 0; the frozen benchmark package reads it, ROADMAP T deletes it.
    delta_words_saved,
    /// Total array cycles stepped by the pool's arrays.
    array_cycles_run,
    /// Configuration words streamed over every worker array's bus
    /// (per-array [`xpp_array::ArrayStats::config_words`], summed).
    config_words_streamed,
    /// The largest per-array clock: the array cycles the busiest array
    /// has stepped — the modeled-platform makespan when the arrays run in
    /// parallel.
    array_makespan_cycles,
    /// Wake-ups of a sleeping configuration on a worker array: input
    /// pushed, a load completed (see [`xpp_array::ScheduleStats`]; this and
    /// the next two keep the names the benchmark reads).
    schedules_captured,
    /// Array cycles in which at least one configuration was awake and
    /// stepped (`schedule_replay_cycles ÷ array_cycles_run` is the awake
    /// share).
    schedule_replay_cycles,
    /// Fall-asleeps of a configuration: a pass fired nothing, or it was
    /// unloaded while awake.
    schedule_invalidations,
    /// Submissions the affinity router placed on an array already
    /// holding their next kernel.
    router_affinity_hits,
    /// Submissions the router fell back to least-loaded placement for
    /// (host-only steps, cold kernels, full or overloaded holders).
    router_fallbacks,
    /// Always 0: inert in the engine; the frozen benchmark reads it for
    /// `pool.steal_rate`; ROADMAP T deletes it.
    steal_sessions,
    /// Residency-view snapshots published, across all arrays: one per
    /// session step.
    residency_view_refreshes,
}

impl Metrics {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `n` to a counter.
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub(crate) fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises `counter` to at least `value` (monotonic high-water mark).
    pub(crate) fn raise_to(counter: &AtomicU64, value: u64) {
        counter.fetch_max(value, Ordering::Relaxed);
    }

    /// Sets a gauge to `value` (last write wins; used for point-in-time
    /// levels like [`sessions_parked`](Metrics::sessions_parked)).
    pub(crate) fn set(counter: &AtomicU64, value: u64) {
        counter.store(value, Ordering::Relaxed);
    }

    /// Records one kernel job: its measured array cycles and the object
    /// fires its configuration performed.
    pub(crate) fn record_kernel(&self, kind: KernelKind, cycles: u64, fires: u64) {
        self.kernel_jobs[kind.index()].fetch_add(1, Ordering::Relaxed);
        self.kernel_cycles[kind.index()].fetch_add(cycles, Ordering::Relaxed);
        self.kernel_fires[kind.index()].fetch_add(fires, Ordering::Relaxed);
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Snapshot {
    /// Cache hit rate in `[0, 1]`, or 0 with no activations.
    pub fn cache_hit_rate(&self) -> f64 {
        ratio(self.cache_hits, self.cache_hits + self.cache_misses)
    }

    /// Fraction of worker-array cycles the configuration bus sat idle —
    /// the paper's steady-state figure of merit (a well-amortised platform
    /// streams data with the bus near 100 % idle). 0 with no cycles run.
    pub(crate) fn bus_idle_ratio(&self) -> f64 {
        if self.array_cycles_run == 0 {
            return 0.0;
        }
        1.0 - ratio(self.config_bus_cycles, self.array_cycles_run).min(1.0)
    }

    /// Fraction of worker-array cycles in which at least one configuration
    /// was awake, in `[0, 1]` (0 with no cycles run). The rest are cycles
    /// every configuration slept through — waiting on the bus, say — which
    /// cost the stepper nothing.
    pub(crate) fn replay_hit_ratio(&self) -> f64 {
        ratio(self.schedule_replay_cycles, self.array_cycles_run).min(1.0)
    }

    /// Fraction of started sessions shed under admission pressure, in
    /// `[0, 1]` (0 with none started) — overload reporting wants the
    /// *rate*, not the raw count.
    pub(crate) fn shed_rate(&self) -> f64 {
        ratio(self.sessions_shed, self.sessions_started)
    }

    /// Fraction of detected faults answered by a recovery action, in
    /// `[0, 1]` (0 with none detected; recoveries can exceed detections
    /// when retries stack, so the ratio is clamped to 1).
    pub(crate) fn rescue_rate(&self) -> f64 {
        ratio(self.recoveries, self.faults_detected).min(1.0)
    }

    /// Fraction of routed submissions the affinity router placed on the
    /// shard already holding their next kernel, in `[0, 1]` (0 with no
    /// routed submissions).
    pub fn affinity_hit_rate(&self) -> f64 {
        ratio(
            self.router_affinity_hits,
            self.router_affinity_hits + self.router_fallbacks,
        )
    }

    /// Configuration-bus energy of the demand load words under the
    /// default HCMOS9 energy model, in nanojoules: reconfiguration in
    /// joules instead of cycles.
    pub(crate) fn config_load_energy_nj(&self) -> f64 {
        xpp_array::power::EnergyModel::default().config_load_nj(self.config_words_demand)
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "engine metrics")?;
        writeln!(
            f,
            "  sessions    started {:>8}  completed {:>8}  failed {:>4}",
            self.sessions_started, self.sessions_completed, self.sessions_failed
        )?;
        writeln!(
            f,
            "  jobs        run     {:>8}  rejected  {:>8}  queue high-water {:>4}",
            self.jobs_run, self.jobs_rejected, self.queue_high_water
        )?;
        writeln!(f, "  cfg bus     cycles  {:>8}", self.config_bus_cycles)?;
        writeln!(
            f,
            "  router      affinity {:>7}  fallbacks {:>8}  hit rate {:>5.1}%  view refreshes {:>8}",
            self.router_affinity_hits,
            self.router_fallbacks,
            100.0 * self.affinity_hit_rate(),
            self.residency_view_refreshes
        )?;
        writeln!(
            f,
            "  arrays      cycles  {:>8}  makespan  {:>8}  cfg words {:>8}  bus idle {:>5.1}%",
            self.array_cycles_run,
            self.array_makespan_cycles,
            self.config_words_streamed,
            100.0 * self.bus_idle_ratio()
        )?;
        writeln!(
            f,
            "  stepping    wakes   {:>8}  awake cycles {:>12}  sleeps {:>7}  awake share {:>5.1}%",
            self.schedules_captured,
            self.schedule_replay_cycles,
            self.schedule_invalidations,
            100.0 * self.replay_hit_ratio()
        )?;
        writeln!(
            f,
            "  cfg cache   hits    {:>8}  misses    {:>8}  evictions {:>4}  hit rate {:>5.1}%",
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            100.0 * self.cache_hit_rate()
        )?;
        writeln!(
            f,
            "  cfg energy  demand  {:>8} words ({:>8.1} nJ)",
            self.config_words_demand,
            self.config_load_energy_nj()
        )?;
        writeln!(
            f,
            "  frontend    parked  {:>8}  peak resident {:>8}  rehydrations {:>8}  bp-parks {:>6}",
            self.sessions_parked,
            self.peak_resident_sessions,
            self.rehydrations,
            self.backpressure_parks
        )?;
        writeln!(
            f,
            "  faults      injected {:>7}  detected  {:>8}  recoveries {:>4}  rescue rate {:>5.1}%  watchdog kicks {:>4}",
            self.faults_injected,
            self.faults_detected,
            self.recoveries,
            100.0 * self.rescue_rate(),
            self.watchdog_kicks
        )?;
        writeln!(
            f,
            "  supervision retries {:>8}  restarts  {:>8}  dead-letters {:>4}  shed {:>4}  shed rate {:>5.1}%",
            self.session_retries,
            self.worker_restarts,
            self.dead_letters,
            self.sessions_shed,
            100.0 * self.shed_rate()
        )?;
        writeln!(f, "  kernels")?;
        for kind in KernelKind::ALL {
            let i = kind.index();
            writeln!(
                f,
                "    {:<24} jobs {:>8}  array cycles {:>12}  fires {:>12}",
                kind.name(),
                self.kernel_jobs[i],
                self.kernel_cycles[i],
                self.kernel_fires[i]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        Metrics::incr(&m.sessions_started);
        Metrics::add(&m.jobs_run, 5);
        m.record_kernel(KernelKind::Finger, 123, 40);
        m.record_kernel(KernelKind::Finger, 77, 9);
        let s = m.snapshot();
        assert_eq!(s.sessions_started, 1);
        assert_eq!(s.jobs_run, 5);
        assert_eq!(s.kernel_jobs[KernelKind::Finger.index()], 2);
        assert_eq!(s.kernel_cycles[KernelKind::Finger.index()], 200);
        assert_eq!(s.kernel_fires[KernelKind::Finger.index()], 49);
    }

    #[test]
    fn high_water_is_monotonic() {
        let m = Metrics::new();
        Metrics::raise_to(&m.queue_high_water, 4);
        Metrics::raise_to(&m.queue_high_water, 2);
        Metrics::raise_to(&m.queue_high_water, 9);
        assert_eq!(m.snapshot().queue_high_water, 9);
    }

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(Snapshot::default().cache_hit_rate(), 0.0);
        let m = Metrics::new();
        Metrics::add(&m.cache_hits, 3);
        Metrics::add(&m.cache_misses, 1);
        assert!((m.snapshot().cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bus_idle_ratio_handles_zero() {
        assert_eq!(Snapshot::default().bus_idle_ratio(), 0.0);
        let s = Snapshot {
            array_cycles_run: 1000,
            config_bus_cycles: 100,
            ..Snapshot::default()
        };
        assert!((s.bus_idle_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn gauges_set_and_rates_compute() {
        let m = Metrics::new();
        Metrics::set(&m.sessions_parked, 100);
        Metrics::set(&m.sessions_parked, 60);
        assert_eq!(m.snapshot().sessions_parked, 60, "gauge is last-write");

        assert_eq!(Snapshot::default().shed_rate(), 0.0);
        assert_eq!(Snapshot::default().rescue_rate(), 0.0);
        let s = Snapshot {
            sessions_started: 200,
            sessions_shed: 10,
            faults_detected: 4,
            recoveries: 3,
            ..Snapshot::default()
        };
        assert!((s.shed_rate() - 0.05).abs() < 1e-12);
        assert!((s.rescue_rate() - 0.75).abs() < 1e-12);
        let clamped = Snapshot {
            faults_detected: 2,
            recoveries: 5,
            ..Snapshot::default()
        };
        assert_eq!(clamped.rescue_rate(), 1.0, "stacked retries clamp to 1");
        // The report renders the rates, not just the counts.
        let text = s.to_string();
        assert!(text.contains("shed rate"), "report must show the shed rate");
        assert!(text.contains("rescue rate"), "report must show rescue rate");
        assert!(text.contains("parked"), "report must show frontend gauges");
    }

    #[test]
    fn replay_hit_ratio_and_report_line() {
        assert_eq!(Snapshot::default().replay_hit_ratio(), 0.0);
        let s = Snapshot {
            array_cycles_run: 1000,
            schedule_replay_cycles: 750,
            schedules_captured: 3,
            schedule_invalidations: 2,
            ..Snapshot::default()
        };
        assert!((s.replay_hit_ratio() - 0.75).abs() < 1e-12);
        // Awake cycles can momentarily race ahead of the cycle fold;
        // the ratio clamps rather than exceeding 1.
        let clamped = Snapshot {
            array_cycles_run: 10,
            schedule_replay_cycles: 20,
            ..Snapshot::default()
        };
        assert_eq!(clamped.replay_hit_ratio(), 1.0);
        let text = s.to_string();
        assert!(text.contains("awake share"), "report must show the ratio");
        assert!(text.contains("sleeps"), "report must show churn");
    }

    #[test]
    fn router_rates_and_report_lines() {
        assert_eq!(Snapshot::default().affinity_hit_rate(), 0.0);
        let m = Metrics::new();
        Metrics::add(&m.router_affinity_hits, 3);
        Metrics::incr(&m.router_fallbacks);
        Metrics::add(&m.steal_sessions, 5);
        Metrics::add(&m.jobs_run, 20);
        Metrics::add(&m.residency_view_refreshes, 12);
        let s = m.snapshot();
        assert_eq!(s.router_affinity_hits, 3);
        assert_eq!(s.router_fallbacks, 1);
        assert_eq!(s.steal_sessions, 5);
        assert_eq!(s.residency_view_refreshes, 12);
        assert!((s.affinity_hit_rate() - 0.75).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("router"), "report must show the router line");
        assert!(
            text.contains("view refreshes"),
            "report must show refreshes"
        );
    }

    #[test]
    fn display_mentions_every_kernel() {
        let text = Snapshot::default().to_string();
        for kind in KernelKind::ALL {
            assert!(text.contains(kind.name()), "missing {}", kind.name());
        }
    }
}
