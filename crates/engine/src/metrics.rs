//! Lock-free engine metrics.
//!
//! One [`Metrics`] registry is shared (via `Arc`) between the engine
//! front end and every worker shard. All counters are relaxed atomics —
//! they are statistics, not synchronisation — and a point-in-time
//! [`Snapshot`] can be taken at any moment and rendered as a
//! human-readable report.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of distinct kernel classes tracked by the per-kernel counters.
pub const KERNEL_KINDS: usize = KernelKind::ALL.len();

/// The baseband kernel classes whose array cycles are tracked separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// W-CDMA descrambler (paper Fig. 5).
    Descrambler,
    /// W-CDMA despreader (paper Fig. 6).
    Despreader,
    /// OFDM preamble-detection correlator (configuration 2a).
    PreambleDetector,
    /// OFDM QPSK demodulator (configuration 2b).
    Demodulator,
}

impl KernelKind {
    /// Every kernel kind, in display order.
    pub const ALL: [KernelKind; 4] = [
        KernelKind::Descrambler,
        KernelKind::Despreader,
        KernelKind::PreambleDetector,
        KernelKind::Demodulator,
    ];

    /// Stable index into per-kernel counter arrays.
    pub fn index(self) -> usize {
        match self {
            KernelKind::Descrambler => 0,
            KernelKind::Despreader => 1,
            KernelKind::PreambleDetector => 2,
            KernelKind::Demodulator => 3,
        }
    }

    /// Human-readable kernel name.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Descrambler => "wcdma-descrambler",
            KernelKind::Despreader => "wcdma-despreader",
            KernelKind::PreambleDetector => "ofdm-preamble-detector",
            KernelKind::Demodulator => "ofdm-demodulator",
        }
    }
}

/// The engine's shared counter registry.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Sessions admitted to the engine.
    pub sessions_started: AtomicU64,
    /// Sessions that reached [`Done`](crate::session::SessionState::Done).
    pub sessions_completed: AtomicU64,
    /// Sessions that reached a failure state.
    pub sessions_failed: AtomicU64,
    /// Jobs executed by workers.
    pub jobs_run: AtomicU64,
    /// Submissions rejected with `WouldBlock` (shard queue full).
    pub jobs_rejected: AtomicU64,
    /// Runtime reconfigurations (a configuration unloaded and another
    /// loaded in its place, as in the paper's Fig. 10 swap).
    pub reconfigurations: AtomicU64,
    /// Configuration-cache hits (netlist served without a rebuild).
    pub cache_hits: AtomicU64,
    /// Configuration-cache misses (netlist built and placed).
    pub cache_misses: AtomicU64,
    /// Configurations evicted from a worker's cache.
    pub cache_evictions: AtomicU64,
    /// Speculative configuration loads issued ahead of need.
    pub prefetches: AtomicU64,
    /// Activations served from a prefetched (pre-placed, pre-streamed)
    /// configuration — the swap paid only residual activation.
    pub prefetch_hits: AtomicU64,
    /// Array cycles sessions actually waited on reconfiguration swaps
    /// (a prefetched swap contributes ~0 here).
    pub reconfig_cycles: AtomicU64,
    /// High-water mark of any shard's queue depth.
    pub queue_high_water: AtomicU64,
    /// Configuration-bus cycles spent loading configurations.
    pub config_bus_cycles: AtomicU64,
    /// Configuration words streamed for demand (cold or store-hit)
    /// activations — energy the session waited for.
    pub config_words_demand: AtomicU64,
    /// Configuration words streamed for prefetched loads — the same bus
    /// energy, but hidden behind useful work.
    pub config_words_prefetched: AtomicU64,
    /// Faults injected by an attached fault plan (0 without one).
    pub faults_injected: AtomicU64,
    /// Faults the recovery layer detected and surfaced (typed load errors,
    /// cleared stall records, caught worker panics).
    pub faults_detected: AtomicU64,
    /// Recovery actions taken: kernel reload retries, watchdog reloads and
    /// crashed-session re-dispatches.
    pub recoveries: AtomicU64,
    /// Zero-fire configurations the watchdog forced out (unload +
    /// re-activate from the store).
    pub watchdog_kicks: AtomicU64,
    /// Crashed sessions re-dispatched to a restarted shard.
    pub session_retries: AtomicU64,
    /// Worker shards restarted with a fresh array after a panic.
    pub worker_restarts: AtomicU64,
    /// Sessions dead-lettered after exhausting their retry budget.
    pub dead_letters: AtomicU64,
    /// Sessions shed under admission pressure (EDF-lowest first).
    pub sessions_shed: AtomicU64,
    /// In-flight configuration-bus loads pulled off the bus at a word
    /// boundary so an earlier-deadline activation could stream first
    /// (policy-gated; see `RecoveryPolicy::preempt_loads`).
    pub loads_preempted: AtomicU64,
    /// Preempted loads re-queued from their word-boundary checkpoint —
    /// only the residue streams, nothing is re-sent.
    pub loads_resumed: AtomicU64,
    /// Deadline sheds avoided by the admission model's rescue policy: a
    /// warm-home admission it would otherwise have dropped.
    pub deadline_rescues: AtomicU64,
    /// Sessions currently parked in the front-end's parking lot
    /// (a gauge: set with [`Metrics::set`], not accumulated).
    pub sessions_parked: AtomicU64,
    /// High-water mark of resident sessions (parked records plus
    /// materialised in-flight sessions) — the front-end's headline
    /// capacity number.
    pub peak_resident_sessions: AtomicU64,
    /// Parked records rehydrated into full sessions (frame/slot arrivals
    /// plus backpressure re-tries).
    pub rehydrations: AtomicU64,
    /// Sessions parked instead of blocking a submitter thread when their
    /// shard queue was full (`WouldBlock` backpressure).
    pub backpressure_parks: AtomicU64,
    /// Batches formed by the gang dispatcher (one per kernel group per
    /// dispatch round; a gang of 1 never batches, so this stays 0 on the
    /// seed path).
    pub batches_dispatched: AtomicU64,
    /// Sessions dispatched through batches (`batch_sessions ÷
    /// batches_dispatched` is the mean batch size).
    pub batch_sessions: AtomicU64,
    /// Batches routed to an array where the kernel was already resident —
    /// zero configuration-bus traffic for the whole batch.
    pub batch_warm_hits: AtomicU64,
    /// Times the router replicated a hot kernel onto an additional gang
    /// member to spread a saturated batch stream.
    pub batch_replications: AtomicU64,
    /// Quiescent residents evicted by a spill-aware prefetch (instead of
    /// soft-failing the prefetch).
    pub prefetch_spills: AtomicU64,
    /// Activations (or squeezed prefetches) served by the delta tier:
    /// only the word difference against an overlapping resident streamed,
    /// instead of the full configuration.
    pub delta_loads: AtomicU64,
    /// Configuration-bus words the delta tier did *not* stream because
    /// they were already resident on the array (full load minus delta, per
    /// delta load).
    pub delta_words_saved: AtomicU64,
    /// Total array cycles stepped by pool workers (all gang members).
    pub array_cycles_run: AtomicU64,
    /// Configuration words streamed over every worker array's bus
    /// (per-array [`xpp_array::ArrayStats::config_words`], summed).
    pub config_words_streamed: AtomicU64,
    /// High-water mark of any single gang member's total array cycles —
    /// the modeled-platform makespan when members run in parallel.
    pub array_makespan_cycles: AtomicU64,
    /// Entries of a configuration into dense stepping on a worker array
    /// (see [`xpp_array::ScheduleStats`]; this and the next two keep the
    /// names the benchmark reads).
    pub schedules_captured: AtomicU64,
    /// Array cycles served by the dense stepper instead of the ready list
    /// (`schedule_replay_cycles ÷ array_cycles_run` is the dense share).
    pub schedule_replay_cycles: AtomicU64,
    /// Exits of a configuration from dense stepping (ran dry, turned
    /// sparse, unloaded).
    pub schedule_invalidations: AtomicU64,
    /// Submissions the affinity router placed on the shard already
    /// holding their next kernel.
    pub router_affinity_hits: AtomicU64,
    /// Submissions the router fell back to least-loaded placement for
    /// (host-only steps, cold kernels, full affinity targets).
    pub router_fallbacks: AtomicU64,
    /// Pending batches claimed cross-shard from a saturated victim.
    pub batches_stolen: AtomicU64,
    /// Sessions that moved shards through stolen batches.
    pub steal_sessions: AtomicU64,
    /// Residency-view snapshots published by shard loops (generation
    /// bumps across all shards).
    pub residency_view_refreshes: AtomicU64,
    /// Replications triggered under the rebalance bias (a shard whose
    /// residency misses dominate halves its replication threshold).
    pub rebalance_replications: AtomicU64,
    /// Array execution cycles per kernel class.
    kernel_cycles: [AtomicU64; KERNEL_KINDS],
    /// Jobs per kernel class.
    kernel_jobs: [AtomicU64; KERNEL_KINDS],
    /// Object fires per kernel class (the array's per-configuration fire
    /// counters, so cycles ÷ fires exposes each kernel's datapath
    /// occupancy).
    kernel_fires: [AtomicU64; KERNEL_KINDS],
    /// Callbacks run at the top of [`Metrics::snapshot`] so lazily-synced
    /// counters (e.g. the pool's fault-injection ledger) are always current
    /// in a report — no manual sync call to forget.
    sync_hooks: SyncHooks,
}

/// A snapshot-time sync callback (see [`Metrics::register_sync`]).
type SyncHook = Box<dyn Fn(&Metrics) + Send + Sync>;

/// Registered snapshot-time sync callbacks (see [`Metrics::register_sync`]).
#[derive(Default)]
struct SyncHooks(Mutex<Vec<SyncHook>>);

impl fmt::Debug for SyncHooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0.lock().map(|v| v.len()).unwrap_or(0);
        write!(f, "SyncHooks({n})")
    }
}

impl Metrics {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises `counter` to at least `value` (monotonic high-water mark).
    pub fn raise_to(counter: &AtomicU64, value: u64) {
        counter.fetch_max(value, Ordering::Relaxed);
    }

    /// Sets a gauge to `value` (last write wins; used for point-in-time
    /// levels like [`sessions_parked`](Metrics::sessions_parked)).
    pub fn set(counter: &AtomicU64, value: u64) {
        counter.store(value, Ordering::Relaxed);
    }

    /// Records one kernel job: its measured array cycles and the object
    /// fires its configuration performed.
    pub fn record_kernel(&self, kind: KernelKind, cycles: u64, fires: u64) {
        self.kernel_jobs[kind.index()].fetch_add(1, Ordering::Relaxed);
        self.kernel_cycles[kind.index()].fetch_add(cycles, Ordering::Relaxed);
        self.kernel_fires[kind.index()].fetch_add(fires, Ordering::Relaxed);
    }

    /// Registers a callback that runs at the top of every [`snapshot`]
    /// (and therefore before every report). The pool uses this to fold its
    /// fault-injection ledger into the registry so `faults_injected` is
    /// always current without a manual sync call.
    ///
    /// [`snapshot`]: Metrics::snapshot
    pub fn register_sync(&self, hook: impl Fn(&Metrics) + Send + Sync + 'static) {
        // A hook that panicked mid-call left nothing torn; keep reporting.
        self.sync_hooks
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Box::new(hook));
    }

    /// Takes a point-in-time snapshot of every counter, running any
    /// registered sync hooks first.
    pub fn snapshot(&self) -> Snapshot {
        {
            let hooks = self
                .sync_hooks
                .0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for hook in hooks.iter() {
                hook(self);
            }
        }
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Snapshot {
            sessions_started: load(&self.sessions_started),
            sessions_completed: load(&self.sessions_completed),
            sessions_failed: load(&self.sessions_failed),
            jobs_run: load(&self.jobs_run),
            jobs_rejected: load(&self.jobs_rejected),
            reconfigurations: load(&self.reconfigurations),
            cache_hits: load(&self.cache_hits),
            cache_misses: load(&self.cache_misses),
            cache_evictions: load(&self.cache_evictions),
            prefetches: load(&self.prefetches),
            prefetch_hits: load(&self.prefetch_hits),
            reconfig_cycles: load(&self.reconfig_cycles),
            queue_high_water: load(&self.queue_high_water),
            config_bus_cycles: load(&self.config_bus_cycles),
            config_words_demand: load(&self.config_words_demand),
            config_words_prefetched: load(&self.config_words_prefetched),
            faults_injected: load(&self.faults_injected),
            faults_detected: load(&self.faults_detected),
            recoveries: load(&self.recoveries),
            watchdog_kicks: load(&self.watchdog_kicks),
            session_retries: load(&self.session_retries),
            worker_restarts: load(&self.worker_restarts),
            dead_letters: load(&self.dead_letters),
            sessions_shed: load(&self.sessions_shed),
            loads_preempted: load(&self.loads_preempted),
            loads_resumed: load(&self.loads_resumed),
            deadline_rescues: load(&self.deadline_rescues),
            sessions_parked: load(&self.sessions_parked),
            peak_resident_sessions: load(&self.peak_resident_sessions),
            rehydrations: load(&self.rehydrations),
            backpressure_parks: load(&self.backpressure_parks),
            batches_dispatched: load(&self.batches_dispatched),
            batch_sessions: load(&self.batch_sessions),
            batch_warm_hits: load(&self.batch_warm_hits),
            batch_replications: load(&self.batch_replications),
            prefetch_spills: load(&self.prefetch_spills),
            delta_loads: load(&self.delta_loads),
            delta_words_saved: load(&self.delta_words_saved),
            array_cycles_run: load(&self.array_cycles_run),
            config_words_streamed: load(&self.config_words_streamed),
            array_makespan_cycles: load(&self.array_makespan_cycles),
            schedules_captured: load(&self.schedules_captured),
            schedule_replay_cycles: load(&self.schedule_replay_cycles),
            schedule_invalidations: load(&self.schedule_invalidations),
            router_affinity_hits: load(&self.router_affinity_hits),
            router_fallbacks: load(&self.router_fallbacks),
            batches_stolen: load(&self.batches_stolen),
            steal_sessions: load(&self.steal_sessions),
            residency_view_refreshes: load(&self.residency_view_refreshes),
            rebalance_replications: load(&self.rebalance_replications),
            kernel_cycles: std::array::from_fn(|i| load(&self.kernel_cycles[i])),
            kernel_jobs: std::array::from_fn(|i| load(&self.kernel_jobs[i])),
            kernel_fires: std::array::from_fn(|i| load(&self.kernel_fires[i])),
        }
    }
}

/// A point-in-time copy of the registry, cheap to pass around and print.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Sessions admitted.
    pub sessions_started: u64,
    /// Sessions completed.
    pub sessions_completed: u64,
    /// Sessions failed.
    pub sessions_failed: u64,
    /// Jobs executed.
    pub jobs_run: u64,
    /// Submissions rejected with `WouldBlock`.
    pub jobs_rejected: u64,
    /// Runtime reconfigurations.
    pub reconfigurations: u64,
    /// Configuration-cache hits.
    pub cache_hits: u64,
    /// Configuration-cache misses.
    pub cache_misses: u64,
    /// Configuration-cache evictions.
    pub cache_evictions: u64,
    /// Speculative configuration loads issued.
    pub prefetches: u64,
    /// Activations served from a prefetched configuration.
    pub prefetch_hits: u64,
    /// Array cycles spent waiting on reconfiguration swaps.
    pub reconfig_cycles: u64,
    /// Deepest observed shard queue.
    pub queue_high_water: u64,
    /// Configuration-bus cycles.
    pub config_bus_cycles: u64,
    /// Configuration words streamed for demand activations.
    pub config_words_demand: u64,
    /// Configuration words streamed for prefetched loads.
    pub config_words_prefetched: u64,
    /// Faults injected by an attached fault plan.
    pub faults_injected: u64,
    /// Faults detected and surfaced by the recovery layer.
    pub faults_detected: u64,
    /// Recovery actions taken.
    pub recoveries: u64,
    /// Watchdog-forced unload + re-activate cycles.
    pub watchdog_kicks: u64,
    /// Crashed sessions re-dispatched.
    pub session_retries: u64,
    /// Worker shards restarted after a panic.
    pub worker_restarts: u64,
    /// Sessions dead-lettered after exhausting retries.
    pub dead_letters: u64,
    /// Sessions shed under admission pressure.
    pub sessions_shed: u64,
    /// In-flight bus loads preempted for an earlier-deadline activation.
    pub loads_preempted: u64,
    /// Preempted loads resumed from their word-boundary checkpoint.
    pub loads_resumed: u64,
    /// Deadline sheds avoided by rescue (warm-home admission).
    pub deadline_rescues: u64,
    /// Sessions currently parked in the front-end's parking lot (gauge).
    pub sessions_parked: u64,
    /// High-water mark of resident sessions (parked + materialised).
    pub peak_resident_sessions: u64,
    /// Parked records rehydrated into full sessions.
    pub rehydrations: u64,
    /// Sessions parked instead of blocking on a full shard queue.
    pub backpressure_parks: u64,
    /// Batches formed by the gang dispatcher.
    pub batches_dispatched: u64,
    /// Sessions dispatched through batches.
    pub batch_sessions: u64,
    /// Batches that routed entirely to a warm (already-resident) array.
    pub batch_warm_hits: u64,
    /// Hot-kernel replications onto additional gang members.
    pub batch_replications: u64,
    /// Quiescent residents evicted by a spill-aware prefetch.
    pub prefetch_spills: u64,
    /// Activations/prefetches served by the delta tier.
    pub delta_loads: u64,
    /// Configuration-bus words the delta tier avoided streaming.
    pub delta_words_saved: u64,
    /// Total array cycles stepped by pool workers.
    pub array_cycles_run: u64,
    /// Configuration words streamed over every worker array's bus.
    pub config_words_streamed: u64,
    /// High-water mark of a single gang member's total array cycles.
    pub array_makespan_cycles: u64,
    /// Entries of a configuration into dense stepping.
    pub schedules_captured: u64,
    /// Array cycles served by the dense stepper.
    pub schedule_replay_cycles: u64,
    /// Exits of a configuration from dense stepping.
    pub schedule_invalidations: u64,
    /// Submissions the affinity router placed on the holding shard.
    pub router_affinity_hits: u64,
    /// Submissions routed by the least-loaded fallback.
    pub router_fallbacks: u64,
    /// Pending batches claimed cross-shard.
    pub batches_stolen: u64,
    /// Sessions that moved shards through stolen batches.
    pub steal_sessions: u64,
    /// Residency-view snapshots published by shard loops.
    pub residency_view_refreshes: u64,
    /// Replications triggered under the rebalance bias.
    pub rebalance_replications: u64,
    /// Array cycles per kernel class (indexed by [`KernelKind::index`]).
    pub kernel_cycles: [u64; KERNEL_KINDS],
    /// Jobs per kernel class (indexed by [`KernelKind::index`]).
    pub kernel_jobs: [u64; KERNEL_KINDS],
    /// Object fires per kernel class (indexed by [`KernelKind::index`]).
    pub kernel_fires: [u64; KERNEL_KINDS],
}

impl Snapshot {
    /// Cache hit rate in `[0, 1]`, or 0 with no activations.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Total array cycles across all kernel classes.
    pub fn total_kernel_cycles(&self) -> u64 {
        self.kernel_cycles.iter().sum()
    }

    /// Mean sessions per dispatched batch, or 0 with no batches.
    pub fn avg_batch_size(&self) -> f64 {
        if self.batches_dispatched == 0 {
            0.0
        } else {
            self.batch_sessions as f64 / self.batches_dispatched as f64
        }
    }

    /// Fraction of worker-array cycles the configuration bus sat idle —
    /// the paper's steady-state figure of merit (a well-amortised platform
    /// streams data with the bus near 100 % idle). 0 with no cycles run.
    pub fn bus_idle_ratio(&self) -> f64 {
        if self.array_cycles_run == 0 {
            0.0
        } else {
            let busy = self.config_bus_cycles.min(self.array_cycles_run);
            1.0 - busy as f64 / self.array_cycles_run as f64
        }
    }

    /// Total object fires across all kernel classes.
    pub fn total_kernel_fires(&self) -> u64 {
        self.kernel_fires.iter().sum()
    }

    /// Fraction of worker-array cycles served by the dense stepper instead
    /// of the ready list, in `[0, 1]` (0 with no cycles run). High values
    /// mean the arrays spend their cycles streaming bursts through full
    /// pipelines rather than filling, draining or waiting on the bus.
    pub fn replay_hit_ratio(&self) -> f64 {
        if self.array_cycles_run == 0 {
            0.0
        } else {
            let replayed = self.schedule_replay_cycles.min(self.array_cycles_run);
            replayed as f64 / self.array_cycles_run as f64
        }
    }

    /// Fraction of started sessions shed under admission pressure, in
    /// `[0, 1]` (0 with none started) — overload reporting wants the
    /// *rate*, not the raw count.
    pub fn shed_rate(&self) -> f64 {
        if self.sessions_started == 0 {
            0.0
        } else {
            self.sessions_shed as f64 / self.sessions_started as f64
        }
    }

    /// Fraction of detected faults answered by a recovery action, in
    /// `[0, 1]` (0 with none detected; recoveries can exceed detections
    /// when retries stack, so the ratio is clamped to 1).
    pub fn rescue_rate(&self) -> f64 {
        if self.faults_detected == 0 {
            0.0
        } else {
            (self.recoveries as f64 / self.faults_detected as f64).min(1.0)
        }
    }

    /// Fraction of shed candidates rescued instead of dropped, in
    /// `[0, 1]` (0 with neither rescues nor sheds). Distinct from
    /// [`rescue_rate`](Snapshot::rescue_rate), which is about fault
    /// recovery: this one reports how often the admission model's rescue
    /// policy (a warm-home admission) saved a frame it was about to
    /// shed.
    pub fn deadline_rescue_rate(&self) -> f64 {
        let candidates = self.deadline_rescues + self.sessions_shed;
        if candidates == 0 {
            0.0
        } else {
            self.deadline_rescues as f64 / candidates as f64
        }
    }

    /// Fraction of routed submissions the affinity router placed on the
    /// shard already holding their next kernel, in `[0, 1]` (0 with no
    /// routed submissions).
    pub fn affinity_hit_rate(&self) -> f64 {
        let routed = self.router_affinity_hits + self.router_fallbacks;
        if routed == 0 {
            0.0
        } else {
            self.router_affinity_hits as f64 / routed as f64
        }
    }

    /// Fraction of executed jobs whose session arrived on its shard
    /// through a steal claim, in `[0, 1]` (0 with no jobs run).
    pub fn steal_rate(&self) -> f64 {
        if self.jobs_run == 0 {
            0.0
        } else {
            (self.steal_sessions as f64 / self.jobs_run as f64).min(1.0)
        }
    }

    /// Fraction of would-be configuration-bus words the delta tier found
    /// already resident and skipped, in `[0, 1]` (0 with no bus traffic):
    /// words saved over the words a full-load-only engine would have
    /// streamed (saved + the demand and prefetched words actually sent) —
    /// the delta tier's hit rate on the word stream.
    pub fn delta_hit_rate(&self) -> f64 {
        let full = self.delta_words_saved + self.config_words_demand + self.config_words_prefetched;
        if full == 0 {
            0.0
        } else {
            self.delta_words_saved as f64 / full as f64
        }
    }

    /// Configuration-bus energy of the (demand, prefetched) load words
    /// under the default HCMOS9 energy model, in nanojoules — the
    /// cold-vs-prefetched reconfiguration trade-off in joules instead of
    /// cycles.
    pub fn config_load_energy_nj(&self) -> (f64, f64) {
        let model = xpp_array::power::EnergyModel::default();
        (
            model.config_load_nj(self.config_words_demand),
            model.config_load_nj(self.config_words_prefetched),
        )
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
        writeln!(
            f,
            "  reconfig    swaps   {:>8}  bus cycles {:>12}  swap-wait cycles {:>8}",
            self.reconfigurations, self.config_bus_cycles, self.reconfig_cycles
        )?;
        writeln!(
            f,
            "  prefetch    issued  {:>8}  hits      {:>8}  spills    {:>8}",
            self.prefetches, self.prefetch_hits, self.prefetch_spills
        )?;
        writeln!(
            f,
            "  batching    batches {:>8}  sessions  {:>8}  warm hits {:>4}  replications {:>4}  avg size {:>5.1}",
            self.batches_dispatched,
            self.batch_sessions,
            self.batch_warm_hits,
            self.batch_replications,
            self.avg_batch_size()
        )?;
        writeln!(
            f,
            "  router      affinity {:>7}  fallbacks {:>8}  hit rate {:>5.1}%  view refreshes {:>8}  rebalances {:>4}",
            self.router_affinity_hits,
            self.router_fallbacks,
            100.0 * self.affinity_hit_rate(),
            self.residency_view_refreshes,
            self.rebalance_replications
        )?;
        writeln!(
            f,
            "  stealing    batches {:>8}  sessions  {:>8}  steal rate {:>5.1}%",
            self.batches_stolen,
            self.steal_sessions,
            100.0 * self.steal_rate()
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
            "  stepping    dense entries {:>7}  dense cycles {:>12}  exits {:>7}  dense share {:>5.1}%",
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
            "  delta       loads   {:>8}  words saved {:>10}  word hit rate {:>5.1}%",
            self.delta_loads,
            self.delta_words_saved,
            100.0 * self.delta_hit_rate()
        )?;
        let (demand_nj, prefetch_nj) = self.config_load_energy_nj();
        writeln!(
            f,
            "  cfg energy  demand  {:>8} words ({:>8.1} nJ)  prefetched {:>8} words ({:>8.1} nJ)",
            self.config_words_demand, demand_nj, self.config_words_prefetched, prefetch_nj
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
        writeln!(
            f,
            "  rescue      preempted {:>6}  resumed   {:>8}  deadline rescues {:>4}  rescue rate {:>5.1}%",
            self.loads_preempted,
            self.loads_resumed,
            self.deadline_rescues,
            100.0 * self.deadline_rescue_rate()
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
        m.record_kernel(KernelKind::Despreader, 123, 40);
        m.record_kernel(KernelKind::Despreader, 77, 9);
        let s = m.snapshot();
        assert_eq!(s.sessions_started, 1);
        assert_eq!(s.jobs_run, 5);
        assert_eq!(s.kernel_jobs[KernelKind::Despreader.index()], 2);
        assert_eq!(s.kernel_cycles[KernelKind::Despreader.index()], 200);
        assert_eq!(s.kernel_fires[KernelKind::Despreader.index()], 49);
        assert_eq!(s.total_kernel_cycles(), 200);
        assert_eq!(s.total_kernel_fires(), 49);
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
    fn sync_hooks_run_on_snapshot() {
        let m = Metrics::new();
        m.register_sync(|m| Metrics::raise_to(&m.faults_injected, 7));
        assert_eq!(m.snapshot().faults_injected, 7);
        // Hooks are monotonic syncs, so repeated snapshots are stable.
        Metrics::add(&m.faults_injected, 3);
        assert_eq!(m.snapshot().faults_injected, 10);
    }

    #[test]
    fn batch_and_bus_ratios() {
        assert_eq!(Snapshot::default().avg_batch_size(), 0.0);
        assert_eq!(Snapshot::default().bus_idle_ratio(), 0.0);
        let s = Snapshot {
            batches_dispatched: 4,
            batch_sessions: 10,
            array_cycles_run: 1000,
            config_bus_cycles: 100,
            ..Snapshot::default()
        };
        assert!((s.avg_batch_size() - 2.5).abs() < 1e-12);
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
        // Dense cycles can momentarily race ahead of the cycle fold;
        // the ratio clamps rather than exceeding 1.
        let clamped = Snapshot {
            array_cycles_run: 10,
            schedule_replay_cycles: 20,
            ..Snapshot::default()
        };
        assert_eq!(clamped.replay_hit_ratio(), 1.0);
        let text = s.to_string();
        assert!(text.contains("dense share"), "report must show the ratio");
        assert!(text.contains("exits"), "report must show churn");
    }

    #[test]
    fn router_rates_and_report_lines() {
        assert_eq!(Snapshot::default().affinity_hit_rate(), 0.0);
        assert_eq!(Snapshot::default().steal_rate(), 0.0);
        let m = Metrics::new();
        Metrics::add(&m.router_affinity_hits, 3);
        Metrics::incr(&m.router_fallbacks);
        Metrics::incr(&m.batches_stolen);
        Metrics::add(&m.steal_sessions, 5);
        Metrics::add(&m.jobs_run, 20);
        Metrics::add(&m.residency_view_refreshes, 12);
        Metrics::incr(&m.rebalance_replications);
        let s = m.snapshot();
        assert_eq!(s.router_affinity_hits, 3);
        assert_eq!(s.router_fallbacks, 1);
        assert_eq!(s.batches_stolen, 1);
        assert_eq!(s.steal_sessions, 5);
        assert_eq!(s.residency_view_refreshes, 12);
        assert_eq!(s.rebalance_replications, 1);
        assert!((s.affinity_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.steal_rate() - 0.25).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("router"), "report must show the router line");
        assert!(text.contains("stealing"), "report must show stealing");
        assert!(
            text.contains("view refreshes"),
            "report must show refreshes"
        );
    }

    #[test]
    fn delta_counters_rate_and_report_line() {
        assert_eq!(Snapshot::default().delta_hit_rate(), 0.0);
        let m = Metrics::new();
        Metrics::add(&m.delta_loads, 2);
        Metrics::add(&m.delta_words_saved, 60);
        Metrics::add(&m.config_words_demand, 30);
        Metrics::add(&m.config_words_prefetched, 10);
        let s = m.snapshot();
        assert_eq!(s.delta_loads, 2);
        assert_eq!(s.delta_words_saved, 60);
        // 60 of the 100 would-be words were already resident.
        assert!((s.delta_hit_rate() - 0.6).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("delta"), "report must show the delta line");
        assert!(text.contains("words saved"), "report must show savings");
    }

    #[test]
    fn display_mentions_every_kernel() {
        let text = Snapshot::default().to_string();
        for kind in KernelKind::ALL {
            assert!(text.contains(kind.name()), "missing {}", kind.name());
        }
    }
}
