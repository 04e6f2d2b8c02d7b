//! Sharded worker pool: each worker thread owns a *gang* of simulated
//! XPP arrays.
//!
//! Terminal sessions are submitted to the shard the configured
//! [`Placement`] picks: by default the [`AffinityRouter`], which prefers a
//! shard with queue room that already holds the session's next kernel;
//! [`PlacementPolicy::Static`] (`id % shards`, the seed's sticky hash) is
//! kept as the golden oracle. Each shard has a *bounded* queue: a full
//! shard rejects the submission with [`SubmitError::WouldBlock`] instead
//! of buffering unboundedly, which is the engine's backpressure signal.
//! Workers drain their queue into a deadline-ordered heap and always run
//! the most urgent session next (EDF dispatch, the runtime counterpart of
//! `sdr_core::scheduler::schedule_edf`).
//!
//! # Batched gang dispatch
//!
//! With [`EngineConfig::arrays_per_shard`] > 1 the shard thread owns a gang
//! of [`WorkerArray`]s and dispatches in *rounds*: it drains everything
//! queued right now (the dispatch window, bounded by the queue depth),
//! groups the window by each session's next [`KernelSpec`]
//! ([`Session::next_kernel`]), and runs each group back-to-back on an
//! array where that kernel is already resident — one configuration load
//! serves the whole batch, which is the paper's steady-state premise: a
//! configuration loads once and then streams data while the bus idles.
//! Routing decisions come from a residency map rebuilt each round from
//! [`ConfigManager`] introspection (so it is self-healing across worker
//! rebuilds), warm batches pin to their resident member, cold kernels
//! fall to the least-busy member, and a hot kernel is *replicated* onto
//! another member when its home has pulled more than a fixed threshold
//! (`REPLICATE_AFTER_CYCLES`) ahead of the idlest member — up to
//! `gang − 1` replicas, always leaving one array clear so a newly arriving
//! kernel never has to evict the hot set (a gang of two may use both).
//!
//! EDF ordering holds *within* a batch (groups are split into contiguous
//! most-urgent-first chunks and chunks run in order), and deadline
//! inversion *across* batches is bounded by the dispatch window: a
//! session's step can be delayed by at most the other sessions drained in
//! the same round, never by later arrivals.

use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

#[cfg(feature = "faults")]
use xpp_array::fault::FaultInjector;
use xpp_array::{Array, ConfigId, Error as XppError, Result as XppResult};

use crate::config::{EngineConfig, RecoveryPolicy};
use crate::config_manager::{ConfigManager, ConfigStore, KernelSpec};
use crate::metrics::{KernelKind, Metrics};
use crate::router::{
    AffinityRouter, Placement, PlacementPolicy, ResidencyView, ShardStatus, StaticPlacement,
    StealOffer, StealRegistry,
};
use crate::session::Session;

/// Extra array cycles granted to a configuration that has fired nothing
/// before the watchdog declares it wedged and forces an unload + reload.
const WATCHDOG_BUDGET: u64 = 2_000;

/// A worker's execution context: its private array plus the
/// [`ConfigManager`] driving that array's configuration lifecycle.
///
/// `activate` is the only way sessions load configurations, so every load
/// goes through the manager's tiers:
///
/// 1. **resident active** — the configuration is running on the array: free;
/// 2. **resident loading** — it was [`prefetch`](WorkerArray::prefetch)ed
///    earlier: pay only the residual bus cycles;
/// 3. **stored** — the compiled config is in the process-wide
///    [`ConfigStore`]: pay only the serial configuration bus;
/// 4. **cold** — build, compile and store it, then load.
///
/// When placement fails, the least recently used resident configuration
/// is unloaded and the load retried — the paper's Fig. 10 resource
/// recycling, applied automatically.
#[derive(Debug)]
pub struct WorkerArray {
    array: Array,
    cm: ConfigManager,
    metrics: Arc<Metrics>,
    policy: RecoveryPolicy,
    retain_swap_source: bool,
    prefetch_enabled: bool,
}

impl WorkerArray {
    /// Creates a worker context around a fresh XPP-64A with its own
    /// private store (tests, benches, single-worker use).
    pub fn new(store_capacity: usize, metrics: Arc<Metrics>) -> Self {
        let store = Arc::new(ConfigStore::new(store_capacity));
        Self::with_store(store, metrics)
    }

    /// Creates a worker context drawing compiled configs from a shared
    /// process-wide store (what [`ShardPool`] workers use).
    pub fn with_store(store: Arc<ConfigStore>, metrics: Arc<Metrics>) -> Self {
        Self::with_policy(store, metrics, RecoveryPolicy::default())
    }

    /// Like [`with_store`](WorkerArray::with_store) with an explicit
    /// recovery policy (retry counts).
    pub fn with_policy(
        store: Arc<ConfigStore>,
        metrics: Arc<Metrics>,
        policy: RecoveryPolicy,
    ) -> Self {
        WorkerArray {
            array: Array::xpp64a(),
            cm: ConfigManager::new(store, Arc::clone(&metrics)),
            metrics,
            policy,
            retain_swap_source: false,
            prefetch_enabled: true,
        }
    }

    /// Enables or disables speculative prefetch. On a single array the
    /// prefetch overlaps the next kernel's bus load with the current
    /// kernel's run (Fig. 10); on a gang member the next kernel is
    /// already resident on *another* member the dispatcher will route to,
    /// so a local prefetch only duplicates the configuration across the
    /// gang — bus words the batching exists to save. Batched dispatch
    /// disables it on every member.
    pub fn set_prefetch_enabled(&mut self, enabled: bool) {
        self.prefetch_enabled = enabled;
    }

    /// Switches [`swap`](WorkerArray::swap) between the Fig. 10 policy
    /// (unload the source to recycle its resources — the right call when
    /// one terminal owns the whole array, the seed behaviour and the
    /// default) and the *gang* policy (leave the source resident so the
    /// next batch of its kernel activates for free; placement pressure
    /// still recycles it through the manager's LRU eviction when the
    /// array genuinely runs out of room). Batched dispatch sets this on
    /// every gang member: residency is exactly what batching amortises.
    pub fn set_retain_swap_source(&mut self, retain: bool) {
        self.retain_swap_source = retain;
    }

    /// Inert; the frozen benchmark package calls it and ROADMAP E(2) deletes it.
    pub fn set_delta_loading(&mut self, _enabled: bool) {}

    /// Attaches a shared fault injector to this worker's array. The
    /// injector's load ordinal is global across every array it is attached
    /// to, so a plan keeps advancing through worker restarts.
    #[cfg(feature = "faults")]
    pub fn attach_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.array.attach_fault_injector(injector);
    }

    /// The underlying array, for driving I/O on an activated configuration.
    pub fn array_mut(&mut self) -> &mut Array {
        &mut self.array
    }

    /// Read-only view of the array (stats, placements).
    pub fn array(&self) -> &Array {
        &self.array
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The worker's configuration manager (lifecycle state, store access).
    pub fn config_manager(&self) -> &ConfigManager {
        &self.cm
    }

    /// The compiled-config store this worker draws from.
    pub fn store(&self) -> &Arc<ConfigStore> {
        self.cm.store()
    }

    /// Whether the kernel's configuration is currently on the array.
    pub fn is_resident(&self, name: &str) -> bool {
        self.cm.is_resident(name)
    }

    /// Re-marks every resident configuration's fire counter as seen, so
    /// residents that do no work before the next placement squeeze are
    /// quiescent and spillable by a prefetch. Dispatchers call this after
    /// each batch (or session step).
    pub fn refresh_activity(&mut self) {
        self.cm.refresh_activity(&self.array);
    }

    /// Ensures the kernel's configuration is loaded and running, and
    /// returns its handle. See the type docs for the activation tiers.
    ///
    /// Loads that fail with an injected fault (corrupted or aborted bus
    /// stream) are retried up to the policy's `max_kernel_attempts`: the
    /// faulted residue was already unloaded by the manager, so each retry
    /// is a clean reload from the shared store.
    ///
    /// # Errors
    ///
    /// Returns an error if placement fails even after unloading every
    /// other resident configuration, or a fault error once the retry
    /// budget is exhausted.
    pub fn activate(&mut self, spec: impl Into<KernelSpec>) -> XppResult<ConfigId> {
        let spec = spec.into();
        let attempts = self.policy.max_kernel_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            match self.cm.activate(&mut self.array, &spec) {
                Err(e) if e.is_fault() && attempt < attempts => {
                    // Detection was counted where the load failed; the
                    // reload we are about to do is the matching recovery.
                    Metrics::incr(&self.metrics.recoveries);
                }
                other => return other,
            }
        }
    }

    /// Runs one array job under the zero-fire watchdog: activates the
    /// configuration, starts streaming `prefetch` (the kernel the caller
    /// swaps in next) so its bus load overlaps this job, lets `drive` — the
    /// kernel's `xpp_map::drive_*` function — run on the array, and books
    /// the job's cycles and object fires under `kind`. If `drive` times out
    /// without the configuration having fired a single object, it gets one
    /// extra `WATCHDOG_BUDGET` of cycles — still silent means the load is
    /// wedged (e.g. an injected stall), so the configuration is forcibly
    /// unloaded and the whole attempt retried from the store. The replay is
    /// safe: `drive` re-reads the caller's slices, the reload starts from
    /// clean token state, and a repeated prefetch is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates `drive`'s error, or [`XppError::ConfigWedged`] once a
    /// wedged configuration has exhausted the kernel retry budget.
    pub fn run_kernel<T>(
        &mut self,
        kind: KernelKind,
        spec: impl Into<KernelSpec>,
        prefetch: Option<KernelSpec>,
        mut drive: impl FnMut(&mut Array, ConfigId) -> XppResult<T>,
    ) -> XppResult<T> {
        let spec = spec.into();
        let attempts = self.policy.max_kernel_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            let cfg = self.activate(spec)?;
            if let Some(next) = prefetch {
                self.prefetch(next)?;
            }
            let cycles_before = self.array.stats().cycles;
            let fires_before = self.array.config_fire_count(cfg);
            match drive(&mut self.array, cfg) {
                Ok(out) => {
                    self.metrics.record_kernel(
                        kind,
                        self.array.stats().cycles - cycles_before,
                        self.array.config_fire_count(cfg) - fires_before,
                    );
                    return Ok(out);
                }
                Err(e @ XppError::Timeout { .. }) => {
                    if !self.watchdog_wedged(cfg, fires_before) {
                        return Err(e);
                    }
                    Metrics::incr(&self.metrics.watchdog_kicks);
                    // Force the zombie off the array. Disposal surfaces
                    // the injected stall record (detected + recovered);
                    // the next attempt reloads from the store.
                    self.cm.deactivate(&mut self.array, &spec.config_name())?;
                    if attempt >= attempts {
                        return Err(XppError::ConfigWedged {
                            config: cfg.index(),
                        });
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// After a timeout: has the configuration fired anything, even when
    /// granted `WATCHDOG_BUDGET` extra cycles? No fires at all means the
    /// load completed but the objects never came alive.
    fn watchdog_wedged(&mut self, cfg: ConfigId, fires_before: u64) -> bool {
        if self.array.config_fire_count(cfg) != fires_before {
            return false;
        }
        self.array.run(WATCHDOG_BUDGET);
        self.array.config_fire_count(cfg) == fires_before
    }

    /// Speculatively starts loading the kernel's configuration without
    /// waiting for it, so a later [`activate`](WorkerArray::activate) (or
    /// [`swap`](WorkerArray::swap)) pays only residual activation.
    /// Returns whether a prefetch was issued (`false` when already
    /// resident, when prefetch is
    /// [disabled](WorkerArray::set_prefetch_enabled), or when the array
    /// is too full even after spilling quiescent residents — a prefetch
    /// may evict residents that have fired nothing since their last
    /// batch, never the active one).
    ///
    /// # Errors
    ///
    /// Propagates array errors other than placement failure.
    pub fn prefetch(&mut self, spec: impl Into<KernelSpec>) -> XppResult<bool> {
        if !self.prefetch_enabled {
            return Ok(false);
        }
        self.cm.prefetch(&mut self.array, &spec.into())
    }

    /// Unloads the kernel's configuration if resident; returns whether it
    /// was.
    ///
    /// # Errors
    ///
    /// Returns an error if the array rejects the unload.
    pub fn deactivate(&mut self, spec: impl Into<KernelSpec>) -> XppResult<bool> {
        let name = spec.into().config_name();
        self.cm.deactivate(&mut self.array, &name)
    }

    /// The Fig. 10 swap: unloads `from` (if resident) and activates `to`
    /// in the freed resources. Counted as a runtime reconfiguration when
    /// an unload actually happened; the array cycles the session waited
    /// on the swap are recorded in `reconfig_cycles` (~0 when `to` was
    /// prefetched).
    ///
    /// Under [`set_retain_swap_source`](WorkerArray::set_retain_swap_source)
    /// the unload is skipped: both kernels stay resident and only
    /// placement pressure recycles the source.
    ///
    /// # Errors
    ///
    /// Returns an error if the unload or the activation fails.
    pub fn swap(
        &mut self,
        from: impl Into<KernelSpec>,
        to: impl Into<KernelSpec>,
    ) -> XppResult<ConfigId> {
        let cycles_before = self.array.stats().cycles;
        if !self.retain_swap_source {
            let unloaded = self.deactivate(from)?;
            if unloaded {
                Metrics::incr(&self.metrics.reconfigurations);
            }
        }
        let id = self.activate(to)?;
        Metrics::add(
            &self.metrics.reconfig_cycles,
            self.array.stats().cycles - cycles_before,
        );
        Ok(id)
    }
}

/// Compiled configurations the pool-wide [`ConfigStore`] may hold: room
/// for every kernel the two standards register, with slack.
const STORE_CAPACITY: usize = 8;

/// The pool reads its settings from the engine-wide [`EngineConfig`]. The
/// alias stays because the frozen benchmark package spells
/// `PoolConfig { .., ..PoolConfig::default() }`.
pub type PoolConfig = EngineConfig;

/// Why a submission was not accepted. The session is handed back so the
/// caller can retry or reroute it.
#[derive(Debug)]
pub enum SubmitError {
    /// The target shard's queue is full — backpressure.
    WouldBlock(Session),
    /// The pool has been shut down.
    Shutdown(Session),
}

impl SubmitError {
    /// Recovers the rejected session regardless of the rejection reason.
    pub fn into_session(self) -> Session {
        match self {
            SubmitError::WouldBlock(s) | SubmitError::Shutdown(s) => s,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::WouldBlock(s) => {
                write!(f, "shard queue full for session {}", s.id())
            }
            SubmitError::Shutdown(s) => {
                write!(f, "pool shut down; session {} rejected", s.id())
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Heap entry ordering sessions by (deadline, arrival) — earliest first.
struct QueuedSession {
    deadline: u64,
    seq: u64,
    session: Session,
}

impl QueuedSession {
    fn key(&self) -> (u64, u64) {
        (self.deadline, self.seq)
    }
}

impl PartialEq for QueuedSession {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for QueuedSession {}

impl PartialOrd for QueuedSession {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedSession {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline.
        other.key().cmp(&self.key())
    }
}

#[derive(Debug, Default)]
struct PauseGate {
    paused: Mutex<bool>,
    unpaused: Condvar,
}

impl PauseGate {
    // A poisoned gate only means some thread panicked while holding the
    // lock; the bool inside is always valid, so recover it rather than
    // cascading the panic into pause/resume callers.
    fn set(&self, paused: bool) {
        *self.paused.lock().unwrap_or_else(PoisonError::into_inner) = paused;
        self.unpaused.notify_all();
    }

    fn wait_ready(&self) {
        let mut guard = self.paused.lock().unwrap_or_else(PoisonError::into_inner);
        while *guard {
            guard = self
                .unpaused
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct ShardHandle {
    queue: Option<SyncSender<Session>>,
    depth: Arc<AtomicU64>,
    pause: Arc<PauseGate>,
    worker: Option<JoinHandle<()>>,
}

/// The sharded worker pool.
pub struct ShardPool {
    shards: Vec<ShardHandle>,
    results: Receiver<Session>,
    metrics: Arc<Metrics>,
    queue_depth_limit: usize,
    view: Arc<ResidencyView>,
    placement: Box<dyn Placement>,
}

impl ShardPool {
    /// Spawns `config.shards` workers, each owning a gang of
    /// `config.arrays_per_shard` arrays over one shared compiled-config
    /// store.
    ///
    /// With a fault plan, the pool-wide injector's fire counters are
    /// folded into the registry by a [`Metrics::register_sync`] hook, so
    /// `faults_injected` is always current in any snapshot or report — no
    /// manual sync call.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `arrays_per_shard` or `queue_depth` is zero.
    pub fn new(config: EngineConfig, metrics: Arc<Metrics>) -> Self {
        assert!(config.shards > 0, "pool needs at least one shard");
        assert!(
            config.arrays_per_shard > 0,
            "each shard needs at least one array"
        );
        assert!(config.queue_depth > 0, "queue depth must be positive");
        let (results_tx, results) = mpsc::channel();
        // One compiled-config store for the whole pool: a kernel is built
        // and placed once per process, whichever shard first needs it.
        let store = Arc::new(ConfigStore::new(STORE_CAPACITY));
        #[cfg(feature = "faults")]
        let injector = config
            .fault_plan
            .clone()
            .map(|plan| Arc::new(FaultInjector::new(plan)));
        #[cfg(feature = "faults")]
        if let Some(inj) = &injector {
            let inj = Arc::clone(inj);
            metrics.register_sync(move |m| {
                Metrics::raise_to(&m.faults_injected, inj.injected_total());
            });
        }
        // Channels and status cells come first: the residency view spans
        // every shard, so workers need it before any of them spawns.
        let channels: Vec<(SyncSender<Session>, Receiver<Session>)> = (0..config.shards)
            .map(|_| mpsc::sync_channel::<Session>(config.queue_depth))
            .collect();
        let depths: Vec<Arc<AtomicU64>> = (0..config.shards)
            .map(|_| Arc::new(AtomicU64::new(0)))
            .collect();
        let statuses: Vec<Arc<ShardStatus>> = depths
            .iter()
            .map(|d| Arc::new(ShardStatus::new(Arc::clone(d))))
            .collect();
        let view = Arc::new(ResidencyView::new(
            statuses.clone(),
            config.queue_depth as u64,
        ));
        // Stealing is a cross-shard mechanism: with one shard there is
        // nobody to steal from, so the registry (and the idle-poll loop
        // it requires) is skipped entirely and the seed path is
        // bit-identical to the pre-router pool.
        let steal: Option<Arc<StealRegistry>> =
            (config.work_stealing && config.shards > 1).then(|| Arc::new(StealRegistry::new()));
        let shards = channels
            .into_iter()
            .zip(depths)
            .enumerate()
            .map(|(shard, ((tx, rx), depth))| {
                let pause = Arc::new(PauseGate::default());
                pause.set(config.start_paused);
                let seed = WorkerSeed {
                    shard,
                    results: results_tx.clone(),
                    depth: Arc::clone(&depth),
                    pause: Arc::clone(&pause),
                    metrics: Arc::clone(&metrics),
                    store: Arc::clone(&store),
                    policy: config.recovery,
                    gang: config.arrays_per_shard,
                    status: Arc::clone(&statuses[shard]),
                    steal: steal.clone(),
                    steal_threshold: config.steal_threshold.max(1),
                    #[cfg(feature = "faults")]
                    injector: injector.clone(),
                };
                let worker = std::thread::spawn(move || worker_loop(rx, seed));
                ShardHandle {
                    queue: Some(tx),
                    depth,
                    pause,
                    worker: Some(worker),
                }
            })
            .collect();
        let placement: Box<dyn Placement> = match config.placement {
            PlacementPolicy::Static => Box::new(StaticPlacement {
                shards: config.shards,
            }),
            PlacementPolicy::Affinity => {
                Box::new(AffinityRouter::new(Arc::clone(&view), Arc::clone(&metrics)))
            }
        };
        ShardPool {
            shards,
            results,
            metrics,
            queue_depth_limit: config.queue_depth,
            view,
            placement,
        }
    }

    /// The shard the *static* policy maps a session to (sticky affinity
    /// by id) — the seed placement, kept as the oracle the router-golden
    /// suite compares against. The live routing decision is made by
    /// [`submit`](ShardPool::submit) through the configured [`Placement`].
    pub fn shard_of(&self, session: &Session) -> usize {
        (session.id() % self.shards.len() as u64) as usize
    }

    /// The global residency view the router reads (and shard loops
    /// publish into).
    pub fn residency_view(&self) -> &Arc<ResidencyView> {
        &self.view
    }

    /// Submits a session to the shard the configured [`Placement`]
    /// picks, without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::WouldBlock`] hands the session back when the shard
    /// queue is full; [`SubmitError::Shutdown`] when the pool is closed.
    // The error variants carry the rejected `Session` back to the caller by
    // design, so the Err side is as large as a session.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, session: Session) -> Result<usize, SubmitError> {
        let shard = self
            .placement
            .place(session.next_kernel().as_ref(), session.id())
            .min(self.shards.len() - 1);
        let handle = &self.shards[shard];
        let Some(queue) = handle.queue.as_ref() else {
            return Err(SubmitError::Shutdown(session));
        };
        // Count before sending: the worker decrements on receive, and the
        // receive may land before a post-send increment would. The counter,
        // not the channel, is the bound: it is what the router reads as
        // "room", so a shard is full exactly when the router says so. The
        // channel is just as deep and the counter never undercounts it, so
        // `try_send` itself does not report `Full`.
        let depth = handle.depth.fetch_add(1, Ordering::Relaxed) + 1;
        let sent = if depth > self.queue_depth_limit as u64 {
            Err(TrySendError::Full(session))
        } else {
            queue.try_send(session)
        };
        match sent {
            Ok(()) => {
                Metrics::raise_to(&self.metrics.queue_high_water, depth);
                Ok(shard)
            }
            Err(TrySendError::Full(s)) => {
                handle.depth.fetch_sub(1, Ordering::Relaxed);
                Metrics::incr(&self.metrics.jobs_rejected);
                Err(SubmitError::WouldBlock(s))
            }
            Err(TrySendError::Disconnected(s)) => {
                handle.depth.fetch_sub(1, Ordering::Relaxed);
                Err(SubmitError::Shutdown(s))
            }
        }
    }

    /// Blocks for the next session a worker finished stepping. Returns
    /// `None` only after shutdown, once every worker has exited.
    pub fn recv(&self) -> Option<Session> {
        self.results.recv().ok()
    }

    /// Non-blocking receive: the next finished session if one is already
    /// waiting, `None` otherwise. The front-end folds hand-backs with this
    /// so the driving thread never blocks while it still has work to do.
    pub fn try_recv(&self) -> Option<Session> {
        self.results.try_recv().ok()
    }

    /// Blocks up to `timeout` for a finished session. `None` on timeout
    /// or after shutdown.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Session> {
        self.results.recv_timeout(timeout).ok()
    }

    /// Total submission capacity across every shard queue — what the
    /// front-end clamps its materialisation window to.
    pub fn queue_capacity(&self) -> usize {
        self.shards.len() * self.queue_depth_limit
    }

    /// Pauses a shard: its worker finishes the current job, then idles.
    pub fn pause(&self, shard: usize) {
        self.shards[shard].pause.set(true);
    }

    /// Resumes a paused shard.
    pub fn resume(&self, shard: usize) {
        self.shards[shard].pause.set(false);
    }

    /// Current queued depth of a shard (approximate under concurrency).
    pub fn queue_depth(&self, shard: usize) -> u64 {
        self.shards[shard].depth.load(Ordering::Relaxed)
    }

    /// Closes the pool: stops accepting work, lets every worker drain its
    /// queue (each in-flight session is stepped once more), joins the
    /// workers, and returns the sessions that were still in flight.
    pub fn shutdown(mut self) -> Vec<Session> {
        self.close_and_join();
        let mut leftover = Vec::new();
        while let Ok(s) = self.results.try_recv() {
            leftover.push(s);
        }
        leftover
    }

    fn close_and_join(&mut self) {
        for shard in &mut self.shards {
            shard.queue = None; // disconnects the worker's receiver
            shard.pause.set(false); // a paused worker must wake to drain
        }
        for shard in &mut self.shards {
            if let Some(worker) = shard.worker.take() {
                // Supervised join: session panics are caught inside the
                // loop, so an Err here is a defect in the loop itself —
                // shutdown must still proceed shard by shard rather than
                // cascade the panic out of drop.
                let _ = worker.join();
            }
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Everything needed to (re)build a shard's worker context — kept by the
/// worker thread itself so it can replace a crashed [`WorkerArray`]
/// without round-tripping through the pool.
struct WorkerSeed {
    shard: usize,
    results: mpsc::Sender<Session>,
    depth: Arc<AtomicU64>,
    pause: Arc<PauseGate>,
    metrics: Arc<Metrics>,
    store: Arc<ConfigStore>,
    policy: RecoveryPolicy,
    gang: usize,
    /// This shard's cell in the global residency view (publish side).
    status: Arc<ShardStatus>,
    /// Cross-shard steal registry; `None` when stealing is disabled (or
    /// the pool has a single shard), which keeps the idle path on the
    /// seed's blocking receive.
    steal: Option<Arc<StealRegistry>>,
    steal_threshold: usize,
    #[cfg(feature = "faults")]
    injector: Option<Arc<FaultInjector>>,
}

impl WorkerSeed {
    fn fresh_worker(&self) -> WorkerArray {
        let mut worker = WorkerArray::with_policy(
            Arc::clone(&self.store),
            Arc::clone(&self.metrics),
            self.policy,
        );
        // Gang members keep swap sources resident: the batching
        // dispatcher routes each kernel's stream back to its warm member,
        // so recycling a kernel's resources per session (the single-array
        // Fig. 10 policy) would undo exactly the residency the gang
        // amortises.
        worker.set_retain_swap_source(self.gang > 1);
        worker.set_prefetch_enabled(self.gang == 1);
        #[cfg(feature = "faults")]
        if let Some(inj) = &self.injector {
            worker.attach_fault_injector(Arc::clone(inj));
        }
        worker
    }
}

/// Receives into the heap without blocking; clears `open` on disconnect.
fn drain_queue(
    rx: &Receiver<Session>,
    seed: &WorkerSeed,
    heap: &mut BinaryHeap<QueuedSession>,
    seq: &mut u64,
    open: &mut bool,
) {
    loop {
        match rx.try_recv() {
            Ok(session) => {
                seed.depth.fetch_sub(1, Ordering::Relaxed);
                enqueue(heap, seq, session);
            }
            Err(TryRecvError::Empty) => break,
            Err(TryRecvError::Disconnected) => {
                *open = false;
                break;
            }
        }
    }
}

/// Blocks for one session when the heap is empty; clears `open` on
/// disconnect.
fn recv_one(
    rx: &Receiver<Session>,
    seed: &WorkerSeed,
    heap: &mut BinaryHeap<QueuedSession>,
    seq: &mut u64,
    open: &mut bool,
) {
    match rx.recv() {
        Ok(session) => {
            seed.depth.fetch_sub(1, Ordering::Relaxed);
            enqueue(heap, seq, session);
        }
        Err(_) => *open = false,
    }
}

/// Pushes a session into the EDF heap. Queue receives also decrement the
/// shard's depth counter first; stolen or withdrawn sessions never touch
/// it — the counter only mirrors the submission channel.
fn enqueue(heap: &mut BinaryHeap<QueuedSession>, seq: &mut u64, session: Session) {
    *seq += 1;
    heap.push(QueuedSession {
        deadline: session.deadline(),
        seq: *seq,
        session,
    });
}

/// Consecutive idle polls before a victim takes back its own unclaimed
/// offer. Each poll is ~1 ms, so an offer stays claimable for a few
/// milliseconds after its owner drains — long enough for an idle peer's
/// next poll to land, short enough that a quiet pool reclaims promptly.
const WITHDRAW_GRACE_POLLS: u32 = 3;

/// The idle step shared by both dispatch loops when the heap is empty.
///
/// Without a steal registry this is the seed behaviour: exit if the
/// queue closed, otherwise block on the next submission. With stealing,
/// the idle shard becomes the thief side of the protocol: it reclaims
/// its own stale offers (after a grace period, or unconditionally at
/// shutdown so no session is ever stranded), claims another shard's
/// offer if one is exposed, and otherwise polls the queue with a short
/// timeout so a future offer is noticed.
///
/// Returns `false` when the loop should exit (queue closed, nothing
/// left to run or reclaim).
fn idle_step(
    rx: &Receiver<Session>,
    seed: &WorkerSeed,
    heap: &mut BinaryHeap<QueuedSession>,
    seq: &mut u64,
    open: &mut bool,
    idle_polls: &mut u32,
) -> bool {
    let Some(steal) = seed.steal.as_deref() else {
        if !*open {
            return false; // queue closed and drained: clean exit
        }
        recv_one(rx, seed, heap, seq, open);
        return true;
    };
    if !*open {
        // Shutting down: anything we still have on offer is ours to run
        // (claim/withdraw are atomic, so a session runs exactly once).
        let mine = steal.withdraw(seed.shard);
        if mine.is_empty() {
            return false;
        }
        for session in mine {
            enqueue(heap, seq, session);
        }
        return true;
    }
    if *idle_polls >= WITHDRAW_GRACE_POLLS && steal.has_offer_from(seed.shard) {
        *idle_polls = 0;
        let mine = steal.withdraw(seed.shard);
        if !mine.is_empty() {
            for session in mine {
                enqueue(heap, seq, session);
            }
            return true;
        }
    }
    if let Some(offer) = steal.claim(seed.shard) {
        *idle_polls = 0;
        Metrics::incr(&seed.metrics.batches_stolen);
        Metrics::add(&seed.metrics.steal_sessions, offer.sessions.len() as u64);
        for session in offer.sessions {
            enqueue(heap, seq, session);
        }
        return true;
    }
    *idle_polls += 1;
    match rx.recv_timeout(Duration::from_millis(1)) {
        Ok(session) => {
            seed.depth.fetch_sub(1, Ordering::Relaxed);
            *idle_polls = 0;
            enqueue(heap, seq, session);
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {}
        Err(mpsc::RecvTimeoutError::Disconnected) => *open = false,
    }
    true
}

/// The victim side of the single-array steal protocol: a shard whose
/// EDF heap is over the threshold exposes its *latest-deadline half* —
/// the work it would get to last — for an idle shard to claim. One
/// offer at a time per shard; the most urgent half always stays home.
fn maybe_offer_single(seed: &WorkerSeed, heap: &mut BinaryHeap<QueuedSession>, seq: &mut u64) {
    let Some(steal) = seed.steal.as_deref() else {
        return;
    };
    if heap.len() <= seed.steal_threshold || steal.has_offer_from(seed.shard) {
        return;
    }
    // `into_sorted_vec` sorts ascending by the reversed EDF `Ord`, so
    // index 0 is the *latest* deadline — exactly the tail to give away.
    let mut sorted = std::mem::take(heap).into_sorted_vec();
    let n = sorted.len() / 2;
    let offered: Vec<Session> = sorted.drain(..n).map(|q| q.session).collect();
    *heap = sorted.into();
    // Duplicate ids the registry's idempotence guard rejected stay home.
    for session in steal.offer(StealOffer {
        victim: seed.shard,
        kernel: None,
        sessions: offered,
    }) {
        enqueue(heap, seq, session);
    }
}

/// Publishes a single-array shard's residency and busy count into its
/// view cell, so the affinity router sees gang-of-1 shards too.
fn publish_single(seed: &WorkerSeed, worker: &WorkerArray, busy: u64, names: &mut Vec<String>) {
    names.clear();
    worker.config_manager().resident_names_into(names);
    seed.status.publish(names, busy);
    Metrics::incr(&seed.metrics.residency_view_refreshes);
}

/// Point-in-time array counters sampled around one supervised step, so
/// the deltas (and only the deltas) are credited to the pool metrics.
struct ActivityMark {
    stats: xpp_array::ArrayStats,
    sched: xpp_array::ScheduleStats,
}

impl ActivityMark {
    fn of(array: &Array) -> Self {
        ActivityMark {
            stats: array.stats(),
            sched: array.schedule_stats(),
        }
    }
}

/// Credits one step's array activity to the pool-level counters and the
/// member's cumulative busy count (which survives worker rebuilds, unlike
/// the array's own stats).
fn credit_array_activity(metrics: &Metrics, busy: &mut u64, before: ActivityMark, array: &Array) {
    let delta = array.stats().delta_since(&before.stats);
    *busy += delta.cycles;
    Metrics::add(&metrics.array_cycles_run, delta.cycles);
    Metrics::add(&metrics.config_words_streamed, delta.config_words);
    Metrics::raise_to(&metrics.array_makespan_cycles, *busy);
    let sched = array.schedule_stats().delta_since(&before.sched);
    Metrics::add(&metrics.schedules_captured, sched.captured);
    Metrics::add(&metrics.schedule_replay_cycles, sched.replay_cycles);
    Metrics::add(&metrics.schedule_invalidations, sched.invalidations);
}

/// One supervised session step on one array, shared by both dispatch
/// loops; hands the stepped session back for the caller to return to the
/// driver. A panic (injected or genuine) is contained to this one dispatch.
/// `AssertUnwindSafe` is sound because both the session and the worker are
/// discarded-or-replaced on the panic path rather than reused in their torn
/// state: the session is handed back marked crashed (the driver
/// re-dispatches or dead-letters it, it never resumes mid-kernel state),
/// and the worker — whose array may be mid-mutation — is dropped wholesale
/// and rebuilt from the seed. Only that one array is rebuilt: the rest of a
/// gang keeps its residency.
fn supervised_step(
    seed: &WorkerSeed,
    worker: &mut WorkerArray,
    busy: &mut u64,
    mut session: Session,
) -> Session {
    let before = ActivityMark::of(worker.array());
    let stepped = catch_unwind(AssertUnwindSafe(|| session.step(worker)));
    credit_array_activity(&seed.metrics, busy, before, worker.array());
    match stepped {
        Ok(()) => Metrics::incr(&seed.metrics.jobs_run),
        Err(_) => {
            // Pending fault records on the discarded array (e.g. a stall
            // nobody exercised yet) would vanish with it; count their
            // disposal so injected == detected still reconciles.
            let lost = worker.array_mut().take_injected_faults();
            Metrics::add(&seed.metrics.faults_detected, 1 + lost);
            Metrics::add(&seed.metrics.recoveries, lost);
            Metrics::incr(&seed.metrics.worker_restarts);
            *worker = seed.fresh_worker();
            session.record_crash();
        }
    }
    session
}

fn worker_loop(rx: Receiver<Session>, seed: WorkerSeed) {
    if seed.gang > 1 {
        return gang_loop(rx, seed);
    }
    let mut worker = seed.fresh_worker();
    let mut busy = 0u64;
    let mut heap: BinaryHeap<QueuedSession> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut open = true;
    let mut idle_polls = 0u32;
    let mut names: Vec<String> = Vec::new();
    loop {
        seed.pause.wait_ready();
        drain_queue(&rx, &seed, &mut heap, &mut seq, &mut open);
        maybe_offer_single(&seed, &mut heap, &mut seq);
        let Some(queued) = heap.pop() else {
            if idle_step(&rx, &seed, &mut heap, &mut seq, &mut open, &mut idle_polls) {
                continue;
            }
            return; // queue closed and drained: clean exit
        };
        let session = supervised_step(&seed, &mut worker, &mut busy, queued.session);
        // A no-op on the fresh worker a crash leaves behind.
        worker.refresh_activity();
        // Publish before handing back: the driver routes the session's
        // next step on the residency this one produced.
        publish_single(&seed, &worker, busy, &mut names);
        // The driver may already be gone (pool dropped mid-run); the
        // session's work is still done, only the hand-back is lost.
        let _ = seed.results.send(session);
    }
}

// ---------------------------------------------------------------------------
// Gang dispatch (arrays_per_shard > 1)
// ---------------------------------------------------------------------------

/// Groups an EDF-ordered dispatch window by each session's next kernel,
/// preserving order: within a batch sessions stay in EDF order, and
/// batches are ordered by their most urgent member (first-seen in the
/// EDF-sorted window). Deadline inversion is therefore bounded by the
/// window size — a session is only ever run after sessions that were
/// *drained in the same round*, never after later arrivals.
fn form_batches(window: Vec<Session>) -> Vec<(Option<KernelSpec>, Vec<Session>)> {
    let mut batches: Vec<(Option<KernelSpec>, Vec<Session>)> = Vec::new();
    for session in window {
        let key = session.next_kernel();
        match batches.iter_mut().find(|(k, _)| *k == key) {
            Some((_, batch)) => batch.push(session),
            None => batches.push((key, vec![session])),
        }
    }
    batches
}

/// Gang-routing saturation threshold, in array cycles: a hot kernel is
/// replicated onto an additional member once the busiest of its warm
/// members is this many cycles ahead of the idlest member.
const REPLICATE_AFTER_CYCLES: u64 = 2_000;

/// A shard's array gang: the members and their cumulative busy cycles (the
/// activity counters routing decisions use; they survive worker rebuilds).
struct Gang<'a> {
    members: Vec<WorkerArray>,
    busy: Vec<u64>,
    seed: &'a WorkerSeed,
    /// Scratch buffer for the per-round residency publish.
    resident_names: Vec<String>,
}

impl<'a> Gang<'a> {
    fn new(seed: &'a WorkerSeed) -> Self {
        Gang {
            members: (0..seed.gang).map(|_| seed.fresh_worker()).collect(),
            busy: vec![0; seed.gang],
            seed,
            resident_names: Vec::new(),
        }
    }

    /// Whether the kernel's configuration is resident on any member.
    fn any_resident(&self, name: &str) -> bool {
        self.members.iter().any(|m| m.is_resident(name))
    }

    /// Publishes the gang's union residency and total busy cycles into
    /// the shard's view cell — once per dispatch round, never per session.
    fn publish(&mut self) {
        self.resident_names.clear();
        for member in &self.members {
            member
                .config_manager()
                .resident_names_into(&mut self.resident_names);
        }
        let busy: u64 = self.busy.iter().sum();
        self.seed.status.publish(&self.resident_names, busy);
        Metrics::incr(&self.seed.metrics.residency_view_refreshes);
    }

    /// The member that has stepped the fewest array cycles — the
    /// least-recently-active target for cold kernels and host-only steps.
    fn least_busy(&self, exclude: &[usize]) -> Option<usize> {
        (0..self.members.len())
            .filter(|m| !exclude.contains(m))
            .min_by_key(|&m| (self.busy[m], m))
    }

    /// Picks the members a batch runs on, most idle first.
    ///
    /// * Host-only batches (no kernel) touch no array: least-busy member.
    /// * Warm batches pin to the members where the kernel is resident
    ///   (the residency map, read fresh from [`ConfigManager`]
    ///   introspection each round so it heals across worker rebuilds).
    /// * Cold kernels fall to the least-busy member.
    /// * A saturated hot kernel is replicated onto the idlest member —
    ///   paying one extra configuration load to split the stream — up to
    ///   `gang − 1` replicas, so one array always stays clear of the hot
    ///   set for whatever arrives next. A gang of two may use both: "one
    ///   array stays clear" has no meaning with two arrays, it only pins
    ///   a warm kernel to one member while the other idles.
    fn route(&self, key: Option<&KernelSpec>, metrics: &Metrics) -> Vec<usize> {
        // The gang is never empty (`ShardPool::new` asserts it), so an
        // unexcluded least-busy scan always finds a member.
        let Some(key) = key else {
            return vec![self.least_busy(&[]).unwrap_or(0)];
        };
        let name = key.config_name();
        let mut homes: Vec<usize> = (0..self.members.len())
            .filter(|&m| self.members[m].is_resident(&name))
            .collect();
        if homes.is_empty() {
            homes.push(self.least_busy(&[]).unwrap_or(0));
        } else {
            Metrics::incr(&metrics.batch_warm_hits);
        }
        let max_replicas = match self.members.len() {
            gang @ (1 | 2) => gang,
            gang => gang - 1,
        };
        while homes.len() < max_replicas {
            let Some(idlest) = self.least_busy(&homes) else {
                break;
            };
            let warmest = homes.iter().map(|&m| self.busy[m]).max().unwrap_or(0);
            if warmest.saturating_sub(self.busy[idlest]) <= REPLICATE_AFTER_CYCLES {
                break;
            }
            homes.push(idlest);
            Metrics::incr(&metrics.batch_replications);
        }
        // Most idle first: the largest (most urgent) chunk lands on the
        // member with the most headroom.
        homes.sort_by_key(|&m| (self.busy[m], m));
        homes
    }

    /// Runs one EDF-ordered batch: splits it into contiguous chunks (most
    /// urgent first) across the routed members and steps every session
    /// back-to-back — the batch pays for its kernel's configuration at
    /// most once per member.
    fn run_batch(&mut self, key: Option<KernelSpec>, sessions: Vec<Session>) {
        let metrics = &self.seed.metrics;
        Metrics::incr(&metrics.batches_dispatched);
        Metrics::add(&metrics.batch_sessions, sessions.len() as u64);
        let homes = self.route(key.as_ref(), metrics);
        let chunk = sessions.len().div_ceil(homes.len());
        let mut remaining = sessions.into_iter();
        for &member in &homes {
            let chunk_sessions: Vec<Session> = remaining.by_ref().take(chunk).collect();
            for session in chunk_sessions {
                let session = supervised_step(
                    self.seed,
                    &mut self.members[member],
                    &mut self.busy[member],
                    session,
                );
                let _ = self.seed.results.send(session);
            }
            self.members[member].refresh_activity();
        }
    }
}

/// The batching dispatcher: one thread owning the whole gang, so rounds
/// are deterministic (the chaos suite's reproducibility holds for gangs
/// too) and every member's residency is introspectable without locks.
fn gang_loop(rx: Receiver<Session>, seed: WorkerSeed) {
    let mut gang = Gang::new(&seed);
    let mut heap: BinaryHeap<QueuedSession> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut open = true;
    let mut idle_polls = 0u32;
    loop {
        seed.pause.wait_ready();
        drain_queue(&rx, &seed, &mut heap, &mut seq, &mut open);
        if heap.is_empty() {
            if idle_step(&rx, &seed, &mut heap, &mut seq, &mut open, &mut idle_polls) {
                continue;
            }
            return; // queue closed and drained: clean exit
        }
        // One dispatch round: everything queued right now, in EDF order.
        let window_len = heap.len();
        let mut window = Vec::with_capacity(window_len);
        while let Some(queued) = heap.pop() {
            window.push(queued.session);
        }
        let mut batches = form_batches(window);
        maybe_offer_gang(&gang, &mut batches, window_len);
        for (key, batch) in batches {
            gang.run_batch(key, batch);
        }
        gang.publish();
    }
}

/// The victim side of the gang steal protocol: a saturated round (window
/// over the threshold, more than one batch pending) gives away its
/// *coldest* batch — the last-formed batch whose kernel is resident on
/// no member (a batch this gang would pay a configuration load for
/// anyway), falling back to the last batch. The most urgent batch
/// (index 0) always stays home, so EDF inversion from stealing is
/// bounded the same way it is for batching.
fn maybe_offer_gang(
    gang: &Gang<'_>,
    batches: &mut Vec<(Option<KernelSpec>, Vec<Session>)>,
    window_len: usize,
) {
    let Some(steal) = gang.seed.steal.as_deref() else {
        return;
    };
    if window_len <= gang.seed.steal_threshold
        || batches.len() < 2
        || steal.has_offer_from(gang.seed.shard)
    {
        return;
    }
    let idx = (1..batches.len())
        .rev()
        .find(|&i| match &batches[i].0 {
            Some(k) => !gang.any_resident(&k.config_name()),
            None => false,
        })
        .unwrap_or(batches.len() - 1);
    let (kernel, sessions) = batches.remove(idx);
    // Duplicate ids the registry's idempotence guard rejected run at home
    // this round as their own batch (`KernelSpec` is `Copy`).
    let rejected = steal.offer(StealOffer {
        victim: gang.seed.shard,
        kernel,
        sessions,
    });
    if !rejected.is_empty() {
        batches.push((kernel, rejected));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionState;
    use sdr_ofdm::xpp_map::OfdmKernel;
    use sdr_wcdma::xpp_map::WcdmaKernel;

    #[test]
    fn activation_tiers_resident_then_stored() {
        let metrics = Arc::new(Metrics::new());
        let mut w = WorkerArray::new(4, Arc::clone(&metrics));
        let a = w.activate(WcdmaKernel::Descrambler).unwrap();
        let b = w.activate(WcdmaKernel::Descrambler).unwrap();
        assert_eq!(a, b, "resident activation returns the same handle");
        assert_eq!(w.store().misses(), 1, "one build + compile");
        let snap = metrics.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));
        assert!(snap.config_bus_cycles > 0, "the load paid bus cycles");
    }

    #[test]
    fn swap_counts_a_reconfiguration_and_reuses_stored_configs() {
        let metrics = Arc::new(Metrics::new());
        let mut w = WorkerArray::new(4, Arc::clone(&metrics));
        w.activate(OfdmKernel::PreambleDetector).unwrap();
        w.swap(OfdmKernel::PreambleDetector, OfdmKernel::Demodulator)
            .unwrap();
        assert!(!w.is_resident("fig10-config2a-detector"));
        assert!(w.is_resident("fig10-config2b-demodulator"));
        // Swapping back: the detector config comes from the store.
        w.swap(OfdmKernel::Demodulator, OfdmKernel::PreambleDetector)
            .unwrap();
        assert_eq!(metrics.snapshot().reconfigurations, 2);
        assert_eq!(w.store().misses(), 2, "each kernel compiled exactly once");
        assert_eq!(w.store().hits(), 1, "re-activation served from the store");
    }

    #[test]
    fn retained_swap_keeps_both_kernels_resident() {
        let metrics = Arc::new(Metrics::new());
        let mut w = WorkerArray::new(4, Arc::clone(&metrics));
        w.set_retain_swap_source(true);
        w.activate(OfdmKernel::PreambleDetector).unwrap();
        w.swap(OfdmKernel::PreambleDetector, OfdmKernel::Demodulator)
            .unwrap();
        assert!(w.is_resident("fig10-config2a-detector"));
        assert!(w.is_resident("fig10-config2b-demodulator"));
        assert_eq!(
            metrics.snapshot().reconfigurations,
            0,
            "retained swap unloads nothing"
        );
        // The second OFDM session on this member activates both kernels
        // for free — no further bus words.
        let words = metrics.snapshot().config_bus_cycles;
        w.activate(OfdmKernel::PreambleDetector).unwrap();
        w.swap(OfdmKernel::PreambleDetector, OfdmKernel::Demodulator)
            .unwrap();
        assert_eq!(metrics.snapshot().config_bus_cycles, words);
    }

    #[test]
    fn swap_without_resident_source_still_activates() {
        let metrics = Arc::new(Metrics::new());
        let mut w = WorkerArray::new(4, Arc::clone(&metrics));
        w.swap(OfdmKernel::Demodulator, WcdmaKernel::Descrambler)
            .unwrap();
        assert!(w.is_resident("fig5-descrambler"));
        assert_eq!(
            metrics.snapshot().reconfigurations,
            0,
            "nothing was unloaded"
        );
    }

    #[test]
    fn prefetched_swap_pays_no_array_cycles() {
        let metrics = Arc::new(Metrics::new());
        let mut w = WorkerArray::new(4, Arc::clone(&metrics));
        w.activate(OfdmKernel::PreambleDetector).unwrap();
        assert!(w.prefetch(OfdmKernel::Demodulator).unwrap());
        // Run the detector long enough for the demodulator's bus load to
        // stream in the background.
        for _ in 0..1_000 {
            w.array_mut().step();
        }
        w.swap(OfdmKernel::PreambleDetector, OfdmKernel::Demodulator)
            .unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.prefetch_hits, 1, "swap served from the prefetch");
        assert_eq!(
            snap.reconfig_cycles, 0,
            "a fully overlapped swap waits zero array cycles"
        );
    }

    #[test]
    fn workers_share_one_store_across_shards() {
        let metrics = Arc::new(Metrics::new());
        let store = Arc::new(ConfigStore::new(4));
        let mut w1 = WorkerArray::with_store(Arc::clone(&store), Arc::clone(&metrics));
        let mut w2 = WorkerArray::with_store(Arc::clone(&store), Arc::clone(&metrics));
        w1.activate(WcdmaKernel::Descrambler).unwrap();
        w2.activate(WcdmaKernel::Descrambler).unwrap();
        assert_eq!(store.misses(), 1, "second worker reused the compile");
        assert_eq!(store.hits(), 1);
    }

    /// An EDF-ordered window of mixed sessions: OFDM sessions stepped to
    /// `PreambleDetect` (earlier deadlines) interleaved with W-CDMA
    /// sessions stepped to `Tracking`.
    fn mixed_window(worker: &mut WorkerArray) -> Vec<Session> {
        let mut window: Vec<Session> = Vec::new();
        for id in 0..4 {
            let mut s = Session::ofdm(id, 7 + id);
            s.step(worker); // Idle → PreambleDetect
            window.push(s);
        }
        for id in 4..6 {
            let mut s = Session::wcdma(id, 42 + id);
            s.step(worker); // Idle → Searching
            s.step(worker); // Searching → Tracking
            window.push(s);
        }
        window.sort_by_key(|s| s.deadline());
        window
    }

    #[test]
    fn form_batches_groups_by_kernel_and_preserves_edf_order() {
        let metrics = Arc::new(Metrics::new());
        let mut worker = WorkerArray::new(8, metrics);
        let window = mixed_window(&mut worker);
        let window_order: Vec<u64> = window.iter().map(Session::id).collect();

        let batches = form_batches(window);
        assert_eq!(batches.len(), 2, "one batch per distinct kernel");
        // Batches are ordered by their most urgent member: the OFDM
        // detector sessions have much earlier deadlines than the W-CDMA
        // trackers.
        assert_eq!(
            batches[0].0,
            Some(KernelSpec::Ofdm(OfdmKernel::PreambleDetector))
        );
        assert_eq!(
            batches[1].0,
            Some(KernelSpec::Wcdma(WcdmaKernel::Descrambler))
        );
        assert_eq!(batches[0].1.len(), 4);
        assert_eq!(batches[1].1.len(), 2);
        // EDF within each batch: deadlines are non-decreasing.
        for (_, batch) in &batches {
            let deadlines: Vec<u64> = batch.iter().map(Session::deadline).collect();
            assert!(deadlines.windows(2).all(|w| w[0] <= w[1]), "EDF violated");
        }
        // Bounded inversion: the concatenated batches are a permutation of
        // the window in which each batch is a *subsequence* of the EDF
        // order — no session ever runs after a later arrival.
        let flat: Vec<u64> = batches
            .iter()
            .flat_map(|(_, b)| b.iter().map(Session::id))
            .collect();
        let mut sorted_flat = flat.clone();
        sorted_flat.sort_unstable();
        let mut sorted_window = window_order.clone();
        sorted_window.sort_unstable();
        assert_eq!(sorted_flat, sorted_window, "no session lost or invented");
        for (_, batch) in &batches {
            let positions: Vec<usize> = batch
                .iter()
                .map(|s| window_order.iter().position(|&id| id == s.id()).unwrap())
                .collect();
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "batch must be a subsequence of the EDF window"
            );
        }
    }

    /// A seed for a gang built directly in a test (no shard thread).
    fn gang_seed(gang: usize) -> WorkerSeed {
        let depth = Arc::new(AtomicU64::new(0));
        WorkerSeed {
            shard: 0,
            results: mpsc::channel().0,
            depth: Arc::clone(&depth),
            pause: Arc::new(PauseGate::default()),
            metrics: Arc::new(Metrics::new()),
            store: Arc::new(ConfigStore::new(STORE_CAPACITY)),
            policy: RecoveryPolicy::default(),
            gang,
            status: Arc::new(ShardStatus::new(depth)),
            steal: None,
            steal_threshold: 8,
            #[cfg(feature = "faults")]
            injector: None,
        }
    }

    /// A warm kernel whose home has run `REPLICATE_AFTER_CYCLES` ahead of
    /// the idlest member is split across members: onto both members of a
    /// pair, onto all but one of a larger gang.
    #[test]
    fn saturated_warm_kernel_uses_both_members_of_a_pair() {
        for gang in [2, 3] {
            let seed = gang_seed(gang);
            let mut g = Gang::new(&seed);
            g.members[0].activate(WcdmaKernel::Descrambler).unwrap();
            g.busy[0] = REPLICATE_AFTER_CYCLES + 1;
            let homes = g.route(Some(&WcdmaKernel::Descrambler.into()), &seed.metrics);
            assert_eq!(homes, [1, 0], "gang of {gang}, most idle member first");
            assert_eq!(seed.metrics.snapshot().batch_replications, 1);
        }
    }

    /// End-to-end gang dispatch: a paused shard accumulates a full wave,
    /// the resumed dispatcher batches it, and a kernel batch that repeats
    /// in a later wave (a second staggered cohort reaching the same
    /// pipeline stage) hits the member where the kernel stayed resident.
    #[test]
    fn gang_batches_waves_and_hits_warm_arrays() {
        let metrics = Arc::new(Metrics::new());
        let pool = ShardPool::new(
            EngineConfig {
                shards: 1,
                arrays_per_shard: 4,
                queue_depth: 32,
                start_paused: true,
                ..EngineConfig::default()
            },
            Arc::clone(&metrics),
        );
        let n = 12u64;
        // Cohort A (8 sessions) arrives a wave ahead of cohort B (4), so
        // wave 3 runs A's demodulation alongside B's preamble detection —
        // the detector loaded for A in wave 2 serves B warm.
        let mut arrivals: Vec<Vec<Session>> = vec![
            (8..n).map(|id| Session::ofdm(id, 0x0FD + id)).collect(),
            (0..8).map(|id| Session::ofdm(id, 0x0FD + id)).collect(),
        ];
        let mut pending: Vec<Session> = Vec::new();
        let mut done = 0u64;
        while done < n {
            pending.extend(arrivals.pop().unwrap_or_default());
            // Submit the whole wave while paused so one dispatch round
            // sees it all, then run it.
            let in_flight = pending.len();
            for s in pending.drain(..) {
                pool.submit(s).expect("queue has room");
            }
            pool.resume(0);
            for _ in 0..in_flight {
                let s = pool.recv().expect("worker alive");
                assert!(
                    !matches!(s.state(), SessionState::Failed(_)),
                    "session {} failed: {:?}",
                    s.id(),
                    s.state()
                );
                if s.is_terminal() {
                    done += 1;
                } else {
                    pending.push(s);
                }
            }
            pool.pause(0);
        }

        let snap = metrics.snapshot();
        assert_eq!(snap.jobs_run, 3 * n, "3 steps finish an OFDM session");
        assert_eq!(snap.batch_sessions, 3 * n, "every job went through a batch");
        assert!(
            snap.avg_batch_size() > 4.0,
            "waves must batch: {} batches for {} jobs",
            snap.batches_dispatched,
            snap.batch_sessions
        );
        assert!(snap.batch_warm_hits >= 1, "no batch hit a warm array");
        assert!(snap.array_cycles_run > 0);
        assert!(
            snap.array_makespan_cycles <= snap.array_cycles_run,
            "makespan is one member's share of the total"
        );
        assert!(
            snap.config_words_streamed > 0,
            "per-array bus word counters must flow into metrics"
        );
        drop(pool);
    }

    /// `arrays_per_shard: 1` must keep the seed dispatch path: no batch
    /// counters move.
    #[test]
    fn single_array_shard_never_batches() {
        let metrics = Arc::new(Metrics::new());
        let pool = ShardPool::new(
            EngineConfig {
                shards: 1,
                ..EngineConfig::default()
            },
            Arc::clone(&metrics),
        );
        let mut s = Session::wcdma(0, 1);
        for _ in 0..3 {
            pool.submit(s).expect("queue has room");
            s = pool.recv().expect("worker alive");
        }
        assert!(s.is_terminal());
        let snap = metrics.snapshot();
        assert_eq!(snap.batches_dispatched, 0);
        assert_eq!(snap.batch_sessions, 0);
        drop(pool);
    }
}
