//! Sharded worker pool: each shard owns one simulated XPP array, or a
//! *gang* of them.
//!
//! Terminal sessions are submitted to the shard the [`AffinityRouter`]
//! picks: a shard with room that already holds the session's next kernel
//! and owns at most `MAX_HOLDER_LEAD` more sessions than the least-loaded
//! shard, else the least-loaded shard. A shard *owns* a session from
//! [`ShardPool::submit`] until it hands the session back, and owns at
//! most `queue_depth` of them: a full shard rejects the submission with
//! [`SubmitError::WouldBlock`] instead of buffering unboundedly. The
//! front-end never sees that refusal: its credit window keeps fewer
//! sessions in flight than the shards may own, so the router always finds
//! a shard with room ([`frontend`](crate::frontend)).
//! Shards drain their queue into a deadline-ordered heap and always run
//! the most urgent session next (EDF dispatch, the runtime counterpart of
//! `sdr_core::scheduler::schedule_edf`).
//!
//! # One shard, two drivers
//!
//! A shard is a state machine, `Shard`: its arrays, its EDF heap, its
//! inbox, and one function — `Shard::step` — that runs one *dispatch
//! round* (drain the inbox; run, publish and hand back the most urgent
//! session) and never blocks. Every shard runs the one policy below,
//! whether it owns one array or a gang; who calls `step` is the driver's
//! business, and no setting selects it:
//!
//! 1. **Threads** — what [`ShardPool::new`] builds and what ships. One OS
//!    thread per shard loops `step`, and on an idle round makes the one
//!    blocking call in the shard code, `Shard::wait`: the next submission.
//!    Which shard runs when is the OS scheduler's choice, so counters that
//!    follow placement (loads, affinity hits) vary run to run; session
//!    outcomes do not.
//! 2. **Lockstep** — [`ShardPool::lockstep`], a constructor for tests and
//!    benches. The pool keeps the shards; [`ShardPool::recv`] on an empty
//!    result queue runs one round on the shard with the smallest *virtual
//!    clock* (array cycles its members have stepped; lowest index on a
//!    tie) that makes progress, and returns `None` at once when none can.
//!    [`ShardPool::try_recv`] never advances, so the front-end folds
//!    hand-backs and materialises *between* rounds — the fixed
//!    interleaving points of a discrete-event run. Same rounds, same
//!    policy, no threads: two runs give identical
//!    [`Snapshot`](crate::Snapshot)s and completion orders.
//!
//! # One dispatch policy
//!
//! A round with work to do:
//!
//! 1. pops the most urgent session;
//! 2. steps it on the member `route` picks: a member where the session's
//!    next [`KernelSpec`] ([`Session::next_kernel`]) is already resident,
//!    else the least-busy member — and a warm kernel whose least-busy
//!    home has pulled more than `REPLICATE_AFTER_CYCLES` ahead of the
//!    idlest member is *replicated* there instead, up to `gang − 1`
//!    homes so one array stays clear for whatever arrives next (a gang of
//!    two may use both);
//! 3. publishes the shard's residency, so the router places the
//!    session's next step on the residency this one produced;
//! 4. hands the session back, which ends the shard's ownership of it.
//!
//! A session never moves between shards once placed: the router balances
//! the shards when it places a step, on what each one owns.
//!
//! Residency is the other half: a configuration stays on its array until
//! placement pressure evicts it — the [`ConfigManager`]'s least recently
//! used eviction is the paper's Fig. 10 resource recycling. Nothing
//! unloads a configuration that still fits, and nothing prefetches, so a
//! configuration loads once and then streams data while the bus idles,
//! the paper's steady-state premise. The residency map `route` reads is
//! the managers' own introspection, so it heals across worker rebuilds.

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

#[cfg(feature = "faults")]
use xpp_array::fault::FaultInjector;
use xpp_array::{Array, ConfigId, Error as XppError, Result as XppResult};

use crate::config::{EngineConfig, RecoveryPolicy};
use crate::config_manager::{ConfigManager, ConfigStore, KernelSpec};
use crate::metrics::{KernelKind, Metrics};
use crate::router::{AffinityRouter, Placement, ResidencyView, ShardStatus};
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
        }
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
    /// quiescent and spillable by a [`prefetch`](WorkerArray::prefetch).
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
    /// configuration, lets `drive` — the kernel's `xpp_map::drive_*`
    /// function — run on the array, and books the job's cycles and object
    /// fires under `kind`. If `drive` times out without the configuration
    /// having fired a single object, it gets one extra `WATCHDOG_BUDGET` of
    /// cycles — still silent means the load is wedged (e.g. an injected
    /// stall), so the configuration is forcibly unloaded and the whole
    /// attempt retried from the store. The replay is safe: `drive` re-reads
    /// the caller's slices and the reload starts from clean token state.
    ///
    /// # Errors
    ///
    /// Propagates `drive`'s error, or [`XppError::ConfigWedged`] once a
    /// wedged configuration has exhausted the kernel retry budget.
    pub fn run_kernel<T>(
        &mut self,
        kind: KernelKind,
        spec: impl Into<KernelSpec>,
        mut drive: impl FnMut(&mut Array, ConfigId) -> XppResult<T>,
    ) -> XppResult<T> {
        let spec = spec.into();
        let attempts = self.policy.max_kernel_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            let cfg = self.activate(spec)?;
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
    /// resident, or when the array is too full even after spilling
    /// quiescent residents — a prefetch may evict residents that have fired
    /// nothing since the last [`refresh_activity`](WorkerArray::refresh_activity),
    /// never the active one). The engine's sessions do not prefetch; this
    /// is API for drivers of a bare worker.
    ///
    /// # Errors
    ///
    /// Propagates array errors other than placement failure.
    pub fn prefetch(&mut self, spec: impl Into<KernelSpec>) -> XppResult<bool> {
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

    /// The explicit Fig. 10 swap: unloads `from` (if resident) and
    /// activates `to` in the freed resources. Counted as a runtime
    /// reconfiguration when an unload actually happened; the array cycles
    /// the caller waited on the swap are recorded in `reconfig_cycles` (~0
    /// when `to` was prefetched). The engine's sessions do not call it:
    /// there a configuration stays resident until placement pressure
    /// evicts it.
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
        if self.deactivate(from)? {
            Metrics::incr(&self.metrics.reconfigurations);
        }
        let id = self.activate(to)?;
        Metrics::add(
            &self.metrics.reconfig_cycles,
            self.array.stats().cycles - cycles_before,
        );
        Ok(id)
    }
}

/// Compiled configurations the pool-wide [`ConfigStore`] preallocates room
/// for: every kernel the two standards register, with slack.
const STORE_CAPACITY: usize = 8;

/// The pool reads its settings from the engine-wide [`EngineConfig`]. The
/// alias stays because the frozen benchmark package spells
/// `PoolConfig { .., ..PoolConfig::default() }`.
pub type PoolConfig = EngineConfig;

/// Why a submission was not accepted. The session is handed back so the
/// caller can retry or reroute it.
#[derive(Debug)]
pub enum SubmitError {
    /// The queue of the shard the router picked (the `usize`) is full.
    WouldBlock(Session, usize),
    /// The pool has been shut down.
    Shutdown(Session),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::WouldBlock(s, shard) => {
                write!(f, "shard {shard}'s queue full for session {}", s.id())
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

struct ShardHandle {
    queue: Option<SyncSender<Session>>,
    depth: Arc<AtomicU64>,
}

/// Who calls [`Shard::step`] (module docs, "One shard, two drivers").
enum Driver {
    /// One OS thread per shard running [`Shard::run`], joined at shutdown.
    Threads(Vec<JoinHandle<()>>),
    /// The pool keeps the shards and the thread that calls
    /// [`ShardPool::recv`] steps them, one round at a time.
    Lockstep(RefCell<Vec<Shard>>),
}

/// The sharded worker pool.
pub struct ShardPool {
    shards: Vec<ShardHandle>,
    driver: Driver,
    results: Receiver<Session>,
    metrics: Arc<Metrics>,
    queue_depth_limit: usize,
    view: Arc<ResidencyView>,
    router: AffinityRouter,
}

impl ShardPool {
    /// Spawns `config.shards` workers, each owning a gang of
    /// `config.arrays_per_shard` arrays over one shared compiled-config
    /// store.
    ///
    /// With a fault plan, every shard folds the pool-wide injector's total
    /// into `faults_injected` after each step, before handing the session
    /// back: loads happen only inside a step, so any snapshot taken after
    /// a hand-back counts every fault injected before it.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `arrays_per_shard` or `queue_depth` is zero.
    pub fn new(config: EngineConfig, metrics: Arc<Metrics>) -> Self {
        Self::build(config, metrics, Driver::Threads(Vec::new()))
    }

    /// The same pool with no worker threads: the shards stay inside the
    /// pool and [`recv`](ShardPool::recv) /
    /// [`recv_timeout`](ShardPool::recv_timeout) step them on the calling
    /// thread, so every counter of a run repeats exactly. A constructor for
    /// tests and benches; see the module docs for the stepping order.
    ///
    /// # Panics
    ///
    /// As [`ShardPool::new`].
    pub fn lockstep(config: EngineConfig, metrics: Arc<Metrics>) -> Self {
        Self::build(config, metrics, Driver::Lockstep(RefCell::default()))
    }

    fn build(config: EngineConfig, metrics: Arc<Metrics>, mut driver: Driver) -> Self {
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
        // Status cells come first: the residency view spans every shard,
        // so shards need it before any of them runs.
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
        let mut shards = Vec::with_capacity(config.shards);
        for (shard, depth) in depths.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Session>(config.queue_depth);
            let seed = WorkerSeed {
                results: results_tx.clone(),
                depth: Arc::clone(&depth),
                metrics: Arc::clone(&metrics),
                store: Arc::clone(&store),
                policy: config.recovery,
                gang: config.arrays_per_shard,
                status: Arc::clone(&statuses[shard]),
                #[cfg(feature = "faults")]
                injector: injector.clone(),
            };
            match &mut driver {
                Driver::Lockstep(stepped) => stepped.get_mut().push(Shard::new(rx, seed)),
                // The shard is built on its own thread, where its arrays
                // latch that thread's stepper defaults.
                Driver::Threads(threads) => {
                    threads.push(std::thread::spawn(move || Shard::new(rx, seed).run()));
                }
            }
            shards.push(ShardHandle {
                queue: Some(tx),
                depth,
            });
        }
        ShardPool {
            shards,
            driver,
            results,
            router: AffinityRouter::new(Arc::clone(&view), Arc::clone(&metrics)),
            metrics,
            queue_depth_limit: config.queue_depth,
            view,
        }
    }

    /// The global residency view the router reads (and shards publish
    /// into).
    pub fn residency_view(&self) -> &Arc<ResidencyView> {
        &self.view
    }

    /// Submits a session to the shard the [`AffinityRouter`] picks,
    /// without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::WouldBlock`] hands the session back when every shard
    /// queue is full; [`SubmitError::Shutdown`] when the pool is closed.
    // The error variants carry the rejected `Session` back to the caller by
    // design, so the Err side is as large as a session.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, session: Session) -> Result<usize, SubmitError> {
        let shard = self
            .router
            .place(session.next_kernel().as_ref(), session.id());
        let handle = &self.shards[shard];
        let Some(queue) = handle.queue.as_ref() else {
            return Err(SubmitError::Shutdown(session));
        };
        // Count before sending: the shard decrements when it hands the
        // session back, which may land before a post-send increment would.
        // The counter, not the channel, is the bound: it is what the router
        // reads as "room", so a shard is full exactly when the router says
        // so. The channel is just as deep and holds only part of what the
        // counter counts, so `try_send` itself does not report `Full`.
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
                Err(SubmitError::WouldBlock(s, shard))
            }
            Err(TrySendError::Disconnected(s)) => {
                handle.depth.fetch_sub(1, Ordering::Relaxed);
                Err(SubmitError::Shutdown(s))
            }
        }
    }

    /// Blocks for the next session a worker finished stepping. Returns
    /// `None` only after shutdown, once every worker has exited.
    ///
    /// On a [`lockstep`](ShardPool::lockstep) pool nothing blocks: an empty
    /// result queue runs dispatch rounds until one hands a session back,
    /// and `None` means no shard has anything left to do.
    pub fn recv(&self) -> Option<Session> {
        match &self.driver {
            Driver::Threads(_) => self.results.recv().ok(),
            Driver::Lockstep(shards) => self.recv_lockstep(&mut shards.borrow_mut()),
        }
    }

    /// Non-blocking receive: the next finished session if one is already
    /// waiting, `None` otherwise. The front-end folds hand-backs with this
    /// so the driving thread never blocks while it still has work to do —
    /// and a lockstep pool never advances here, so the driver folds and
    /// materialises *between* dispatch rounds.
    pub fn try_recv(&self) -> Option<Session> {
        self.results.try_recv().ok()
    }

    /// Blocks up to `timeout` for a finished session. `None` on timeout
    /// or after shutdown. A lockstep pool ignores the timeout and behaves
    /// as in [`recv`](ShardPool::recv).
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Session> {
        match &self.driver {
            Driver::Threads(_) => self.results.recv_timeout(timeout).ok(),
            Driver::Lockstep(shards) => self.recv_lockstep(&mut shards.borrow_mut()),
        }
    }

    /// Whether this pool was built by [`ShardPool::lockstep`], where a
    /// `None` from [`recv`](ShardPool::recv) is final rather than a timeout.
    pub fn is_lockstep(&self) -> bool {
        matches!(self.driver, Driver::Lockstep(_))
    }

    /// The lockstep driver: while the result queue is empty, one dispatch
    /// round on the shard with the smallest virtual clock (cumulative busy
    /// array cycles, lowest index on a tie) that makes progress. A sweep
    /// in which no shard does means none can.
    fn recv_lockstep(&self, shards: &mut [Shard]) -> Option<Session> {
        loop {
            if let Ok(session) = self.results.try_recv() {
                return Some(session);
            }
            let mut order: Vec<usize> = (0..shards.len()).collect();
            order.sort_by_key(|&i| (shards[i].clock(), i));
            if !order
                .iter()
                .any(|&i| matches!(shards[i].step(), Round::Progress))
            {
                return None;
            }
        }
    }

    /// Total submission capacity across every shard queue — what the
    /// front-end clamps its materialisation window to.
    pub fn queue_capacity(&self) -> usize {
        self.shards.len() * self.queue_depth_limit
    }

    /// Sessions a shard owns right now: submitted to it and not yet handed
    /// back (approximate under concurrency).
    pub fn queue_depth(&self, shard: usize) -> u64 {
        self.shards[shard].depth.load(Ordering::Relaxed)
    }

    /// Closes the pool: stops accepting work, lets every worker drain its
    /// queue (each in-flight session is stepped once more), joins the
    /// workers, and returns the sessions that were still in flight.
    pub fn shutdown(mut self) -> Vec<Session> {
        self.close_and_join();
        self.results.try_iter().collect()
    }

    fn close_and_join(&mut self) {
        for shard in &mut self.shards {
            shard.queue = None; // disconnects the shard's inbox
        }
        match &mut self.driver {
            Driver::Threads(workers) => {
                for worker in workers.drain(..) {
                    // Supervised join: session panics are caught inside
                    // the round, so an Err here is a defect in the shard
                    // itself — shutdown must still proceed shard by shard
                    // rather than cascade the panic out of drop.
                    let _ = worker.join();
                }
            }
            // Lockstep shards drain on the calling thread; a drained shard
            // reports `Closed` again at once when `Drop` comes back here.
            Driver::Lockstep(shards) => {
                for shard in shards.get_mut() {
                    while !matches!(shard.step(), Round::Closed) {}
                }
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
/// shard itself so it can replace a crashed [`WorkerArray`] without
/// round-tripping through the pool.
struct WorkerSeed {
    results: mpsc::Sender<Session>,
    depth: Arc<AtomicU64>,
    metrics: Arc<Metrics>,
    store: Arc<ConfigStore>,
    policy: RecoveryPolicy,
    gang: usize,
    /// This shard's cell in the global residency view (publish side).
    status: Arc<ShardStatus>,
    #[cfg(feature = "faults")]
    injector: Option<Arc<FaultInjector>>,
}

impl WorkerSeed {
    fn fresh_worker(&self) -> WorkerArray {
        #[cfg_attr(not(feature = "faults"), allow(unused_mut))]
        let mut worker = WorkerArray::with_policy(
            Arc::clone(&self.store),
            Arc::clone(&self.metrics),
            self.policy,
        );
        #[cfg(feature = "faults")]
        if let Some(inj) = &self.injector {
            worker.attach_fault_injector(Arc::clone(inj));
        }
        worker
    }
}

/// Gang-routing saturation threshold, in array cycles: a hot kernel is
/// replicated onto an additional member once the least busy of its warm
/// members is this many cycles ahead of the idlest member.
const REPLICATE_AFTER_CYCLES: u64 = 2_000;

/// What one [`Shard::step`] did.
enum Round {
    /// A session ran and was handed back.
    Progress,
    /// Nothing to run and the inbox is still open: the driver may wait.
    Idle,
    /// The inbox is closed and everything the shard held has run.
    Closed,
}

/// One shard of the pool as a state machine: its arrays, its EDF heap and
/// its inbox. [`step`](Shard::step) runs one dispatch round and never
/// blocks; who calls it, and what happens between calls, is the driver's
/// business (module docs).
struct Shard {
    seed: WorkerSeed,
    inbox: Receiver<Session>,
    /// One array, or the gang (`arrays_per_shard` > 1).
    members: Vec<WorkerArray>,
    /// Cumulative busy cycles per member — the activity counters routing
    /// decisions use; they survive worker rebuilds.
    busy: Vec<u64>,
    heap: BinaryHeap<QueuedSession>,
    seq: u64,
    /// Cleared when the inbox disconnects (pool shutdown).
    open: bool,
    /// Scratch buffer for the residency publish.
    names: Vec<String>,
}

impl Shard {
    fn new(inbox: Receiver<Session>, seed: WorkerSeed) -> Self {
        Shard {
            members: (0..seed.gang).map(|_| seed.fresh_worker()).collect(),
            busy: vec![0; seed.gang],
            seed,
            inbox,
            heap: BinaryHeap::new(),
            seq: 0,
            open: true,
            names: Vec::new(),
        }
    }

    /// The thread driver: this shard's OS thread until the pool closes.
    fn run(mut self) {
        loop {
            match self.step() {
                Round::Progress => {}
                Round::Idle => self.wait(),
                Round::Closed => return,
            }
        }
    }

    /// The thread driver's one blocking call, made when a round found
    /// nothing to do: the next submission, or the pool's close.
    fn wait(&mut self) {
        match self.inbox.recv() {
            Ok(session) => self.enqueue(session),
            Err(_) => self.open = false,
        }
    }

    /// The shard's virtual clock: array cycles its members have stepped.
    fn clock(&self) -> u64 {
        self.busy.iter().sum()
    }

    /// One dispatch round: drain the inbox into the EDF heap; with nothing
    /// to run, report `Idle` while the inbox is open and
    /// [`close`](Shard::close) once it is not; otherwise step the most
    /// urgent session on the member [`route`](Shard::route) picks, and
    /// publish *before* handing it back — the driver routes the session's
    /// next step on the residency this one produced.
    fn step(&mut self) -> Round {
        loop {
            match self.inbox.try_recv() {
                Ok(session) => self.enqueue(session),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.open = false;
                    break;
                }
            }
        }
        let Some(queued) = self.heap.pop() else {
            return if self.open { Round::Idle } else { self.close() };
        };
        let member = self.route(queued.session.next_kernel().as_ref());
        let session = self.supervised_step(member, queued.session);
        self.publish();
        // The hand-back ends the shard's ownership: release its count
        // first, so the driver never sees a session it holds still counted
        // here.
        self.seed.depth.fetch_sub(1, Ordering::Relaxed);
        // The driver may already be gone (pool dropped mid-run); the
        // session's work is still done, only the hand-back is lost.
        let _ = self.seed.results.send(session);
        Round::Progress
    }

    /// Pushes a submission into the EDF heap. It stays counted in the
    /// shard's depth until [`step`](Shard::step) hands it back.
    fn enqueue(&mut self, session: Session) {
        self.seq += 1;
        self.heap.push(QueuedSession {
            deadline: session.deadline(),
            seq: self.seq,
            session,
        });
    }

    /// The round that finds the shard closed and drained. Fault records
    /// still pending on its arrays — a faulted load that nothing used or
    /// disposed of again — would vanish with them, so they are swept here
    /// and booked as `supervised_step` books those of a crashed array:
    /// detected, and recovered by the disposal. A drained shard may be
    /// stepped again (`Drop` closes a pool that `shutdown` already
    /// closed); the sweep then finds nothing.
    fn close(&mut self) -> Round {
        let metrics = &self.seed.metrics;
        for member in &mut self.members {
            let swept = member.array_mut().take_injected_faults();
            Metrics::add(&metrics.faults_detected, swept);
            Metrics::add(&metrics.recoveries, swept);
        }
        Round::Closed
    }

    /// One supervised session step on one member; hands the stepped
    /// session back for the caller to return to the driver. A panic
    /// (injected or genuine) is contained to this one dispatch.
    /// `AssertUnwindSafe` is sound because both the session and the worker
    /// are discarded-or-replaced on the panic path rather than reused in
    /// their torn state: the session is handed back marked crashed (the
    /// driver re-dispatches or dead-letters it, it never resumes mid-kernel
    /// state), and the worker — whose array may be mid-mutation — is
    /// dropped wholesale and rebuilt from the seed. Only that one array is
    /// rebuilt: the rest of a gang keeps its residency.
    fn supervised_step(&mut self, member: usize, mut session: Session) -> Session {
        let (metrics, worker) = (&self.seed.metrics, &mut self.members[member]);
        let (stats, sched) = (worker.array().stats(), worker.array().schedule_stats());
        let stepped = catch_unwind(AssertUnwindSafe(|| session.step(worker)));
        // Credit the step's array activity — the deltas, and only those — to
        // the pool counters and to the member's cumulative busy count (which
        // survives worker rebuilds, unlike the array's own stats).
        let delta = worker.array().stats().delta_since(&stats);
        self.busy[member] += delta.cycles;
        Metrics::add(&metrics.array_cycles_run, delta.cycles);
        Metrics::add(&metrics.config_words_streamed, delta.config_words);
        Metrics::raise_to(&metrics.array_makespan_cycles, self.busy[member]);
        let sched = worker.array().schedule_stats().delta_since(&sched);
        Metrics::add(&metrics.schedules_captured, sched.captured);
        Metrics::add(&metrics.schedule_replay_cycles, sched.replay_cycles);
        Metrics::add(&metrics.schedule_invalidations, sched.invalidations);
        match stepped {
            Ok(()) => Metrics::incr(&metrics.jobs_run),
            Err(_) => {
                // Pending fault records on the discarded array (e.g. a stall
                // nobody exercised yet) would vanish with it; count their
                // disposal so injected == detected still reconciles.
                let lost = worker.array_mut().take_injected_faults();
                Metrics::add(&metrics.faults_detected, 1 + lost);
                Metrics::add(&metrics.recoveries, lost);
                Metrics::incr(&metrics.worker_restarts);
                *worker = self.seed.fresh_worker();
                session.record_crash();
            }
        }
        #[cfg(feature = "faults")]
        if let Some(injector) = &self.seed.injector {
            Metrics::raise_to(&metrics.faults_injected, injector.injected_total());
        }
        session
    }

    /// Publishes the members' union residency and total busy cycles into
    /// the shard's view cell, so the affinity router sees every shard —
    /// once per round, which is once per session step.
    fn publish(&mut self) {
        self.names.clear();
        for member in &self.members {
            member.config_manager().resident_names_into(&mut self.names);
        }
        self.seed.status.publish(&self.names, self.clock());
        Metrics::incr(&self.seed.metrics.residency_view_refreshes);
    }

    /// Picks the member a session's next step runs on.
    ///
    /// * A host-only step (no kernel) touches no array: least-busy member.
    /// * A warm kernel runs on its least-busy home — a member where it is
    ///   resident, read fresh from [`ConfigManager`] introspection so the
    ///   map heals across worker rebuilds.
    /// * A cold kernel falls to the least-busy member.
    /// * A saturated warm kernel — its least-busy home more than
    ///   `REPLICATE_AFTER_CYCLES` ahead of the idlest member — is
    ///   replicated onto that member, paying one configuration load to
    ///   split the stream, up to `gang − 1` homes so one array always stays
    ///   clear of the hot set for whatever arrives next. A gang of two may
    ///   use both: "one array stays clear" has no meaning with two arrays,
    ///   it only pins a warm kernel to one member while the other idles.
    fn route(&self, key: Option<&KernelSpec>) -> usize {
        let name = key.map(KernelSpec::config_name);
        let warm = |m: &usize| {
            name.as_deref()
                .is_some_and(|n| self.members[*m].is_resident(n))
        };
        let by_busy = |m: &usize| (self.busy[*m], *m);
        let members = 0..self.members.len();
        // The least-busy member without the kernel: every member when it
        // is cold, and the gang is never empty (`ShardPool::new` asserts
        // it).
        let idlest = members.clone().filter(|m| !warm(m)).min_by_key(by_busy);
        let Some(home) = members.clone().filter(warm).min_by_key(by_busy) else {
            return idlest.unwrap_or(0);
        };
        Metrics::incr(&self.seed.metrics.batch_warm_hits);
        // At most `gang − 1` homes, but a pair may use both.
        let max_homes = (self.members.len() - 1).max(2);
        match idlest {
            Some(idlest)
                if members.filter(warm).count() < max_homes
                    && self.busy[home].saturating_sub(self.busy[idlest])
                        > REPLICATE_AFTER_CYCLES =>
            {
                Metrics::incr(&self.seed.metrics.batch_replications);
                idlest
            }
            _ => home,
        }
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

    /// A shard built directly in a test — no pool, no thread — with the
    /// sending end of its inbox and the receiving end of its results.
    fn test_shard(gang: usize) -> (Shard, SyncSender<Session>, Receiver<Session>) {
        let depth = Arc::new(AtomicU64::new(0));
        let (inbox_tx, inbox) = mpsc::sync_channel(32);
        let (results, results_rx) = mpsc::channel();
        let seed = WorkerSeed {
            results,
            depth: Arc::clone(&depth),
            metrics: Arc::new(Metrics::new()),
            store: Arc::new(ConfigStore::new(STORE_CAPACITY)),
            policy: RecoveryPolicy::default(),
            gang,
            status: Arc::new(ShardStatus::new(depth)),
            #[cfg(feature = "faults")]
            injector: None,
        };
        (Shard::new(inbox, seed), inbox_tx, results_rx)
    }

    /// A warm kernel runs on its home until that home has run
    /// `REPLICATE_AFTER_CYCLES` ahead of the idlest member; then it is
    /// replicated there: onto both members of a pair, onto all but one of a
    /// larger gang, never beside a lone array.
    #[test]
    fn saturated_warm_kernel_uses_both_members_of_a_pair() {
        let descrambler = Some(KernelSpec::from(WcdmaKernel::Descrambler));
        for gang in [1, 2, 3] {
            let (mut g, _inbox, _results) = test_shard(gang);
            g.members[0].activate(WcdmaKernel::Descrambler).unwrap();
            g.busy[0] = REPLICATE_AFTER_CYCLES;
            assert_eq!(g.route(descrambler.as_ref()), 0, "gang of {gang}: warm");
            g.busy[0] += 1;
            let replica = usize::from(gang > 1);
            assert_eq!(g.route(descrambler.as_ref()), replica, "gang of {gang}");
            let snap = g.seed.metrics.snapshot();
            assert_eq!(
                (snap.batch_warm_hits, snap.batch_replications),
                (2, replica as u64)
            );
        }
        // Two homes of three: the third member stays clear.
        let (mut g, _inbox, _results) = test_shard(3);
        for m in 0..2 {
            g.members[m].activate(WcdmaKernel::Descrambler).unwrap();
        }
        g.busy[..2].fill(REPLICATE_AFTER_CYCLES + 1);
        assert_eq!(g.route(descrambler.as_ref()), 0);
        assert_eq!(g.seed.metrics.snapshot().batch_replications, 0);
    }

    /// Residency by shard shape: a single array and a gang member alike
    /// keep the detector resident beside the demodulator; only placement
    /// pressure would recycle it. The demodulator is resident nowhere, so
    /// the least-busy member — the one holding the detector — runs it.
    #[test]
    fn every_shard_shape_keeps_the_detector_resident() {
        for gang in [1, 2] {
            let (mut shard, inbox, results) = test_shard(gang);
            shard.members[0]
                .activate(OfdmKernel::PreambleDetector)
                .unwrap();
            shard.busy[1..].fill(1);
            let mut session = Session::ofdm(3, 9);
            let mut private = WorkerArray::new(4, Arc::new(Metrics::new()));
            session.step(&mut private); // → PreambleDetect
            session.step(&mut private); // → Demod
            shard.seed.depth.fetch_add(1, Ordering::Relaxed);
            inbox.send(session).unwrap();

            assert!(matches!(shard.step(), Round::Progress));
            assert_eq!(*results.try_recv().unwrap().state(), SessionState::Done);
            let member = &shard.members[0];
            assert!(member.is_resident("fig10-config2b-demodulator"));
            assert!(
                member.is_resident("fig10-config2a-detector"),
                "gang of {gang}"
            );
            let snap = shard.seed.metrics.snapshot();
            assert_eq!((snap.reconfigurations, snap.prefetches), (0, 0));
        }
    }

    /// The state machine alone: a shard whose inbox has closed reports
    /// `Closed` only after it has run everything it held, one session a
    /// round, and each hand-back releases the session's count.
    #[test]
    fn a_closed_shard_runs_what_it_held() {
        let (mut shard, inbox, results) = test_shard(1);
        for id in 0..12 {
            shard.seed.depth.fetch_add(1, Ordering::Relaxed);
            inbox.send(Session::wcdma(id, 40 + id)).unwrap();
        }
        drop(inbox);
        for held in (0..12).rev() {
            assert!(matches!(shard.step(), Round::Progress));
            assert_eq!(shard.seed.depth.load(Ordering::Relaxed), held);
        }
        assert!(matches!(shard.step(), Round::Closed));
        assert_eq!(results.try_iter().count(), 12, "each session stepped once");
        assert_eq!(shard.seed.metrics.snapshot().jobs_run, 12);
        assert!(matches!(shard.step(), Round::Closed), "and stays closed");
    }

    /// A member whose step panics is rebuilt from the seed, the session
    /// comes back marked crashed, and the ledger books exactly what
    /// `supervised_step` always booked: the crash and every fault record
    /// pending on the discarded array as detected, the latter as
    /// recovered, one restart.
    #[cfg(feature = "faults")]
    #[test]
    fn a_panicking_step_rebuilds_the_member_and_books_the_ledger() {
        use xpp_array::fault::{FaultKind, FaultPlan, FaultSpec};
        // The injected panic is expected; every other one still prints.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info.payload().downcast_ref::<String>();
            if !message.is_some_and(|m| m.starts_with("injected fault")) {
                default_hook(info);
            }
        }));
        let spec = |kind, at_load| FaultSpec { kind, at_load };
        let injector = Arc::new(FaultInjector::new(FaultPlan {
            faults: vec![
                spec(FaultKind::StallConfig, 0),
                spec(FaultKind::WorkerPanic, 1),
            ],
        }));
        let (mut shard, inbox, results) = test_shard(2);
        shard.seed.injector = Some(injector);
        shard.members = (0..2).map(|_| shard.seed.fresh_worker()).collect();
        // Load 0 stalls the descrambler on member 0 and nobody runs it, so
        // its fault record is still pending when load 1 — the detector,
        // routed cold to the same member — panics.
        shard.members[0].activate(WcdmaKernel::Descrambler).unwrap();
        shard.busy[1] = 1; // member 0 is the least busy: the step lands there
        let mut session = Session::ofdm(3, 9);
        session.step(&mut WorkerArray::new(4, Arc::new(Metrics::new()))); // → PreambleDetect
        shard.seed.depth.fetch_add(1, Ordering::Relaxed);
        inbox.send(session).unwrap();

        assert!(matches!(shard.step(), Round::Progress));
        let mut back = results.try_recv().unwrap();
        assert!(back.take_crashed(), "handed back marked crashed");
        assert!(
            !shard.members[0].is_resident("fig5-descrambler"),
            "the struck member is a fresh array"
        );
        assert_eq!(
            shard.seed.depth.load(Ordering::Relaxed),
            0,
            "the crashed hand-back releases its count"
        );
        let snap = shard.seed.metrics.snapshot();
        assert_eq!(
            (snap.faults_detected, snap.recoveries, snap.worker_restarts),
            (2, 1, 1)
        );
        assert_eq!(snap.jobs_run, 0, "a crashed step is not a job run");
    }

    /// End-to-end gang dispatch on the lockstep pool, where a round runs
    /// only when `recv` finds the result queue empty: each wave is
    /// submitted whole, a round steps its most urgent session on the member
    /// that holds its kernel, and a kernel that repeats in a later wave (a
    /// second staggered cohort reaching the same pipeline stage) hits the
    /// member where it stayed resident.
    #[test]
    fn gang_steps_waves_on_warm_arrays() {
        let metrics = Arc::new(Metrics::new());
        let pool = ShardPool::lockstep(
            EngineConfig {
                shards: 1,
                arrays_per_shard: 4,
                queue_depth: 32,
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
            let in_flight = pending.len();
            for s in pending.drain(..) {
                pool.submit(s).expect("queue has room");
            }
            for _ in 0..in_flight {
                let s = pool.recv().expect("the round hands the wave back");
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
            assert!(pool.recv().is_none(), "an empty pool has nothing to run");
        }

        let snap = metrics.snapshot();
        assert_eq!(snap.jobs_run, 3 * n, "3 steps finish an OFDM session");
        assert_eq!(
            (snap.batches_dispatched, snap.batch_sessions),
            (0, 0),
            "inert in the engine"
        );
        // 24 array steps, and only the first detection and the first
        // demodulation found their kernel resident nowhere; twice a warm
        // home ran far enough ahead that the stream was replicated.
        assert_eq!((snap.batch_warm_hits, snap.batch_replications), (22, 2));
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
}
