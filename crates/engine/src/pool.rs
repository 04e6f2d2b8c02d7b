//! Sharded worker pool: one shard per simulated XPP array, stepped by
//! `shards` worker threads of `arrays_per_shard` arrays each.
//!
//! The array is the unit of placement. Terminal sessions are submitted to
//! the array the [`AffinityRouter`] picks: an array with room that already
//! holds the session's next kernel and owns at most `MAX_HOLDER_LEAD` more
//! sessions than the least-loaded array, else the least-loaded array. An
//! array *owns* a session from [`ShardPool::submit`] until it hands the
//! session back, and owns at most `queue_depth` of them: a full array
//! rejects the submission with [`SubmitError::WouldBlock`] instead of
//! buffering unboundedly. The front-end never sees that refusal: its
//! credit window keeps fewer sessions in flight than the arrays may own,
//! so the router always finds an array with room
//! ([`frontend`](crate::frontend)). Each array keeps the sessions it owns
//! in its own deadline-ordered heap and always runs the most urgent one
//! next (EDF dispatch, the runtime counterpart of
//! `sdr_core::scheduler::schedule_edf`).
//!
//! # One array, two drivers
//!
//! A shard is one array as a state machine, `Shard`: its worker array, its
//! EDF heap, its residency cell and its *clock*, the array cycles it has
//! stepped. A `Worker` holds a slice of shards and the one inbox that feeds
//! them, and one function — `Worker::step` — runs one *dispatch round*:
//! drain the inbox; on the shard with the smallest clock (lowest index on
//! a tie) that owns a session, run, publish and hand back its most urgent
//! one. It never blocks. Which arrays share a worker, and who calls
//! `step`, is the driver's business, and no setting selects it:
//!
//! 1. **Threads** — what [`ShardPool::new`] builds and what ships. Each of
//!    `shards` OS threads owns a worker of `arrays_per_shard` arrays and
//!    loops `step`; when every heap is empty it makes the one blocking
//!    call in the pool, `Worker::wait`: the next submission. Which thread
//!    runs when is the OS scheduler's choice, so counters that follow
//!    placement (loads, affinity hits) vary run to run; session outcomes
//!    do not.
//! 2. **Lockstep** — [`ShardPool::lockstep`], a constructor for tests and
//!    benches. One worker holds every array, and [`ShardPool::recv`] on an
//!    empty result queue runs its rounds on the calling thread, returning
//!    `None` at once when no array owns a session. So a lockstep pool of
//!    `shards × arrays_per_shard` arrays is the pool of as many single
//!    arrays, counter for counter. `ShardPool::try_recv` never advances,
//!    so the front-end folds hand-backs and materialises *between* rounds
//!    — the fixed interleaving points of a discrete-event run. Same rounds,
//!    same policy, no threads: two runs give identical
//!    [`Snapshot`](crate::Snapshot)s and completion orders.
//!
//! # One dispatch policy
//!
//! A round with work to do:
//!
//! 1. pops the most urgent session of the chosen array;
//! 2. steps it there;
//! 3. publishes the array's residency and clock, so the router places the
//!    session's next step on the residency this one produced;
//! 4. hands the session back, which ends the array's ownership of it.
//!
//! A session never moves between arrays once placed: the router balances
//! the arrays when it places a step, on what each one owns, and that is
//! the only placement decision.
//!
//! Residency is the other half: a configuration stays on its array until
//! placement pressure evicts it (the [`WorkerArray`]'s activation tiers,
//! in [`config_manager`](crate::config_manager)). What an array publishes
//! is its [`WorkerArray::resident_mask`], so it heals across worker
//! rebuilds.

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use xpp_array::fault::FaultInjector;

use crate::config::{EngineConfig, RecoveryPolicy};
use crate::config_manager::{ConfigStore, WorkerArray};
use crate::metrics::Metrics;
use crate::router::{AffinityRouter, Placement, ResidencyView, ShardStatus};
use crate::session::Session;

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
    /// The queue of the array the router picked (the `usize`) is full.
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

/// Who calls [`Worker::step`] (module docs, "One array, two drivers").
enum Driver {
    /// One OS thread per worker running [`Worker::run`], joined at
    /// shutdown.
    Threads(Vec<JoinHandle<()>>),
    /// The pool keeps one worker holding every array, and the thread that
    /// calls [`ShardPool::recv`] steps it, one round at a time.
    Lockstep(RefCell<Option<Worker>>),
}

/// The sharded worker pool.
pub struct ShardPool {
    /// One inbox per worker, carrying `(array within the worker,
    /// session)`; `None` once the pool closes.
    inboxes: Vec<Option<SyncSender<(usize, Session)>>>,
    /// Arrays per worker: `arrays_per_shard` on threads, all on lockstep.
    arrays_per_worker: usize,
    driver: Driver,
    results: Receiver<Session>,
    metrics: Arc<Metrics>,
    queue_depth_limit: usize,
    view: Arc<ResidencyView>,
    router: AffinityRouter,
}

impl ShardPool {
    /// Spawns `config.shards` worker threads, each stepping
    /// `config.arrays_per_shard` arrays, over one shared compiled-config
    /// store.
    ///
    /// With a fault plan, every array folds the pool-wide injector's total
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

    /// The same pool with no worker threads: the arrays stay inside the
    /// pool and [`recv`](ShardPool::recv) /
    /// `recv_timeout` step them on the calling
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
        let arrays = config.shards * config.arrays_per_shard;
        let arrays_per_worker = match driver {
            Driver::Threads(_) => config.arrays_per_shard,
            Driver::Lockstep(_) => arrays,
        };
        let (results_tx, results) = mpsc::channel();
        // One compiled-config store for the whole pool: a kernel is built
        // and placed once per process, whichever array first needs it.
        let store = Arc::new(ConfigStore::new(STORE_CAPACITY));
        let injector = config
            .fault_plan
            .clone()
            .map(|plan| Arc::new(FaultInjector::new(plan)));
        // Status cells come first: the residency view spans every array,
        // so workers need it before any of them runs.
        let statuses: Vec<Arc<ShardStatus>> = (0..arrays).map(|_| Arc::default()).collect();
        let view = Arc::new(ResidencyView::new(
            statuses.clone(),
            config.queue_depth as u64,
            Arc::clone(&store),
        ));
        let mut inboxes = Vec::with_capacity(arrays / arrays_per_worker);
        for first in (0..arrays).step_by(arrays_per_worker) {
            // Every session in an inbox is counted in its array's depth, so
            // the channel never fills before the counts do.
            let (tx, inbox) = mpsc::sync_channel(arrays_per_worker * config.queue_depth);
            let seed = WorkerSeed {
                results: results_tx.clone(),
                metrics: Arc::clone(&metrics),
                store: Arc::clone(&store),
                policy: config.recovery,
                injector: injector.clone(),
            };
            let cells = statuses[first..first + arrays_per_worker].to_vec();
            match &mut driver {
                Driver::Lockstep(worker) => {
                    *worker.get_mut() = Some(Worker::new(inbox, seed, cells));
                }
                // The worker is built on its own thread, where its arrays
                // latch that thread's stepper defaults.
                Driver::Threads(threads) => {
                    threads.push(std::thread::spawn(move || {
                        Worker::new(inbox, seed, cells).run();
                    }));
                }
            }
            inboxes.push(Some(tx));
        }
        ShardPool {
            inboxes,
            arrays_per_worker,
            driver,
            results,
            router: AffinityRouter::new(Arc::clone(&view), Arc::clone(&metrics)),
            metrics,
            queue_depth_limit: config.queue_depth,
            view,
        }
    }

    /// The global residency view the router reads (and arrays publish
    /// into).
    pub fn residency_view(&self) -> &Arc<ResidencyView> {
        &self.view
    }

    /// Submits a session to the array the [`AffinityRouter`] picks,
    /// without blocking, and returns that array's index.
    ///
    /// # Errors
    ///
    /// [`SubmitError::WouldBlock`] hands the session back when every
    /// array's queue is full; [`SubmitError::Shutdown`] when the pool is
    /// closed.
    // The error variants carry the rejected `Session` back to the caller by
    // design, so the Err side is as large as a session.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, session: Session) -> Result<usize, SubmitError> {
        let array = self
            .router
            .place(session.next_kernel().as_ref(), session.id());
        let Some(inbox) = self.inboxes[array / self.arrays_per_worker].as_ref() else {
            return Err(SubmitError::Shutdown(session));
        };
        let owned = self.view.status(array).owned();
        // Count before sending: the array decrements when it hands the
        // session back, which may land before a post-send increment would.
        // The counter, not the channel, is the bound: it is what the router
        // reads as "room", so an array is full exactly when the router says
        // so. The channel holds only part of what the counters count, so
        // `try_send` itself does not report `Full`.
        let depth = owned.fetch_add(1, Ordering::Relaxed) + 1;
        let sent = if depth > self.queue_depth_limit as u64 {
            Err(TrySendError::Full((0, session)))
        } else {
            inbox.try_send((array % self.arrays_per_worker, session))
        };
        match sent {
            Ok(()) => {
                Metrics::raise_to(&self.metrics.queue_high_water, depth);
                Ok(array)
            }
            Err(TrySendError::Full((_, s))) => {
                owned.fetch_sub(1, Ordering::Relaxed);
                Metrics::incr(&self.metrics.jobs_rejected);
                Err(SubmitError::WouldBlock(s, array))
            }
            Err(TrySendError::Disconnected((_, s))) => {
                owned.fetch_sub(1, Ordering::Relaxed);
                Err(SubmitError::Shutdown(s))
            }
        }
    }

    /// Blocks for the next session a worker finished stepping. Returns
    /// `None` only after shutdown, once every worker has exited.
    ///
    /// On a [`lockstep`](ShardPool::lockstep) pool nothing blocks: an empty
    /// result queue runs dispatch rounds until one hands a session back,
    /// and `None` means no array has anything left to do.
    pub fn recv(&self) -> Option<Session> {
        match &self.driver {
            Driver::Threads(_) => self.results.recv().ok(),
            Driver::Lockstep(worker) => self.recv_lockstep(worker),
        }
    }

    /// Non-blocking receive: the next finished session if one is already
    /// waiting, `None` otherwise. The front-end folds hand-backs with this
    /// so the driving thread never blocks while it still has work to do —
    /// and a lockstep pool never advances here, so the driver folds and
    /// materialises *between* dispatch rounds.
    pub(crate) fn try_recv(&self) -> Option<Session> {
        self.results.try_recv().ok()
    }

    /// Blocks up to `timeout` for a finished session. `None` on timeout
    /// or after shutdown. A lockstep pool ignores the timeout and behaves
    /// as in [`recv`](ShardPool::recv).
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<Session> {
        match &self.driver {
            Driver::Threads(_) => self.results.recv_timeout(timeout).ok(),
            Driver::Lockstep(worker) => self.recv_lockstep(worker),
        }
    }

    /// Whether this pool was built by [`ShardPool::lockstep`], where a
    /// `None` from [`recv`](ShardPool::recv) is final rather than a timeout.
    pub(crate) fn is_lockstep(&self) -> bool {
        matches!(self.driver, Driver::Lockstep(_))
    }

    /// The lockstep driver: dispatch rounds on the one worker while the
    /// result queue is empty. A round that makes no progress means no
    /// array can.
    fn recv_lockstep(&self, worker: &RefCell<Option<Worker>>) -> Option<Session> {
        let mut worker = worker.borrow_mut();
        let worker = worker.as_mut()?;
        loop {
            if let Ok(session) = self.results.try_recv() {
                return Some(session);
            }
            if !matches!(worker.step(), Round::Progress) {
                return None;
            }
        }
    }

    /// Total submission capacity across every array's queue — what the
    /// front-end clamps its materialisation window to.
    pub(crate) fn queue_capacity(&self) -> usize {
        self.inboxes.len() * self.arrays_per_worker * self.queue_depth_limit
    }

    /// Sessions an array owns right now: submitted to it and not yet handed
    /// back (approximate under concurrency).
    pub fn queue_depth(&self, array: usize) -> u64 {
        self.view.status(array).queue_depth()
    }

    /// Closes the pool: stops accepting work, lets every worker drain its
    /// arrays (each in-flight session is stepped once more), joins the
    /// workers, and returns the sessions that were still in flight.
    pub fn shutdown(mut self) -> Vec<Session> {
        self.close_and_join();
        self.results.try_iter().collect()
    }

    fn close_and_join(&mut self) {
        for inbox in &mut self.inboxes {
            *inbox = None; // disconnects the worker's inbox
        }
        match &mut self.driver {
            Driver::Threads(workers) => {
                for worker in workers.drain(..) {
                    // Supervised join: session panics are caught inside
                    // the round, so an Err here is a defect in the worker
                    // itself — shutdown must still proceed worker by
                    // worker rather than cascade the panic out of drop.
                    let _ = worker.join();
                }
            }
            // The lockstep worker drains on the calling thread; a drained
            // worker reports `Closed` again at once when `Drop` comes back
            // here.
            Driver::Lockstep(worker) => {
                if let Some(worker) = worker.get_mut() {
                    while !matches!(worker.step(), Round::Closed) {}
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

/// What a worker shares among its arrays: where hand-backs go, and how to
/// rebuild a crashed [`WorkerArray`] without round-tripping through the
/// pool.
struct WorkerSeed {
    results: mpsc::Sender<Session>,
    metrics: Arc<Metrics>,
    store: Arc<ConfigStore>,
    policy: RecoveryPolicy,
    injector: Option<Arc<FaultInjector>>,
}

impl WorkerSeed {
    fn fresh_worker(&self) -> WorkerArray {
        let mut worker = WorkerArray::with_policy(
            Arc::clone(&self.store),
            Arc::clone(&self.metrics),
            self.policy,
        );
        if let Some(inj) = &self.injector {
            worker.attach_fault_injector(Arc::clone(inj));
        }
        worker
    }
}

/// What one [`Worker::step`] did.
enum Round {
    /// A session ran and was handed back.
    Progress,
    /// Nothing to run and the inbox is still open: the driver may wait.
    Idle,
    /// The inbox is closed and everything the worker's arrays held has run.
    Closed,
}

/// One array as the unit of placement: the sessions it owns, in EDF order,
/// and what the router reads of it.
struct Shard {
    worker: WorkerArray,
    heap: BinaryHeap<QueuedSession>,
    /// Array cycles this shard has stepped, across worker rebuilds: its
    /// virtual clock, and the busy cycles it publishes.
    clock: u64,
    /// Its cell in the global residency view: the sessions it owns, which
    /// it lowers at each hand-back, and what it publishes.
    status: Arc<ShardStatus>,
}

impl Shard {
    /// Steps the most urgent session this shard owns, publishes, and hands
    /// the session back — publishing *before* the hand-back, so the driver
    /// routes the session's next step on the residency this one produced.
    /// Does nothing when the shard owns nothing.
    fn step(&mut self, seed: &WorkerSeed) {
        let Some(queued) = self.heap.pop() else {
            return;
        };
        let session = self.supervised_step(seed, queued.session);
        self.status.publish(self.worker.resident_mask(), self.clock);
        Metrics::incr(&seed.metrics.residency_view_refreshes);
        // The hand-back ends the shard's ownership: release its count
        // first, so the driver never sees a session it holds still counted
        // here.
        self.status.owned().fetch_sub(1, Ordering::Relaxed);
        // The driver may already be gone (pool dropped mid-run); the
        // session's work is still done, only the hand-back is lost.
        let _ = seed.results.send(session);
    }

    /// One supervised session step; returns the stepped session for the
    /// caller to hand back. A panic (injected or genuine) is contained to
    /// this one dispatch. `AssertUnwindSafe` is sound because both the
    /// session and the worker are discarded-or-replaced on the panic path
    /// rather than reused in their torn state: the session is handed back
    /// marked crashed (the driver re-dispatches or dead-letters it, it
    /// never resumes mid-kernel state), and the worker — whose array may be
    /// mid-mutation — is dropped wholesale and rebuilt from the seed. No
    /// other array is touched.
    fn supervised_step(&mut self, seed: &WorkerSeed, mut session: Session) -> Session {
        let (metrics, worker) = (&seed.metrics, &mut self.worker);
        let (stats, sched) = (worker.array().stats(), worker.array().schedule_stats());
        let stepped = catch_unwind(AssertUnwindSafe(|| session.step(worker)));
        // Credit the step's array activity — the deltas, and only those — to
        // the pool counters and to the shard's clock (which survives worker
        // rebuilds, unlike the array's own stats).
        let delta = worker.array().stats().delta_since(&stats);
        self.clock += delta.cycles;
        Metrics::add(&metrics.array_cycles_run, delta.cycles);
        Metrics::add(&metrics.config_words_streamed, delta.config_words);
        Metrics::raise_to(&metrics.array_makespan_cycles, self.clock);
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
                *worker = seed.fresh_worker();
                session.record_crash();
            }
        }
        if let Some(injector) = &seed.injector {
            Metrics::raise_to(&metrics.faults_injected, injector.injected_total());
        }
        session
    }
}

/// The arrays one driver steps together and the inbox that feeds them.
/// [`step`](Worker::step) runs one dispatch round and never blocks; who
/// calls it, and what happens between calls, is the driver's business
/// (module docs).
struct Worker {
    seed: WorkerSeed,
    inbox: Receiver<(usize, Session)>,
    shards: Vec<Shard>,
    seq: u64,
    /// Cleared when the inbox disconnects (pool shutdown).
    open: bool,
}

impl Worker {
    /// A worker over fresh arrays, one per status cell.
    fn new(
        inbox: Receiver<(usize, Session)>,
        seed: WorkerSeed,
        cells: Vec<Arc<ShardStatus>>,
    ) -> Self {
        let shards = cells
            .into_iter()
            .map(|status| Shard {
                worker: seed.fresh_worker(),
                heap: BinaryHeap::new(),
                clock: 0,
                status,
            })
            .collect();
        Worker {
            seed,
            inbox,
            shards,
            seq: 0,
            open: true,
        }
    }

    /// The thread driver: this worker's OS thread until the pool closes.
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
    /// every heap empty: the next submission, or the pool's close.
    fn wait(&mut self) {
        match self.inbox.recv() {
            Ok(submission) => self.enqueue(submission),
            Err(_) => self.open = false,
        }
    }

    /// One dispatch round: drain the inbox into the arrays' EDF heaps; with
    /// nothing to run, report `Idle` while the inbox is open and
    /// [`close`](Worker::close) once it is not; otherwise step the shard
    /// with the smallest clock (lowest index on a tie) that owns a session.
    fn step(&mut self) -> Round {
        loop {
            match self.inbox.try_recv() {
                Ok(submission) => self.enqueue(submission),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.open = false;
                    break;
                }
            }
        }
        let next = self
            .shards
            .iter_mut()
            .enumerate()
            .filter(|(_, shard)| !shard.heap.is_empty())
            .min_by_key(|(i, shard)| (shard.clock, *i));
        match next {
            Some((_, shard)) => {
                shard.step(&self.seed);
                Round::Progress
            }
            None if self.open => Round::Idle,
            None => self.close(),
        }
    }

    /// Pushes a submission into its array's EDF heap. It stays counted in
    /// the array's depth until [`Shard::step`] hands it back.
    fn enqueue(&mut self, (shard, session): (usize, Session)) {
        self.seq += 1;
        self.shards[shard].heap.push(QueuedSession {
            deadline: session.deadline(),
            seq: self.seq,
            session,
        });
    }

    /// The round that finds the worker closed and drained. Fault records
    /// still pending on its arrays — a faulted load that nothing used or
    /// disposed of again — would vanish with them, so they are swept here
    /// and booked as `supervised_step` books those of a crashed array:
    /// detected, and recovered by the disposal. A drained worker may be
    /// stepped again (`Drop` closes a pool that `shutdown` already
    /// closed); the sweep then finds nothing.
    fn close(&mut self) -> Round {
        let metrics = &self.seed.metrics;
        for shard in &mut self.shards {
            let swept = shard.worker.array_mut().take_injected_faults();
            Metrics::add(&metrics.faults_detected, swept);
            Metrics::add(&metrics.recoveries, swept);
        }
        Round::Closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionState;
    use sdr_ofdm::xpp_map::OfdmKernel;
    use sdr_wcdma::xpp_map::WcdmaKernel;

    /// A worker built directly in a test — no pool, no thread — over
    /// `arrays` arrays, with the sending end of its inbox and the receiving
    /// end of its results.
    fn test_worker(arrays: usize) -> (Worker, SyncSender<(usize, Session)>, Receiver<Session>) {
        let (inbox_tx, inbox) = mpsc::sync_channel(32);
        let (results, results_rx) = mpsc::channel();
        let seed = WorkerSeed {
            results,
            metrics: Arc::new(Metrics::new()),
            store: Arc::new(ConfigStore::new(STORE_CAPACITY)),
            policy: RecoveryPolicy::default(),
            injector: None,
        };
        let cells = (0..arrays).map(|_| Arc::default()).collect();
        (Worker::new(inbox, seed, cells), inbox_tx, results_rx)
    }

    /// Submits as the pool does: count the session on its array, then send.
    fn submit(worker: &Worker, inbox: &SyncSender<(usize, Session)>, array: usize, s: Session) {
        let owned = worker.shards[array].status.owned();
        owned.fetch_add(1, Ordering::Relaxed);
        inbox.send((array, s)).unwrap();
    }

    fn owned(worker: &Worker) -> u64 {
        let owned = |shard: &Shard| shard.status.queue_depth();
        worker.shards.iter().map(owned).sum()
    }

    /// A round steps the array with the smallest clock that owns a session,
    /// the lowest index on a tie, and the stepped array publishes its own
    /// clock.
    #[test]
    fn a_round_steps_the_array_with_the_smallest_clock() {
        let (mut worker, inbox, results) = test_worker(3);
        worker.shards[0].clock = 10;
        for (array, id) in [(0, 0), (2, 2), (1, 1)] {
            submit(&worker, &inbox, array, Session::wcdma(id, 40 + id));
        }
        // Captures are host-only, so no clock moves: 1 and 2 tie at zero.
        for want in [1, 2, 0] {
            assert!(matches!(worker.step(), Round::Progress));
            assert_eq!(results.try_recv().unwrap().id(), want);
        }
        assert!(matches!(worker.step(), Round::Idle));
        assert_eq!(worker.shards[0].status.busy_cycles(), 10);
    }

    /// Residency on one array: the detector stays resident beside the
    /// demodulator, whatever else its worker steps; only placement pressure
    /// would recycle it.
    #[test]
    fn an_array_keeps_the_detector_resident() {
        for arrays in [1, 2] {
            let (mut worker, inbox, results) = test_worker(arrays);
            worker.shards[0]
                .worker
                .activate(OfdmKernel::PreambleDetector)
                .unwrap();
            let mut session = Session::ofdm(3, 9);
            let mut private = WorkerArray::new(4, Arc::new(Metrics::new()));
            session.step(&mut private); // → PreambleDetect
            session.step(&mut private); // → Demod
            submit(&worker, &inbox, 0, session);

            assert!(matches!(worker.step(), Round::Progress));
            assert_eq!(*results.try_recv().unwrap().state(), SessionState::Done);
            let array = &worker.shards[0].worker;
            assert!(array.is_resident(OfdmKernel::Demodulator));
            assert!(
                array.is_resident(OfdmKernel::PreambleDetector),
                "{arrays} arrays"
            );
            let snap = worker.seed.metrics.snapshot();
            assert_eq!(snap.prefetches, 0);
        }
    }

    /// The state machine alone: a worker whose inbox has closed reports
    /// `Closed` only after its arrays have run everything they held, one
    /// session a round, and each hand-back releases the session's count.
    #[test]
    fn a_closed_worker_runs_what_it_held() {
        let (mut worker, inbox, results) = test_worker(2);
        for id in 0..12 {
            let array = id as usize % 2;
            submit(&worker, &inbox, array, Session::wcdma(id, 40 + id));
        }
        drop(inbox);
        for held in (0..12).rev() {
            assert!(matches!(worker.step(), Round::Progress));
            assert_eq!(owned(&worker), held);
        }
        assert!(matches!(worker.step(), Round::Closed));
        assert_eq!(results.try_iter().count(), 12, "each session stepped once");
        assert_eq!(worker.seed.metrics.snapshot().jobs_run, 12);
        assert!(matches!(worker.step(), Round::Closed), "and stays closed");
    }

    /// An array whose step panics is rebuilt from the seed, the session
    /// comes back marked crashed, and the ledger books exactly what
    /// `supervised_step` always booked: the crash and every fault record
    /// pending on the discarded array as detected, the latter as
    /// recovered, one restart.
    #[test]
    fn a_panicking_step_rebuilds_the_array_and_books_the_ledger() {
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
        let (mut worker, inbox, results) = test_worker(1);
        worker.seed.injector = Some(injector);
        worker.shards[0].worker = worker.seed.fresh_worker();
        // Load 0 stalls the descrambler and nobody runs it, so its fault
        // record is still pending when load 1 — the detector, on the same
        // array — panics.
        worker.shards[0]
            .worker
            .activate(WcdmaKernel::Descrambler)
            .unwrap();
        let mut session = Session::ofdm(3, 9);
        session.step(&mut WorkerArray::new(4, Arc::new(Metrics::new()))); // → PreambleDetect
        submit(&worker, &inbox, 0, session);

        assert!(matches!(worker.step(), Round::Progress));
        let mut back = results.try_recv().unwrap();
        assert!(back.take_crashed(), "handed back marked crashed");
        assert!(
            !worker.shards[0]
                .worker
                .is_resident(WcdmaKernel::Descrambler),
            "the struck array is a fresh one"
        );
        assert_eq!(owned(&worker), 0, "the crashed hand-back is released");
        let snap = worker.seed.metrics.snapshot();
        assert_eq!(
            (snap.faults_detected, snap.recoveries, snap.worker_restarts),
            (2, 1, 1)
        );
        assert_eq!(snap.jobs_run, 0, "a crashed step is not a job run");
    }
}
