//! Multi-terminal baseband engine.
//!
//! The paper's platform runs *one* terminal's baseband on a reconfigurable
//! array; a base-station (or a dense simulation farm) must run many. This
//! crate scales the single-terminal pipelines of `sdr_wcdma` and
//! `sdr_ofdm` across a sharded pool of worker threads, each owning one
//! simulated XPP array:
//!
//! * [`session`] — per-terminal state machines (W-CDMA rake acquisition,
//!   802.11a preamble detect → demodulate with the Fig. 10 runtime
//!   reconfiguration);
//! * [`pool`] — bounded-queue worker shards with `WouldBlock`
//!   backpressure and earliest-deadline-first dispatch;
//! * [`config_manager`] — the configuration-manager subsystem: a
//!   [`KernelSpec`] registry of array kernels, a **process-wide** LRU
//!   store of pre-compiled, pre-placed configurations (each kernel is
//!   built once per process, not once per worker), and the per-worker
//!   request→prefetch→loading→active→unload lifecycle with
//!   prefetch-overlapped reconfiguration;
//! * [`metrics`] — a lock-free registry every component reports into.
//!
//! [`Engine`] ties them together: admission control via
//! [`sdr_core::scheduler::schedule_edf`], then a submit/collect loop that
//! re-queues sessions until every terminal reaches a terminal state. The
//! loop is *supervised*: a worker panic restarts that shard with a fresh
//! array and re-dispatches the session with exponential backoff (bounded
//! by [`pool::RecoveryPolicy::max_session_attempts`], then dead-letter),
//! and an over-capacity backlog sheds its least-urgent session with an
//! explicit [`SessionState::Shed`] outcome instead of queueing without
//! bound. With the `faults` cargo feature a deterministic
//! `FaultPlan` (`xpp_array::fault`) can be injected pool-wide to exercise
//! exactly these paths.
//!
//! ```
//! use sdr_engine::{Engine, EngineConfig, Session};
//!
//! let mut engine = Engine::new(EngineConfig { shards: 2, ..EngineConfig::default() });
//! let sessions = vec![Session::wcdma(0, 1), Session::ofdm(1, 2)];
//! let summary = engine.run(sessions);
//! assert_eq!(summary.completed.len(), 2);
//! println!("{}", summary.snapshot);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config_manager;
pub mod frontend;
pub mod metrics;
pub mod pool;
pub mod router;
pub mod session;

pub use config_manager::{CmState, ConfigManager, ConfigStore, KernelSpec};
pub use frontend::{Frontend, FrontendConfig, ScaleSummary};
pub use metrics::{KernelKind, Metrics, Snapshot};
pub use pool::{PoolConfig, RecoveryPolicy, ShardPool, SubmitError, WorkerArray};
pub use router::{
    AffinityRouter, Placement, PlacementPolicy, ResidencyView, ShardStatus, StaticPlacement,
    StealOffer, StealRegistry,
};
pub use session::{ParkedSession, Session, SessionState, Standard};

use std::collections::VecDeque;
use std::sync::Arc;

use sdr_core::scheduler::{schedule_edf, ScheduleReport};
#[cfg(feature = "faults")]
use xpp_array::fault::FaultPlan;

/// EDF admission-control horizon in array cycles (two W-CDMA slots).
pub const ADMISSION_HORIZON_CYCLES: u64 = 2 * session::WCDMA_PERIOD_CYCLES;

/// Engine sizing. Mirrors [`PoolConfig`] minus the test-only pause knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker shards (one array gang each).
    pub shards: usize,
    /// Arrays per shard gang; above 1 the shard batches sessions by
    /// kernel and amortises configuration loads across each batch (see
    /// [`PoolConfig::arrays_per_shard`]).
    pub arrays_per_shard: usize,
    /// Bounded per-shard queue depth.
    pub queue_depth: usize,
    /// Compiled configurations the process-wide store may hold.
    pub cache_capacity: usize,
    /// Supervision tuning: retry budgets, crash backoff, watchdog grant.
    pub recovery: RecoveryPolicy,
    /// Backlog length above which admission pressure sheds the
    /// least-urgent (latest-deadline) waiting session instead of queueing
    /// it. The default (`usize::MAX`) never sheds.
    pub shed_backlog: usize,
    /// Rescue shed candidates by checkpointed migration: before shedding,
    /// consult the [`ResidencyView`] for a shard with queue room that
    /// already holds the session's next kernel and re-dispatch the
    /// session's ~40-byte parked record there instead. Default off — the
    /// seed overload behaviour sheds outright.
    pub rescue_migration: bool,
    /// How submissions are placed on shards: residency-affinity routing
    /// (the default) or the static `id % shards` oracle (see
    /// [`PoolConfig::placement`]).
    pub placement: PlacementPolicy,
    /// Cross-shard work stealing (the default with more than one shard;
    /// see [`PoolConfig::work_stealing`]).
    pub work_stealing: bool,
    /// Differential configuration loading: stream only the word delta
    /// between the resident and target configs, and score shards/members
    /// by the cheapest cached delta (see [`PoolConfig::delta_loading`]).
    /// Default off — the seed streams full loads.
    pub delta_loading: bool,
    /// Deterministic pool-wide fault plan (`None` injects nothing).
    #[cfg(feature = "faults")]
    pub fault_plan: Option<FaultPlan>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let p = PoolConfig::default();
        EngineConfig {
            shards: p.shards,
            arrays_per_shard: p.arrays_per_shard,
            queue_depth: p.queue_depth,
            cache_capacity: p.cache_capacity,
            recovery: p.recovery,
            shed_backlog: usize::MAX,
            rescue_migration: false,
            placement: p.placement,
            work_stealing: p.work_stealing,
            delta_loading: p.delta_loading,
            #[cfg(feature = "faults")]
            fault_plan: None,
        }
    }
}

/// What a [`Engine::run`] call produced.
#[derive(Debug)]
pub struct RunSummary {
    /// Sessions that reached a terminal state (`Done`, `Failed`, `Shed`
    /// or `DeadLettered`), in completion order.
    pub completed: Vec<Session>,
    /// Per-shard EDF admission reports for the offered load.
    pub admission: Vec<ScheduleReport>,
    /// Metrics snapshot taken when the run drained.
    pub snapshot: Snapshot,
}

impl RunSummary {
    /// True when every shard's offered load was EDF-feasible.
    pub fn admission_feasible(&self) -> bool {
        self.admission.iter().all(ScheduleReport::feasible)
    }

    /// Sessions that ended in `Done`.
    pub fn done(&self) -> usize {
        self.completed
            .iter()
            .filter(|s| *s.state() == SessionState::Done)
            .count()
    }

    /// Sessions that ended in `Failed` (wrong bits, pipeline errors).
    pub fn failed(&self) -> usize {
        self.completed
            .iter()
            .filter(|s| matches!(s.state(), SessionState::Failed(_)))
            .count()
    }

    /// Sessions shed by admission pressure.
    pub fn shed(&self) -> usize {
        self.completed
            .iter()
            .filter(|s| *s.state() == SessionState::Shed)
            .count()
    }

    /// Sessions dead-lettered after exhausting recovery attempts.
    pub fn dead_lettered(&self) -> usize {
        self.completed
            .iter()
            .filter(|s| matches!(s.state(), SessionState::DeadLettered(_)))
            .count()
    }
}

/// The multi-terminal engine front end.
pub struct Engine {
    pool: ShardPool,
    metrics: Arc<Metrics>,
    recovery: RecoveryPolicy,
    shed_backlog: usize,
    rescue_migration: bool,
}

impl Engine {
    /// Spawns the worker pool.
    pub fn new(config: EngineConfig) -> Self {
        let metrics = Arc::new(Metrics::new());
        let pool = ShardPool::new(
            PoolConfig {
                shards: config.shards,
                arrays_per_shard: config.arrays_per_shard,
                queue_depth: config.queue_depth,
                cache_capacity: config.cache_capacity,
                replicate_after_cycles: PoolConfig::default().replicate_after_cycles,
                start_paused: false,
                placement: config.placement,
                work_stealing: config.work_stealing,
                delta_loading: config.delta_loading,
                steal_threshold: PoolConfig::default().steal_threshold,
                recovery: config.recovery,
                #[cfg(feature = "faults")]
                fault_plan: config.fault_plan,
            },
            Arc::clone(&metrics),
        );
        Engine {
            pool,
            metrics,
            recovery: config.recovery,
            shed_backlog: config.shed_backlog,
            rescue_migration: config.rescue_migration,
        }
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// A point-in-time metrics snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// The underlying pool (pause/resume and direct submission).
    pub fn pool(&self) -> &ShardPool {
        &self.pool
    }

    /// Runs a batch of sessions to completion: submits each to its shard,
    /// re-queues non-terminal sessions as workers hand them back, and
    /// retries `WouldBlock` rejections after draining results. Returns
    /// once every session is terminal.
    ///
    /// Supervision happens here: sessions handed back marked *crashed*
    /// (their worker panicked and was restarted with a fresh array) are
    /// re-dispatched with exponential backoff up to the recovery policy's
    /// session budget, then dead-lettered; and when backpressure leaves
    /// more than `shed_backlog` sessions waiting, the least-urgent
    /// (latest-deadline) one is shed outright.
    pub fn run(&mut self, sessions: Vec<Session>) -> RunSummary {
        let shards = self.pool.shard_count();
        let mut shard_jobs = vec![Vec::new(); shards];
        for s in &sessions {
            // Admission reports group by the static oracle placement: a
            // conservative per-shard feasibility bound that stays
            // deterministic even when the live router spreads the load
            // more evenly (affinity routing or stealing only ever *help*
            // a statically-feasible load).
            shard_jobs[self.pool.shard_of(s)].push(s.scheduler_job());
        }
        let admission: Vec<ScheduleReport> = shard_jobs
            .iter()
            .map(|jobs| {
                if jobs.is_empty() {
                    // An idle shard (more shards than sessions) is trivially
                    // feasible; `schedule_edf` rejects empty job sets.
                    ScheduleReport {
                        horizon: ADMISSION_HORIZON_CYCLES,
                        busy: 0,
                        timeline: Vec::new(),
                        misses: Vec::new(),
                    }
                } else {
                    schedule_edf(jobs, ADMISSION_HORIZON_CYCLES)
                }
            })
            .collect();

        Metrics::add(&self.metrics.sessions_started, sessions.len() as u64);
        let mut backlog: VecDeque<Session> = sessions.into();
        let mut outstanding = 0usize;
        let mut completed = Vec::new();
        while !backlog.is_empty() || outstanding > 0 {
            while let Some(session) = backlog.pop_front() {
                match self.pool.submit(session) {
                    Ok(_) => outstanding += 1,
                    Err(SubmitError::WouldBlock(s)) => {
                        backlog.push_front(s);
                        // Admission pressure: the placed queue is full and
                        // the backlog is over budget. Rescue what's cheap
                        // to move first — a shard elsewhere with queue
                        // room that already holds the victim's next kernel
                        // runs it for zero config-bus traffic — and shed
                        // the least-urgent waiting session only when no
                        // such target exists.
                        while backlog.len() > self.shed_backlog {
                            let Some(victim) = Self::remove_latest_deadline(&mut backlog) else {
                                break;
                            };
                            match self.try_rescue(victim) {
                                Ok(()) => outstanding += 1,
                                Err(mut victim) => {
                                    victim.mark_shed();
                                    Metrics::incr(&self.metrics.sessions_shed);
                                    completed.push(victim);
                                }
                            }
                        }
                        break;
                    }
                    Err(SubmitError::Shutdown(s)) => {
                        // Cannot happen while the pool is alive; keep the
                        // session rather than lose it.
                        backlog.push_front(s);
                        break;
                    }
                }
            }
            if outstanding > 0 {
                let Some(mut session) = self.pool.recv() else {
                    // Every worker is gone; nothing more will be handed
                    // back. Only reachable if the pool died under us.
                    break;
                };
                outstanding -= 1;
                if session.resolve_crash(self.recovery.max_session_attempts, &self.metrics) {
                    // Back off briefly before re-dispatching the session.
                    let exp = session.attempts().saturating_sub(1).min(6);
                    std::thread::sleep(self.recovery.backoff.saturating_mul(1 << exp));
                    backlog.push_back(session);
                } else if session.is_terminal() {
                    completed.push(session);
                } else {
                    backlog.push_back(session);
                }
            } else {
                std::thread::yield_now();
            }
        }
        // Fault-injection counters fold into the snapshot automatically via
        // the pool's registered metrics sync hook.
        RunSummary {
            completed,
            admission,
            snapshot: self.metrics.snapshot(),
        }
    }

    /// Attempts to rescue a shed candidate by checkpointed migration: if
    /// the [`ResidencyView`] names a shard already holding the session's
    /// next kernel, the session is parked to its ~40-byte record,
    /// rehydrated (bit-identical replay from the seed) and re-dispatched
    /// there through the reserved rescue lane (shedding only happens while
    /// every ordinary queue is full, so the lane is what makes admission
    /// possible at all). Hands the session back untouched when rescue is
    /// disabled, no shard is warm, the session's phase has no parked form,
    /// or the rescue lane itself is occupied.
    #[allow(clippy::result_large_err)]
    fn try_rescue(&self, session: Session) -> Result<(), Session> {
        if !self.rescue_migration {
            return Err(session);
        }
        let Some(kernel) = session.next_kernel() else {
            return Err(session);
        };
        let Some(shard) = self
            .pool
            .residency_view()
            .any_holder_of(&kernel.config_name())
        else {
            return Err(session);
        };
        let Some(parked) = session.park() else {
            return Err(session);
        };
        match self.pool.submit_to(shard, Session::rehydrate(&parked)) {
            Ok(_) => {
                Metrics::incr(&self.metrics.sessions_migrated);
                Metrics::incr(&self.metrics.deadline_rescues);
                Ok(())
            }
            Err(SubmitError::WouldBlock(_) | SubmitError::Shutdown(_)) => Err(session),
        }
    }

    /// Removes and returns the latest-deadline (EDF least-urgent) session
    /// from the backlog.
    fn remove_latest_deadline(backlog: &mut VecDeque<Session>) -> Option<Session> {
        let idx = backlog
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.deadline())
            .map(|(i, _)| i)?;
        backlog.remove(idx)
    }

    /// Shuts the pool down, returning any sessions still in flight (each
    /// stepped once more by its worker while draining).
    pub fn shutdown(self) -> Vec<Session> {
        self.pool.shutdown()
    }
}
