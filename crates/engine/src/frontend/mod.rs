//! The session front-end and its loop: park a million terminals over a
//! bounded worker set.
//!
//! The engine's one driver. A submitter that blocks on the pool whenever
//! an array's queue fills bounds the resident-session count by threads; this
//! control plane never blocks on submission. It is a single-threaded
//! completion loop over the [`ShardPool`] it owns, plus [`parking`] — the
//! idle-session parking lot: a deadline-ordered heap of compact
//! [`ParkedSession`] records (~a few dozen bytes each; no sample
//! buffers), preallocatable so parking is allocation-free.
//!
//! A terminal's life cycle: **admitted** as a parked record →
//! **materialised** (rehydrated into a full `Session` and submitted to
//! the pool) when the pool has a slot for it → stepped through its
//! pipeline, each hand-back resubmitted for its next step → **completed**
//! (and, closed-loop, its next frame re-admitted). Millions of terminals
//! can be resident while only `shards × arrays_per_shard` plus the small
//! materialisation window ever own sample buffers.
//!
//! Flow control is by credit, as on the array itself, where an object
//! fires only when its output register has room. The window is
//! [`Frontend::window`], `min(64, arrays × queue_depth)` over the pool's
//! `shards × arrays_per_shard` arrays, and a record is popped only into a
//! free slot of it. That is the only flow control: the pool never refuses
//! the driver, because
//!
//! * only the driver thread raises an array's count of owned sessions (in
//!   [`ShardPool::submit`]); an array lowers its count only as it hands a
//!   session back;
//! * a hand-back's `recv` happens after its array's decrement, so every
//!   session an array owns is also counted in flight, and
//!   Σ owned ≤ in flight < window = `min(64, arrays × queue_depth)` ≤
//!   `arrays × queue_depth` whenever the driver submits;
//! * so some array owns fewer than `queue_depth`, and the
//!   [`AffinityRouter`](crate::AffinityRouter) picks only an array with
//!   room while one exists.
//!
//! A refusal is therefore a defect, and the driver panics naming the array
//! and the error rather than parking the session or blocking on it.
//!
//! There is no executor behind this: a session's drive has one wait point
//! (the pool's hand-back), does no I/O, keeps all of its state in the
//! `Session` itself (its stage-table row), and at most a window of them
//! are in flight — so [`Frontend::pump`] just does the work, in an order
//! that matters: **hand-backs are folded before parked records are
//! materialised.** A mid-pipeline session re-takes the queue slot its own
//! completion freed; parking it instead would cost a capture replay on
//! rehydration (≈ 0.08–0.09 ms for a tracking W-CDMA terminal). Fresh
//! records get what is left.
//!
//! # Deterministic admission model
//!
//! Real thread scheduling is nondeterministic, so deadline slack and
//! shedding are computed against a *virtual-time queueing model*: one
//! virtual server per array, charged `3 × job_cycles` of modeled service
//! per frame at materialisation, least-loaded-server routing. The model
//! is a pure function of the admission sequence, so a seeded open-loop
//! run reports bit-identical slack/shed statistics across executions
//! while the real pool still executes every admitted frame. The *kernel
//! outcomes* (Done/Failed and every DSP bit) are exact, not modeled.

pub mod parking;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crate::config::EngineConfig;
use crate::metrics::{ratio, Metrics, Snapshot};
use crate::pool::ShardPool;
use crate::session::{
    ParkedSession, Session, SessionState, Standard, OFDM_JOB_CYCLES, WCDMA_JOB_CYCLES,
};

use parking::ParkingLot;

/// Pipeline steps per session (capture → detect/search → demod/track).
const STEPS_PER_SESSION: u64 = 3;

/// Upper bound of the materialisation window ([`Frontend::window`]).
const MAX_WINDOW: usize = 64;

/// Modeled service demand of one full W-CDMA frame in array cycles.
pub const WCDMA_SERVICE_CYCLES: u64 = STEPS_PER_SESSION * WCDMA_JOB_CYCLES;
/// Modeled service demand of one full OFDM frame in array cycles.
pub const OFDM_SERVICE_CYCLES: u64 = STEPS_PER_SESSION * OFDM_JOB_CYCLES;

fn service_cycles(standard: Standard) -> u64 {
    match standard {
        Standard::Wcdma => WCDMA_SERVICE_CYCLES,
        Standard::Ofdm => OFDM_SERVICE_CYCLES,
    }
}

/// The front-end reads its settings from the engine-wide [`EngineConfig`].
/// The alias stays because the frozen benchmark package spells
/// `FrontendConfig { .., ..FrontendConfig::default() }`.
pub type FrontendConfig = EngineConfig;

/// What one [`Frontend::run`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSummary {
    /// Frames that reached a terminal state.
    pub frames_completed: u64,
    /// Frames that ended `Done`.
    pub done: u64,
    /// Frames that ended `Failed`.
    pub failed: u64,
    /// Frames dead-lettered after exhausting crash retries.
    pub dead_lettered: u64,
    /// Ids of frames shed at admission (modeled completion hopelessly
    /// late), in admission order.
    pub shed: Vec<u64>,
    /// Modeled deadline slack (deadline − modeled completion, array
    /// cycles; negative = late) per admitted fresh frame, in admission
    /// order.
    pub slack_cycles: Vec<i64>,
    /// High-water mark of concurrently parked records.
    pub peak_parked: u64,
    /// High-water mark of resident terminals (parked + materialised).
    pub peak_resident: u64,
    /// Records still parked when the run stopped early (completion
    /// limit); `0` when the lot drained.
    pub still_parked: u64,
    /// Metrics snapshot at the end of the run.
    pub snapshot: Snapshot,
}

impl ScaleSummary {
    /// Frames admitted to the model (fresh materialisations + sheds).
    pub fn offered(&self) -> u64 {
        self.slack_cycles.len() as u64 + self.shed.len() as u64
    }

    /// Fraction of offered frames shed at admission.
    pub fn shed_rate(&self) -> f64 {
        ratio(self.shed.len() as u64, self.offered())
    }

    /// The slack that 99 % of admitted frames meet or beat (the
    /// 1st-percentile slack, ascending). `None` until a frame is
    /// admitted.
    pub fn p99_slack(&self) -> Option<i64> {
        percentile_low(&self.slack_cycles, 0.01)
    }

    /// The worst (minimum) modeled slack.
    pub fn min_slack(&self) -> Option<i64> {
        self.slack_cycles.iter().copied().min()
    }
}

fn percentile_low(values: &[i64], q: f64) -> Option<i64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as f64 * q).floor() as usize;
    Some(sorted[idx])
}

/// The session front-end: one driver thread looping over the pool it
/// owns. See the module docs for the life cycle and for what
/// [`pump`](Frontend::pump) does in which order.
pub struct Frontend {
    pool: ShardPool,
    // Sessions submitted to the pool and not yet handed back.
    in_flight: usize,
    lot: ParkingLot,
    metrics: Arc<Metrics>,
    // Virtual-time queueing model: one entry per array, the cycle at
    // which that virtual server frees up.
    free_at: Vec<u64>,
    // Modeled completion cycle per in-progress frame (terminal id →
    // virtual completion). Ids need not
    // be unique (a closed loop re-admits the same terminal): two frames
    // of one id in progress at once share the entry, so the earlier one
    // reports the later one's modeled completion to the workload hook
    // and the later one falls back to its deadline. Nothing else reads
    // it, so both still run and complete.
    vcomp: HashMap<u64, u64>,
    config: EngineConfig,
    // Summary accumulators.
    frames_completed: u64,
    done: u64,
    failed: u64,
    dead_lettered: u64,
    shed: Vec<u64>,
    slack_cycles: Vec<i64>,
    peak_resident: u64,
}

/// Closed-loop workload hook: called with each completed frame and its
/// modeled completion cycle; return the terminal's next frame as a
/// parked record to re-admit it, or `None` to let the terminal leave.
pub trait Workload: FnMut(&Session, u64) -> Option<ParkedSession> {}
impl<F: FnMut(&Session, u64) -> Option<ParkedSession>> Workload for F {}

impl Frontend {
    /// Spawns the worker pool and an empty front-end.
    pub fn new(config: EngineConfig) -> Self {
        Frontend::with_metrics(config, Arc::new(Metrics::new()))
    }

    /// As [`Frontend::new`] with a caller-supplied metrics registry.
    pub fn with_metrics(config: EngineConfig, metrics: Arc<Metrics>) -> Self {
        Frontend::over(ShardPool::new, config, metrics)
    }

    /// The same driver over a [`ShardPool::lockstep`] pool: no worker
    /// threads, the arrays step inside this loop's one wait point, and
    /// every counter of a run repeats exactly. A constructor for tests and
    /// benches; `metrics` is the registry, as in
    /// [`Frontend::with_metrics`], so a caller can still read it after
    /// [`shutdown`](Frontend::shutdown).
    pub fn lockstep(config: EngineConfig, metrics: Arc<Metrics>) -> Self {
        Frontend::over(ShardPool::lockstep, config, metrics)
    }

    fn over(
        pool: fn(EngineConfig, Arc<Metrics>) -> ShardPool,
        config: EngineConfig,
        metrics: Arc<Metrics>,
    ) -> Self {
        let pool = pool(config.clone(), Arc::clone(&metrics));
        Frontend {
            pool,
            in_flight: 0,
            lot: ParkingLot::with_capacity(config.parking_capacity),
            metrics,
            free_at: vec![0; config.shards * config.arrays_per_shard],
            vcomp: HashMap::new(),
            config,
            frames_completed: 0,
            done: 0,
            failed: 0,
            dead_lettered: 0,
            shed: Vec::new(),
            slack_cycles: Vec::new(),
            peak_resident: 0,
        }
    }

    /// A point-in-time metrics snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// Admits a terminal's frame as a parked record. O(log n), and
    /// allocation-free within the preallocated parking capacity.
    pub fn admit(&mut self, record: ParkedSession) {
        Metrics::incr(&self.metrics.sessions_started);
        self.lot.park(record);
        self.update_gauges();
    }

    /// Currently parked records.
    pub fn parked(&self) -> usize {
        self.lot.len()
    }

    /// Materialised sessions: submitted to the pool, not yet handed back.
    pub fn materialised(&self) -> usize {
        self.in_flight
    }

    /// The materialisation window: at most 64 sessions in flight, and
    /// never more than the pool's queues can hold, so a record is
    /// rehydrated only when the pool has a slot for it.
    pub fn window(&self) -> usize {
        self.pool.queue_capacity().min(MAX_WINDOW)
    }

    /// Parking-lot heap bytes per parked record; `None` while empty.
    pub fn bytes_per_parked(&self) -> Option<f64> {
        self.lot.bytes_per_parked()
    }

    /// One non-blocking driver iteration: fold every hand-back the pool
    /// has ready (completions, closed-loop re-admissions, next-step
    /// resubmissions), then materialise parked records into what is left
    /// of the window — in that order, see the module docs. Returns the
    /// amount of progress made: hand-backs folded, sessions submitted and
    /// records shed (0 = fully stalled; block via the pool or call again
    /// after external action).
    pub fn pump(&mut self, workload: &mut impl Workload) -> usize {
        let mut progress = 0;
        // Hand-backs before parked records (module docs): a stepped
        // session re-takes the queue slot its completion freed before a
        // parked record can.
        while let Some(session) = self.pool.try_recv() {
            self.fold(session, workload);
            progress += 1;
        }
        progress += self.materialise();
        self.update_gauges();
        progress
    }

    /// Runs until every resident terminal is gone (open loop: admit
    /// first, then call with a workload returning `None`).
    pub fn run(&mut self, workload: &mut impl Workload) -> ScaleSummary {
        self.run_limited(u64::MAX, workload)
    }

    /// As [`Frontend::run`] but stops once `limit` frames have
    /// completed, leaving the rest parked ([`ScaleSummary::still_parked`]
    /// reports how many). This is how the million-terminal test holds
    /// every record parked while processing a bounded sample of them.
    pub fn run_limited(&mut self, limit: u64, workload: &mut impl Workload) -> ScaleSummary {
        loop {
            let progress = self.pump(workload);
            if self.frames_completed >= limit {
                // Finish the already-materialised window: each session in
                // flight runs to a terminal state, so nothing is left
                // half-stepped.
                while self.in_flight > 0 {
                    self.wait_fold(workload);
                }
                break;
            }
            if self.in_flight == 0 && self.lot.is_empty() {
                break;
            }
            if progress == 0 {
                // No hand-back and no record submitted: the window is full
                // or the lot is empty, and something is in flight either
                // way (an empty lot with nothing in flight ended the loop
                // above). Only a pool completion can change that.
                self.wait_fold(workload);
            }
        }
        self.take_summary()
    }

    /// The loop's one blocking call: waits (bounded) for a hand-back and
    /// folds it. Only called with sessions in flight, and a lockstep array
    /// holding one always steps, so a lockstep `None` here is a lost
    /// session: a defect, and the wait a thread pool would repeat would
    /// never end.
    fn wait_fold(&mut self, workload: &mut impl Workload) {
        match self.pool.recv_timeout(Duration::from_millis(50)) {
            Some(session) => self.fold(session, workload),
            None => assert!(
                !self.pool.is_lockstep(),
                "lockstep pool stalled with {} sessions in flight: no array could step any of them",
                self.in_flight
            ),
        }
    }

    /// Takes one stepped session back from the pool: a terminal one is
    /// counted and offered to the workload hook, any other goes straight
    /// back for its next step. A crashed step is re-dispatched the same
    /// way (no sleep — the driver is single-threaded, backoff is deadline
    /// deferral) or dead-lettered.
    fn fold(&mut self, mut session: Session, workload: &mut impl Workload) {
        self.in_flight -= 1;
        session.resolve_crash(self.config.recovery.max_session_attempts, &self.metrics);
        if !session.is_terminal() {
            self.submit(session);
            return;
        }
        self.frames_completed += 1;
        match session.state() {
            SessionState::Done => self.done += 1,
            SessionState::Failed(_) => self.failed += 1,
            SessionState::DeadLettered(_) => self.dead_lettered += 1,
            _ => {}
        }
        let completed_at = self
            .vcomp
            .remove(&session.id())
            .unwrap_or_else(|| session.deadline());
        if let Some(next) = workload(&session, completed_at) {
            self.admit(next);
        }
    }

    /// Submits a session for one pipeline step. The credit window means the
    /// pool has room for it (module docs), so a refusal is a defect.
    fn submit(&mut self, session: Session) {
        if let Err(refused) = self.pool.submit(session) {
            panic!(
                "the pool refused a session with {} of a {}-session window in flight: {refused}",
                self.in_flight,
                self.window()
            );
        }
        self.in_flight += 1;
    }

    /// Rehydrates earliest-deadline parked records into the free part of
    /// the materialisation window, charging the virtual-time model (and
    /// shedding hopeless frames) for fresh ones. Returns the records it
    /// shed or submitted.
    fn materialise(&mut self) -> usize {
        let (mut progress, window) = (0, self.window());
        while self.in_flight < window {
            let Some(record) = self.lot.pop_earliest() else {
                break;
            };
            if record.is_fresh() {
                // Least-loaded virtual server, lowest index on a tie.
                let server = (0..self.free_at.len())
                    .min_by_key(|&i| self.free_at[i])
                    .unwrap_or(0);
                let start = self.free_at[server].max(record.arrival());
                let completes = start.saturating_add(service_cycles(record.standard()));
                let lateness = completes.saturating_sub(record.deadline());
                if lateness > self.config.shed_lateness_cycles {
                    Metrics::incr(&self.metrics.sessions_shed);
                    self.shed.push(record.id());
                    progress += 1;
                    continue;
                }
                self.free_at[server] = completes;
                self.slack_cycles
                    .push(record.deadline() as i64 - completes as i64);
                self.vcomp.insert(record.id(), completes);
            }
            Metrics::incr(&self.metrics.rehydrations);
            self.submit(Session::rehydrate(&record));
            progress += 1;
        }
        progress
    }

    fn update_gauges(&mut self) {
        let parked = self.lot.len() as u64;
        let resident = parked + self.in_flight as u64;
        self.peak_resident = self.peak_resident.max(resident);
        Metrics::set(&self.metrics.sessions_parked, parked);
        Metrics::raise_to(&self.metrics.peak_resident_sessions, resident);
    }

    fn take_summary(&mut self) -> ScaleSummary {
        self.update_gauges();
        ScaleSummary {
            frames_completed: self.frames_completed,
            done: self.done,
            failed: self.failed,
            dead_lettered: self.dead_lettered,
            shed: std::mem::take(&mut self.shed),
            slack_cycles: std::mem::take(&mut self.slack_cycles),
            peak_parked: self.lot.peak() as u64,
            peak_resident: self.peak_resident,
            still_parked: self.lot.len() as u64,
            snapshot: self.metrics.snapshot(),
        }
    }

    /// Shuts the worker pool down and returns the sessions that were
    /// still in flight, each stepped once more; parked records are dropped
    /// with the front-end.
    pub fn shutdown(self) -> Vec<Session> {
        self.pool.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_followup() -> impl Workload {
        |_: &Session, _| None
    }

    #[test]
    fn open_loop_mixed_standards_all_complete() {
        let mut fe = Frontend::new(EngineConfig {
            shards: 2,
            queue_depth: 4,
            ..EngineConfig::default()
        });
        assert_eq!(fe.window(), 8, "the pool's two four-deep queues");
        for id in 0..10u64 {
            let rec = if id % 2 == 0 {
                ParkedSession::new_wcdma(id, 1000 + id, id * 500)
            } else {
                ParkedSession::new_ofdm(id, 2000 + id, id * 500)
            };
            fe.admit(rec);
        }
        assert_eq!(fe.parked(), 10);
        let summary = fe.run(&mut no_followup());
        assert_eq!(summary.frames_completed, 10);
        assert_eq!(summary.done, 10);
        assert_eq!(summary.still_parked, 0);
        assert_eq!(summary.slack_cycles.len(), 10);
        assert!(summary.shed.is_empty());
        assert_eq!(summary.peak_parked, 10);
        assert!(summary.peak_resident >= 10);
        // One materialisation per frame: the window is credit the pool
        // can always honour, so nothing is refused or parked again.
        assert_eq!(summary.snapshot.rehydrations, 10);
        assert_eq!(summary.snapshot.jobs_rejected, 0);
        assert_eq!(summary.snapshot.sessions_completed, 10);
    }

    #[test]
    fn closed_loop_readmits_follow_up_frames() {
        let mut fe = Frontend::new(EngineConfig::default());
        for id in 0..4u64 {
            fe.admit(ParkedSession::new_wcdma(id, 7 + id, 0));
        }
        // Each terminal runs 3 frames total.
        let mut frames_left: HashMap<u64, u32> = (0..4).map(|id| (id, 2)).collect();
        let mut workload = |done: &Session, completed_at: u64| {
            let left = frames_left.get_mut(&done.id())?;
            if *left == 0 {
                return None;
            }
            *left -= 1;
            Some(ParkedSession::new_wcdma(
                done.id(),
                done.id() * 31 + *left as u64,
                completed_at,
            ))
        };
        let summary = fe.run(&mut workload);
        assert_eq!(summary.frames_completed, 12, "4 terminals x 3 frames");
        assert_eq!(summary.done, 12);
        assert_eq!(summary.snapshot.sessions_started, 12);
    }

    #[test]
    fn two_frames_sharing_an_id_both_complete() {
        let mut fe = Frontend::new(EngineConfig {
            shards: 1,
            arrays_per_shard: 1,
            ..EngineConfig::default()
        });
        fe.admit(ParkedSession::new_ofdm(7, 11, 0));
        fe.admit(ParkedSession::new_ofdm(7, 12, 100));
        // Bounded by wall clock, not by `run`: a lost hand-back must fail
        // this test, not hang the suite.
        let start = std::time::Instant::now();
        while fe.parked() + fe.materialised() > 0 && start.elapsed().as_secs() < 20 {
            fe.pump(&mut no_followup());
            std::thread::yield_now();
        }
        assert_eq!((fe.frames_completed, fe.done), (2, 2));
    }

    #[test]
    fn hopelessly_late_frames_are_shed_by_the_model() {
        // One virtual server, zero shed margin: the second simultaneous
        // arrival's modeled completion exceeds its deadline only if the
        // deadline is tighter than 2x service; W-CDMA periods are roomy,
        // so drive lateness with a crowd arriving at once.
        let mut fe = Frontend::new(EngineConfig {
            shards: 1,
            arrays_per_shard: 1,
            shed_lateness_cycles: 0,
            ..EngineConfig::default()
        });
        // All frames arrive at cycle 0; server capacity is one frame per
        // WCDMA_SERVICE_CYCLES. Deadline = 33_333, service = 9_000: the
        // 4th simultaneous frame completes at 36_000 > deadline -> shed.
        let n = 6u64;
        for id in 0..n {
            fe.admit(ParkedSession::new_wcdma(id, 42 + id, 0));
        }
        let summary = fe.run(&mut no_followup());
        assert_eq!(summary.offered(), n);
        assert!(
            !summary.shed.is_empty(),
            "overload at a single server must shed"
        );
        assert_eq!(summary.shed, vec![3, 4, 5], "EDF order sheds the tail");
        assert_eq!(summary.frames_completed, 3);
        assert!(summary.shed_rate() > 0.49 && summary.shed_rate() < 0.51);
        assert_eq!(summary.snapshot.sessions_shed, 3);
        // Slack deteriorates monotonically for a same-deadline burst.
        assert!(summary.slack_cycles.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn run_limited_leaves_the_rest_parked() {
        let mut fe = Frontend::new(EngineConfig {
            shards: 1,
            queue_depth: 2,
            ..EngineConfig::default()
        });
        assert_eq!(fe.window(), 2);
        for id in 0..50u64 {
            fe.admit(ParkedSession::new_ofdm(id, id, id * 100));
        }
        let summary = fe.run_limited(5, &mut no_followup());
        assert!(summary.frames_completed >= 5);
        assert!(summary.still_parked > 0);
        assert_eq!(
            summary.still_parked + summary.frames_completed,
            50,
            "early stop: every terminal is either done or still parked"
        );
        assert_eq!(summary.peak_parked, 50);
        assert_eq!(fe.materialised(), 0, "nothing is left half-stepped");
    }

    #[test]
    fn shutdown_returns_cleanly_with_live_tasks() {
        // Repeated: which sessions a worker has already handed back when
        // the pump returns is a race, and every outcome of it must add up.
        for _ in 0..32 {
            let mut fe = Frontend::new(EngineConfig::default());
            for id in 0..8u64 {
                fe.admit(ParkedSession::new_wcdma(id, id, 0));
            }
            // Materialise + submit some, then tear down mid-flight.
            fe.pump(&mut no_followup());
            let in_flight = fe.materialised();
            let leftover = fe.shutdown();
            // Exactly the sessions still inside the pool come back out;
            // parked ones are dropped with the front-end. No panic, no
            // deadlock.
            assert_eq!(leftover.len(), in_flight);
        }
    }
}
