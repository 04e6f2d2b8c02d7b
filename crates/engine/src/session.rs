//! Per-terminal session state machines.
//!
//! A [`Session`] is one simulated terminal working through its standard's
//! acquisition pipeline in deadline-scheduled steps. Each step is a
//! bounded unit of work a worker executes on its own array:
//!
//! * **W-CDMA** (paper §3.1): `Idle` (air capture) → `Searching` (path
//!   search on the DSP) → `Tracking` (descramble and despread on the
//!   array, combine and decide) → `Done`.
//! * **802.11a OFDM** (paper §3.2/Fig. 10): `Idle` → `PreambleDetect`
//!   (configuration 2a on the array) → `Demod` (2a unloaded, 2b loaded
//!   in its place, slicing on the array, Viterbi decode) → `Done`.
//!
//! Every array-mapped stage is cross-checked against its golden software
//! model; a divergence fails the session rather than silently returning
//! wrong bits, so cross-session state pollution on a shared array is
//! caught immediately.

use sdr_dsp::fft::Fft64Fixed;
use sdr_dsp::rng::Rng64;
use sdr_dsp::Cplx;
use sdr_ofdm as ofdm;
use sdr_wcdma as wcdma;
use xpp_array::{Result as XppResult, Word};

use crate::config_manager::KernelSpec;
use crate::metrics::{KernelKind, Metrics};
use crate::pool::WorkerArray;
use ofdm::xpp_map::OfdmKernel;
use wcdma::xpp_map::WcdmaKernel;

use ofdm::params::{data_subcarriers, rate, subcarrier_to_bin, RateParams, CP_LEN};
use ofdm::rx::OfdmReceiver;
use wcdma::rake::combiner::decide;
use wcdma::rake::estimator::{estimate_channel, quantize_weights};
use wcdma::rake::finger::{correct, descramble, despread};
use wcdma::rake::searcher::PathSearcher;
use wcdma::tx::{CellConfig, CellTransmitter};
use wcdma::ScramblingCode;

/// W-CDMA slot period in array cycles (666.7 µs at the paper's 50 MHz).
pub const WCDMA_PERIOD_CYCLES: u64 = 33_333;
/// Estimated array cycles per W-CDMA session step (admission control).
pub const WCDMA_JOB_CYCLES: u64 = 3_000;
/// OFDM frame-processing period in array cycles (400 µs at 50 MHz).
pub const OFDM_PERIOD_CYCLES: u64 = 20_000;
/// Estimated array cycles per OFDM session step (admission control).
pub const OFDM_JOB_CYCLES: u64 = 2_500;

/// Which standard a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Standard {
    /// W-CDMA rake terminal.
    Wcdma,
    /// 802.11a OFDM terminal.
    Ofdm,
}

/// The per-terminal state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionState {
    /// Nothing captured yet; the next step records the air interface.
    Idle,
    /// W-CDMA: multipath search ahead.
    Searching,
    /// OFDM: short-preamble correlation (configuration 2a) ahead.
    PreambleDetect,
    /// W-CDMA: finger demodulation on the array ahead.
    Tracking,
    /// OFDM: 2a→2b swap and demodulation ahead.
    Demod,
    /// Payload verified against the transmitted bits.
    Done,
    /// The pipeline failed; the reason is attached.
    Failed(String),
    /// Dropped by admission control under overload before completing.
    Shed,
    /// Gave up after repeated faults or crashes; the last reason is
    /// attached.
    DeadLettered(String),
}

impl SessionState {
    /// True once the session needs no further steps.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SessionState::Done
                | SessionState::Failed(_)
                | SessionState::Shed
                | SessionState::DeadLettered(_)
        )
    }
}

#[derive(Debug)]
enum Kind {
    Wcdma(WcdmaTerminal),
    Ofdm(OfdmTerminal),
}

/// One terminal session, schedulable on any worker of its shard.
#[derive(Debug)]
pub struct Session {
    id: u64,
    deadline: u64,
    period: u64,
    state: SessionState,
    kind: Kind,
    /// Set by the shard supervisor when a step panicked; consumed by the
    /// engine to decide retry vs dead-letter.
    crashed: bool,
    /// Dispatch attempts that ended in a crash so far.
    attempts: u32,
}

impl Session {
    /// Creates a W-CDMA terminal session.
    pub fn wcdma(id: u64, seed: u64) -> Self {
        Session {
            id,
            deadline: WCDMA_PERIOD_CYCLES + id,
            period: WCDMA_PERIOD_CYCLES,
            state: SessionState::Idle,
            kind: Kind::Wcdma(WcdmaTerminal::new(seed)),
            crashed: false,
            attempts: 0,
        }
    }

    /// Creates an 802.11a OFDM terminal session.
    pub fn ofdm(id: u64, seed: u64) -> Self {
        Session {
            id,
            deadline: OFDM_PERIOD_CYCLES + id,
            period: OFDM_PERIOD_CYCLES,
            state: SessionState::Idle,
            kind: Kind::Ofdm(OfdmTerminal::new(seed)),
            crashed: false,
            attempts: 0,
        }
    }

    /// The session id (also its shard-affinity key).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The standard this terminal runs.
    pub fn standard(&self) -> Standard {
        match self.kind {
            Kind::Wcdma(_) => Standard::Wcdma,
            Kind::Ofdm(_) => Standard::Ofdm,
        }
    }

    /// Current state.
    pub fn state(&self) -> &SessionState {
        &self.state
    }

    /// True once no further steps are needed.
    pub fn is_terminal(&self) -> bool {
        self.state.is_terminal()
    }

    /// Deadline (in array cycles) of the session's next step — the
    /// worker-heap EDF key.
    pub fn deadline(&self) -> u64 {
        self.deadline
    }

    /// The array kernel the session's *next* step will activate — the
    /// batching dispatcher's grouping key. `None` for steps that never
    /// touch the array (capture, DSP-side path search) and for terminal
    /// sessions; those steps can run on any gang member without costing
    /// configuration-bus traffic.
    pub fn next_kernel(&self) -> Option<KernelSpec> {
        match (&self.kind, &self.state) {
            (Kind::Wcdma(_), SessionState::Tracking) => {
                Some(KernelSpec::Wcdma(WcdmaKernel::Descrambler))
            }
            (Kind::Ofdm(_), SessionState::PreambleDetect) => {
                Some(KernelSpec::Ofdm(OfdmKernel::PreambleDetector))
            }
            (Kind::Ofdm(_), SessionState::Demod) => Some(KernelSpec::Ofdm(OfdmKernel::Demodulator)),
            _ => None,
        }
    }

    /// The session as an admission-control job for
    /// [`sdr_core::scheduler::schedule_edf`].
    pub fn scheduler_job(&self) -> sdr_core::scheduler::Job {
        let (name, cycles) = match self.standard() {
            Standard::Wcdma => (format!("wcdma-{}", self.id), WCDMA_JOB_CYCLES),
            Standard::Ofdm => (format!("ofdm-{}", self.id), OFDM_JOB_CYCLES),
        };
        sdr_core::scheduler::Job::new(name, cycles, self.period)
    }

    /// Runs one step of the state machine on a worker's array. Terminal
    /// states are recorded in the worker's metrics; stepping a terminal
    /// session is a no-op.
    ///
    /// Fault-class array errors ([`xpp_array::Error::is_fault`]) reaching
    /// this level mean the worker's retry budget is already spent, so the
    /// session is dead-lettered rather than failed: the payload was never
    /// wrong, the platform just could not keep a configuration alive.
    pub fn step(&mut self, worker: &mut WorkerArray) {
        if self.state.is_terminal() {
            return;
        }
        let outcome = match &mut self.kind {
            Kind::Wcdma(t) => t.step(&self.state, worker),
            Kind::Ofdm(t) => t.step(&self.state, worker),
        };
        self.deadline += self.period;
        self.state = match outcome {
            Ok(next) => next,
            Err(e) if e.is_fault() => SessionState::DeadLettered(format!("array fault: {e}")),
            Err(e) => SessionState::Failed(format!("array error: {e}")),
        };
        match &self.state {
            SessionState::Done => Metrics::incr(&worker.metrics().sessions_completed),
            SessionState::Failed(_) => Metrics::incr(&worker.metrics().sessions_failed),
            SessionState::DeadLettered(_) => Metrics::incr(&worker.metrics().dead_letters),
            _ => {}
        }
    }

    /// Marks the session as having crashed its worker (set by the shard
    /// supervisor after catching a panic mid-step).
    pub(crate) fn record_crash(&mut self) {
        self.crashed = true;
        self.attempts += 1;
    }

    /// Consumes the crash flag set by the supervisor. Drivers of a raw
    /// [`ShardPool`](crate::pool::ShardPool) (the engine, the async
    /// front-end, external closed loops) check this on every handed-back
    /// session to decide between re-dispatch and
    /// [`mark_dead_lettered`](Session::mark_dead_lettered).
    pub fn take_crashed(&mut self) -> bool {
        std::mem::take(&mut self.crashed)
    }

    /// Dispatch attempts that ended in a worker crash.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Terminates the session as shed by admission control.
    pub(crate) fn mark_shed(&mut self) {
        self.state = SessionState::Shed;
    }

    /// Terminates the session as dead-lettered with a reason — the give-up
    /// end of the crash-supervision loop (see
    /// [`take_crashed`](Session::take_crashed)).
    pub fn mark_dead_lettered(&mut self, reason: impl Into<String>) {
        self.state = SessionState::DeadLettered(reason.into());
    }

    // -- park / resume split ------------------------------------------------

    /// Shrinks the session to its compact parked form: the kernel-spec
    /// phase, the deadline, and the handful of DSP state words needed to
    /// resume — no sample buffers. Every capture in this engine is a pure
    /// function of the session seed, so a parked session can drop its
    /// received samples entirely and [`rehydrate`](Session::rehydrate)
    /// replays them bit-identically; only the DSP decisions that the
    /// pipeline has already *made* (the found path delay, the coarse
    /// preamble timing) are carried across the park, so no array kernel
    /// ever re-runs.
    ///
    /// Returns `None` for terminal sessions — they have nothing left to
    /// resume into.
    pub fn park(&self) -> Option<ParkedSession> {
        let phase = match (&self.kind, &self.state) {
            (Kind::Wcdma(_), SessionState::Idle) => ParkedPhase::WcdmaStart,
            (Kind::Wcdma(_), SessionState::Searching) => ParkedPhase::WcdmaSearch,
            (Kind::Wcdma(t), SessionState::Tracking) => ParkedPhase::WcdmaTrack {
                delay: t.found_delay as u16,
            },
            (Kind::Ofdm(_), SessionState::Idle) => ParkedPhase::OfdmStart,
            (Kind::Ofdm(_), SessionState::PreambleDetect) => ParkedPhase::OfdmDetect,
            (Kind::Ofdm(t), SessionState::Demod) => ParkedPhase::OfdmDemod {
                coarse: t.coarse as u32,
            },
            _ => return None,
        };
        Some(ParkedSession {
            id: self.id,
            seed: match &self.kind {
                Kind::Wcdma(t) => t.seed,
                Kind::Ofdm(t) => t.seed,
            },
            deadline: self.deadline,
            phase,
            backoff: 0,
            attempts: self.attempts.min(u8::MAX as u32) as u8,
        })
    }

    /// Rebuilds a full session from its parked record. The capture is
    /// replayed from the seed (deterministic), the recorded DSP state
    /// words are restored, and the state machine resumes exactly where it
    /// parked — per-session kernel outcomes are bit-identical to a
    /// never-parked run.
    pub fn rehydrate(parked: &ParkedSession) -> Session {
        let mut s = match parked.phase {
            ParkedPhase::WcdmaStart | ParkedPhase::WcdmaSearch | ParkedPhase::WcdmaTrack { .. } => {
                Session::wcdma(parked.id, parked.seed)
            }
            ParkedPhase::OfdmStart | ParkedPhase::OfdmDetect | ParkedPhase::OfdmDemod { .. } => {
                Session::ofdm(parked.id, parked.seed)
            }
        };
        s.deadline = parked.deadline;
        s.attempts = parked.attempts as u32;
        match (parked.phase, &mut s.kind) {
            (ParkedPhase::WcdmaStart, _) | (ParkedPhase::OfdmStart, _) => {}
            (ParkedPhase::WcdmaSearch, Kind::Wcdma(t)) => {
                s.state = t.capture(); // -> Searching
            }
            (ParkedPhase::WcdmaTrack { delay }, Kind::Wcdma(t)) => {
                let _ = t.capture();
                t.found_delay = delay as usize;
                s.state = SessionState::Tracking;
            }
            (ParkedPhase::OfdmDetect, Kind::Ofdm(t)) => {
                s.state = t.capture(); // -> PreambleDetect
            }
            (ParkedPhase::OfdmDemod { coarse }, Kind::Ofdm(t)) => {
                let _ = t.capture();
                t.coarse = coarse as usize;
                s.state = SessionState::Demod;
            }
            // The constructor above always matches the phase's standard.
            _ => unreachable!("parked phase and rebuilt session standard always agree"),
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Parked sessions
// ---------------------------------------------------------------------------

/// Which pipeline stage a parked session resumes into, plus the DSP state
/// words that stage needs. Kept payload-minimal so [`ParkedSession`] stays
/// a few dozen bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParkedPhase {
    /// W-CDMA terminal that has not captured its slot yet.
    WcdmaStart,
    /// W-CDMA terminal with a captured slot, path search ahead.
    WcdmaSearch,
    /// W-CDMA terminal tracking: the found path delay is the only DSP
    /// state the finger needs.
    WcdmaTrack { delay: u16 },
    /// OFDM terminal that has not captured its frame yet.
    OfdmStart,
    /// OFDM terminal with a captured frame, preamble detection ahead.
    OfdmDetect,
    /// OFDM terminal past detection: the coarse preamble timing is the
    /// only DSP state demodulation needs.
    OfdmDemod { coarse: u32 },
}

/// The compact parked form of a waiting terminal: what the front-end's
/// parking lot stores instead of a full sample-buffer-bearing
/// [`Session`]. A few dozen bytes — id, seed, deadline, phase (with its
/// DSP state words) and backoff/attempt counters — so millions of
/// terminals can be resident while only the materialised few own sample
/// buffers. See [`Session::park`] / [`Session::rehydrate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkedSession {
    id: u64,
    seed: u64,
    /// Deadline (array cycles) of the step the session resumes into; the
    /// parking lot's wake key. The frame/slot arrival is one period
    /// earlier ([`ParkedSession::arrival`]).
    deadline: u64,
    phase: ParkedPhase,
    /// Times the session bounced off a full shard queue and was re-parked
    /// (backpressure deferrals).
    backoff: u8,
    /// Crash re-dispatch attempts carried across the park.
    attempts: u8,
}

impl ParkedSession {
    /// Parks a not-yet-started W-CDMA terminal directly — no [`Session`]
    /// (and no heap) is ever built for it until rehydration.
    pub fn new_wcdma(id: u64, seed: u64, arrival: u64) -> Self {
        ParkedSession {
            id,
            seed,
            deadline: arrival + WCDMA_PERIOD_CYCLES,
            phase: ParkedPhase::WcdmaStart,
            backoff: 0,
            attempts: 0,
        }
    }

    /// Parks a not-yet-started OFDM terminal directly (heap-free).
    pub fn new_ofdm(id: u64, seed: u64, arrival: u64) -> Self {
        ParkedSession {
            id,
            seed,
            deadline: arrival + OFDM_PERIOD_CYCLES,
            phase: ParkedPhase::OfdmStart,
            backoff: 0,
            attempts: 0,
        }
    }

    /// The terminal id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session seed (capture replay key).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The standard the parked terminal runs.
    pub fn standard(&self) -> Standard {
        match self.phase {
            ParkedPhase::WcdmaStart | ParkedPhase::WcdmaSearch | ParkedPhase::WcdmaTrack { .. } => {
                Standard::Wcdma
            }
            _ => Standard::Ofdm,
        }
    }

    /// Deadline (array cycles) of the step the session resumes into.
    pub fn deadline(&self) -> u64 {
        self.deadline
    }

    /// The frame/slot arrival that makes this session runnable — one
    /// processing period before the deadline.
    pub fn arrival(&self) -> u64 {
        self.deadline.saturating_sub(self.period())
    }

    /// The session's processing period in array cycles.
    pub fn period(&self) -> u64 {
        match self.standard() {
            Standard::Wcdma => WCDMA_PERIOD_CYCLES,
            Standard::Ofdm => OFDM_PERIOD_CYCLES,
        }
    }

    /// True when the record is a fresh, never-materialised terminal (no
    /// pipeline progress, no backpressure bounces) — the only kind the
    /// front-end's admission model charges for.
    pub fn is_fresh(&self) -> bool {
        self.backoff == 0 && matches!(self.phase, ParkedPhase::WcdmaStart | ParkedPhase::OfdmStart)
    }

    /// Backpressure deferrals so far.
    pub fn backoff(&self) -> u8 {
        self.backoff
    }

    /// Defers the wake deadline by `cycles` and records one backpressure
    /// bounce — called instead of blocking a submitter thread when the
    /// shard queue is full.
    pub fn defer(&mut self, cycles: u64) {
        self.deadline = self.deadline.saturating_add(cycles);
        self.backoff = self.backoff.saturating_add(1);
    }
}

// ---------------------------------------------------------------------------
// W-CDMA terminal
// ---------------------------------------------------------------------------

/// Every state past `Idle` is entered through `capture()`, directly or by
/// rehydration, so a step that finds no code is a state-machine bug.
const NO_CAPTURE: &str = "wcdma session stepped past Idle without a capture";

#[derive(Debug)]
struct WcdmaTerminal {
    seed: u64,
    cell: CellConfig,
    bits: Vec<u8>,
    true_delay: usize,
    rx: Vec<Cplx<i32>>,
    /// The cell's scrambling code, generated with the capture it belongs
    /// to: a fresh terminal (and a fresh parked record's rehydration) holds
    /// neither.
    code: Option<ScramblingCode>,
    found_delay: usize,
}

impl WcdmaTerminal {
    fn new(seed: u64) -> Self {
        let mut rng = Rng64::seed_from_u64(seed);
        let bits: Vec<u8> = (0..32).map(|_| (rng.next_u32() & 1) as u8).collect();
        WcdmaTerminal {
            seed,
            cell: CellConfig::default(),
            bits,
            true_delay: 4 + (seed % 8) as usize,
            rx: Vec::new(),
            code: None,
            found_delay: 0,
        }
    }

    fn step(&mut self, state: &SessionState, worker: &mut WorkerArray) -> XppResult<SessionState> {
        match state {
            SessionState::Idle => Ok(self.capture()),
            SessionState::Searching => Ok(self.search()),
            SessionState::Tracking => self.demodulate(worker),
            other => Ok(SessionState::Failed(format!(
                "wcdma session cannot step from {other:?}"
            ))),
        }
    }

    /// Simulates the air interface: transmit, propagate over a single-path
    /// channel with light noise, digitize.
    fn capture(&mut self) -> SessionState {
        use wcdma::channel::{propagate, AdcConfig, CellLink, Path};
        let mut tx = CellTransmitter::new(self.cell);
        let signal = tx.transmit(&self.bits);
        let link = CellLink::new(vec![Path::new(self.true_delay, Cplx::new(0.8, 0.2))]);
        self.rx = propagate(
            &[(signal, link)],
            0.02,
            self.seed ^ 0x5EED,
            AdcConfig::default(),
        );
        self.code = Some(tx.scrambling_code().clone());
        SessionState::Searching
    }

    /// CPICH path search (DSP-side in the paper's partitioning).
    fn search(&mut self) -> SessionState {
        let Some(code) = &self.code else {
            return SessionState::Failed(NO_CAPTURE.into());
        };
        let hits = PathSearcher::default().search(&self.rx, code);
        match hits.first() {
            Some(hit) if hit.delay == self.true_delay => {
                self.found_delay = hit.delay;
                SessionState::Tracking
            }
            Some(hit) => SessionState::Failed(format!(
                "path search found delay {} instead of {}",
                hit.delay, self.true_delay
            )),
            None => SessionState::Failed("path search found no paths".into()),
        }
    }

    /// One finger on the array: descramble (Fig. 5) and despread (Fig. 6)
    /// on cached configurations, then estimate/correct/decide on the DSP.
    fn demodulate(&mut self, worker: &mut WorkerArray) -> XppResult<SessionState> {
        let Some(code) = &self.code else {
            return Ok(SessionState::Failed(NO_CAPTURE.into()));
        };
        let delay = self.found_delay;
        let sf = self.cell.dpch.sf;
        let n = ((self.rx.len() - delay) / sf) * sf;

        let descrambled = run_descrambler(worker, &self.rx, code, delay, n)?;
        if descrambled != descramble(&self.rx, code, delay, 0, n) {
            return Ok(SessionState::Failed(
                "array descrambler diverged from golden".into(),
            ));
        }
        let symbols = run_despreader(worker, &descrambled, sf, self.cell.dpch.code_index)?;
        if symbols != despread(&descrambled, sf, self.cell.dpch.code_index) {
            return Ok(SessionState::Failed(
                "array despreader diverged from golden".into(),
            ));
        }

        let h = estimate_channel(&self.rx, code, delay, 8);
        let w = quantize_weights(&[h])[0];
        let corrected = correct(&symbols, w);
        let soft: Vec<Cplx<i64>> = corrected.iter().map(|s| s.widen()).collect();
        let decided = decide(&soft);
        if decided.len() >= self.bits.len() && decided[..self.bits.len()] == self.bits[..] {
            Ok(SessionState::Done)
        } else {
            Ok(SessionState::Failed(
                "decided bits differ from transmitted".into(),
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// OFDM terminal
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct OfdmTerminal {
    bits: Vec<u8>,
    rate: RateParams,
    leading_gap: usize,
    seed: u64,
    rx: Vec<Cplx<i32>>,
    coarse: usize,
}

impl OfdmTerminal {
    fn new(seed: u64) -> Self {
        let mut rng = Rng64::seed_from_u64(seed ^ 0x0FD3);
        let bits: Vec<u8> = (0..96).map(|_| (rng.next_u32() & 1) as u8).collect();
        let Some(rate_12) = rate(12) else {
            unreachable!("12 Mb/s is a standard 802.11a rate")
        };
        OfdmTerminal {
            bits,
            rate: rate_12,
            leading_gap: 64 + (seed % 48) as usize,
            seed,
            rx: Vec::new(),
            coarse: 0,
        }
    }

    fn step(&mut self, state: &SessionState, worker: &mut WorkerArray) -> XppResult<SessionState> {
        match state {
            SessionState::Idle => Ok(self.capture()),
            SessionState::PreambleDetect => self.detect(worker),
            SessionState::Demod => self.demodulate(worker),
            other => Ok(SessionState::Failed(format!(
                "ofdm session cannot step from {other:?}"
            ))),
        }
    }

    fn capture(&mut self) -> SessionState {
        use ofdm::channel::WlanChannel;
        let frame = ofdm::tx::Transmitter::new(self.rate).transmit(&self.bits);
        let channel = WlanChannel {
            leading_gap: self.leading_gap,
            seed: self.seed,
            ..WlanChannel::default()
        };
        self.rx = channel.run(&frame.samples);
        SessionState::PreambleDetect
    }

    /// Configuration 2a on the worker's array; the streamed metric must be
    /// bit-exact with the golden autocorrelation.
    fn detect(&mut self, worker: &mut WorkerArray) -> XppResult<SessionState> {
        let metric = run_preamble_detector(worker, &self.rx)?;
        if metric != ofdm::rx::autocorr_metric(&self.rx) {
            return Ok(SessionState::Failed(
                "array preamble metric diverged from golden".into(),
            ));
        }
        match OfdmReceiver::new(self.rate).detect(&self.rx) {
            Some(coarse) => {
                self.coarse = coarse;
                Ok(SessionState::Demod)
            }
            None => Ok(SessionState::Failed("no preamble plateau found".into())),
        }
    }

    /// The Fig. 10 swap (2a out, 2b in), slicing of the first data symbol
    /// through 2b, and full golden decode of the payload.
    fn demodulate(&mut self, worker: &mut WorkerArray) -> XppResult<SessionState> {
        // The Fig. 10 swap counts the reconfiguration; the slicing below
        // re-activates 2b through the watchdog wrapper (tier-1 free when
        // the swap just loaded it).
        worker.swap(OfdmKernel::PreambleDetector, OfdmKernel::Demodulator)?;

        let sync = OfdmReceiver::new(self.rate);
        let Some(long_start) = sync.fine_timing(&self.rx, self.coarse) else {
            return Ok(SessionState::Failed("fine timing failed".into()));
        };
        let at = long_start + 2 * 64 + CP_LEN;
        if at + 64 > self.rx.len() {
            return Ok(SessionState::Failed(
                "frame truncated before first data symbol".into(),
            ));
        }
        let mut window = [Cplx::<i32>::ZERO; 64];
        window.copy_from_slice(&self.rx[at..at + 64]);
        let spectrum = Fft64Fixed::with_stage_shift(1).run(&window);
        let carriers: Vec<Cplx<i32>> = data_subcarriers()
            .iter()
            .map(|&k| spectrum[subcarrier_to_bin(k)])
            .collect();
        let weights = vec![Cplx::new(512, 0); carriers.len()];
        let slices = run_demodulator(worker, &carriers, &weights)?;
        for (k, (b0, b1)) in slices.iter().enumerate() {
            if *b0 != (carriers[k].re < 0) as u8 || *b1 != (carriers[k].im < 0) as u8 {
                return Ok(SessionState::Failed(format!(
                    "2b slicer diverged from spectrum sign at carrier {k}"
                )));
            }
        }

        match sync.receive(&self.rx, self.bits.len()) {
            Ok(out) if out.bits == self.bits => Ok(SessionState::Done),
            Ok(_) => Ok(SessionState::Failed(
                "decoded payload differs from transmitted".into(),
            )),
            Err(e) => Ok(SessionState::Failed(format!("receiver error: {e}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Array drive helpers (cached-configuration counterparts of the
// one-array-per-kernel wrappers in `sdr_wcdma::xpp_map` / `sdr_ofdm::xpp_map`)
// ---------------------------------------------------------------------------

fn split_iq(samples: &[Cplx<i32>]) -> (Vec<Word>, Vec<Word>) {
    let i = samples.iter().map(|c| Word::new(c.re)).collect();
    let q = samples.iter().map(|c| Word::new(c.im)).collect();
    (i, q)
}

fn zip_iq(i: &[Word], q: &[Word]) -> Vec<Cplx<i32>> {
    i.iter()
        .zip(q)
        .map(|(a, b)| Cplx::new(a.value(), b.value()))
        .collect()
}

fn run_descrambler(
    worker: &mut WorkerArray,
    rx: &[Cplx<i32>],
    code: &ScramblingCode,
    delay: usize,
    n: usize,
) -> XppResult<Vec<Cplx<i32>>> {
    // run_kernel replays the whole body on a watchdog retry, which is safe
    // here: inputs are re-pushed from the captured slices and the reloaded
    // configuration starts from clean token state.
    worker.run_kernel(WcdmaKernel::Descrambler, |worker, cfg| {
        let before = worker.array().stats().cycles;
        let fires_before = worker.array().config_fire_count(cfg);
        let (i, q) = split_iq(&rx[delay..delay + n]);
        let bits: Vec<(u8, u8)> = (0..n).map(|k| code.chip_bits(k)).collect();
        let array = worker.array_mut();
        array.push_input(cfg, "i_in", i)?;
        array.push_input(cfg, "q_in", q)?;
        array.push_input(cfg, "ci", bits.iter().map(|b| Word::new(b.0 as i32)))?;
        array.push_input(cfg, "cq", bits.iter().map(|b| Word::new(b.1 as i32)))?;
        array.run_until_output(cfg, "i_out", n, 16 * n as u64 + 1_000)?;
        array.run_until_idle(1_000)?;
        let i_out = array.drain_output(cfg, "i_out")?;
        let q_out = array.drain_output(cfg, "q_out")?;
        let cycles = worker.array().stats().cycles - before;
        let fires = worker.array().config_fire_count(cfg) - fires_before;
        worker
            .metrics()
            .record_kernel(KernelKind::Descrambler, cycles, fires);
        Ok(zip_iq(&i_out, &q_out))
    })
}

fn run_despreader(
    worker: &mut WorkerArray,
    chips: &[Cplx<i32>],
    sf: usize,
    code_index: usize,
) -> XppResult<Vec<Cplx<i32>>> {
    // The kernel spec carries the spreading factor and OVSF code index —
    // every parameter that shapes the netlist — so sessions with the same
    // cell parameters share one stored compile.
    worker.run_kernel(WcdmaKernel::Despreader { sf, code_index }, |worker, cfg| {
        let before = worker.array().stats().cycles;
        let fires_before = worker.array().config_fire_count(cfg);
        let n_sym = chips.len() / sf;
        let (i, q) = split_iq(&chips[..n_sym * sf]);
        let array = worker.array_mut();
        array.push_input(cfg, "i_in", i)?;
        array.push_input(cfg, "q_in", q)?;
        array.run_until_output(cfg, "i_out", n_sym, 16 * chips.len() as u64 + 2_000)?;
        array.run_until_idle(2_000)?;
        let i_out = array.drain_output(cfg, "i_out")?;
        let q_out = array.drain_output(cfg, "q_out")?;
        let cycles = worker.array().stats().cycles - before;
        let fires = worker.array().config_fire_count(cfg) - fires_before;
        worker
            .metrics()
            .record_kernel(KernelKind::Despreader, cycles, fires);
        Ok(zip_iq(&i_out, &q_out))
    })
}

fn run_preamble_detector(worker: &mut WorkerArray, rx: &[Cplx<i32>]) -> XppResult<Vec<i32>> {
    use ofdm::rx::{AUTOCORR_LAG, AUTOCORR_WINDOW};
    worker.run_kernel(OfdmKernel::PreambleDetector, |worker, cfg| {
        // Fig. 10: a successful search is followed by the 2a→2b swap, so
        // start streaming the demodulator over the configuration bus *now*
        // — the load overlaps the preamble search below, and the swap pays
        // only activation. A watchdog retry re-issues this as a no-op.
        worker.prefetch(OfdmKernel::Demodulator)?;
        let before = worker.array().stats().cycles;
        let fires_before = worker.array().config_fire_count(cfg);
        // A resident detector keeps the previous terminal's tail in its
        // delay lines and running sum. Streaming lag+window zero samples
        // (idle air) drains that history exactly — the window sum of 32
        // zero products is zero — so every session sees the golden
        // zero-history metric.
        let flush = AUTOCORR_LAG + AUTOCORR_WINDOW;
        let n = rx.len();
        let (i, q) = split_iq(rx);
        let array = worker.array_mut();
        array.push_input(cfg, "i_in", std::iter::repeat_n(Word::ZERO, flush).chain(i))?;
        array.push_input(cfg, "q_in", std::iter::repeat_n(Word::ZERO, flush).chain(q))?;
        let expect = flush + n;
        array.run_until_output(cfg, "metric", expect, 20 * expect as u64 + 5_000)?;
        array.run_until_idle(5_000)?;
        let metric = array.drain_output(cfg, "metric")?;
        let cycles = worker.array().stats().cycles - before;
        let fires = worker.array().config_fire_count(cfg) - fires_before;
        worker
            .metrics()
            .record_kernel(KernelKind::PreambleDetector, cycles, fires);
        Ok(metric.iter().skip(flush).map(|w| w.value()).collect())
    })
}

fn run_demodulator(
    worker: &mut WorkerArray,
    carriers: &[Cplx<i32>],
    weights: &[Cplx<i32>],
) -> XppResult<Vec<(u8, u8)>> {
    assert_eq!(carriers.len(), weights.len(), "one weight per carrier");
    worker.run_kernel(OfdmKernel::Demodulator, |worker, cfg| {
        let before = worker.array().stats().cycles;
        let fires_before = worker.array().config_fire_count(cfg);
        let n = carriers.len();
        let (i, q) = split_iq(carriers);
        let (wi, wq) = split_iq(weights);
        let array = worker.array_mut();
        array.push_input(cfg, "i_in", i)?;
        array.push_input(cfg, "q_in", q)?;
        array.push_input(cfg, "wi", wi)?;
        array.push_input(cfg, "wq", wq)?;
        array.run_until_output(cfg, "b0", n, 20 * n as u64 + 5_000)?;
        array.run_until_idle(5_000)?;
        let b0 = array.drain_output(cfg, "b0")?;
        let b1 = array.drain_output(cfg, "b1")?;
        let cycles = worker.array().stats().cycles - before;
        let fires = worker.array().config_fire_count(cfg) - fires_before;
        worker
            .metrics()
            .record_kernel(KernelKind::Demodulator, cycles, fires);
        Ok(b0
            .iter()
            .zip(&b1)
            .map(|(a, b)| (a.value() as u8, b.value() as u8))
            .collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use std::sync::Arc;

    fn drive_to_terminal(session: &mut Session, worker: &mut WorkerArray) {
        for _ in 0..8 {
            if session.is_terminal() {
                return;
            }
            session.step(worker);
        }
        panic!(
            "session did not terminate within 8 steps: {:?}",
            session.state()
        );
    }

    #[test]
    fn wcdma_session_walks_to_done() {
        let metrics = Arc::new(Metrics::new());
        let mut worker = WorkerArray::new(8, Arc::clone(&metrics));
        let mut s = Session::wcdma(0, 42);
        assert_eq!(*s.state(), SessionState::Idle);
        s.step(&mut worker);
        assert_eq!(*s.state(), SessionState::Searching);
        s.step(&mut worker);
        assert_eq!(*s.state(), SessionState::Tracking);
        s.step(&mut worker);
        assert_eq!(*s.state(), SessionState::Done);
        let snap = metrics.snapshot();
        assert_eq!(snap.sessions_completed, 1);
        assert!(snap.kernel_jobs[KernelKind::Descrambler.index()] == 1);
        assert!(snap.kernel_cycles[KernelKind::Despreader.index()] > 0);
    }

    #[test]
    fn ofdm_session_walks_to_done_with_a_swap() {
        let metrics = Arc::new(Metrics::new());
        let mut worker = WorkerArray::new(8, Arc::clone(&metrics));
        let mut s = Session::ofdm(1, 7);
        drive_to_terminal(&mut s, &mut worker);
        assert_eq!(*s.state(), SessionState::Done, "session failed");
        let snap = metrics.snapshot();
        assert_eq!(snap.reconfigurations, 1, "the 2a→2b swap happened");
        assert!(snap.kernel_jobs[KernelKind::PreambleDetector.index()] == 1);
        assert!(snap.kernel_jobs[KernelKind::Demodulator.index()] == 1);
    }

    #[test]
    fn next_kernel_tracks_the_state_machine() {
        let metrics = Arc::new(Metrics::new());
        let mut worker = WorkerArray::new(8, metrics);
        let mut s = Session::ofdm(2, 7);
        assert_eq!(s.next_kernel(), None, "capture needs no array");
        s.step(&mut worker);
        assert_eq!(
            s.next_kernel(),
            Some(KernelSpec::Ofdm(OfdmKernel::PreambleDetector))
        );
        s.step(&mut worker);
        assert_eq!(
            s.next_kernel(),
            Some(KernelSpec::Ofdm(OfdmKernel::Demodulator))
        );
        s.step(&mut worker);
        assert_eq!(s.next_kernel(), None, "terminal sessions have no kernel");

        let mut w = Session::wcdma(3, 42);
        w.step(&mut worker); // capture
        assert_eq!(w.next_kernel(), None, "path search is DSP-side");
        w.step(&mut worker); // search
        assert_eq!(
            w.next_kernel(),
            Some(KernelSpec::Wcdma(WcdmaKernel::Descrambler))
        );
    }

    #[test]
    fn deadlines_advance_by_the_period() {
        let metrics = Arc::new(Metrics::new());
        let mut worker = WorkerArray::new(8, metrics);
        let mut s = Session::wcdma(3, 1);
        let d0 = s.deadline();
        s.step(&mut worker);
        assert_eq!(s.deadline(), d0 + WCDMA_PERIOD_CYCLES);
    }

    /// Park/rehydrate at *every* pipeline stage must not change the
    /// terminal outcome or the per-kernel job counts — the front-end's
    /// core invariant (parking drops sample buffers; rehydration replays
    /// them bit-identically from the seed).
    #[test]
    fn park_rehydrate_roundtrip_preserves_outcomes() {
        type Maker = fn(u64, u64) -> Session;
        let makers: [(Maker, usize); 2] = [(Session::wcdma, 3), (Session::ofdm, 3)];
        for (make, steps) in makers {
            let metrics = Arc::new(Metrics::new());
            let mut worker = WorkerArray::new(8, Arc::clone(&metrics));
            // Reference: never parked.
            let mut reference = make(9, 1234);
            drive_to_terminal(&mut reference, &mut worker);
            assert_eq!(*reference.state(), SessionState::Done);
            let ref_snap = metrics.snapshot();

            // Same terminal, parked and rehydrated between every step.
            let metrics = Arc::new(Metrics::new());
            let mut worker = WorkerArray::new(8, Arc::clone(&metrics));
            let mut s = make(9, 1234);
            for _ in 0..steps {
                let parked = s.park().expect("non-terminal sessions park");
                assert_eq!(parked.id(), 9);
                s = Session::rehydrate(&parked);
                s.step(&mut worker);
            }
            assert_eq!(*s.state(), SessionState::Done, "parked run diverged");
            let snap = metrics.snapshot();
            assert_eq!(
                snap.kernel_jobs, ref_snap.kernel_jobs,
                "rehydration must not re-run or skip any array kernel"
            );
        }
    }

    #[test]
    fn parked_record_is_compact_and_terminal_sessions_do_not_park() {
        // The pinned footprint budget: a parked session is a few dozen
        // bytes, never a sample buffer. Bumping this requires a
        // corresponding BENCH_SCALE.json / DESIGN.md §13 update.
        assert!(
            std::mem::size_of::<ParkedSession>() <= 48,
            "ParkedSession grew past the 48-byte budget: {} bytes",
            std::mem::size_of::<ParkedSession>()
        );
        let metrics = Arc::new(Metrics::new());
        let mut worker = WorkerArray::new(8, metrics);
        let mut s = Session::ofdm(1, 7);
        drive_to_terminal(&mut s, &mut worker);
        assert!(s.park().is_none(), "terminal sessions have nothing to park");
    }

    #[test]
    fn fresh_parked_records_defer_and_track_backoff() {
        let mut p = ParkedSession::new_wcdma(3, 42, 1_000);
        assert_eq!(p.arrival(), 1_000);
        assert_eq!(p.deadline(), 1_000 + WCDMA_PERIOD_CYCLES);
        assert_eq!(p.standard(), Standard::Wcdma);
        assert!(p.is_fresh());
        p.defer(500);
        assert_eq!(p.backoff(), 1);
        assert!(!p.is_fresh(), "a bounced record is no longer model-fresh");
        assert_eq!(p.deadline(), 1_000 + WCDMA_PERIOD_CYCLES + 500);

        // Rehydrating a fresh record yields a session at Idle with the
        // parked deadline.
        let s = Session::rehydrate(&p);
        assert_eq!(*s.state(), SessionState::Idle);
        assert_eq!(s.deadline(), p.deadline());
        assert_eq!(s.id(), 3);

        let o = ParkedSession::new_ofdm(4, 7, 0);
        assert_eq!(o.standard(), Standard::Ofdm);
        assert_eq!(o.period(), OFDM_PERIOD_CYCLES);
        assert_eq!(o.seed(), 7);
    }

    #[test]
    fn mid_pipeline_park_carries_dsp_state_words() {
        let metrics = Arc::new(Metrics::new());
        let mut worker = WorkerArray::new(8, metrics);
        let mut s = Session::wcdma(5, 42);
        s.step(&mut worker); // Idle -> Searching
        s.step(&mut worker); // Searching -> Tracking (found_delay set)
        let parked = s.park().expect("tracking sessions park");
        assert!(!parked.is_fresh(), "mid-pipeline records are not fresh");
        let mut back = Session::rehydrate(&parked);
        assert_eq!(*back.state(), SessionState::Tracking);
        back.step(&mut worker);
        assert_eq!(*back.state(), SessionState::Done, "delay word survived");
    }

    #[test]
    fn stepping_a_terminal_session_is_a_noop() {
        let metrics = Arc::new(Metrics::new());
        let mut worker = WorkerArray::new(8, Arc::clone(&metrics));
        let mut s = Session::ofdm(1, 7);
        drive_to_terminal(&mut s, &mut worker);
        let jobs = metrics.snapshot().jobs_run; // pool-level counter: unchanged here
        s.step(&mut worker);
        assert_eq!(*s.state(), SessionState::Done);
        assert_eq!(metrics.snapshot().jobs_run, jobs);
        assert_eq!(metrics.snapshot().sessions_completed, 1, "not recounted");
    }
}
