//! Per-terminal session state machines.
//!
//! A [`Session`] is one simulated terminal working through its standard's
//! acquisition pipeline in deadline-scheduled steps. Each step is a
//! bounded unit of work a worker executes on its own array, and a terminal
//! *is* the list of its steps — a static stage table, one row per step:
//!
//! * **W-CDMA** (paper §3.1): `Idle` (air capture) → `Searching` (path
//!   search on the DSP) → `Tracking` (one rake finger on the array — the
//!   descrambler streaming into the despreader in one configuration —
//!   then correct and decide) → `Done`.
//! * **802.11a OFDM** (paper §3.2/Fig. 10): `Idle` → `PreambleDetect`
//!   (configuration 2a on the array) → `Demod` (configuration 2b, slicing
//!   on the array, Viterbi decode) → `Done`. 2a stays resident beside 2b;
//!   when the array needs its resources the configuration manager's
//!   eviction recycles it — the paper's Fig. 10 recycling.
//!
//! One generic stepper walks either table, so stepping, the routing key,
//! parking and rehydration are table lookups. Rows that use the array hand
//! the kernel's drive function (`xpp_map::drive_*` — all that knows a
//! netlist's ports and budgets) to `WorkerArray::run_kernel`.
//!
//! Every array-mapped stage is cross-checked against its golden software
//! model; a divergence fails the session rather than silently returning
//! wrong bits, so cross-session state pollution on a shared array is
//! caught immediately.

use std::sync::OnceLock;

use sdr_dsp::fft::Fft64Fixed;
use sdr_dsp::rng::Rng64;
use sdr_dsp::Cplx;
use sdr_ofdm as ofdm;
use sdr_wcdma as wcdma;
use xpp_array::Result as XppResult;

use crate::config_manager::{KernelSpec, WorkerArray};
use crate::metrics::{KernelKind, Metrics};
use ofdm::xpp_map::{drive_demodulator, drive_preamble_detector, OfdmKernel};
use wcdma::xpp_map::{drive_finger, WcdmaKernel};

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
pub(crate) const WCDMA_JOB_CYCLES: u64 = 3_000;
/// OFDM frame-processing period in array cycles (400 µs at 50 MHz).
pub(crate) const OFDM_PERIOD_CYCLES: u64 = 20_000;
/// Estimated array cycles per OFDM session step (admission control).
pub(crate) const OFDM_JOB_CYCLES: u64 = 2_500;

/// Which standard a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Standard {
    /// W-CDMA rake terminal.
    Wcdma,
    /// 802.11a OFDM terminal.
    Ofdm,
}

impl Standard {
    /// The standard's processing period in array cycles.
    fn period(self) -> u64 {
        match self {
            Standard::Wcdma => WCDMA_PERIOD_CYCLES,
            Standard::Ofdm => OFDM_PERIOD_CYCLES,
        }
    }
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
    /// OFDM: demodulation on configuration 2b ahead.
    Demod,
    /// Payload verified against the transmitted bits.
    Done,
    /// The pipeline failed; the reason is attached.
    Failed(String),
    /// Gave up after repeated faults or crashes; the last reason is
    /// attached.
    DeadLettered(String),
}

impl SessionState {
    /// True once the session needs no further steps.
    pub(crate) fn is_terminal(&self) -> bool {
        matches!(
            self,
            SessionState::Done | SessionState::Failed(_) | SessionState::DeadLettered(_)
        )
    }
}

// ---------------------------------------------------------------------------
// Stage tables
// ---------------------------------------------------------------------------

/// What running a stage reports: `Ok(Ok(()))` moves the session to its next
/// table row (`Done` after the last), `Ok(Err(reason))` fails it — a golden
/// cross-check or a DSP decision went wrong — `Err(_)` is the array giving up.
type StageResult = XppResult<Result<(), String>>;
type StageFn<T> = fn(&mut T, carry: &mut u32, &mut WorkerArray) -> StageResult;

const PASS: StageResult = Ok(Ok(()));

fn fail(reason: impl Into<String>) -> StageResult {
    Ok(Err(reason.into()))
}

/// One row of a stage table. Besides the captured samples, all a row hands
/// to later rows is the session's *carry word* — the one DSP decision made so
/// far (found path delay, coarse preamble timing) — so that is all a park keeps.
struct Stage<T> {
    /// The session's state while this row is the next to run.
    state: SessionState,
    /// The array kernel the row activates first ([`Session::next_kernel`]).
    kernel: Option<KernelSpec>,
    run: StageFn<T>,
}

impl<T> Stage<T> {
    const fn new(state: SessionState, kernel: Option<KernelSpec>, run: StageFn<T>) -> Self {
        Stage { state, kernel, run }
    }
}

/// The Tracking row's finger: the DPCH of [`CellConfig::default`], which
/// every W-CDMA terminal receives (a unit test holds the two equal).
const FINGER: KernelSpec = KernelSpec::Wcdma(WcdmaKernel::Finger {
    sf: 128,
    code_index: 17,
});
const DETECTOR: KernelSpec = KernelSpec::Ofdm(OfdmKernel::PreambleDetector);
const DEMODULATOR: KernelSpec = KernelSpec::Ofdm(OfdmKernel::Demodulator);

/// A standard's terminal: the sample buffers and the table working on them.
trait Terminal: Sized + 'static {
    /// One row per step. Row 0 is the air capture ([`capture_stage`]):
    /// every later row is entered through it, by stepping or rehydration.
    const STAGES: &'static [Stage<Self>];

    /// A terminal that has captured nothing yet.
    fn new(seed: u64) -> Self;

    /// Simulates the air interface, a pure function of the seed.
    fn capture(&mut self);
}

fn capture_stage<T: Terminal>(terminal: &mut T, _: &mut u32, _: &mut WorkerArray) -> StageResult {
    terminal.capture();
    PASS
}

/// Index and kernel of the row `state` names; `None` for terminal states.
fn row_at<T: Terminal>(state: &SessionState) -> Option<(usize, Option<KernelSpec>)> {
    let index = T::STAGES.iter().position(|row| row.state == *state)?;
    Some((index, T::STAGES[index].kernel))
}

/// The generic stepper: runs row `index` and says which state follows.
fn run_stage<T: Terminal>(
    terminal: &mut T,
    index: usize,
    carry: &mut u32,
    worker: &mut WorkerArray,
) -> XppResult<SessionState> {
    Ok(match (T::STAGES[index].run)(terminal, carry, worker)? {
        Ok(()) => T::STAGES
            .get(index + 1)
            .map_or(SessionState::Done, |next| next.state.clone()),
        Err(reason) => SessionState::Failed(reason),
    })
}

/// Builds the terminal of a session resuming into row `stage`: every row
/// past the capture needs the samples back, replayed from the seed.
fn rebuild<T: Terminal>(seed: u64, stage: usize, wrap: fn(T) -> Kind) -> (Kind, SessionState) {
    let mut terminal = T::new(seed);
    if stage > 0 {
        terminal.capture();
    }
    (wrap(terminal), T::STAGES[stage].state.clone())
}

#[derive(Debug)]
enum Kind {
    Wcdma(WcdmaTerminal),
    Ofdm(OfdmTerminal),
}

/// One terminal session, schedulable on any array of the pool.
#[derive(Debug)]
pub struct Session {
    id: u64,
    seed: u64,
    deadline: u64,
    state: SessionState,
    /// The DSP decision made so far that later rows need (see [`Stage`]).
    carry: u32,
    kind: Kind,
    /// Set by the shard supervisor when a step panicked (`resolve_crash`).
    crashed: bool,
    /// Dispatch attempts that ended in a crash so far.
    attempts: u32,
}

impl Session {
    /// Creates a W-CDMA terminal session.
    pub fn wcdma(id: u64, seed: u64) -> Self {
        Session::rehydrate(&ParkedSession::new_wcdma(id, seed, id))
    }

    /// Creates an 802.11a OFDM terminal session.
    pub fn ofdm(id: u64, seed: u64) -> Self {
        Session::rehydrate(&ParkedSession::new_ofdm(id, seed, id))
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
    pub(crate) fn deadline(&self) -> u64 {
        self.deadline
    }

    fn row(&self) -> Option<(usize, Option<KernelSpec>)> {
        match self.kind {
            Kind::Wcdma(_) => row_at::<WcdmaTerminal>(&self.state),
            Kind::Ofdm(_) => row_at::<OfdmTerminal>(&self.state),
        }
    }

    /// The array kernel the session's *next* step will activate — the key
    /// the router follows. `None` for steps that never touch the array
    /// (capture, DSP-side path search) and for terminal sessions; those
    /// steps can run on any array without costing configuration-bus
    /// traffic.
    pub(crate) fn next_kernel(&self) -> Option<KernelSpec> {
        self.row()?.1
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
        // Only terminal states have no table row.
        let Some((index, _)) = self.row() else {
            return;
        };
        let outcome = match &mut self.kind {
            Kind::Wcdma(t) => run_stage(t, index, &mut self.carry, worker),
            Kind::Ofdm(t) => run_stage(t, index, &mut self.carry, worker),
        };
        self.deadline = self.deadline.saturating_add(self.standard().period());
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

    /// Consumes the crash flag set by the supervisor. External drivers of a
    /// raw [`ShardPool`](crate::pool::ShardPool) check this on every
    /// handed-back session to decide between re-dispatch and
    /// `mark_dead_lettered`.
    pub fn take_crashed(&mut self) -> bool {
        std::mem::take(&mut self.crashed)
    }

    /// The crash-supervision verdict on a session a shard handed back:
    /// `true` when its step crashed the worker and it is to be re-dispatched
    /// (the shard already restarted with a fresh array). Past `max_attempts`
    /// crashes it is dead-lettered instead.
    pub(crate) fn resolve_crash(&mut self, max_attempts: u32, metrics: &Metrics) -> bool {
        if !self.take_crashed() {
            return false;
        }
        if self.attempts > max_attempts {
            self.mark_dead_lettered(format!("crashed {} times; giving up", self.attempts));
            Metrics::incr(&metrics.dead_letters);
            return false;
        }
        Metrics::incr(&metrics.session_retries);
        Metrics::incr(&metrics.recoveries);
        true
    }

    /// Terminates the session as dead-lettered with a reason — the give-up
    /// end of crash supervision (see [`take_crashed`](Session::take_crashed)).
    pub(crate) fn mark_dead_lettered(&mut self, reason: impl Into<String>) {
        self.state = SessionState::DeadLettered(reason.into());
    }

    /// Shrinks the session to its compact parked form: the table row it
    /// resumes into, the deadline and the carry word — no sample buffers.
    /// Every capture in this engine is a pure function of the session
    /// seed, so a parked session drops its received samples entirely and
    /// [`rehydrate`](Session::rehydrate) replays them bit-identically; only
    /// the DSP decision the pipeline has already *made* crosses the park,
    /// so no array kernel ever re-runs.
    ///
    /// Returns `None` for terminal sessions — nothing left to resume into.
    pub fn park(&self) -> Option<ParkedSession> {
        let (stage, _) = self.row()?;
        Some(ParkedSession {
            id: self.id,
            seed: self.seed,
            deadline: self.deadline,
            stage,
            carry: self.carry,
            standard: self.standard(),
            attempts: self.attempts.min(u8::MAX as u32) as u8,
        })
    }

    /// Rebuilds a full session from its parked record: the capture is
    /// replayed from the seed, the carry word restored, and the state
    /// machine resumes exactly where it parked — per-session kernel
    /// outcomes are bit-identical to a never-parked run.
    pub fn rehydrate(parked: &ParkedSession) -> Session {
        let (kind, state) = match parked.standard {
            Standard::Wcdma => rebuild(parked.seed, parked.stage, Kind::Wcdma),
            Standard::Ofdm => rebuild(parked.seed, parked.stage, Kind::Ofdm),
        };
        Session {
            id: parked.id,
            seed: parked.seed,
            deadline: parked.deadline,
            state,
            carry: parked.carry,
            kind,
            crashed: false,
            attempts: parked.attempts as u32,
        }
    }
}

// ---------------------------------------------------------------------------
// Parked sessions
// ---------------------------------------------------------------------------

/// The compact parked form of a waiting terminal: what the front-end's
/// parking lot stores instead of a full sample-buffer-bearing
/// [`Session`]. A few dozen bytes — id, seed, deadline, the stage-table
/// row it resumes into, the carry word and the crash-attempt counter — so
/// millions of terminals can be resident while only the materialised few
/// own sample buffers. See [`Session::park`] / [`Session::rehydrate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkedSession {
    id: u64,
    seed: u64,
    /// Deadline (array cycles) of the step the session resumes into; the
    /// parking lot's wake key. The frame/slot arrival is one period
    /// earlier ([`ParkedSession::arrival`]).
    deadline: u64,
    /// Index of the stage-table row the session resumes into.
    stage: usize,
    /// The DSP decision the rows from `stage` on need: the found path
    /// delay (W-CDMA), the coarse preamble timing (OFDM).
    carry: u32,
    standard: Standard,
    /// Crash re-dispatch attempts carried across the park.
    attempts: u8,
}

impl ParkedSession {
    fn fresh(standard: Standard, id: u64, seed: u64, arrival: u64) -> Self {
        ParkedSession {
            id,
            seed,
            deadline: arrival.saturating_add(standard.period()),
            stage: 0,
            carry: 0,
            standard,
            attempts: 0,
        }
    }

    /// Parks a not-yet-started W-CDMA terminal directly — no [`Session`]
    /// (and no heap) is ever built for it until rehydration.
    pub fn new_wcdma(id: u64, seed: u64, arrival: u64) -> Self {
        ParkedSession::fresh(Standard::Wcdma, id, seed, arrival)
    }

    /// Parks a not-yet-started OFDM terminal directly (heap-free).
    pub fn new_ofdm(id: u64, seed: u64, arrival: u64) -> Self {
        ParkedSession::fresh(Standard::Ofdm, id, seed, arrival)
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
        self.standard
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
    pub(crate) fn period(&self) -> u64 {
        self.standard.period()
    }

    /// True when the record is a fresh, never-materialised terminal (no
    /// pipeline progress) — the only kind the front-end's admission model
    /// charges for.
    pub(crate) fn is_fresh(&self) -> bool {
        self.stage == 0
    }
}

// ---------------------------------------------------------------------------
// W-CDMA terminal
// ---------------------------------------------------------------------------

/// Every row past the capture is entered through `capture()`, by stepping
/// or by rehydration, so a stage that finds no code is a state-machine bug.
const NO_CAPTURE: &str = "wcdma session stepped past Idle without a capture";

/// The one cell every W-CDMA terminal receives: the transmitter of
/// [`CellConfig::default`], a template each capture clones (the clone
/// shares its scrambling code). Built on the first capture, never at
/// rehydration; every capture after it generates no code.
fn default_cell() -> &'static CellTransmitter {
    static CELL: OnceLock<CellTransmitter> = OnceLock::new();
    CELL.get_or_init(|| CellTransmitter::new(CellConfig::default()))
}

#[derive(Debug)]
struct WcdmaTerminal {
    seed: u64,
    cell: CellConfig,
    bits: Vec<u8>,
    true_delay: usize,
    rx: Vec<Cplx<i32>>,
    /// The default cell's scrambling code, set by the capture it belongs
    /// to: a fresh terminal (and a fresh parked record's rehydration) holds
    /// neither.
    code: Option<&'static ScramblingCode>,
}

impl Terminal for WcdmaTerminal {
    const STAGES: &'static [Stage<Self>] = &[
        Stage::new(SessionState::Idle, None, capture_stage),
        Stage::new(SessionState::Searching, None, Self::search),
        Stage::new(SessionState::Tracking, Some(FINGER), Self::track),
    ];

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
        }
    }

    /// Transmit, propagate over a single-path channel with light noise,
    /// digitize.
    fn capture(&mut self) {
        use wcdma::channel::{propagate, AdcConfig, CellLink, Path};
        let cell = default_cell();
        let signal = cell.clone().transmit(&self.bits);
        let link = CellLink::new(vec![Path::new(self.true_delay, Cplx::new(0.8, 0.2))]);
        self.rx = propagate(
            &[(signal, link)],
            0.02,
            self.seed ^ 0x5EED,
            AdcConfig::default(),
        );
        self.code = Some(cell.scrambling_code());
    }
}

impl WcdmaTerminal {
    /// CPICH path search (DSP-side in the paper's partitioning). Carries the
    /// found path delay — the only DSP state the finger needs.
    fn search(&mut self, carry: &mut u32, _: &mut WorkerArray) -> StageResult {
        let Some(code) = self.code else {
            return fail(NO_CAPTURE);
        };
        let hits = PathSearcher::default().search(&self.rx, code);
        match hits.first() {
            Some(hit) if hit.delay == self.true_delay => {
                *carry = hit.delay as u32;
                PASS
            }
            Some(hit) => fail(format!(
                "path search found delay {} instead of {}",
                hit.delay, self.true_delay
            )),
            None => fail("path search found no paths"),
        }
    }

    /// One finger on the array — descramble (Fig. 5) streaming into
    /// despread (Fig. 6) in one cached configuration — then
    /// estimate/correct/decide on the DSP.
    fn track(&mut self, carry: &mut u32, worker: &mut WorkerArray) -> StageResult {
        let Some(code) = self.code else {
            return fail(NO_CAPTURE);
        };
        let rx = &self.rx;
        let delay = *carry as usize;
        let sf = self.cell.dpch.sf;
        let code_index = self.cell.dpch.code_index;
        let n = ((rx.len() - delay) / sf) * sf;

        // The kernel spec carries the spreading factor and OVSF code index —
        // every parameter that shapes the netlist — so sessions with the same
        // cell parameters share one stored compile.
        let symbols = worker.run_kernel(
            KernelKind::Finger,
            WcdmaKernel::Finger { sf, code_index },
            |array, cfg| drive_finger(array, cfg, rx, code, delay, 0, n, sf),
        )?;
        if symbols != despread(&descramble(rx, code, delay, 0, n), sf, code_index) {
            return fail("array finger diverged from golden");
        }

        let h = estimate_channel(rx, code, delay, 8);
        let w = quantize_weights(&[h])[0];
        let corrected = correct(&symbols, w);
        let soft: Vec<Cplx<i64>> = corrected.iter().map(|s| s.widen()).collect();
        let decided = decide(&soft);
        if decided.len() >= self.bits.len() && decided[..self.bits.len()] == self.bits[..] {
            PASS
        } else {
            fail("decided bits differ from transmitted")
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
}

impl Terminal for OfdmTerminal {
    const STAGES: &'static [Stage<Self>] = &[
        Stage::new(SessionState::Idle, None, capture_stage),
        Stage::new(SessionState::PreambleDetect, Some(DETECTOR), Self::detect),
        Stage::new(SessionState::Demod, Some(DEMODULATOR), Self::demodulate),
    ];

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
        }
    }

    fn capture(&mut self) {
        use ofdm::channel::WlanChannel;
        let frame = ofdm::tx::Transmitter::new(self.rate).transmit(&self.bits);
        let channel = WlanChannel {
            leading_gap: self.leading_gap,
            seed: self.seed,
            ..WlanChannel::default()
        };
        self.rx = channel.run(&frame.samples);
    }
}

impl OfdmTerminal {
    /// Configuration 2a on the worker's array; the streamed metric must be
    /// bit-exact with the golden autocorrelation. Carries the coarse
    /// preamble timing — the only DSP state demodulation needs.
    fn detect(&mut self, carry: &mut u32, worker: &mut WorkerArray) -> StageResult {
        let rx = &self.rx;
        let metric = worker.run_kernel(KernelKind::PreambleDetector, DETECTOR, |array, cfg| {
            drive_preamble_detector(array, cfg, rx)
        })?;
        if metric != ofdm::rx::autocorr_metric(rx) {
            return fail("array preamble metric diverged from golden");
        }
        match OfdmReceiver::new(self.rate).detect_in_metric(&metric) {
            Some(coarse) => {
                *carry = coarse as u32;
                PASS
            }
            None => fail("no preamble plateau found"),
        }
    }

    /// Slicing of the first data symbol through configuration 2b, and
    /// full golden decode of the payload. 2b is activated beside 2a, which
    /// stays resident for the next detection until placement pressure
    /// evicts it.
    fn demodulate(&mut self, carry: &mut u32, worker: &mut WorkerArray) -> StageResult {
        let sync = OfdmReceiver::new(self.rate);
        let Some(long_start) = sync.fine_timing(&self.rx, *carry as usize) else {
            return fail("fine timing failed");
        };
        let at = long_start + 2 * 64 + CP_LEN;
        if at + 64 > self.rx.len() {
            return fail("frame truncated before first data symbol");
        }
        let mut window = [Cplx::<i32>::ZERO; 64];
        window.copy_from_slice(&self.rx[at..at + 64]);
        let spectrum = Fft64Fixed::with_stage_shift(1).run(&window);
        let carriers: Vec<Cplx<i32>> = data_subcarriers()
            .iter()
            .map(|&k| spectrum[subcarrier_to_bin(k)])
            .collect();
        let weights = vec![Cplx::new(512, 0); carriers.len()];
        let slices = worker.run_kernel(KernelKind::Demodulator, DEMODULATOR, |array, cfg| {
            drive_demodulator(array, cfg, &carriers, &weights)
        })?;
        for (k, (b0, b1)) in slices.iter().enumerate() {
            if *b0 != (carriers[k].re < 0) as u8 || *b1 != (carriers[k].im < 0) as u8 {
                return fail(format!(
                    "2b slicer diverged from spectrum sign at carrier {k}"
                ));
            }
        }

        match sync.receive_at(&self.rx, long_start, self.bits.len()) {
            Ok(out) if out.bits == self.bits => PASS,
            Ok(_) => fail("decoded payload differs from transmitted"),
            Err(e) => fail(format!("receiver error: {e}")),
        }
    }
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
        assert!(snap.kernel_jobs[KernelKind::Finger.index()] == 1);
        assert!(snap.kernel_cycles[KernelKind::Finger.index()] > 0);
    }

    /// The Tracking row routes on the finger it runs: its const spec is
    /// the DPCH every W-CDMA terminal receives.
    #[test]
    fn tracking_row_routes_on_the_default_cells_finger() {
        let dpch = CellConfig::default().dpch;
        assert_eq!(
            FINGER,
            KernelSpec::Wcdma(WcdmaKernel::Finger {
                sf: dpch.sf,
                code_index: dpch.code_index
            })
        );
    }

    #[test]
    fn ofdm_session_walks_to_done_keeping_2a_resident() {
        let metrics = Arc::new(Metrics::new());
        let mut worker = WorkerArray::new(8, Arc::clone(&metrics));
        let mut s = Session::ofdm(1, 7);
        drive_to_terminal(&mut s, &mut worker);
        assert_eq!(*s.state(), SessionState::Done, "session failed");
        assert!(worker.is_resident(OfdmKernel::PreambleDetector));
        assert!(worker.is_resident(OfdmKernel::Demodulator));
        let snap = metrics.snapshot();
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
        assert_eq!(w.next_kernel(), Some(FINGER));
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

    /// An arrival at the end of the clock saturates the deadline instead of
    /// wrapping it (or, in a debug build, panicking on the add), and so does
    /// every step after it.
    #[test]
    fn deadlines_saturate_at_the_end_of_the_clock() {
        let parked = ParkedSession::new_ofdm(1, 7, u64::MAX);
        assert_eq!(parked.deadline(), u64::MAX);
        assert_eq!(parked.arrival(), u64::MAX - OFDM_PERIOD_CYCLES);
        let mut s = Session::rehydrate(&ParkedSession::new_wcdma(2, 1, u64::MAX - 1));
        s.step(&mut WorkerArray::new(8, Arc::new(Metrics::new())));
        assert_eq!(*s.state(), SessionState::Searching);
        assert_eq!(s.deadline(), u64::MAX);
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
    fn fresh_parked_records_are_due_one_period_after_arrival() {
        let p = ParkedSession::new_wcdma(3, 42, 1_000);
        assert_eq!(p.arrival(), 1_000);
        assert_eq!(p.deadline(), 1_000 + WCDMA_PERIOD_CYCLES);
        assert_eq!(p.standard(), Standard::Wcdma);
        assert!(p.is_fresh());

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
        s.step(&mut worker); // Searching -> Tracking (carry word set)
        let parked = s.park().expect("tracking sessions park");
        assert!(!parked.is_fresh(), "mid-pipeline records are not fresh");
        let mut back = Session::rehydrate(&parked);
        assert_eq!(*back.state(), SessionState::Tracking);
        back.step(&mut worker);
        assert_eq!(*back.state(), SessionState::Done, "delay word survived");

        // OFDM parks at Demod with the coarse timing found in the array's
        // own metric; demodulation synchronises once from that word.
        for seed in 0..16 {
            let mut s = Session::ofdm(6, seed);
            s.step(&mut worker); // Idle -> PreambleDetect
            s.step(&mut worker); // PreambleDetect -> Demod (carry word set)
            let parked = s.park().expect("demodulating sessions park");
            let mut back = Session::rehydrate(&parked);
            assert_eq!(*back.state(), SessionState::Demod);
            back.step(&mut worker);
            assert_eq!(*back.state(), SessionState::Done, "seed {seed}");
        }
    }

    /// A wrong path delay fails the search stage, so every seed ending
    /// `Done` pins the searcher's strongest hit over all eight delays.
    #[test]
    fn wcdma_sessions_complete_for_seeds_0_to_64() {
        let metrics = Arc::new(Metrics::new());
        let mut worker = WorkerArray::new(8, metrics);
        for seed in 0..64 {
            let mut s = Session::wcdma(seed, seed);
            drive_to_terminal(&mut s, &mut worker);
            assert_eq!(*s.state(), SessionState::Done, "seed {seed}");
        }
    }

    /// FNV-1a over every W-CDMA capture and its DSP results for session
    /// seeds 0..256: the received samples, the path search's hits, the
    /// golden finger's symbols and the channel estimate. The pinned value
    /// was recorded with the complex-multiply kernels that the ±1 kernels
    /// replaced, so it holds them bit-exact on the engine's own inputs.
    #[test]
    fn wcdma_captures_and_searches_repeat_bit_for_bit() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for seed in 0..256 {
            let mut t = WcdmaTerminal::new(seed);
            t.capture();
            let code = t.code.expect("a capture");
            for c in &t.rx {
                eat(c.re as u64);
                eat(c.im as u64);
            }
            for hit in PathSearcher::default().search(&t.rx, code) {
                eat(hit.delay as u64);
                eat(hit.energy as u64);
            }
            let (sf, delay) = (t.cell.dpch.sf, t.true_delay);
            let n = (t.rx.len() - delay) / sf * sf;
            let chips = descramble(&t.rx, code, delay, 0, n);
            for s in despread(&chips, sf, t.cell.dpch.code_index) {
                eat(s.re as u64);
                eat(s.im as u64);
            }
            let est = estimate_channel(&t.rx, code, delay, 8);
            eat(est.re.to_bits());
            eat(est.im.to_bits());
        }
        assert_eq!(h, 0x639f_8b5b_f74c_124a, "capture digest {h:#018x}");
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

    /// Every row of both stage tables: a park → rehydrate round trip lands
    /// on the same row with the same scheduling words, and only a row-0
    /// record is fresh.
    #[test]
    fn park_and_rehydrate_agree_at_every_table_row() {
        type Maker = fn(u64, u64) -> Session;
        let makers: [Maker; 2] = [Session::wcdma, Session::ofdm];
        for make in makers {
            let metrics = Arc::new(Metrics::new());
            let mut worker = WorkerArray::new(8, metrics);
            let mut s = make(9, 1234);
            s.record_crash();
            assert!(s.take_crashed());
            for row in 0..3 {
                let parked = s.park().expect("non-terminal sessions park");
                assert_eq!(parked.is_fresh(), row == 0, "row {row}");

                let back = Session::rehydrate(&parked);
                assert_eq!(back.standard(), s.standard());
                assert_eq!(back.state(), s.state(), "row {row}");
                assert_eq!(back.next_kernel(), s.next_kernel(), "row {row}");
                assert_eq!(back.deadline(), s.deadline(), "row {row}");
                assert_eq!(back.attempts, 1, "row {row}");
                assert_eq!(back.park(), Some(parked), "row {row}: carry word survived");
                s.step(&mut worker);
            }
            assert_eq!(*s.state(), SessionState::Done, "three rows, then done");
        }
    }
}
