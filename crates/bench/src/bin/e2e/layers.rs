//! Per-layer measurements, taken from outside through public functions.
//!
//! **Layer replay**: the first [`REPLAY_FRAMES`] records of each standard
//! are stepped single-threaded through `Session::rehydrate`/`Session::step`
//! on one `WorkerArray`. After each stage, the public calls that stage is
//! made of (the `wcdma`/`ofdm`/`dsp` functions, the array kernels, the
//! `WorkerArray` configuration calls) are re-executed on the same inputs
//! on a second, identically configured *shadow* worker, as spans parented
//! to the stage's span, and the array outputs are checked against the
//! golden outputs. A stage's self time is its step minus those
//! re-executions.
//!
//! **Direct measurements**: costs no session step isolates (activation
//! tiers, compile, bus load, pool round trip, router placement,
//! front-end admission) are timed by calling the layer directly.
//!
//! The inputs of a stage are rebuilt the way `session.rs` builds them;
//! those few lines are mirrored here because the benchmark may not touch
//! engine source.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sdr_dsp::fft::Fft64Fixed;
use sdr_dsp::rng::Rng64;
use sdr_dsp::Cplx;
use sdr_engine::frontend::parking::ParkingLot;
use sdr_engine::frontend::{Frontend, FrontendConfig};
use sdr_engine::{
    AffinityRouter, ConfigStore, KernelSpec, Metrics, ParkedSession, Placement, PoolConfig,
    Session, SessionState, ShardPool, Standard, WorkerArray,
};
use sdr_ofdm::channel::WlanChannel;
use sdr_ofdm::params::{data_subcarriers, rate, subcarrier_to_bin, CP_LEN};
use sdr_ofdm::rx::{autocorr_metric, OfdmReceiver, AUTOCORR_LAG, AUTOCORR_WINDOW};
use sdr_ofdm::xpp_map::OfdmKernel;
use sdr_wcdma::channel::{propagate, AdcConfig, CellLink, Path};
use sdr_wcdma::rake::combiner::decide;
use sdr_wcdma::rake::estimator::{estimate_channel, quantize_weights};
use sdr_wcdma::rake::finger::{correct, descramble, despread};
use sdr_wcdma::rake::searcher::PathSearcher;
use sdr_wcdma::xpp_map::WcdmaKernel;
use sdr_wcdma::{CellConfig, CellTransmitter, ScramblingCode};
use xpp_array::{Array, CompiledConfig, ConfigId, Word};

use crate::trace::{SpanId, Tracer};
use crate::workload::{Mix, SESSION_SEEDS, WORKLOADS};

/// Records of each standard the layer replay steps.
pub const REPLAY_FRAMES: usize = 128;
/// Repetitions of each direct measurement: enough for a percentile
/// above the median under the ten-samples-beyond rule.
const REPS: usize = 32;

/// Samples per metric name; counts are stored as single samples.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

type Check<T> = Result<T, String>;

fn xpp<T>(r: xpp_array::Result<T>) -> Check<T> {
    r.map_err(|e| format!("array error: {e}"))
}

fn ensure(ok: bool, what: &str) -> Check<()> {
    ok.then_some(()).ok_or_else(|| what.to_string())
}

/// Where a timed call hangs in the trace: the span that caused it and
/// the frame it belongs to.
#[derive(Debug, Clone, Copy)]
struct At {
    parent: Option<SpanId>,
    frame: Option<u64>,
}

/// A root span of no frame.
const ROOT: At = At {
    parent: None,
    frame: None,
};

/// Span recorder plus sample sink.
pub struct Rec<'a> {
    pub tracer: &'a mut Tracer,
    pub samples: &'a mut Samples,
}

impl Rec<'_> {
    fn push(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    /// Runs `f` under a span; returns its result, the span and its
    /// duration in microseconds.
    fn span<T>(&mut self, at: At, name: &'static str, f: impl FnOnce() -> T) -> (T, SpanId, f64) {
        let id = self.tracer.begin(name, at.parent, at.frame);
        let out = f();
        let us = self.tracer.end(id) as f64 / 1e3;
        (out, id, us)
    }

    /// As [`span`](Rec::span), with the duration also a sample of `metric`.
    fn timed<T>(
        &mut self,
        at: At,
        name: &'static str,
        metric: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let (out, _, us) = self.span(at, name, f);
        self.push(metric, us);
        (out, us)
    }

    /// Runs one kernel job on `worker` under the kernel's span, recording
    /// host time and exact simulated cycles.
    fn job<T>(
        &mut self,
        at: At,
        names: &KernelNames,
        worker: &mut WorkerArray,
        body: impl FnOnce(&mut Array) -> xpp_array::Result<T>,
    ) -> Check<(T, f64)> {
        let before = worker.array().stats().cycles;
        let (out, us) = self.timed(at, names.span, names.host_us, || body(worker.array_mut()));
        let cycles = worker.array().stats().cycles - before;
        self.push(names.sim_cycles, cycles as f64);
        Ok((xpp(out)?, us))
    }
}

/// The metric and span names of one array kernel.
struct KernelNames {
    span: &'static str,
    host_us: &'static str,
    sim_cycles: &'static str,
    compile_us: &'static str,
}

const DESCRAMBLER: KernelNames = KernelNames {
    span: "xpp.job.descrambler",
    host_us: "xpp.host_us_per_job.descrambler",
    sim_cycles: "xpp.sim_cycles_per_job.descrambler",
    compile_us: "xpp.compile_us.descrambler",
};
const DESPREADER: KernelNames = KernelNames {
    span: "xpp.job.despreader",
    host_us: "xpp.host_us_per_job.despreader",
    sim_cycles: "xpp.sim_cycles_per_job.despreader",
    compile_us: "xpp.compile_us.despreader",
};
const DETECTOR: KernelNames = KernelNames {
    span: "xpp.job.preamble-detector",
    host_us: "xpp.host_us_per_job.preamble-detector",
    sim_cycles: "xpp.sim_cycles_per_job.preamble-detector",
    compile_us: "xpp.compile_us.preamble-detector",
};
const DEMODULATOR: KernelNames = KernelNames {
    span: "xpp.job.demodulator",
    host_us: "xpp.host_us_per_job.demodulator",
    sim_cycles: "xpp.sim_cycles_per_job.demodulator",
    compile_us: "xpp.compile_us.demodulator",
};

/// The deterministic per-kernel simulated-cycle totals of the replay.
pub const SIM_CYCLE_METRICS: [&str; 4] = [
    DESCRAMBLER.sim_cycles,
    DESPREADER.sim_cycles,
    DETECTOR.sim_cycles,
    DEMODULATOR.sim_cycles,
];

// ---------------------------------------------------------------------------
// Array kernel drivers (the public-API counterparts of session.rs's
// private run_* helpers)
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

fn drive_descrambler(
    array: &mut Array,
    cfg: ConfigId,
    rx: &[Cplx<i32>],
    code: &ScramblingCode,
    delay: usize,
    n: usize,
) -> xpp_array::Result<Vec<Cplx<i32>>> {
    let (i, q) = split_iq(&rx[delay..delay + n]);
    let bits: Vec<(u8, u8)> = (0..n).map(|k| code.chip_bits(k)).collect();
    array.push_input(cfg, "i_in", i)?;
    array.push_input(cfg, "q_in", q)?;
    array.push_input(cfg, "ci", bits.iter().map(|b| Word::new(b.0 as i32)))?;
    array.push_input(cfg, "cq", bits.iter().map(|b| Word::new(b.1 as i32)))?;
    array.run_until_output(cfg, "i_out", n, 16 * n as u64 + 1_000)?;
    array.run_until_idle(1_000)?;
    Ok(zip_iq(
        &array.drain_output(cfg, "i_out")?,
        &array.drain_output(cfg, "q_out")?,
    ))
}

fn drive_despreader(
    array: &mut Array,
    cfg: ConfigId,
    chips: &[Cplx<i32>],
    sf: usize,
) -> xpp_array::Result<Vec<Cplx<i32>>> {
    let n_sym = chips.len() / sf;
    let (i, q) = split_iq(&chips[..n_sym * sf]);
    array.push_input(cfg, "i_in", i)?;
    array.push_input(cfg, "q_in", q)?;
    array.run_until_output(cfg, "i_out", n_sym, 16 * chips.len() as u64 + 2_000)?;
    array.run_until_idle(2_000)?;
    Ok(zip_iq(
        &array.drain_output(cfg, "i_out")?,
        &array.drain_output(cfg, "q_out")?,
    ))
}

fn drive_detector(
    array: &mut Array,
    cfg: ConfigId,
    rx: &[Cplx<i32>],
) -> xpp_array::Result<Vec<i32>> {
    // Zero samples flush the previous terminal's history out of the
    // resident detector's delay lines (see session.rs).
    let flush = AUTOCORR_LAG + AUTOCORR_WINDOW;
    let (i, q) = split_iq(rx);
    array.push_input(cfg, "i_in", std::iter::repeat_n(Word::ZERO, flush).chain(i))?;
    array.push_input(cfg, "q_in", std::iter::repeat_n(Word::ZERO, flush).chain(q))?;
    let expect = flush + rx.len();
    array.run_until_output(cfg, "metric", expect, 20 * expect as u64 + 5_000)?;
    array.run_until_idle(5_000)?;
    let metric = array.drain_output(cfg, "metric")?;
    Ok(metric.iter().skip(flush).map(|w| w.value()).collect())
}

fn drive_demodulator(
    array: &mut Array,
    cfg: ConfigId,
    carriers: &[Cplx<i32>],
    weights: &[Cplx<i32>],
) -> xpp_array::Result<Vec<(u8, u8)>> {
    let n = carriers.len();
    let (i, q) = split_iq(carriers);
    let (wi, wq) = split_iq(weights);
    array.push_input(cfg, "i_in", i)?;
    array.push_input(cfg, "q_in", q)?;
    array.push_input(cfg, "wi", wi)?;
    array.push_input(cfg, "wq", wq)?;
    array.run_until_output(cfg, "b0", n, 20 * n as u64 + 5_000)?;
    array.run_until_idle(5_000)?;
    let b0 = array.drain_output(cfg, "b0")?;
    let b1 = array.drain_output(cfg, "b1")?;
    Ok(b0
        .iter()
        .zip(&b1)
        .map(|(a, b)| (a.value() as u8, b.value() as u8))
        .collect())
}

/// A worker configured like a single-array pool shard under the
/// basestation's configuration (delta loading on, prefetch on, schedule
/// capture on).
fn shard_like_worker(store: Option<&Arc<ConfigStore>>) -> WorkerArray {
    let metrics = Arc::new(Metrics::new());
    let mut worker = match store {
        Some(store) => WorkerArray::with_store(Arc::clone(store), metrics),
        None => WorkerArray::new(8, metrics),
    };
    worker.set_delta_loading(true);
    worker
}

// ---------------------------------------------------------------------------
// Layer replay
// ---------------------------------------------------------------------------

/// The two workers of the replay: `real` runs the session steps, `shadow`
/// the re-executed constituents, so both see the same sequence of
/// configuration states.
struct Workers {
    real: WorkerArray,
    shadow: WorkerArray,
}

impl Workers {
    /// What a pool shard does after every step (prefetch-spill bookkeeping).
    fn refresh(&mut self) {
        self.real.refresh_activity();
        self.shadow.refresh_activity();
    }
}

/// Steps the first [`REPLAY_FRAMES`] records of each standard. `Err` on
/// any divergence between array and golden outputs.
pub fn replay(rec: &mut Rec, seed: u64) -> Check<()> {
    let mut workers = Workers {
        real: shard_like_worker(None),
        shadow: shard_like_worker(None),
    };
    // Each standard's stream is the same in every workload that has it;
    // the two single-standard workloads give both streams.
    for w in WORKLOADS.iter().filter(|w| w.mix != Mix::Alternating) {
        for record in w.records(seed, 0, REPLAY_FRAMES, 0) {
            let frame = rec.tracer.begin("frame", None, Some(record.id()));
            match record.standard() {
                Standard::Wcdma => replay_wcdma(rec, &mut workers, &record, frame)?,
                Standard::Ofdm => replay_ofdm(rec, &mut workers, &record, frame)?,
            }
            rec.tracer.end(frame);
        }
    }
    Ok(())
}

/// Steps `s` once on `worker` as a child of the frame span; returns where
/// the stage's constituents hang and the step's microseconds.
fn step(
    rec: &mut Rec,
    frame: At,
    span: &'static str,
    metric: &'static str,
    s: &mut Session,
    worker: &mut WorkerArray,
) -> (At, f64) {
    let (_, id, us) = rec.span(frame, span, || s.step(worker));
    rec.push(metric, us);
    let stage = At {
        parent: Some(id),
        ..frame
    };
    (stage, us)
}

/// Parks and rehydrates `s` mid-pipeline (what a backpressure bounce
/// costs: the capture is replayed from the seed).
fn park_and_rehydrate(
    rec: &mut Rec,
    frame: At,
    s: Session,
    metric: &'static str,
) -> Check<Session> {
    let t = Instant::now();
    let parked = s.park();
    rec.push("session.park_ns", t.elapsed().as_nanos() as f64);
    let parked = parked.ok_or("a mid-pipeline session did not park")?;
    let (back, _) = rec.timed(frame, "session.rehydrate", metric, || {
        Session::rehydrate(&parked)
    });
    Ok(back)
}

fn replay_wcdma(
    rec: &mut Rec,
    workers: &mut Workers,
    record: &ParkedSession,
    frame: SpanId,
) -> Check<()> {
    let seed = record.seed();
    let frame = At {
        parent: Some(frame),
        frame: Some(record.id()),
    };
    let mut s = Session::rehydrate(record);

    // The terminal's inputs, as WcdmaTerminal::new derives them.
    let mut rng = Rng64::seed_from_u64(seed);
    let bits: Vec<u8> = (0..32).map(|_| (rng.next_u32() & 1) as u8).collect();
    let cell = CellConfig::default();
    let (sf, code_index) = (cell.dpch.sf, cell.dpch.code_index);
    let delay = 4 + (seed % 8) as usize;

    // capture: transmit, propagate, digitize.
    let (at, step_us) = step(
        rec,
        frame,
        "session.step.wcdma.capture",
        "session.step_us.wcdma.capture",
        &mut s,
        &mut workers.real,
    );
    // `CellTransmitter::new` is one Gold-code generation (`wcdma.code_gen_us`
    // times that call directly); synthesis proper is `transmit`.
    let (mut tx, _, new_us) = rec.span(at, "wcdma.tx_new", || CellTransmitter::new(cell));
    let (signal, tx_us) = rec.timed(at, "wcdma.tx_synth", "wcdma.tx_synth_us", || {
        tx.transmit(&bits)
    });
    let (rx, channel_us) = rec.timed(at, "wcdma.channel", "wcdma.channel_us", || {
        let link = CellLink::new(vec![Path::new(delay, Cplx::new(0.8, 0.2))]);
        propagate(&[(signal, link)], 0.02, seed ^ 0x5EED, AdcConfig::default())
    });
    rec.push(
        "session.step_self_us.wcdma.capture",
        step_us - new_us - tx_us - channel_us,
    );
    workers.refresh();

    // search: Gold-code generation, then CPICH path search.
    let (at, step_us) = step(
        rec,
        frame,
        "session.step.wcdma.search",
        "session.step_us.wcdma.search",
        &mut s,
        &mut workers.real,
    );
    let (code, code_us) = rec.timed(at, "wcdma.code_gen", "wcdma.code_gen_us", || {
        ScramblingCode::downlink(cell.scrambling_code)
    });
    let (hits, search_us) = rec.timed(at, "wcdma.search", "wcdma.search_us", || {
        PathSearcher::default().search(&rx, &code)
    });
    ensure(
        hits.first().is_some_and(|h| h.delay == delay),
        "path search missed the true delay",
    )?;
    rec.push(
        "session.step_self_us.wcdma.search",
        step_us - code_us - search_us,
    );
    workers.refresh();

    let mut s = park_and_rehydrate(rec, frame, s, "session.rehydrate_us.wcdma_track")?;

    // track: descramble and despread on the array, golden cross-check,
    // estimate/correct/decide.
    let (at, step_us) = step(
        rec,
        frame,
        "session.step.wcdma.track",
        "session.step_us.wcdma.track",
        &mut s,
        &mut workers.real,
    );
    ensure(
        *s.state() == SessionState::Done,
        "w-cdma session did not end Done",
    )?;
    let shadow = &mut workers.shadow;
    let (code, code_us) = rec.timed(at, "wcdma.code_gen", "wcdma.code_gen_us", || {
        ScramblingCode::downlink(cell.scrambling_code)
    });
    let n = ((rx.len() - delay) / sf) * sf;
    let (golden, golden_us) = rec.timed(at, "wcdma.golden", "wcdma.golden_us", || {
        let descrambled = descramble(&rx, &code, delay, 0, n);
        let symbols = despread(&descrambled, sf, code_index);
        let h = estimate_channel(&rx, &code, delay, 8);
        let w = quantize_weights(&[h])[0];
        let soft: Vec<Cplx<i64>> = correct(&symbols, w).iter().map(|c| c.widen()).collect();
        (descrambled, symbols, decide(&soft))
    });
    let (g_descrambled, g_symbols, decided) = golden;
    ensure(
        decided.get(..bits.len()) == Some(&bits[..]),
        "golden decision differs from sent bits",
    )?;
    let (cfg, _, act1_us) = rec.span(at, "config_manager.activate", || {
        shadow.activate(WcdmaKernel::Descrambler)
    });
    let cfg = xpp(cfg)?;
    let (descrambled, job1_us) = rec.job(at, &DESCRAMBLER, shadow, |array| {
        drive_descrambler(array, cfg, &rx, &code, delay, n)
    })?;
    ensure(
        descrambled == g_descrambled,
        "array descrambler diverged from golden",
    )?;
    let (cfg, _, act2_us) = rec.span(at, "config_manager.activate", || {
        shadow.activate(WcdmaKernel::Despreader { sf, code_index })
    });
    let cfg = xpp(cfg)?;
    let (symbols, job2_us) = rec.job(at, &DESPREADER, shadow, |array| {
        drive_despreader(array, cfg, &descrambled, sf)
    })?;
    ensure(
        symbols == g_symbols,
        "array despreader diverged from golden",
    )?;
    rec.push(
        "session.step_self_us.wcdma.track",
        step_us - code_us - golden_us - act1_us - job1_us - act2_us - job2_us,
    );
    workers.refresh();
    Ok(())
}

fn replay_ofdm(
    rec: &mut Rec,
    workers: &mut Workers,
    record: &ParkedSession,
    frame: SpanId,
) -> Check<()> {
    let seed = record.seed();
    let frame = At {
        parent: Some(frame),
        frame: Some(record.id()),
    };
    let mut s = Session::rehydrate(record);

    // The terminal's inputs, as OfdmTerminal::new derives them.
    let mut rng = Rng64::seed_from_u64(seed ^ 0x0FD3);
    let bits: Vec<u8> = (0..96).map(|_| (rng.next_u32() & 1) as u8).collect();
    let rate = rate(12).ok_or("12 Mb/s is not a known rate")?;
    let leading_gap = 64 + (seed % 48) as usize;

    // capture: modulate the frame, run it through the WLAN channel.
    let (at, step_us) = step(
        rec,
        frame,
        "session.step.ofdm.capture",
        "session.step_us.ofdm.capture",
        &mut s,
        &mut workers.real,
    );
    let (tx, tx_us) = rec.timed(at, "ofdm.tx_synth", "ofdm.tx_synth_us", || {
        sdr_ofdm::Transmitter::new(rate).transmit(&bits)
    });
    let (rx, channel_us) = rec.timed(at, "ofdm.channel", "ofdm.channel_us", || {
        let channel = WlanChannel {
            leading_gap,
            seed,
            ..WlanChannel::default()
        };
        channel.run(&tx.samples)
    });
    rec.push(
        "session.step_self_us.ofdm.capture",
        step_us - tx_us - channel_us,
    );
    workers.refresh();

    // detect: configuration 2a on the array (2b prefetched behind it),
    // golden autocorrelation and plateau detection.
    let (at, step_us) = step(
        rec,
        frame,
        "session.step.ofdm.detect",
        "session.step_us.ofdm.detect",
        &mut s,
        &mut workers.real,
    );
    let shadow = &mut workers.shadow;
    let (cfg, _, act_us) = rec.span(at, "config_manager.activate", || {
        shadow.activate(OfdmKernel::PreambleDetector)
    });
    let cfg = xpp(cfg)?;
    let (prefetched, _, prefetch_us) = rec.span(at, "config_manager.prefetch", || {
        shadow.prefetch(OfdmKernel::Demodulator)
    });
    xpp(prefetched)?;
    let (metric, job_us) = rec.job(at, &DETECTOR, shadow, |array| {
        drive_detector(array, cfg, &rx)
    })?;
    let (golden, golden_us) = rec.timed(at, "ofdm.golden_detect", "ofdm.golden_detect_us", || {
        (autocorr_metric(&rx), OfdmReceiver::new(rate).detect(&rx))
    });
    ensure(
        metric == golden.0,
        "array preamble metric diverged from golden",
    )?;
    let coarse = golden.1.ok_or("no preamble plateau found")?;
    rec.push(
        "session.step_self_us.ofdm.detect",
        step_us - act_us - prefetch_us - job_us - golden_us,
    );
    workers.refresh();

    let mut s = park_and_rehydrate(rec, frame, s, "session.rehydrate_us.ofdm_demod")?;

    // demod: the Fig. 10 swap (2a out, 2b in), fine timing, FFT of the
    // first data symbol, slicing on the array, full golden decode.
    let (at, step_us) = step(
        rec,
        frame,
        "session.step.ofdm.demod",
        "session.step_us.ofdm.demod",
        &mut s,
        &mut workers.real,
    );
    ensure(
        *s.state() == SessionState::Done,
        "ofdm session did not end Done",
    )?;
    let shadow = &mut workers.shadow;
    let (swapped, _, swap_us) = rec.span(at, "config_manager.swap", || {
        shadow.swap(OfdmKernel::PreambleDetector, OfdmKernel::Demodulator)
    });
    let cfg = xpp(swapped)?;
    let sync = OfdmReceiver::new(rate);
    let (long_start, _, timing_us) =
        rec.span(at, "ofdm.fine_timing", || sync.fine_timing(&rx, coarse));
    let first = long_start.ok_or("fine timing failed")? + 2 * 64 + CP_LEN;
    ensure(
        first + 64 <= rx.len(),
        "frame truncated before first data symbol",
    )?;
    let mut window = [Cplx::<i32>::ZERO; 64];
    window.copy_from_slice(&rx[first..first + 64]);
    let (spectrum, fft_us) = rec.timed(at, "dsp.fft64", "dsp.fft64_us", || {
        Fft64Fixed::with_stage_shift(1).run(&window)
    });
    let carriers: Vec<Cplx<i32>> = data_subcarriers()
        .iter()
        .map(|&k| spectrum[subcarrier_to_bin(k)])
        .collect();
    let weights = vec![Cplx::new(512, 0); carriers.len()];
    let (slices, job_us) = rec.job(at, &DEMODULATOR, shadow, |array| {
        drive_demodulator(array, cfg, &carriers, &weights)
    })?;
    ensure(
        slices
            .iter()
            .zip(&carriers)
            .all(|(&(b0, b1), c)| b0 == (c.re < 0) as u8 && b1 == (c.im < 0) as u8),
        "2b slicer diverged from spectrum sign",
    )?;
    let (decoded, _, receive_us) = rec.span(at, "ofdm.receive", || sync.receive(&rx, bits.len()));
    ensure(
        decoded.is_ok_and(|out| out.bits == bits),
        "golden receiver did not decode the sent payload",
    )?;
    rec.push("ofdm.golden_rx_us", timing_us + receive_us);
    rec.push(
        "session.step_self_us.ofdm.demod",
        step_us - swap_us - timing_us - fft_us - job_us - receive_us,
    );
    workers.refresh();
    Ok(())
}

// ---------------------------------------------------------------------------
// Direct measurements
// ---------------------------------------------------------------------------

/// Times every layer cost the replay does not isolate. Their spans are
/// roots of no frame.
pub fn direct(rec: &mut Rec, seed: u64) -> Check<()> {
    compile_and_load(rec)?;
    activation_tiers(rec)?;
    stepping_rate(rec, seed)?;
    pool_and_router(rec, seed)?;
    frontend_admission(rec, seed);
    Ok(())
}

/// `xpp.compile_us.*` (netlist build + compile, cold) and
/// `xpp.load_ns_per_word` (place, then stream the bus until running).
fn compile_and_load(rec: &mut Rec) -> Check<()> {
    let cell = CellConfig::default();
    let despreader = WcdmaKernel::Despreader {
        sf: cell.dpch.sf,
        code_index: cell.dpch.code_index,
    };
    let kernels: [(KernelSpec, &KernelNames); 4] = [
        (WcdmaKernel::Descrambler.into(), &DESCRAMBLER),
        (despreader.into(), &DESPREADER),
        (OfdmKernel::PreambleDetector.into(), &DETECTOR),
        (OfdmKernel::Demodulator.into(), &DEMODULATOR),
    ];
    for _ in 0..REPS {
        for (spec, names) in &kernels {
            let (compiled, _) = rec.timed(ROOT, "xpp.compile", names.compile_us, || {
                CompiledConfig::compile(&spec.build())
            });
            let mut array = Array::xpp64a();
            let budget = compiled.load_cycles() + 1_000;
            let (loaded, _, us) = rec.span(ROOT, "xpp.load", || {
                let id = array.configure_compiled(&compiled)?;
                for _ in 0..budget {
                    if array.is_running(id) {
                        break;
                    }
                    array.step();
                }
                Ok(array.is_running(id))
            });
            ensure(xpp(loaded)?, "configuration never finished loading")?;
            rec.push(
                "xpp.load_ns_per_word",
                us * 1e3 / compiled.load_cycles() as f64,
            );
        }
    }
    Ok(())
}

/// `config_manager.activate_us.*`, `.words_per_activation.*` and
/// `.swap_us`, one fresh worker per tier so each activation is served
/// by exactly the tier it is named after.
fn activation_tiers(rec: &mut Rec) -> Check<()> {
    let detector = KernelSpec::Ofdm(OfdmKernel::PreambleDetector);
    let demodulator = KernelSpec::Ofdm(OfdmKernel::Demodulator);
    let store = Arc::new(ConfigStore::new(8));
    for spec in [detector, demodulator] {
        store.get_or_compile(&spec.config_name(), || spec.build());
    }
    let demand_words = |w: &WorkerArray| w.metrics().snapshot().config_words_demand as f64;
    for _ in 0..REPS {
        // cold: private empty store, so build + compile + place + load.
        let mut w = WorkerArray::new(8, Arc::new(Metrics::new()));
        let (id, _) = rec.timed(
            ROOT,
            "config_manager.activate.cold",
            "config_manager.activate_us.cold",
            || w.activate(demodulator),
        );
        xpp(id)?;
        rec.push("config_manager.words_per_activation.cold", demand_words(&w));

        // resident: the configuration is already running.
        let words = demand_words(&w);
        let (ids, _, us) = rec.span(ROOT, "config_manager.activate.resident", || {
            (0..100).try_for_each(|_| w.activate(demodulator).map(drop))
        });
        xpp(ids)?;
        rec.push("config_manager.activate_us.resident", us / 100.0);
        rec.push(
            "config_manager.words_per_activation.resident",
            demand_words(&w) - words,
        );

        // store hit, full load: compiled already, nothing resident to diff.
        let mut w = WorkerArray::with_store(Arc::clone(&store), Arc::new(Metrics::new()));
        let (id, _) = rec.timed(
            ROOT,
            "config_manager.activate.store_hit_full",
            "config_manager.activate_us.store_hit_full",
            || w.activate(demodulator),
        );
        xpp(id)?;
        rec.push(
            "config_manager.words_per_activation.store_hit_full",
            demand_words(&w),
        );

        // delta: 2b streamed as a word delta against the resident 2a.
        let mut w = shard_like_worker(Some(&store));
        xpp(w.activate(detector))?;
        let words = demand_words(&w);
        let (id, _) = rec.timed(
            ROOT,
            "config_manager.activate.delta",
            "config_manager.activate_us.delta",
            || w.activate(demodulator),
        );
        xpp(id)?;
        rec.push(
            "config_manager.words_per_activation.delta",
            demand_words(&w) - words,
        );

        // swap: Fig. 10 2a -> 2b on a prefetch hit (the load streamed
        // while the detector ran).
        let mut w = shard_like_worker(Some(&store));
        xpp(w.activate(detector))?;
        xpp(w.prefetch(demodulator))?;
        w.array_mut().run(256);
        let (id, _) = rec.timed(
            ROOT,
            "config_manager.swap",
            "config_manager.swap_us",
            || w.swap(detector, demodulator),
        );
        xpp(id)?;
    }
    Ok(())
}

/// `xpp.mcycles_per_host_s.capture_{on,off}`: the same descrambler input
/// stepped with schedule capture on and off, interleaved.
fn stepping_rate(rec: &mut Rec, seed: u64) -> Check<()> {
    let cell = CellConfig::default();
    let code = ScramblingCode::downlink(cell.scrambling_code);
    let bits: Vec<u8> = (0..32).map(|i| (seed >> i) as u8 & 1).collect();
    let signal = CellTransmitter::new(cell).transmit(&bits);
    let link = CellLink::new(vec![Path::new(4, Cplx::new(0.8, 0.2))]);
    let rx = propagate(&[(signal, link)], 0.02, seed, AdcConfig::default());
    let n = ((rx.len() - 4) / cell.dpch.sf) * cell.dpch.sf;

    let mut capture_off = shard_like_worker(None);
    capture_off.array_mut().set_schedule_capture(false);
    let mut arms = [
        ("xpp.mcycles_per_host_s.capture_on", shard_like_worker(None)),
        ("xpp.mcycles_per_host_s.capture_off", capture_off),
    ];
    for _ in 0..REPS {
        for (metric, worker) in &mut arms {
            let cfg = xpp(worker.activate(WcdmaKernel::Descrambler))?;
            let before = worker.array().stats().cycles;
            let (out, _, us) = rec.span(ROOT, "xpp.step", || {
                drive_descrambler(worker.array_mut(), cfg, &rx, &code, 4, n)
            });
            xpp(out)?;
            let cycles = worker.array().stats().cycles - before;
            // cycles per microsecond = millions of cycles per second.
            rec.push(metric, cycles as f64 / us);
        }
    }
    Ok(())
}

/// `pool.roundtrip_us` (submit -> recv of an OFDM capture step on an idle
/// one-shard pool, minus the same step run directly) and
/// `router.place_ns` on that pool's live residency view.
fn pool_and_router(rec: &mut Rec, seed: u64) -> Check<()> {
    let metrics = Arc::new(Metrics::new());
    let pool = ShardPool::new(
        PoolConfig {
            shards: 1,
            delta_loading: true,
            ..PoolConfig::default()
        },
        Arc::clone(&metrics),
    );
    let mut local = shard_like_worker(None);
    for i in 0..REPS as u64 {
        let session_seed = (seed + i) % SESSION_SEEDS;
        let at = At {
            parent: None,
            frame: Some(i),
        };
        let (back, _, pool_us) = rec.span(at, "pool.roundtrip", || {
            pool.submit(Session::ofdm(i, session_seed))
                .map_err(|e| e.to_string())
                .and_then(|_| pool.recv().ok_or_else(|| "pool shut down".to_string()))
        });
        let mut direct = Session::ofdm(i, session_seed);
        let (_, _, direct_us) =
            rec.span(at, "session.step.ofdm.capture", || direct.step(&mut local));
        rec.push("pool.roundtrip_us", pool_us - direct_us);
        // Finish the frame through the pool so its shard publishes a
        // residency snapshot for the router measurement below.
        let mut s = back?;
        while !s.is_terminal() {
            pool.submit(s).map_err(|e| e.to_string())?;
            s = pool.recv().ok_or("pool shut down")?;
        }
        ensure(
            *s.state() == SessionState::Done,
            "pool round-trip session did not end Done",
        )?;
    }

    let router = AffinityRouter::new(Arc::clone(pool.residency_view()), metrics);
    let kernel = KernelSpec::Ofdm(OfdmKernel::Demodulator);
    for _ in 0..REPS {
        let (_, _, us) = rec.span(ROOT, "router.place", || {
            for id in 0..1_000 {
                black_box(router.place(Some(&kernel), id));
            }
        });
        // Microseconds per thousand calls = nanoseconds per call.
        rec.push("router.place_ns", us);
    }
    pool.shutdown();
    Ok(())
}

/// `frontend.admit_ns` and `frontend.parking_pop_ns`, per record over
/// chunks of 128.
fn frontend_admission(rec: &mut Rec, seed: u64) {
    const CHUNK: usize = 128;
    let records = WORKLOADS[3].records(seed, 0, REPS * CHUNK, 0);
    let mut fe = Frontend::new(FrontendConfig {
        shards: 1,
        parking_capacity: records.len(),
        ..FrontendConfig::default()
    });
    for chunk in records.chunks(CHUNK) {
        let (_, _, us) = rec.span(ROOT, "frontend.admit", || {
            for r in chunk {
                fe.admit(*r);
            }
        });
        rec.push("frontend.admit_ns", us * 1e3 / CHUNK as f64);
    }
    fe.shutdown();

    let mut lot = ParkingLot::with_capacity(records.len());
    for r in &records {
        lot.park(*r);
    }
    for _ in 0..REPS {
        let (_, _, us) = rec.span(ROOT, "frontend.parking_pop", || {
            for _ in 0..CHUNK {
                black_box(lot.pop_earliest());
            }
        });
        rec.push("frontend.parking_pop_ns", us * 1e3 / CHUNK as f64);
    }
}
