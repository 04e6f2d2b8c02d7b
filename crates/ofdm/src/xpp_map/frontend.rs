//! The OFDM front-end configurations and the Fig. 10 runtime
//! reconfiguration scenario.
//!
//! Paper: "Modules contained in Configuration 1 are required to run
//! continuously and thus remain in the hardware. The resources of the
//! preamble detection (Configuration 2a) can be removed after execution.
//! The freed resources are then available for the demodulation tasks
//! contained in Configuration 2b."
//!
//! * **Configuration 1** — the 2:1 down-sampler plus the FFT-64 of Fig. 9
//!   ([`frontend_netlist`]); resident for the lifetime of the receiver.
//! * **Configuration 2a** — the lag-16 preamble-detection correlator
//!   ([`preamble_detector_netlist`]), bit-exact with
//!   [`autocorr_metric`](crate::rx::autocorr_metric).
//! * **Configuration 2b** — the QPSK demodulator
//!   ([`demodulator_netlist`]): derotation by streamed conjugate channel
//!   weights and sign slicing.
//!
//! [`ReconfigurableFrontend`] drives the scenario on one array: during
//! search, 2a occupies the last four RAM-PAEs (the FFT's lookup FIFOs take
//! twelve — the device is exactly full); once a frame is found, 2a is
//! removed and 2b loads into the freed PAEs.

use crate::rx::{AUTOCORR_LAG, AUTOCORR_PROD_SHIFT, AUTOCORR_WINDOW};
use sdr_dsp::Cplx;
use xpp_array::iq::{drain_iq, split_iq};
use xpp_array::{
    AluOp, Array, ConfigId, CounterCfg, Netlist, NetlistBuilder, ResourceCounts, Result, UnaryOp,
    Word,
};

/// Golden 2:1 decimating average: `out[k] = (x[2k] + x[2k+1]) >> 1`
/// per component (truncating) — the "down sampling" block of Fig. 8/10
/// reducing the 40 Msps ADC stream to the 20 Msps channel rate.
pub fn downsample2(x: &[Cplx<i32>]) -> Vec<Cplx<i32>> {
    x.chunks_exact(2)
        .map(|p| Cplx::new((p[0].re + p[1].re) >> 1, (p[0].im + p[1].im) >> 1))
        .collect()
}

fn build_downsampler(
    nl: &mut NetlistBuilder,
    i_in: xpp_array::DataOut,
    q_in: xpp_array::DataOut,
) -> (xpp_array::DataOut, xpp_array::DataOut) {
    let tog = nl.counter(CounterCfg::modulo(2));
    let tog_true = nl.unary(UnaryOp::GeK(Word::new(1)), tog.value);
    let tog_ev = nl.to_event(tog_true);
    let (i_even, i_odd) = nl.demux(tog_ev, i_in);
    let (q_even, q_odd) = nl.demux(tog_ev, q_in);
    let si = nl.alu(AluOp::Add, i_even, i_odd);
    let sq = nl.alu(AluOp::Add, q_even, q_odd);
    let di = nl.unary(UnaryOp::ShrK(1), si);
    let dq = nl.unary(UnaryOp::ShrK(1), sq);
    (di, dq)
}

/// Builds Configuration 1: down-sampler + FFT-64, the continuously-resident
/// modules of Fig. 10.
///
/// External ports: `i_in`/`q_in` (40 Msps), `ds_i`/`ds_q` (20 Msps, routed
/// to 2a or to the framing logic), `fft_i_in`/`fft_q_in` and
/// `fft_i_out`/`fft_q_out` (64-sample frames through the Fig. 9 kernel).
pub fn frontend_netlist(stage_shift: u32) -> Netlist {
    // Reuse the validated FFT netlist nodes by rebuilding within one
    // builder: simplest construction is to merge the two blocks manually —
    // the FFT builder is self-contained, so we wrap it as its own netlist
    // and splice the down-sampler alongside through shared construction.
    let mut nl = NetlistBuilder::new(format!("fig10-config1-s{stage_shift}"));
    nl.set_default_capacity(4);
    let i_in = nl.input("i_in");
    let q_in = nl.input("q_in");
    let (di, dq) = build_downsampler(&mut nl, i_in, q_in);
    nl.output("ds_i", di);
    nl.output("ds_q", dq);
    // The FFT block: replicate fft64_netlist's structure by instantiating
    // it as a sub-netlist is not supported; instead the scenario keeps the
    // FFT as part of this configuration by construction below.
    crate::xpp_map::fft64::build_fft64(
        &mut nl,
        stage_shift,
        "fft_i_in",
        "fft_q_in",
        "fft_i_out",
        "fft_q_out",
    );
    nl.build().expect("config1 netlist is well formed")
}

/// Builds Configuration 2a: the preamble-detection correlator. Bit-exact
/// with [`autocorr_metric`](crate::rx::autocorr_metric).
///
/// External ports: `i_in`/`q_in` (20 Msps) → `metric` (one word per
/// sample).
pub fn preamble_detector_netlist() -> Netlist {
    let mut nl = NetlistBuilder::new("fig10-config2a-detector");
    let i_in = nl.input("i_in");
    let q_in = nl.input("q_in");

    // Lag-16 delay lines (zero history).
    let lag_i = nl.fifo(AUTOCORR_LAG + 1, vec![Word::ZERO; AUTOCORR_LAG]);
    let lag_q = nl.fifo(AUTOCORR_LAG + 1, vec![Word::ZERO; AUTOCORR_LAG]);
    nl.wire(i_in, lag_i.input);
    nl.wire(q_in, lag_q.input);
    let i_d = lag_i.output;
    let q_d = lag_q.output;

    // p = x[n] · conj(x[n−16]) with per-product >> 6.
    let m1 = nl.alu(AluOp::MulShr(AUTOCORR_PROD_SHIFT), i_in, i_d);
    let m2 = nl.alu(AluOp::MulShr(AUTOCORR_PROD_SHIFT), q_in, q_d);
    let m3 = nl.alu(AluOp::MulShr(AUTOCORR_PROD_SHIFT), q_in, i_d);
    let m4 = nl.alu(AluOp::MulShr(AUTOCORR_PROD_SHIFT), i_in, q_d);
    let p_re = nl.alu(AluOp::Add, m1, m2);
    let p_im = nl.alu(AluOp::Sub, m3, m4);

    // Sliding window sum: s += p[n] − p[n−32] (running accumulator with a
    // feedback edge carrying an initial zero token).
    let mut windowed = Vec::new();
    for p in [p_re, p_im] {
        let delay = nl.fifo(AUTOCORR_WINDOW + 1, vec![Word::ZERO; AUTOCORR_WINDOW]);
        nl.wire(p, delay.input);
        let diff = nl.alu(AluOp::Sub, p, delay.output);
        let (acc_in0, acc_in1, acc_out) = nl.alu_deferred(AluOp::Add);
        nl.wire(diff, acc_in0);
        nl.wire_with(acc_out, acc_in1, 2, vec![Word::ZERO]);
        windowed.push(acc_out);
    }
    let abs_re = nl.unary(UnaryOp::Abs, windowed[0]);
    let abs_im = nl.unary(UnaryOp::Abs, windowed[1]);
    let metric = nl.alu(AluOp::Add, abs_re, abs_im);
    nl.output("metric", metric);
    nl.build().expect("detector netlist is well formed")
}

/// Builds Configuration 2b: the QPSK demodulator — derotation by the
/// conjugate channel weight (streamed per subcarrier from the DSP) and sign
/// slicing.
///
/// External ports: `i_in`/`q_in` (FFT outputs), `wi`/`wq` (Q9 weights) →
/// `b0`/`b1` (hard bits as 0/1 words).
pub fn demodulator_netlist() -> Netlist {
    let mut nl = NetlistBuilder::new("fig10-config2b-demodulator");
    let i_in = nl.input("i_in");
    let q_in = nl.input("q_in");
    let wi = nl.input("wi");
    let wq = nl.input("wq");

    // z = y·conj(w) >> 9 : re = i·wi + q·wq ; im = q·wi − i·wq.
    let p1 = nl.alu(AluOp::Mul, i_in, wi);
    let p2 = nl.alu(AluOp::Mul, q_in, wq);
    let p3 = nl.alu(AluOp::Mul, q_in, wi);
    let p4 = nl.alu(AluOp::Mul, i_in, wq);
    let re = nl.alu(AluOp::Add, p1, p2);
    let im = nl.alu(AluOp::Sub, p3, p4);
    let re = nl.unary(UnaryOp::ShrK(9), re);
    let im = nl.unary(UnaryOp::ShrK(9), im);
    let b0 = nl.unary(UnaryOp::LtK(Word::ZERO), re);
    let b1 = nl.unary(UnaryOp::LtK(Word::ZERO), im);
    nl.output("b0", b0);
    nl.output("b1", b1);
    nl.build().expect("demodulator netlist is well formed")
}

/// Configuration 2a's drive function (see [`crate::xpp_map`]): `cfg` is a
/// running [`preamble_detector_netlist`] on `array`. Returns one metric
/// value per sample of `rx`, bit-exact with
/// [`autocorr_metric`](crate::rx::autocorr_metric).
///
/// A resident detector keeps the previous caller's tail in its delay
/// lines and running sum. Streaming lag + window zero samples (idle air)
/// ahead of `rx` drains that history exactly — the window sum of 32 zero
/// products is zero — so every job sees the golden zero-history metric;
/// the flush's own outputs are dropped.
///
/// # Errors
///
/// Returns an error if `cfg` is not a detector on `array` or the
/// simulation stalls.
pub fn drive_preamble_detector(
    array: &mut Array,
    cfg: ConfigId,
    rx: &[Cplx<i32>],
) -> Result<Vec<i32>> {
    let flush = AUTOCORR_LAG + AUTOCORR_WINDOW;
    let zeros = || std::iter::repeat_n(Word::ZERO, flush);
    let (i, q) = split_iq(rx);
    array.push_input(cfg, "i_in", zeros().chain(i))?;
    array.push_input(cfg, "q_in", zeros().chain(q))?;
    let expect = flush + rx.len();
    array.run_until_output(cfg, "metric", expect, 20 * expect as u64 + 5_000)?;
    array.run_until_idle(5_000)?;
    let metric = array.drain_output(cfg, "metric")?;
    Ok(metric.iter().skip(flush).map(|w| w.value()).collect())
}

/// Configuration 2b's drive function (see [`crate::xpp_map`]): `cfg` is a
/// running [`demodulator_netlist`] on `array`. One `(y, w)` pair per
/// subcarrier in, `(b0, b1)` hard bits out.
///
/// # Errors
///
/// Returns an error if `cfg` is not a demodulator on `array` or the
/// simulation stalls.
///
/// # Panics
///
/// Panics unless there is exactly one weight per symbol.
pub fn drive_demodulator(
    array: &mut Array,
    cfg: ConfigId,
    symbols: &[Cplx<i32>],
    weights: &[Cplx<i32>],
) -> Result<Vec<(u8, u8)>> {
    assert_eq!(symbols.len(), weights.len(), "one weight per subcarrier");
    let n = symbols.len();
    let (i, q) = split_iq(symbols);
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

/// A log entry of the reconfiguration scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigEvent {
    /// What happened.
    pub action: String,
    /// Configuration-bus cycles consumed so far.
    pub config_cycles: u64,
    /// Free resources after the action.
    pub free: ResourceCounts,
}

/// Drives the Fig. 10 scenario on one array.
#[derive(Debug)]
pub struct ReconfigurableFrontend {
    array: Array,
    cfg1: ConfigId,
    cfg2a: Option<ConfigId>,
    cfg2b: Option<ConfigId>,
    log: Vec<ReconfigEvent>,
}

impl ReconfigurableFrontend {
    /// Loads Configuration 1 (resident) and 2a (search mode).
    ///
    /// # Errors
    ///
    /// Returns an error if placement fails.
    pub fn new(stage_shift: u32) -> Result<Self> {
        let mut array = Array::xpp64a();
        let cfg1 = array.configure(&frontend_netlist(stage_shift))?;
        let cfg2a = array.configure(&preamble_detector_netlist())?;
        array.connect(cfg1, "ds_i", cfg2a, "i_in")?;
        array.connect(cfg1, "ds_q", cfg2a, "q_in")?;
        let mut fe = ReconfigurableFrontend {
            array,
            cfg1,
            cfg2a: Some(cfg2a),
            cfg2b: None,
            log: Vec::new(),
        };
        fe.log("loaded config 1 (downsampler + FFT64) and 2a (preamble detector)");
        Ok(fe)
    }

    fn log(&mut self, action: &str) {
        self.log.push(ReconfigEvent {
            action: action.to_string(),
            config_cycles: self.array.stats().config_cycles,
            free: self.array.free_resources(),
        });
    }

    /// The scenario log.
    pub fn events(&self) -> &[ReconfigEvent] {
        &self.log
    }

    /// The underlying array.
    pub fn array(&self) -> &Array {
        &self.array
    }

    /// The resident configuration's handle.
    pub fn config1(&self) -> ConfigId {
        self.cfg1
    }

    /// Streams 40 Msps samples through the down-sampler into the detector,
    /// returning the metric stream (one value per 20 Msps sample).
    ///
    /// # Errors
    ///
    /// Returns an error if the detector is unloaded or the simulation
    /// stalls.
    pub fn search(&mut self, oversampled: &[Cplx<i32>]) -> Result<Vec<i32>> {
        let cfg2a = self.cfg2a.ok_or(xpp_array::Error::NoSuchConfig(0))?;
        let (i, q) = split_iq(oversampled);
        self.array.push_input(self.cfg1, "i_in", i)?;
        self.array.push_input(self.cfg1, "q_in", q)?;
        let expect = oversampled.len() / 2;
        let budget = 20 * oversampled.len() as u64 + 10_000;
        self.array
            .run_until_output(cfg2a, "metric", expect, budget)?;
        self.array.run_until_idle(10_000)?;
        Ok(self
            .array
            .drain_output(cfg2a, "metric")?
            .iter()
            .map(|w| w.value())
            .collect())
    }

    /// The Fig. 10 switch: removes 2a and loads the demodulator into the
    /// freed resources.
    ///
    /// # Errors
    ///
    /// Returns an error if already switched or placement fails.
    pub fn switch_to_demodulation(&mut self) -> Result<()> {
        let cfg2a = self.cfg2a.take().ok_or(xpp_array::Error::NoSuchConfig(0))?;
        self.array.unload(cfg2a)?;
        self.log("unloaded 2a: preamble-detector resources freed");
        let cfg2b = self.array.configure(&demodulator_netlist())?;
        // Drive the configuration bus until the demodulator is resident so
        // the event log captures the differential load cost.
        while !self.array.is_running(cfg2b) {
            self.array.step();
        }
        self.cfg2b = Some(cfg2b);
        self.log("loaded 2b (demodulator) into the freed resources");
        Ok(())
    }

    /// Runs one 64-sample frame through the resident FFT (the framing
    /// window is supplied by the dedicated-hardware side).
    ///
    /// # Errors
    ///
    /// Returns an error if the simulation stalls.
    pub fn fft(&mut self, frame: &[Cplx<i32>; 64]) -> Result<[Cplx<i32>; 64]> {
        let (i, q) = split_iq(frame);
        self.array.push_input(self.cfg1, "fft_i_in", i)?;
        self.array.push_input(self.cfg1, "fft_q_in", q)?;
        self.array
            .run_until_output(self.cfg1, "fft_i_out", 64, 20_000)?;
        self.array.run_until_idle(10_000)?;
        let flat = drain_iq(&mut self.array, self.cfg1, "fft_i_out", "fft_q_out")?;
        let mut buf = [Cplx::<i32>::ZERO; 64];
        buf.copy_from_slice(&flat[flat.len() - 64..]);
        Ok(buf)
    }

    /// Demodulates equaliser inputs through 2b ([`drive_demodulator`] on
    /// the scenario's array): one `(y, w)` pair per subcarrier, returning
    /// `(b0, b1)` hard bits.
    ///
    /// # Errors
    ///
    /// Returns an error if 2b is not loaded or the simulation stalls.
    pub fn demodulate(
        &mut self,
        symbols: &[Cplx<i32>],
        weights: &[Cplx<i32>],
    ) -> Result<Vec<(u8, u8)>> {
        let cfg2b = self.cfg2b.ok_or(xpp_array::Error::NoSuchConfig(0))?;
        drive_demodulator(&mut self.array, cfg2b, symbols, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rx::autocorr_metric;
    use xpp_array::Error;

    /// The down-sampler netlist alone (the resident configuration
    /// [`frontend_netlist`] embeds the same structure).
    fn downsampler_netlist() -> Netlist {
        let mut nl = NetlistBuilder::new("fig10-downsampler");
        let i_in = nl.input("i_in");
        let q_in = nl.input("q_in");
        let (di, dq) = build_downsampler(&mut nl, i_in, q_in);
        nl.output("i_out", di);
        nl.output("q_out", dq);
        nl.build().expect("downsampler netlist is well formed")
    }

    fn samples(n: usize, seed: i32) -> Vec<Cplx<i32>> {
        (0..n as i32)
            .map(|i| {
                Cplx::new(
                    ((i * 37 + seed * 11) % 1023) - 511,
                    ((i * 73 + seed * 5) % 1023) - 511,
                )
            })
            .collect()
    }

    #[test]
    fn downsampler_matches_golden() {
        let mut array = Array::xpp64a();
        let cfg = array.configure(&downsampler_netlist()).unwrap();
        let x = samples(128, 1);
        let (i, q) = split_iq(&x);
        array.push_input(cfg, "i_in", i).unwrap();
        array.push_input(cfg, "q_in", q).unwrap();
        array.run_until_idle(10_000).unwrap();
        let y = drain_iq(&mut array, cfg, "i_out", "q_out").unwrap();
        assert_eq!(y, downsample2(&x));
    }

    #[test]
    fn detector_matches_golden_metric() {
        let mut array = Array::xpp64a();
        let cfg = array.configure(&preamble_detector_netlist()).unwrap();
        let x = samples(256, 3);
        let (i, q) = split_iq(&x);
        array.push_input(cfg, "i_in", i).unwrap();
        array.push_input(cfg, "q_in", q).unwrap();
        array.run_until_idle(20_000).unwrap();
        let metric: Vec<i32> = array
            .drain_output(cfg, "metric")
            .unwrap()
            .iter()
            .map(|w| w.value())
            .collect();
        assert_eq!(metric, autocorr_metric(&x));
    }

    #[test]
    fn demodulator_slices_derotated_symbols() {
        let mut array = Array::xpp64a();
        let cfg = array.configure(&demodulator_netlist()).unwrap();
        let y = samples(96, 7);
        let w = vec![Cplx::new(400, -200); 96];
        let (i, q) = split_iq(&y);
        let (wi, wq) = split_iq(&w);
        array.push_input(cfg, "i_in", i).unwrap();
        array.push_input(cfg, "q_in", q).unwrap();
        array.push_input(cfg, "wi", wi).unwrap();
        array.push_input(cfg, "wq", wq).unwrap();
        array.run_until_idle(20_000).unwrap();
        let b0 = array.drain_output(cfg, "b0").unwrap();
        let b1 = array.drain_output(cfg, "b1").unwrap();
        for k in 0..y.len() {
            let z = y[k].cmul_shr(w[k].conj(), 9);
            assert_eq!(b0[k].value(), (z.re < 0) as i32, "sym {k}");
            assert_eq!(b1[k].value(), (z.im < 0) as i32, "sym {k}");
        }
    }

    #[test]
    fn scenario_fills_the_device_then_swaps() {
        let mut fe = ReconfigurableFrontend::new(2).unwrap();
        // During search every RAM-PAE is occupied (12 FFT + 4 detector).
        assert_eq!(fe.array().free_resources().ram, 0);
        assert!(fe.cfg2a.is_some());
        // A third configuration cannot fit now.
        let mut probe = NetlistBuilder::new("probe");
        let x = probe.input("x");
        let f = probe.fifo(4, vec![]);
        probe.wire(x, f.input);
        probe.output("y", f.output);
        let probe = probe.build().unwrap();
        match fe.array.configure(&probe) {
            Err(Error::PlacementFailed { resource, .. }) => assert_eq!(resource, "RAM slots"),
            other => panic!("expected RAM exhaustion, got {other:?}"),
        }
        fe.switch_to_demodulation().unwrap();
        assert!(fe.cfg2a.is_none());
        // 2a's four RAM-PAEs came back; 2b uses none.
        assert_eq!(fe.array().free_resources().ram, 4);
        assert_eq!(fe.events().len(), 3);
    }

    #[test]
    fn search_metric_flows_through_the_board_connection() {
        let mut fe = ReconfigurableFrontend::new(2).unwrap();
        // Oversampled (40 Msps) noise: metric of the downsampled stream.
        let over = samples(512, 9);
        let metric = fe.search(&over).unwrap();
        let golden = autocorr_metric(&downsample2(&over));
        assert_eq!(metric, golden);
    }

    #[test]
    fn resident_fft_works_before_and_after_the_swap() {
        use sdr_dsp::fft::Fft64Fixed;
        let mut fe = ReconfigurableFrontend::new(2).unwrap();
        let mut frame = [Cplx::<i32>::ZERO; 64];
        for (n, v) in frame.iter_mut().enumerate() {
            *v = Cplx::new((n as i32 * 31 % 1001) - 500, (n as i32 * 17 % 1001) - 500);
        }
        let golden = Fft64Fixed::with_stage_shift(2).run(&frame);
        assert_eq!(fe.fft(&frame).unwrap(), golden);
        fe.switch_to_demodulation().unwrap();
        assert_eq!(fe.fft(&frame).unwrap(), golden);
    }

    /// The drive functions on one caller-owned array holding 2a and 2b
    /// together — the engine's situation after a prefetch. A second search
    /// on the warm detector must still read the zero-history golden metric:
    /// the flush drains the first caller's tail.
    #[test]
    fn drive_functions_match_golden_on_a_shared_array() {
        let mut array = Array::xpp64a();
        let detector = array.configure(&preamble_detector_netlist()).unwrap();
        let demodulator = array.configure(&demodulator_netlist()).unwrap();
        for seed in [3, 8] {
            let x = samples(200, seed);
            let metric = drive_preamble_detector(&mut array, detector, &x).unwrap();
            assert_eq!(metric, autocorr_metric(&x), "seed {seed}");

            let y = samples(48, seed + 1);
            let w = vec![Cplx::new(400, -200); y.len()];
            let bits = drive_demodulator(&mut array, demodulator, &y, &w).unwrap();
            let golden: Vec<(u8, u8)> = y
                .iter()
                .zip(&w)
                .map(|(y, w)| y.cmul_shr(w.conj(), 9))
                .map(|z| ((z.re < 0) as u8, (z.im < 0) as u8))
                .collect();
            assert_eq!(bits, golden, "seed {seed}");
        }
        assert_eq!(array.stats().configs_loaded, 2, "both stayed resident");
    }
}
