//! The golden OFDM receiver (paper Fig. 8): framing and synchronisation,
//! FFT, equalisation, demodulation, Viterbi decoding and descrambling.
//!
//! The word-level kernels shared with the array configurations are defined
//! here with bit-exact integer semantics:
//!
//! * [`autocorr_metric`] — the lag-16 preamble-detection correlator of
//!   configuration 2a (the short training symbol repeats every 16 samples),
//! * the FFT-64 is [`sdr_dsp::fft::Fft64Fixed`], the golden model of the
//!   Fig. 9 netlist.
//!
//! Channel estimation, equalisation and soft demapping run in floating
//! point (DSP tasks in the paper's partitioning).

use crate::convolutional::{depuncture, viterbi_decode};
use crate::interleaver::deinterleave;
use crate::modulation::demap_soft;
use crate::params::{data_subcarriers, subcarrier_to_bin, RateParams, CP_LEN, FFT_LEN, SYMBOL_LEN};
use crate::preamble::long_symbol_64;
use crate::scrambler::Scrambler;
use crate::tx::{DEFAULT_SCRAMBLER_SEED, SERVICE_BITS, TAIL_BITS};
use sdr_dsp::fft::Fft64Fixed;
use sdr_dsp::filter::cross_correlate;
use sdr_dsp::Cplx;
use std::error::Error as StdError;
use std::fmt;

/// Autocorrelation lag: the short-training-symbol period.
pub const AUTOCORR_LAG: usize = 16;

/// Autocorrelation window length.
pub const AUTOCORR_WINDOW: usize = 32;

/// Truncating shift applied to each correlation product (keeps the running
/// sums inside 24-bit words on the array).
pub(crate) const AUTOCORR_PROD_SHIFT: u32 = 6;

/// The lag-16 sliding autocorrelation magnitude metric, bit-exact with the
/// configuration-2a netlist:
///
/// ```text
/// p[n]  = (x[n]·conj(x[n−16])) with each product >> 6 (truncating)
/// s[n]  = s[n−1] + p[n] − p[n−32]
/// m[n]  = |Re s[n]| + |Im s[n]|
/// ```
///
/// `m[n]` plateaus while the 16-periodic short preamble passes.
pub fn autocorr_metric(samples: &[Cplx<i32>]) -> Vec<i32> {
    let n = samples.len();
    let mut metric = vec![0i32; n];
    let mut window = std::collections::VecDeque::with_capacity(AUTOCORR_WINDOW + 1);
    let mut s = Cplx::<i32>::ZERO;
    for i in 0..n {
        let p = if i >= AUTOCORR_LAG {
            let a = samples[i];
            let b = samples[i - AUTOCORR_LAG];
            Cplx::new(
                ((a.re * b.re) >> AUTOCORR_PROD_SHIFT) + ((a.im * b.im) >> AUTOCORR_PROD_SHIFT),
                ((a.im * b.re) >> AUTOCORR_PROD_SHIFT) - ((a.re * b.im) >> AUTOCORR_PROD_SHIFT),
            )
        } else {
            Cplx::<i32>::ZERO
        };
        window.push_back(p);
        s += p;
        if window.len() > AUTOCORR_WINDOW {
            s -= window.pop_front().expect("window non-empty");
        }
        metric[i] = s.re.abs() + s.im.abs();
    }
    metric
}

/// Receiver failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RxError {
    /// No short-preamble plateau found.
    NoPreamble,
    /// The long-preamble matched filter produced no consistent peak pair.
    TimingFailed,
    /// The buffer ends before the expected number of data symbols.
    BufferTooShort {
        /// Samples required.
        needed: usize,
        /// Samples available.
        available: usize,
    },
}

impl fmt::Display for RxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RxError::NoPreamble => write!(f, "no preamble detected"),
            RxError::TimingFailed => write!(f, "long-preamble timing failed"),
            RxError::BufferTooShort { needed, available } => {
                write!(
                    f,
                    "buffer too short: need {needed} samples, have {available}"
                )
            }
        }
    }
}

impl StdError for RxError {}

/// Decoded frame plus synchronisation diagnostics.
#[derive(Debug, Clone)]
pub struct RxOutput {
    /// The decoded PSDU bits.
    pub bits: Vec<u8>,
    /// Sample index where the long training field's first symbol begins.
    pub long_start: usize,
    /// Sample index of the first data symbol.
    pub data_start: usize,
    /// Per-subcarrier channel estimate (FFT-bin order).
    pub channel: Vec<Cplx<f64>>,
}

/// The golden receiver.
#[derive(Debug, Clone, Copy)]
pub struct OfdmReceiver {
    rate: RateParams,
    scrambler_seed: u32,
    llr_scale: f64,
    fft_stage_shift: u32,
}

impl OfdmReceiver {
    /// Creates a receiver for a known rate point (the SIGNAL field is not
    /// modelled; see `tx`).
    ///
    /// The FFT per-stage scaling defaults to `>>1`, not the paper's `>>2`:
    /// with 10-bit inputs, three `>>2` stages leave "4-bit precision" (the
    /// paper's own words) — enough for BPSK/QPSK but *below the
    /// constellation spacing* of 16/64-QAM, so the 36–54 Mbit/s rates
    /// cannot work. The 24-bit datapath has ample headroom for `>>1`.
    /// The `fig9` experiment quantifies this trade-off.
    pub fn new(rate: RateParams) -> Self {
        OfdmReceiver {
            rate,
            scrambler_seed: DEFAULT_SCRAMBLER_SEED,
            llr_scale: 64.0,
            fft_stage_shift: 1,
        }
    }

    /// Overrides the FFT per-stage scaling shift (the paper uses 2).
    pub fn with_fft_stage_shift(mut self, shift: u32) -> Self {
        self.fft_stage_shift = shift;
        self
    }

    /// Detects the frame via the short-preamble plateau; returns the coarse
    /// start index.
    pub fn detect(&self, samples: &[Cplx<i32>]) -> Option<usize> {
        self.detect_in_metric(&autocorr_metric(samples))
    }

    /// [`OfdmReceiver::detect`] over an [`autocorr_metric`] the caller
    /// already holds (configuration 2a streams it off the array).
    pub fn detect_in_metric(&self, m: &[i32]) -> Option<usize> {
        let peak = *m.iter().max()?;
        if peak <= 0 {
            return None;
        }
        let threshold = peak / 2;
        // First index that starts a sustained run above threshold.
        let run = 8;
        let mut count = 0;
        for (i, &v) in m.iter().enumerate() {
            if v > threshold {
                count += 1;
                if count == run {
                    return Some(i + 1 - run);
                }
            } else {
                count = 0;
            }
        }
        None
    }

    /// Fine timing: matched filter against the long training symbol; returns
    /// the start of the long field's *first* 64-sample symbol.
    pub fn fine_timing(&self, samples: &[Cplx<i32>], coarse: usize) -> Option<usize> {
        let template: Vec<Cplx<i32>> = long_symbol_64()
            .iter()
            .map(|v| Cplx::new((v.re * 64.0).round() as i32, (v.im * 64.0).round() as i32))
            .collect();
        let lo = coarse;
        let hi = (coarse + 450).min(samples.len());
        if hi <= lo + FFT_LEN {
            return None;
        }
        let corr = matched_filter(&samples[lo..hi], &template, 8);
        let (peak_at, _) = corr.iter().enumerate().max_by_key(|(_, v)| v.sqmag())?;
        // The long field has two repetitions 64 samples apart; figure out
        // whether the strongest peak is the first or the second.
        let mag = |k: i64| -> i64 {
            if k >= 0 && (k as usize) < corr.len() {
                corr[k as usize].sqmag()
            } else {
                0
            }
        };
        let before = mag(peak_at as i64 - 64);
        let after = mag(peak_at as i64 + 64);
        if after >= before {
            Some(lo + peak_at) // peak is L1
        } else {
            Some(lo + peak_at - 64) // peak is L2
        }
    }

    /// Estimates the channel from the two long training symbols starting at
    /// `long_start`.
    pub(crate) fn estimate_channel(
        &self,
        samples: &[Cplx<i32>],
        long_start: usize,
    ) -> Vec<Cplx<f64>> {
        let fft = Fft64Fixed::with_stage_shift(self.fft_stage_shift);
        let grab = |at: usize| -> [Cplx<i32>; 64] {
            let mut buf = [Cplx::<i32>::ZERO; 64];
            buf.copy_from_slice(&samples[at..at + 64]);
            buf
        };
        let y1 = fft.run(&grab(long_start));
        let y2 = fft.run(&grab(long_start + 64));
        let l = crate::preamble::long_sequence();
        let mut h = vec![Cplx::<f64>::ZERO; FFT_LEN];
        for (idx, k) in (-26i32..=26).enumerate() {
            if k == 0 {
                continue;
            }
            let bin = subcarrier_to_bin(k);
            let avg = Cplx::new(
                (y1[bin].re + y2[bin].re) as f64 / 2.0,
                (y1[bin].im + y2[bin].im) as f64 / 2.0,
            );
            // L is ±1, so dividing by it is multiplying.
            h[bin] = avg.scale(l[idx] as f64);
        }
        h
    }

    /// Full receive chain over a sample buffer carrying `psdu_bits` data
    /// bits.
    ///
    /// # Errors
    ///
    /// Returns an [`RxError`] if detection, timing or buffer length fails.
    pub fn receive(&self, samples: &[Cplx<i32>], psdu_bits: usize) -> Result<RxOutput, RxError> {
        let coarse = self.detect(samples).ok_or(RxError::NoPreamble)?;
        let long_start = self
            .fine_timing(samples, coarse)
            .ok_or(RxError::TimingFailed)?;
        self.receive_at(samples, long_start, psdu_bits)
    }

    /// The receive chain after synchronisation: channel estimate, FFT,
    /// equalisation, demapping, Viterbi decoding and descrambling of a
    /// frame whose long training field's first symbol begins at
    /// `long_start` (what [`OfdmReceiver::fine_timing`] returns).
    ///
    /// # Errors
    ///
    /// Returns [`RxError::BufferTooShort`] if the buffer ends before the
    /// last data symbol that `long_start` and `psdu_bits` imply.
    pub fn receive_at(
        &self,
        samples: &[Cplx<i32>],
        long_start: usize,
        psdu_bits: usize,
    ) -> Result<RxOutput, RxError> {
        let ndbps = self.rate.data_bits_per_symbol();
        let n_sym = (SERVICE_BITS + psdu_bits + TAIL_BITS).div_ceil(ndbps);
        let data_start = long_start.saturating_add(2 * FFT_LEN);
        let needed = data_start.saturating_add(n_sym * SYMBOL_LEN);
        if samples.len() < needed {
            return Err(RxError::BufferTooShort {
                needed,
                available: samples.len(),
            });
        }

        let channel = self.estimate_channel(samples, long_start);
        let fft = Fft64Fixed::with_stage_shift(self.fft_stage_shift);
        let carriers = data_subcarriers();
        let mut llrs: Vec<i32> = Vec::with_capacity(n_sym * self.rate.coded_bits_per_symbol());
        for s in 0..n_sym {
            let at = data_start + s * SYMBOL_LEN + CP_LEN;
            let mut buf = [Cplx::<i32>::ZERO; 64];
            buf.copy_from_slice(&samples[at..at + FFT_LEN]);
            let spectrum = fft.run(&buf);
            let mut sym_llrs = Vec::with_capacity(self.rate.coded_bits_per_symbol());
            for &k in &carriers {
                let bin = subcarrier_to_bin(k);
                let h = channel[bin];
                let y = spectrum[bin].to_f64();
                let eq = if h.sqmag() > 1e-9 {
                    y.div(h)
                } else {
                    Cplx::<f64>::ZERO
                };
                sym_llrs.extend(demap_soft(eq, self.rate.modulation, self.llr_scale));
            }
            llrs.extend(deinterleave(&sym_llrs, self.rate.modulation));
        }

        let decoded = viterbi_decode(&depuncture(&llrs, self.rate.code_rate));
        let mut descrambled = decoded;
        Scrambler::new(self.scrambler_seed).scramble_in_place(&mut descrambled);
        let bits = descrambled[SERVICE_BITS..SERVICE_BITS + psdu_bits].to_vec();
        Ok(RxOutput {
            bits,
            long_start,
            data_start,
            channel,
        })
    }
}

/// [`cross_correlate`] for operands a 16-bit multiplier takes. When every
/// sample and tap is inside ±2¹⁵ and `peak · Σ(|re| + |im|)` over the taps
/// fits an `i32`, no partial sum of a lag can leave `i32` in any order, so
/// each lag is two dot products of `i16` (re, im) pairs accumulated in
/// `i32`, equal to the 64-bit sums bit for bit — a 10-bit ADC against the
/// long-symbol template always qualifies. Anything wider goes through
/// `cross_correlate` itself.
fn matched_filter(x: &[Cplx<i32>], taps: &[Cplx<i32>], shift: u32) -> Vec<Cplx<i64>> {
    let magnitude = |v: &Cplx<i32>| v.re.unsigned_abs().max(v.im.unsigned_abs()) as u64;
    let peak = x.iter().chain(taps).map(magnitude).max().unwrap_or(0);
    let tap_sum: u64 = taps
        .iter()
        .map(|t| t.re.unsigned_abs() as u64 + t.im.unsigned_abs() as u64)
        .sum();
    if taps.is_empty() || peak >= 1 << 15 || peak * tap_sum > i32::MAX as u64 {
        return cross_correlate(x, taps, shift);
    }
    // Re Σ x·conj(t) = Σ x.re·t.re + x.im·t.im; Im = Σ x.im·t.re − x.re·t.im.
    let pair = |re: i32, im: i32| [re as i16, im as i16];
    let xs: Vec<_> = x.iter().map(|c| pair(c.re, c.im)).collect();
    let re_taps: Vec<_> = taps.iter().map(|t| pair(t.re, t.im)).collect();
    let im_taps: Vec<_> = taps.iter().map(|t| pair(-t.im, t.re)).collect();
    xs.windows(taps.len())
        .map(|lag| {
            Cplx::new(
                (dot_i16(lag, &re_taps) >> shift) as i64,
                (dot_i16(lag, &im_taps) >> shift) as i64,
            )
        })
        .collect()
}

fn dot_i16(a: &[[i16; 2]], b: &[[i16; 2]]) -> i32 {
    a.iter()
        .zip(b)
        .map(|(a, b)| a[0] as i32 * b[0] as i32 + a[1] as i32 * b[1] as i32)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::WlanChannel;
    use crate::params::{rate, RATES};
    use crate::tx::Transmitter;
    use proptest::prelude::*;
    use sdr_dsp::metrics::BerCounter;

    fn psdu(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 29 + i / 7 + 1) % 2) as u8).collect()
    }

    #[test]
    fn autocorr_plateaus_on_short_preamble() {
        let tx = Transmitter::new(rate(6).unwrap());
        let frame = tx.transmit(&psdu(48));
        let rx = WlanChannel::default().run(&frame.samples);
        let m = autocorr_metric(&rx);
        let peak = *m.iter().max().unwrap();
        // Plateau within the short preamble region (gap = 100).
        let inside = m[140..240].iter().filter(|&&v| v > peak / 2).count();
        assert!(inside > 80, "plateau too short: {inside}");
        // Quiet before the frame.
        assert!(m[..80].iter().all(|&v| v < peak / 4));
    }

    #[test]
    fn detect_and_fine_timing_locate_the_frame() {
        let tx = Transmitter::new(rate(12).unwrap());
        let frame = tx.transmit(&psdu(96));
        let ch = WlanChannel {
            leading_gap: 137,
            ..Default::default()
        };
        let rx_samples = ch.run(&frame.samples);
        let receiver = OfdmReceiver::new(rate(12).unwrap());
        let coarse = receiver.detect(&rx_samples).unwrap();
        assert!((137..137 + 160).contains(&coarse), "coarse {coarse}");
        let long_start = receiver.fine_timing(&rx_samples, coarse).unwrap();
        // Long field starts at gap+160; its first symbol at gap+160+32.
        assert_eq!(long_start, 137 + 160 + 32);
    }

    #[test]
    fn clean_channel_roundtrip_all_rates() {
        for r in RATES {
            let bits = psdu(3 * r.data_bits_per_symbol());
            let frame = Transmitter::new(r).transmit(&bits);
            let rx = WlanChannel::default().run(&frame.samples);
            let out = OfdmReceiver::new(r).receive(&rx, bits.len()).unwrap();
            assert_eq!(out.bits, bits, "rate {} Mb/s", r.mbps);
        }
    }

    #[test]
    fn multipath_within_guard_interval_is_equalised() {
        let r = rate(24).unwrap();
        let bits = psdu(4 * r.data_bits_per_symbol());
        let frame = Transmitter::new(r).transmit(&bits);
        let ch = WlanChannel::default().with_echo(5, Cplx::new(0.4, -0.3));
        let rx = ch.run(&frame.samples);
        let out = OfdmReceiver::new(r).receive(&rx, bits.len()).unwrap();
        assert_eq!(out.bits, bits);
    }

    #[test]
    fn moderate_noise_is_corrected_by_coding() {
        let r = rate(6).unwrap();
        let bits = psdu(6 * r.data_bits_per_symbol());
        let frame = Transmitter::new(r).transmit(&bits);
        let ch = WlanChannel::awgn(0.18, 7);
        let rx = ch.run(&frame.samples);
        let out = OfdmReceiver::new(r).receive(&rx, bits.len()).unwrap();
        let mut ber = BerCounter::new();
        ber.update(&bits, &out.bits);
        assert_eq!(ber.errors(), 0, "ber {}", ber.ber());
    }

    #[test]
    fn rate_54_needs_higher_snr_than_rate_6() {
        let sigma = 0.12;
        let mut bers = Vec::new();
        for mbps in [6u32, 54] {
            let r = rate(mbps).unwrap();
            let bits = psdu(6 * r.data_bits_per_symbol());
            let frame = Transmitter::new(r).transmit(&bits);
            let rx = WlanChannel::awgn(sigma, 11).run(&frame.samples);
            let out = OfdmReceiver::new(r).receive(&rx, bits.len()).unwrap();
            let mut ber = BerCounter::new();
            ber.update(&bits, &out.bits);
            bers.push(ber.ber());
        }
        assert!(bers[1] > bers[0], "54 Mb/s should degrade first: {bers:?}");
    }

    #[test]
    fn missing_preamble_is_reported() {
        let receiver = OfdmReceiver::new(rate(6).unwrap());
        let silence = vec![Cplx::new(0, 0); 2000];
        match receiver.receive(&silence, 24) {
            Err(RxError::NoPreamble) => {}
            other => panic!("expected NoPreamble, got {other:?}"),
        }
    }

    #[test]
    fn truncated_buffer_is_reported() {
        let r = rate(6).unwrap();
        let bits = psdu(8 * r.data_bits_per_symbol());
        let frame = Transmitter::new(r).transmit(&bits);
        let rx = WlanChannel::default().run(&frame.samples);
        let cut = &rx[..rx.len() - 300];
        match OfdmReceiver::new(r).receive(cut, bits.len()) {
            Err(RxError::BufferTooShort { .. }) => {}
            other => panic!("expected BufferTooShort, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_of_a_frame_is_an_error_never_a_panic() {
        let r = rate(12).unwrap();
        let bits = psdu(96);
        let samples = WlanChannel::default().run(&Transmitter::new(r).transmit(&bits).samples);
        let receiver = OfdmReceiver::new(r);
        // Gap 100 + 320 preamble samples + 3 data symbols: the frame ends
        // where its last data symbol does, and the channel's trailing
        // samples may go without loss.
        let frame_end = 100 + 320 + 3 * SYMBOL_LEN;
        for cut in 0..=samples.len() {
            match receiver.receive(&samples[..cut], bits.len()) {
                Ok(out) => {
                    assert!(cut >= frame_end, "cut {cut} decoded");
                    assert_eq!(out.bits, bits, "cut {cut}");
                }
                Err(_) => assert!(cut < frame_end, "cut {cut} failed"),
            }
        }
    }

    #[test]
    fn receive_at_rejects_any_long_start_past_the_buffer() {
        let r = rate(12).unwrap();
        let rx = WlanChannel::default().run(&Transmitter::new(r).transmit(&psdu(96)).samples);
        for long_start in [rx.len() - 100, rx.len(), usize::MAX - 200, usize::MAX] {
            match OfdmReceiver::new(r).receive_at(&rx, long_start, 96) {
                Err(RxError::BufferTooShort { .. }) => {}
                other => panic!("long_start {long_start}: {other:?}"),
            }
        }
    }

    fn arb_cplx(limit: i32) -> impl Strategy<Value = Cplx<i32>> {
        (-limit..=limit, -limit..=limit).prop_map(|(re, im)| Cplx::new(re, im))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn receive_is_receive_at_after_synchronisation(
            rate_index in 0usize..8,
            symbols in 1usize..=3,
            gap in 40usize..200,
            seed in any::<u64>(),
            sigma in 0.0f64..0.05,
            echo_delay in 1usize..8,
            echo in (-0.3f64..0.3, -0.3f64..0.3),
        ) {
            let r = RATES[rate_index];
            let bits = psdu(symbols * r.data_bits_per_symbol() - SERVICE_BITS - TAIL_BITS);
            let frame = Transmitter::new(r).transmit(&bits);
            let channel = WlanChannel {
                leading_gap: gap,
                ..WlanChannel::awgn(sigma, seed)
            }
            .with_echo(echo_delay, Cplx::new(echo.0, echo.1));
            let rx = channel.run(&frame.samples);
            let receiver = OfdmReceiver::new(r);
            let whole = receiver.receive(&rx, bits.len()).unwrap();
            let coarse = receiver.detect(&rx).unwrap();
            prop_assert_eq!(receiver.detect_in_metric(&autocorr_metric(&rx)), Some(coarse));
            let long_start = receiver.fine_timing(&rx, coarse).unwrap();
            let split = receiver.receive_at(&rx, long_start, bits.len()).unwrap();
            prop_assert_eq!(&whole.bits, &split.bits);
            prop_assert_eq!(whole.long_start, split.long_start);
            prop_assert_eq!(whole.data_start, split.data_start);
            prop_assert_eq!(&whole.channel, &split.channel);
            prop_assert_eq!(split.long_start, long_start);
        }

        #[test]
        fn matched_filter_is_cross_correlate_on_both_sides_of_its_range_test(
            // 10-bit samples, 16-bit samples against small and full-scale
            // taps (the product bound decides), and samples past 16 bits.
            limits in prop_oneof![
                Just((511, 40)),
                Just((32_767, 255)),
                Just((32_767, 32_767)),
                Just((32_768, 40)),
                Just((1 << 20, 1 << 10)),
            ],
            n_taps in 0usize..=64,
            shift in 0u32..=8,
            seed in any::<u64>(),
        ) {
            let (sample_limit, tap_limit) = limits;
            let mut rng = proptest::test_runner::TestRng::new(seed);
            let mut x: Vec<Cplx<i32>> = (0..n_taps + 40)
                .map(|_| arb_cplx(sample_limit).generate(&mut rng))
                .collect();
            let mut taps: Vec<Cplx<i32>> = (0..n_taps)
                .map(|_| arb_cplx(tap_limit).generate(&mut rng))
                .collect();
            // Every case sits on its limit, so 32,767 and 32,768 are met.
            x[seed as usize % 40].im = sample_limit;
            if let Some(tap) = taps.last_mut() {
                tap.re = tap_limit;
            }
            prop_assert_eq!(matched_filter(&x, &taps, shift), cross_correlate(&x, &taps, shift));
            // Too few samples for one lag: both are empty.
            prop_assert_eq!(matched_filter(&x[..n_taps / 2], &taps, shift), Vec::new());
        }
    }
}
