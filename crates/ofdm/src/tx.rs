//! The 802.11a transmitter: the access-point side of the WLAN link
//! (substitute for live infrastructure, DESIGN.md §2).
//!
//! Frame structure: short training field (160 samples) + long training
//! field (160) + data OFDM symbols (80 each). The data field carries a
//! 16-bit all-zero SERVICE field, the PSDU bits, 6 tail zeros and pad bits,
//! scrambled (with the tail re-zeroed), convolutionally encoded, punctured,
//! interleaved and mapped per the configured rate.
//!
//! The SIGNAL field is omitted: the receiver under test is told the rate
//! out of band (documented simplification — the paper's Fig. 8 does not
//! exercise SIGNAL decoding either).

use crate::convolutional::{encode, puncture};
use crate::interleaver::interleave;
use crate::modulation::map_bits;
use crate::params::{
    data_subcarriers, subcarrier_to_bin, RateParams, CP_LEN, FFT_LEN, PILOT_SUBCARRIERS,
};
use crate::preamble::{long_training_field, short_training_field};
use crate::scrambler::{pilot_polarity, Scrambler};
use sdr_dsp::fft::ifft;
use sdr_dsp::Cplx;

/// Number of SERVICE bits (all zero) prepended to the PSDU.
pub(crate) const SERVICE_BITS: usize = 16;

/// Number of tail bits terminating the convolutional code.
pub(crate) const TAIL_BITS: usize = 6;

/// The default scrambler seed used by this implementation.
pub(crate) const DEFAULT_SCRAMBLER_SEED: u32 = 0x5D;

/// A transmitted frame plus the metadata the test harness needs.
#[derive(Debug, Clone)]
pub struct TxFrame {
    /// Baseband samples at 20 Msps (preambles + data symbols).
    pub samples: Vec<Cplx<f64>>,
    /// Number of data OFDM symbols.
    pub data_symbols: usize,
    /// The PSDU bits carried (before padding).
    pub psdu_bits: usize,
}

/// Builds the frequency-domain bins of one data symbol (48 points +
/// 4 pilots with polarity `p`), returning the 80-sample time symbol.
pub(crate) fn modulate_symbol(points: &[Cplx<f64>], polarity: i32) -> Vec<Cplx<f64>> {
    assert_eq!(points.len(), 48, "one OFDM symbol carries 48 data points");
    let mut bins = [Cplx::<f64>::ZERO; FFT_LEN];
    for (k, &pt) in data_subcarriers().iter().zip(points) {
        bins[subcarrier_to_bin(*k)] = pt;
    }
    let pilot_vals = [1, 1, 1, -1];
    for (k, v) in PILOT_SUBCARRIERS.iter().zip(pilot_vals) {
        bins[subcarrier_to_bin(*k)] = Cplx::new((v * polarity) as f64, 0.0);
    }
    let time: Vec<Cplx<f64>> = ifft(&bins)
        .iter()
        .map(|v| {
            Cplx::new(
                v.re * crate::preamble::TIME_SCALE,
                v.im * crate::preamble::TIME_SCALE,
            )
        })
        .collect();
    let mut out = Vec::with_capacity(FFT_LEN + CP_LEN);
    out.extend_from_slice(&time[FFT_LEN - CP_LEN..]);
    out.extend_from_slice(&time);
    out
}

/// The 802.11a transmitter.
///
/// # Example
///
/// ```
/// use sdr_ofdm::params::rate;
/// use sdr_ofdm::tx::Transmitter;
///
/// let tx = Transmitter::new(rate(12).unwrap());
/// let bits: Vec<u8> = (0..200).map(|i| (i % 2) as u8).collect();
/// let frame = tx.transmit(&bits);
/// assert_eq!(frame.psdu_bits, 200);
/// assert!(frame.samples.len() > 320); // preambles + data
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Transmitter {
    rate: RateParams,
    scrambler_seed: u32,
}

impl Transmitter {
    /// Creates a transmitter for one rate point.
    pub fn new(rate: RateParams) -> Self {
        Transmitter {
            rate,
            scrambler_seed: DEFAULT_SCRAMBLER_SEED,
        }
    }

    /// Assembles, encodes and modulates one frame carrying `psdu` bits.
    pub fn transmit(&self, psdu: &[u8]) -> TxFrame {
        let ndbps = self.rate.data_bits_per_symbol();
        let payload = SERVICE_BITS + psdu.len() + TAIL_BITS;
        let n_sym = payload.div_ceil(ndbps);
        let total_bits = n_sym * ndbps;

        // SERVICE + PSDU + tail + pad.
        let mut bits = vec![0u8; total_bits];
        bits[SERVICE_BITS..SERVICE_BITS + psdu.len()].copy_from_slice(psdu);
        // Scramble everything, then force the tail back to zero so the
        // decoder's trellis terminates (17.3.5.2/17.3.5.3).
        let mut scrambler = Scrambler::new(self.scrambler_seed);
        scrambler.scramble_in_place(&mut bits);
        for b in &mut bits[SERVICE_BITS + psdu.len()..SERVICE_BITS + psdu.len() + TAIL_BITS] {
            *b = 0;
        }

        // Encode, puncture, interleave per symbol, map, modulate.
        let coded = puncture(&encode(&bits), self.rate.code_rate);
        let ncbps = self.rate.coded_bits_per_symbol();
        debug_assert_eq!(coded.len(), n_sym * ncbps);
        let polarity = pilot_polarity();

        let mut samples = Vec::with_capacity(320 + (n_sym + 1) * 80);
        samples.extend(short_training_field());
        samples.extend(long_training_field());
        for (s, sym_bits) in coded.chunks(ncbps).enumerate() {
            let interleaved = interleave(sym_bits, self.rate.modulation);
            let points = map_bits(&interleaved, self.rate.modulation);
            // Data symbols are indexed from 1 (index 0 is the SIGNAL symbol
            // in the standard's polarity numbering).
            let p = polarity[(s + 1) % polarity.len()];
            samples.extend(modulate_symbol(&points, p));
        }
        TxFrame {
            samples,
            data_symbols: n_sym,
            psdu_bits: psdu.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::rate;

    #[test]
    fn frame_length_matches_symbol_count() {
        let tx = Transmitter::new(rate(6).unwrap());
        let frame = tx.transmit(&[0u8; 100]);
        // 6 Mb/s: 24 data bits/symbol; (16+100+6)/24 → 6 symbols.
        assert_eq!(frame.data_symbols, 6);
        assert_eq!(frame.samples.len(), 320 + 6 * 80);
    }

    #[test]
    fn higher_rates_use_fewer_symbols() {
        let bits = vec![1u8; 800];
        let slow = Transmitter::new(rate(6).unwrap()).transmit(&bits);
        let fast = Transmitter::new(rate(54).unwrap()).transmit(&bits);
        assert!(fast.data_symbols * 4 < slow.data_symbols);
    }

    #[test]
    fn symbol_has_cyclic_prefix() {
        let points = vec![Cplx::new(0.2, -0.1); 48];
        let sym = modulate_symbol(&points, 1);
        assert_eq!(sym.len(), 80);
        for n in 0..CP_LEN {
            assert!((sym[n] - sym[n + FFT_LEN]).mag() < 1e-12);
        }
    }

    #[test]
    fn average_power_is_moderate() {
        let tx = Transmitter::new(rate(54).unwrap());
        let bits: Vec<u8> = (0..432).map(|i| ((i * 11 + 2) % 2) as u8).collect();
        let frame = tx.transmit(&bits);
        let p: f64 =
            frame.samples.iter().map(|v| v.sqmag()).sum::<f64>() / frame.samples.len() as f64;
        assert!(p > 0.3 && p < 3.0, "avg power {p}");
    }
}
