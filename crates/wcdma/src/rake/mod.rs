//! The rake receiver: detection, tracking, descrambling, despreading,
//! channel correction and combining of CDMA signals (paper §3.1).
//!
//! [`RakeReceiver`] is the golden (software) model of the full receiver,
//! orchestrating the per-module golden kernels. The array-mapped versions of
//! the word-level kernels live in [`crate::xpp_map`] and are tested
//! bit-exact against the functions used here.
//!
//! Soft handover: the receiver tracks several cells (scrambling codes)
//! simultaneously and combines fingers across all of them, since every cell
//! transmits the same dedicated-channel bits during handover.

pub mod combiner;
pub mod estimator;
pub mod finger;
pub mod searcher;
pub mod tracker;

use crate::scrambling::ScramblingCode;
use crate::symbols::sttd_decode_fixed;
use sdr_dsp::Cplx;

use combiner::{combine, decide};
use estimator::{
    estimate_channel, estimate_channel_sttd, quantize_weights, quantize_weights_with_max,
    WEIGHT_MAX_STTD,
};
use finger::{correct, descramble, despread, WEIGHT_FRAC_BITS};
use searcher::PathSearcher;

/// Receiver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RakeConfig {
    /// DPCH spreading factor.
    pub sf: usize,
    /// DPCH OVSF code index.
    pub code_index: usize,
    /// Expect space-time transmit diversity.
    pub sttd: bool,
    /// Path-searcher parameters.
    pub searcher: PathSearcher,
    /// CPICH symbols integrated per channel estimate.
    pub estimation_symbols: usize,
}

impl Default for RakeConfig {
    fn default() -> Self {
        RakeConfig {
            sf: 128,
            code_index: 17,
            sttd: false,
            searcher: PathSearcher::default(),
            estimation_symbols: 8,
        }
    }
}

/// One allocated finger, as reported in the receiver output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FingerReport {
    /// Index of the cell (base station) this finger tracks.
    pub cell: usize,
    /// Path delay in chips.
    pub delay: usize,
    /// Searcher energy of the path.
    pub energy: i64,
    /// Quantised Q9 correction weight (antenna 1).
    pub weight: Cplx<i32>,
    /// Antenna-2 weight (STTD only).
    pub weight2: Option<Cplx<i32>>,
}

/// Receiver output: decided bits plus diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct RakeOutput {
    /// Hard-decision DPCH bits.
    pub bits: Vec<u8>,
    /// The fingers that contributed.
    pub fingers: Vec<FingerReport>,
    /// Soft combined symbols (before decision).
    pub combined: Vec<Cplx<i64>>,
}

/// The golden multi-cell rake receiver.
///
/// # Example
///
/// ```no_run
/// use sdr_wcdma::rake::{RakeConfig, RakeReceiver};
///
/// let receiver = RakeReceiver::new(vec![0, 16], RakeConfig::default());
/// # let rx_samples = vec![];
/// let out = receiver.receive(&rx_samples);
/// println!("{} fingers, {} bits", out.fingers.len(), out.bits.len());
/// ```
#[derive(Debug, Clone)]
pub struct RakeReceiver {
    cells: Vec<ScramblingCode>,
    config: RakeConfig,
}

impl RakeReceiver {
    /// Creates a receiver tracking the given cells (scrambling-code
    /// numbers).
    ///
    /// # Panics
    ///
    /// Panics if no cells are given or a code number is invalid.
    pub fn new(cell_codes: Vec<u32>, config: RakeConfig) -> Self {
        assert!(!cell_codes.is_empty(), "rake needs at least one cell");
        RakeReceiver {
            cells: cell_codes
                .into_iter()
                .map(ScramblingCode::downlink)
                .collect(),
            config,
        }
    }

    /// Processes a frame-aligned receive buffer and returns decided bits
    /// with diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is shorter than one channel-estimation window.
    pub fn receive(&self, rx: &[Cplx<i32>]) -> RakeOutput {
        let cfg = &self.config;
        // 1. Path search per cell.
        let mut paths: Vec<(usize, searcher::PathHit)> = Vec::new();
        for (cell, code) in self.cells.iter().enumerate() {
            for hit in cfg.searcher.search(rx, code) {
                paths.push((cell, hit));
            }
        }
        assert!(!paths.is_empty(), "rake found no paths");

        // 2. Channel estimation per finger (a DSP task in the paper).
        let mut h1s = Vec::new();
        let mut h2s = Vec::new();
        for &(cell, hit) in &paths {
            let code = &self.cells[cell];
            if cfg.sttd {
                let (h1, h2) = estimate_channel_sttd(rx, code, hit.delay, cfg.estimation_symbols);
                h1s.push(h1);
                h2s.push(h2);
            } else {
                h1s.push(estimate_channel(
                    rx,
                    code,
                    hit.delay,
                    cfg.estimation_symbols,
                ));
            }
        }
        // Joint quantisation preserves relative finger weighting. The STTD
        // decode sums four products per component, so its weights keep one
        // extra headroom bit.
        let all: Vec<Cplx<f64>> = h1s.iter().chain(h2s.iter()).copied().collect();
        let quantized = if cfg.sttd {
            quantize_weights_with_max(&all, WEIGHT_MAX_STTD)
        } else {
            quantize_weights(&all)
        };
        let (w1s, w2s) = quantized.split_at(h1s.len());

        // 3. Descramble + despread + correct per finger.
        let mut corrected_streams: Vec<Vec<Cplx<i32>>> = Vec::new();
        let mut reports = Vec::new();
        for (f, &(cell, hit)) in paths.iter().enumerate() {
            let code = &self.cells[cell];
            let n_sym = (rx.len() - hit.delay) / cfg.sf;
            let n_chips = n_sym * cfg.sf;
            let descrambled = descramble(rx, code, hit.delay, 0, n_chips);
            let symbols = despread(&descrambled, cfg.sf, cfg.code_index);
            if cfg.sttd {
                let w1 = w1s[f];
                let w2 = w2s[f];
                let mut decoded = Vec::with_capacity(symbols.len());
                for pair in symbols.chunks_exact(2) {
                    let (s1, s2) = sttd_decode_fixed(pair[0], pair[1], w1, w2, WEIGHT_FRAC_BITS);
                    decoded.push(s1);
                    decoded.push(s2);
                }
                corrected_streams.push(decoded);
                reports.push(FingerReport {
                    cell,
                    delay: hit.delay,
                    energy: hit.energy,
                    weight: w1,
                    weight2: Some(w2),
                });
            } else {
                corrected_streams.push(correct(&symbols, w1s[f]));
                reports.push(FingerReport {
                    cell,
                    delay: hit.delay,
                    energy: hit.energy,
                    weight: w1s[f],
                    weight2: None,
                });
            }
        }

        // 4. Maximal-ratio combining and decision.
        let combined = combine(&corrected_streams);
        let bits = decide(&combined);
        RakeOutput {
            bits,
            fingers: reports,
            combined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{propagate, AdcConfig, CellLink, Path};
    use crate::tx::{CellConfig, CellTransmitter, DpchConfig};
    use sdr_dsp::metrics::BerCounter;

    fn run_link(
        cells: Vec<(CellConfig, CellLink)>,
        bits: &[u8],
        sigma: f64,
        rake_cfg: RakeConfig,
        seed: u64,
    ) -> RakeOutput {
        let mut signals = Vec::new();
        let mut codes = Vec::new();
        for (cfg, link) in cells {
            let mut tx = CellTransmitter::new(cfg);
            let sig = tx.transmit(bits);
            codes.push(cfg.scrambling_code);
            signals.push((sig, link));
        }
        let rx = propagate(&signals, sigma, seed, AdcConfig::default());
        RakeReceiver::new(codes, rake_cfg).receive(&rx)
    }

    fn test_bits(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 7 + i / 3) % 2) as u8).collect()
    }

    #[test]
    fn clean_single_path_recovers_bits() {
        let bits = test_bits(64);
        let cfg = CellConfig::default();
        let link = CellLink::new(vec![Path::new(4, Cplx::new(0.8, 0.4))]);
        let out = run_link(vec![(cfg, link)], &bits, 0.0, RakeConfig::default(), 1);
        assert_eq!(&out.bits[..bits.len()], &bits[..]);
        assert_eq!(out.fingers.len(), 1);
        assert_eq!(out.fingers[0].delay, 4);
    }

    #[test]
    fn multipath_combining_beats_single_finger() {
        let bits = test_bits(128);
        let cfg = CellConfig::default();
        let link = CellLink::new(vec![
            Path::new(0, Cplx::new(0.6, 0.0)),
            Path::new(9, Cplx::new(0.0, 0.55)),
            Path::new(23, Cplx::new(-0.4, 0.3)),
        ]);
        let sigma = 0.45;
        let multi = run_link(
            vec![(cfg, link.clone())],
            &bits,
            sigma,
            RakeConfig {
                searcher: PathSearcher {
                    max_paths: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
            42,
        );
        let single = run_link(
            vec![(cfg, link)],
            &bits,
            sigma,
            RakeConfig {
                searcher: PathSearcher {
                    max_paths: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
            42,
        );
        let mut ber_multi = BerCounter::new();
        ber_multi.update(&bits, &multi.bits[..bits.len()]);
        let mut ber_single = BerCounter::new();
        ber_single.update(&bits, &single.bits[..bits.len()]);
        assert!(multi.fingers.len() > single.fingers.len());
        assert!(
            ber_multi.ber() <= ber_single.ber(),
            "rake combining should not lose: {} vs {}",
            ber_multi.ber(),
            ber_single.ber()
        );
    }

    #[test]
    fn soft_handover_two_cells() {
        let bits = test_bits(64);
        let cell_a = CellConfig {
            scrambling_code: 0,
            ..Default::default()
        };
        let cell_b = CellConfig {
            scrambling_code: 32,
            ..Default::default()
        };
        let link_a = CellLink::new(vec![Path::new(2, Cplx::new(0.5, 0.2))]);
        let link_b = CellLink::new(vec![Path::new(11, Cplx::new(-0.1, 0.55))]);
        let out = run_link(
            vec![(cell_a, link_a), (cell_b, link_b)],
            &bits,
            0.05,
            RakeConfig::default(),
            3,
        );
        // A late finger sees fewer whole symbols, so the combined stream may
        // be a couple of symbols short of the transmitted count.
        let n = bits.len().min(out.bits.len());
        assert!(n >= bits.len() - 4, "too few decoded bits: {n}");
        assert_eq!(&out.bits[..n], &bits[..n]);
        // Fingers from both cells.
        assert!(out.fingers.iter().any(|f| f.cell == 0));
        assert!(out.fingers.iter().any(|f| f.cell == 1));
    }

    #[test]
    fn sttd_link_decodes_cleanly() {
        let bits = test_bits(64);
        let cfg = CellConfig {
            dpch: DpchConfig {
                sttd: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let link = CellLink {
            paths_ant1: vec![Path::new(0, Cplx::new(0.7, 0.1))],
            paths_ant2: vec![Path::new(0, Cplx::new(-0.2, 0.6))],
        };
        let out = run_link(
            vec![(cfg, link)],
            &bits,
            0.0,
            RakeConfig {
                sttd: true,
                ..Default::default()
            },
            9,
        );
        assert_eq!(&out.bits[..bits.len()], &bits[..]);
        assert!(out.fingers[0].weight2.is_some());
    }

    #[test]
    fn higher_noise_increases_errors_monotonically_in_trend() {
        let bits = test_bits(256);
        let cfg = CellConfig::default();
        let link = CellLink::new(vec![Path::new(0, Cplx::new(0.7, 0.0))]);
        let mut bers = Vec::new();
        for &sigma in &[0.2, 0.9] {
            let out = run_link(
                vec![(cfg, link.clone())],
                &bits,
                sigma,
                RakeConfig::default(),
                17,
            );
            let mut ber = BerCounter::new();
            ber.update(&bits, &out.bits[..bits.len()]);
            bers.push(ber.ber());
        }
        assert!(bers[1] >= bers[0], "{bers:?}");
    }
}
