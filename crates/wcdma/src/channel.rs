//! Chip-rate multipath channel and the receiver's A/D front end.
//!
//! Replaces the RF front end of the evaluation board (DESIGN.md §2): each
//! cell's signal passes through a tapped delay line with complex path gains,
//! everything is summed with AWGN, and the result is quantised to the 12-bit
//! I/Q samples the paper's rake receiver design assumes.

use crate::tx::TxSignal;
use sdr_dsp::fixed::sat;
use sdr_dsp::noise::Awgn;
use sdr_dsp::Cplx;

/// One propagation path: an integer chip delay and a complex gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Path {
    /// Delay in chips.
    pub delay: usize,
    /// Complex gain.
    pub gain: Cplx<f64>,
}

impl Path {
    /// Creates a path.
    pub fn new(delay: usize, gain: Cplx<f64>) -> Self {
        Path { delay, gain }
    }
}

/// Multipath description for one cell's link to the terminal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellLink {
    /// Paths seen from antenna 1.
    pub paths_ant1: Vec<Path>,
    /// Paths seen from antenna 2 (used only when the cell transmits STTD).
    pub paths_ant2: Vec<Path>,
}

impl CellLink {
    /// A single-antenna link with the given paths.
    pub fn new(paths: Vec<Path>) -> Self {
        CellLink {
            paths_ant1: paths,
            paths_ant2: Vec::new(),
        }
    }

    /// The largest delay of any path.
    pub(crate) fn max_delay(&self) -> usize {
        self.paths_ant1
            .iter()
            .chain(&self.paths_ant2)
            .map(|p| p.delay)
            .max()
            .unwrap_or(0)
    }
}

/// The analog-to-digital front end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcConfig {
    /// Linear gain applied before quantisation.
    pub gain: f64,
    /// Output width in bits (paper: 12 for I and Q each).
    pub bits: u32,
}

impl Default for AdcConfig {
    fn default() -> Self {
        AdcConfig {
            gain: 512.0,
            bits: 12,
        }
    }
}

impl AdcConfig {
    /// Quantises one complex sample with rounding and saturation.
    pub(crate) fn digitize(&self, c: Cplx<f64>) -> Cplx<i32> {
        Cplx::new(
            sat((c.re * self.gain).round() as i64, self.bits),
            sat((c.im * self.gain).round() as i64, self.bits),
        )
    }
}

/// Propagates a set of cell signals through their multipath links, adds
/// noise, and digitises — producing the chip-rate sample stream the rake
/// receiver sees.
///
/// `noise_sigma` is the per-dimension AWGN standard deviation *before* the
/// ADC gain. The output length covers every delayed contribution.
///
/// # Panics
///
/// Panics if a cell transmits on antenna 2 without `paths_ant2`, or the
/// input is empty.
pub fn propagate(
    signals: &[(TxSignal, CellLink)],
    noise_sigma: f64,
    seed: u64,
    adc: AdcConfig,
) -> Vec<Cplx<i32>> {
    assert!(!signals.is_empty(), "propagate: no signals");
    let out_len = signals
        .iter()
        .map(|(s, link)| s.len() + link.max_delay())
        .max()
        .unwrap_or(0);
    let mut sum = vec![Cplx::<f64>::ZERO; out_len];
    for (signal, link) in signals {
        for path in &link.paths_ant1 {
            for (t, &chip) in signal.ant1.iter().enumerate() {
                sum[t + path.delay] += chip * path.gain;
            }
        }
        if let Some(ant2) = &signal.ant2 {
            assert!(
                !link.paths_ant2.is_empty(),
                "cell transmits STTD but the link has no antenna-2 paths"
            );
            for path in &link.paths_ant2 {
                for (t, &chip) in ant2.iter().enumerate() {
                    sum[t + path.delay] += chip * path.gain;
                }
            }
        }
    }
    let mut awgn = Awgn::new(seed, noise_sigma);
    if noise_sigma > 0.0 {
        awgn.add_to(&mut sum);
    }
    sum.into_iter().map(|c| adc.digitize(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn impulse_signal(len: usize, at: usize) -> TxSignal {
        let mut chips = vec![Cplx::<f64>::ZERO; len];
        chips[at] = Cplx::new(1.0, -1.0);
        TxSignal {
            ant1: chips,
            ant2: None,
        }
    }

    #[test]
    fn single_path_delays_signal() {
        let sig = impulse_signal(8, 0);
        let link = CellLink::new(vec![Path::new(3, Cplx::new(1.0, 0.0))]);
        let rx = propagate(&[(sig, link)], 0.0, 1, AdcConfig::default());
        assert_eq!(rx.len(), 11);
        assert_eq!(rx[3], Cplx::new(512, -512));
        assert_eq!(rx[0], Cplx::new(0, 0));
    }

    #[test]
    fn multipath_sums_contributions() {
        let sig = impulse_signal(4, 0);
        let link = CellLink::new(vec![
            Path::new(0, Cplx::new(1.0, 0.0)),
            Path::new(2, Cplx::new(0.5, 0.0)),
        ]);
        let rx = propagate(&[(sig, link)], 0.0, 1, AdcConfig::default());
        assert_eq!(rx[0], Cplx::new(512, -512));
        assert_eq!(rx[2], Cplx::new(256, -256));
    }

    #[test]
    fn complex_gain_rotates() {
        let sig = impulse_signal(2, 0);
        let link = CellLink::new(vec![Path::new(0, Cplx::new(0.0, 1.0))]); // ×j
        let rx = propagate(&[(sig, link)], 0.0, 1, AdcConfig::default());
        // (1 - j)·j = j + 1.
        assert_eq!(rx[0], Cplx::new(512, 512));
    }

    #[test]
    fn adc_saturates_at_12_bits() {
        let sig = impulse_signal(1, 0);
        let link = CellLink::new(vec![Path::new(0, Cplx::new(100.0, 0.0))]);
        let rx = propagate(&[(sig, link)], 0.0, 1, AdcConfig::default());
        assert_eq!(rx[0].re, 2047);
        assert_eq!(rx[0].im, -2048);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let sig = impulse_signal(64, 0);
        let link = CellLink::new(vec![Path::new(0, Cplx::new(1.0, 0.0))]);
        let a = propagate(&[(sig.clone(), link.clone())], 0.1, 7, AdcConfig::default());
        let b = propagate(&[(sig, link)], 0.1, 7, AdcConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn sttd_without_ant2_paths_panics() {
        let sig = TxSignal {
            ant1: vec![Cplx::new(1.0, 0.0)],
            ant2: Some(vec![Cplx::new(1.0, 0.0)]),
        };
        let link = CellLink::new(vec![Path::new(0, Cplx::new(1.0, 0.0))]);
        propagate(&[(sig, link)], 0.0, 1, AdcConfig::default());
    }

    #[test]
    fn two_cells_superpose() {
        let s1 = impulse_signal(4, 0);
        let s2 = impulse_signal(4, 1);
        let l = CellLink::new(vec![Path::new(0, Cplx::new(1.0, 0.0))]);
        let rx = propagate(&[(s1, l.clone()), (s2, l)], 0.0, 1, AdcConfig::default());
        assert_eq!(rx[0], Cplx::new(512, -512));
        assert_eq!(rx[1], Cplx::new(512, -512));
    }
}
