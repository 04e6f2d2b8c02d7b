//! Path searcher: coarse/fine pilot correlation over a sliding window.
//!
//! The paper (§3.1): "A path searcher performs a correlation of a fixed set
//! of pilot signals over a sliding window to detect the paths with the
//! strongest signal values... The path searcher divides itself into a coarse
//! and a fine searcher, with differing repetition intervals and accuracies."
//!
//! The search metric at a delay hypothesis δ is the non-coherent sum of
//! despread CPICH symbol energies — coherent within a pilot symbol,
//! non-coherent across symbols so slow phase rotation does not cancel.

use crate::ovsf::ovsf;
use crate::rake::finger::despread_symbol;
use crate::scrambling::ScramblingCode;
use crate::tx::CPICH_SF;
use sdr_dsp::Cplx;

/// A detected multipath component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathHit {
    /// Chip delay relative to the frame start.
    pub delay: usize,
    /// Non-coherent correlation energy.
    pub energy: i64,
}

/// Sliding-window pilot-correlation searcher.
///
/// With one sample per chip (the paper's 3.84 MHz sampling assumption) the
/// scrambling autocorrelation is delta-like, so a delay-decimated scan would
/// miss paths entirely. The coarse/fine split therefore trades *dwell time*,
/// not delay resolution: the coarse pass integrates few pilot symbols at
/// every delay, the fine pass re-examines the strongest candidates with the
/// full integration length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSearcher {
    /// Number of delay hypotheses (chips) to scan.
    pub window: usize,
    /// CPICH symbols integrated per hypothesis in the coarse pass.
    pub coarse_symbols: usize,
    /// CPICH symbols integrated per candidate in the fine pass.
    pub fine_symbols: usize,
    /// Maximum number of paths to report.
    pub max_paths: usize,
}

impl Default for PathSearcher {
    fn default() -> Self {
        PathSearcher {
            window: 64,
            coarse_symbols: 1,
            fine_symbols: 4,
            max_paths: 4,
        }
    }
}

impl PathSearcher {
    /// Correlation energy at one delay hypothesis over `symbols` pilot
    /// symbols (0 if the buffer is too short).
    pub fn energy_at_with(
        &self,
        rx: &[Cplx<i32>],
        code: &ScramblingCode,
        delay: usize,
        symbols: usize,
    ) -> i64 {
        pilot_energy(rx, code, &ovsf(CPICH_SF, 0), delay, symbols)
    }

    /// Correlation energy at one delay with the fine integration length.
    pub fn energy_at(&self, rx: &[Cplx<i32>], code: &ScramblingCode, delay: usize) -> i64 {
        self.energy_at_with(rx, code, delay, self.fine_symbols)
    }

    /// Runs the coarse pass: short-dwell energies at every delay.
    pub fn coarse_scan(&self, rx: &[Cplx<i32>], code: &ScramblingCode) -> Vec<PathHit> {
        let cpich = ovsf(CPICH_SF, 0);
        (0..self.window)
            .map(|delay| PathHit {
                delay,
                energy: pilot_energy(rx, code, &cpich, delay, self.coarse_symbols),
            })
            .collect()
    }

    /// Full search: coarse scan at every delay, fine re-measurement of the
    /// strongest candidates, then peak selection.
    ///
    /// Reported paths are above 10% of the strongest peak, separated by at
    /// least 2 chips, strongest first, at most `max_paths`.
    pub fn search(&self, rx: &[Cplx<i32>], code: &ScramblingCode) -> Vec<PathHit> {
        let mut coarse = self.coarse_scan(rx, code);
        coarse.sort_by_key(|h| std::cmp::Reverse(h.energy));
        let candidates = coarse.into_iter().take(4 * self.max_paths);
        // One CPICH code per pass, not one per hypothesis.
        let cpich = ovsf(CPICH_SF, 0);
        let mut fine: Vec<PathHit> = candidates
            .map(|h| PathHit {
                delay: h.delay,
                energy: pilot_energy(rx, code, &cpich, h.delay, self.fine_symbols),
            })
            .collect();
        fine.sort_by_key(|h| std::cmp::Reverse(h.energy));
        let floor = fine.first().map(|h| h.energy / 10).unwrap_or(0);
        let mut picked: Vec<PathHit> = Vec::new();
        for hit in fine {
            if hit.energy <= floor {
                break;
            }
            if picked.iter().all(|p| p.delay.abs_diff(hit.delay) >= 2) {
                picked.push(hit);
                if picked.len() == self.max_paths {
                    break;
                }
            }
        }
        picked
    }
}

/// Non-coherent CPICH energy at one delay hypothesis: descramble and
/// despread fused per pilot symbol, so a hypothesis allocates nothing.
fn pilot_energy(
    rx: &[Cplx<i32>],
    code: &ScramblingCode,
    cpich: &[i32],
    delay: usize,
    symbols: usize,
) -> i64 {
    let n_chips = symbols * CPICH_SF;
    if delay + n_chips > rx.len() {
        return 0;
    }
    (0..symbols)
        .map(|s| {
            let chips =
                (s * CPICH_SF..(s + 1) * CPICH_SF).map(|i| rx[delay + i] * code.chip(i).conj());
            despread_symbol(chips, cpich).sqmag()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{propagate, AdcConfig, CellLink, Path};
    use crate::tx::{CellConfig, CellTransmitter};

    fn make_rx(paths: Vec<Path>, sigma: f64) -> (Vec<Cplx<i32>>, ScramblingCode) {
        let cfg = CellConfig::default();
        let mut tx = CellTransmitter::new(cfg);
        // Enough chips for the search window plus the integration length.
        let n_chips = 3 * 1024;
        let bits: Vec<u8> = (0..2 * n_chips / cfg.dpch.sf)
            .map(|i| (i % 2) as u8)
            .collect();
        let signal = tx.transmit(&bits);
        let code = tx.scrambling_code().clone();
        let rx = propagate(
            &[(signal, CellLink::new(paths))],
            sigma,
            5,
            AdcConfig::default(),
        );
        (rx, code)
    }

    #[test]
    fn hypothesis_energies_match_the_finger_composition() {
        use crate::rake::finger::{descramble, despread};
        let (rx, code) = make_rx(
            vec![
                Path::new(7, Cplx::new(0.6, 0.1)),
                Path::new(29, Cplx::new(-0.2, 0.35)),
            ],
            0.05,
        );
        let searcher = PathSearcher::default();
        let reference = |delay: usize, symbols: usize| -> i64 {
            let chips = descramble(&rx, &code, delay, 0, symbols * CPICH_SF);
            despread(&chips, CPICH_SF, 0)
                .iter()
                .map(|p| p.sqmag())
                .sum()
        };
        for hit in searcher.coarse_scan(&rx, &code) {
            assert_eq!(hit.energy, reference(hit.delay, searcher.coarse_symbols));
        }
        // Every delay at the fine dwell covers whichever candidates the
        // search promotes; the reported hits carry exactly those energies.
        for delay in 0..searcher.window {
            let fine = searcher.energy_at(&rx, &code, delay);
            assert_eq!(fine, reference(delay, searcher.fine_symbols));
        }
        let hits = searcher.search(&rx, &code);
        assert_eq!(hits.len(), 2);
        for hit in hits {
            assert_eq!(hit.energy, reference(hit.delay, searcher.fine_symbols));
        }
    }

    #[test]
    fn finds_single_path() {
        let (rx, code) = make_rx(vec![Path::new(12, Cplx::new(0.9, -0.3))], 0.02);
        let hits = PathSearcher::default().search(&rx, &code);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].delay, 12);
    }

    #[test]
    fn finds_three_paths_in_order_of_strength() {
        // Gains kept small enough that the three-path superposition stays
        // inside the 12-bit ADC range (clipping would distort the energies).
        let (rx, code) = make_rx(
            vec![
                Path::new(3, Cplx::new(0.6, 0.0)),
                Path::new(20, Cplx::new(0.0, 0.4)),
                Path::new(41, Cplx::new(-0.25, 0.0)),
            ],
            0.02,
        );
        let searcher = PathSearcher {
            max_paths: 3,
            ..Default::default()
        };
        let hits = searcher.search(&rx, &code);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].delay, 3);
        assert_eq!(hits[1].delay, 20);
        assert_eq!(hits[2].delay, 41);
        assert!(hits[0].energy > hits[1].energy && hits[1].energy > hits[2].energy);
    }

    #[test]
    fn rejects_other_cells_codes() {
        let (rx, _) = make_rx(vec![Path::new(5, Cplx::new(1.0, 0.0))], 0.0);
        let wrong = ScramblingCode::downlink(48);
        let searcher = PathSearcher::default();
        let own_energy = searcher.energy_at(&rx, &ScramblingCode::downlink(0), 5);
        let wrong_energy = searcher.energy_at(&rx, &wrong, 5);
        assert!(
            own_energy > 20 * wrong_energy,
            "{own_energy} vs {wrong_energy}"
        );
    }

    #[test]
    fn coarse_scan_covers_window_at_step() {
        let (rx, code) = make_rx(vec![Path::new(0, Cplx::new(1.0, 0.0))], 0.0);
        let searcher = PathSearcher {
            window: 32,
            ..Default::default()
        };
        let scan = searcher.coarse_scan(&rx, &code);
        assert_eq!(scan.len(), 32);
        assert!(scan.windows(2).all(|w| w[1].delay == w[0].delay + 1));
    }

    #[test]
    fn short_buffer_yields_zero_energy() {
        let code = ScramblingCode::downlink(0);
        let searcher = PathSearcher::default();
        assert_eq!(searcher.energy_at(&[Cplx::new(1, 1); 10], &code, 0), 0);
    }

    #[test]
    fn min_separation_suppresses_shoulders() {
        // A strong path has correlation shoulders at ±1 chip; the 2-chip
        // separation rule must not report them as distinct paths.
        let (rx, code) = make_rx(vec![Path::new(10, Cplx::new(1.0, 0.0))], 0.0);
        let searcher = PathSearcher {
            max_paths: 4,
            ..Default::default()
        };
        let hits = searcher.search(&rx, &code);
        for pair in hits.windows(2) {
            assert!(pair[0].delay.abs_diff(pair[1].delay) >= 2);
        }
    }
}
