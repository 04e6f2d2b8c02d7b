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

use crate::rake::finger::ChipMasks;
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
    /// Correlation energy at one delay with the fine integration length.
    pub(crate) fn energy_at(&self, rx: &[Cplx<i32>], code: &ScramblingCode, delay: usize) -> i64 {
        let mut hit = [PathHit { delay, energy: 0 }];
        measure(rx, code, &mut hit, self.fine_symbols);
        hit[0].energy
    }

    /// Runs the coarse pass: short-dwell energies at every delay.
    pub(crate) fn coarse_scan(&self, rx: &[Cplx<i32>], code: &ScramblingCode) -> Vec<PathHit> {
        let mut hits: Vec<PathHit> = (0..self.window)
            .map(|delay| PathHit { delay, energy: 0 })
            .collect();
        measure(rx, code, &mut hits, self.coarse_symbols);
        hits
    }

    /// Full search: coarse scan at every delay, fine re-measurement of the
    /// strongest candidates, then peak selection.
    ///
    /// Reported paths are above 10% of the strongest peak, separated by at
    /// least 2 chips, strongest first, at most `max_paths`.
    pub fn search(&self, rx: &[Cplx<i32>], code: &ScramblingCode) -> Vec<PathHit> {
        let mut fine = self.coarse_scan(rx, code);
        fine.sort_by_key(|h| std::cmp::Reverse(h.energy));
        fine.truncate(4 * self.max_paths);
        measure(rx, code, &mut fine, self.fine_symbols);
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

/// Sets each hit's energy to the non-coherent CPICH energy at its delay:
/// the squared magnitudes of `symbols` despread pilot symbols, each summed
/// with the despreader's truncating `>> log2(SF)` (0 where the dwell
/// overruns the buffer). The pilot replica is `conj(S(i))` itself (the
/// CPICH is OVSF code 0), and one symbol's sign masks serve every hit.
fn measure(rx: &[Cplx<i32>], code: &ScramblingCode, hits: &mut [PathHit], symbols: usize) {
    let dwell = symbols * CPICH_SF;
    let fits = |delay: usize| delay.checked_add(dwell).is_some_and(|end| end <= rx.len());
    hits.iter_mut().for_each(|hit| hit.energy = 0);
    for phase in (0..dwell).step_by(CPICH_SF) {
        let masks = ChipMasks::at(code, phase);
        for hit in hits.iter_mut().filter(|hit| fits(hit.delay)) {
            hit.energy += masks.despread_pilot(&rx[hit.delay + phase..]).sqmag();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{propagate, AdcConfig, CellLink, Path};
    use crate::ovsf::ovsf;
    use crate::rake::finger::oracle::despread_symbol;
    use crate::rake::finger::{descramble, despread};
    use crate::tx::{CellConfig, CellTransmitter};
    use proptest::prelude::*;

    /// The oracle: the hypothesis energy as the complex multiply forms it
    /// — one `code.chip(i)` lookup, one descrambling product and one
    /// multiply by the CPICH code per chip per hypothesis.
    fn pilot_energy_oracle(
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

    /// `descramble ∘ despread` energy of one hypothesis, 0 when the dwell
    /// does not fit the buffer.
    fn composed_energy(
        rx: &[Cplx<i32>],
        code: &ScramblingCode,
        delay: usize,
        symbols: usize,
    ) -> i64 {
        if delay + symbols * CPICH_SF > rx.len() {
            return 0;
        }
        let chips = descramble(rx, code, delay, 0, symbols * CPICH_SF);
        let pilots = despread(&chips, CPICH_SF, 0);
        pilots.iter().map(|p| p.sqmag()).sum()
    }

    fn arb_path() -> impl Strategy<Value = Path> {
        (0usize..64, -0.5f64..0.5, -0.5f64..0.5)
            .prop_map(|(delay, re, im)| Path::new(delay, Cplx::new(re, im)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn hypothesis_energies_match_the_finger_composition(
            paths in proptest::collection::vec(arb_path(), 1..=3),
            sigma in 0.0f64..0.1,
            // From "no hypothesis fits" past "every fine dwell fits".
            len in 200usize..1200,
        ) {
            let (rx, code) = make_rx(paths, sigma);
            let rx = &rx[..len];
            let searcher = PathSearcher::default();
            let coarse = searcher.coarse_scan(rx, &code);
            prop_assert_eq!(coarse.len(), searcher.window);
            for (delay, hit) in coarse.iter().enumerate() {
                prop_assert_eq!(hit.delay, delay);
                prop_assert_eq!(
                    hit.energy,
                    composed_energy(rx, &code, delay, searcher.coarse_symbols)
                );
                // Every delay at the fine dwell covers whichever candidates
                // the search promotes.
                prop_assert_eq!(
                    searcher.energy_at(rx, &code, delay),
                    composed_energy(rx, &code, delay, searcher.fine_symbols)
                );
            }
            // The search is the selection rule over exactly those energies.
            let mut ranked = coarse;
            ranked.sort_by_key(|h| std::cmp::Reverse(h.energy));
            ranked.truncate(4 * searcher.max_paths);
            for hit in &mut ranked {
                hit.energy = composed_energy(rx, &code, hit.delay, searcher.fine_symbols);
            }
            ranked.sort_by_key(|h| std::cmp::Reverse(h.energy));
            let hits = searcher.search(rx, &code);
            let strongest = ranked[0].energy;
            prop_assert_eq!(hits.is_empty(), strongest == 0);
            for hit in &hits {
                prop_assert!(ranked.contains(hit), "{hit:?} is not a fine energy");
                prop_assert!(hit.energy > strongest / 10);
            }
            prop_assert_eq!(hits.first(), ranked.first().filter(|h| h.energy > 0));
        }

        #[test]
        fn pilot_energy_matches_the_oracle_on_arbitrary_samples(
            // 12-bit ADC words up to the widest a descrambling product
            // (|re| + |im|) leaves inside `i32`.
            limit in prop_oneof![Just(2047), Just(1 << 20), Just((1 << 30) - 1)],
            number in 0u32..512,
            symbols in 0usize..=4,
            len in 0usize..1400,
            seed in any::<u64>(),
        ) {
            let mut rng = sdr_dsp::rng::Rng64::seed_from_u64(seed);
            let mut word = || (rng.next_u32() as i32) % (limit + 1);
            let rx: Vec<Cplx<i32>> = (0..len).map(|_| Cplx::new(word(), word())).collect();
            let code = ScramblingCode::downlink(number);
            let cpich = ovsf(CPICH_SF, 0);
            let delays = (0..64).chain([len.saturating_sub(symbols * CPICH_SF), len, usize::MAX]);
            let mut hits: Vec<PathHit> = delays.map(|delay| PathHit { delay, energy: -1 }).collect();
            measure(&rx, &code, &mut hits, symbols);
            for hit in hits {
                let expected = if hit.delay == usize::MAX {
                    0 // the oracle's `delay + n_chips` cannot be formed
                } else {
                    pilot_energy_oracle(&rx, &code, &cpich, hit.delay, symbols)
                };
                prop_assert_eq!(hit.energy, expected);
            }
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
