//! Path tracker: "A path tracker is responsible for the tracking and the
//! resynchronization of the paths that are currently being received"
//! (paper §3.1).
//!
//! Between full searcher sweeps, each allocated finger's delay is compared
//! against its ±1-chip neighbours (an early–late gate on the pilot
//! correlation energy). A finger slides only after `hysteresis` consecutive
//! votes in the same direction, so noise cannot jitter the despreader
//! alignment; a finger whose energy collapses is flagged lost so control
//! software can trigger re-acquisition.

use crate::rake::searcher::{PathHit, PathSearcher};
use crate::scrambling::ScramblingCode;
use sdr_dsp::Cplx;

/// One tracked multipath component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TrackedPath {
    /// Current delay in chips.
    pub delay: usize,
    /// Most recent on-time correlation energy.
    pub energy: i64,
    /// Consecutive early(−)/late(+) votes.
    votes: i32,
    /// True while the path is considered alive.
    pub alive: bool,
}

impl TrackedPath {
    /// Creates a tracked path at a searcher hit.
    pub(crate) fn from_hit(hit: PathHit) -> Self {
        TrackedPath {
            delay: hit.delay,
            energy: hit.energy,
            votes: 0,
            alive: true,
        }
    }
}

/// The early–late delay tracker for a set of fingers.
#[derive(Debug, Clone)]
pub struct PathTracker {
    paths: Vec<TrackedPath>,
    /// Consecutive same-direction votes required before sliding one chip.
    pub hysteresis: i32,
    /// A path whose energy falls below `peak/lost_div` is marked lost.
    pub lost_div: i64,
    /// Measurement parameters (dwell length reuses the searcher's fine
    /// integration).
    pub searcher: PathSearcher,
}

impl PathTracker {
    /// Starts tracking the given searcher hits.
    pub fn new(hits: &[PathHit], searcher: PathSearcher) -> Self {
        PathTracker {
            paths: hits.iter().copied().map(TrackedPath::from_hit).collect(),
            hysteresis: 2,
            lost_div: 16,
            searcher,
        }
    }

    /// Current delays of the live paths.
    pub fn delays(&self) -> Vec<usize> {
        self.paths
            .iter()
            .filter(|p| p.alive)
            .map(|p| p.delay)
            .collect()
    }

    /// Runs one tracking update against a fresh receive buffer (one slot's
    /// worth, frame-aligned like the searcher's input).
    pub fn update(&mut self, rx: &[Cplx<i32>], code: &ScramblingCode) {
        let peak = self.paths.iter().map(|p| p.energy).max().unwrap_or(0);
        for p in &mut self.paths {
            let on_time = self.searcher.energy_at(rx, code, p.delay);
            let early = if p.delay > 0 {
                self.searcher.energy_at(rx, code, p.delay - 1)
            } else {
                0
            };
            let late = self.searcher.energy_at(rx, code, p.delay + 1);
            // At chip-spaced sampling the correlation is delta-like: a
            // one-chip drift zeroes the on-time cell while a neighbour holds
            // the energy, so path-loss is judged on the gate's best cell.
            let best = on_time.max(early).max(late);
            p.energy = on_time;
            if best < peak / self.lost_div.max(1) {
                p.alive = false;
                continue;
            }
            p.alive = true;
            if early > on_time && early >= late {
                p.votes = if p.votes < 0 { p.votes - 1 } else { -1 };
            } else if late > on_time {
                p.votes = if p.votes > 0 { p.votes + 1 } else { 1 };
            } else {
                p.votes = 0;
            }
            if p.votes <= -self.hysteresis {
                p.delay -= 1;
                p.votes = 0;
            } else if p.votes >= self.hysteresis {
                p.delay += 1;
                p.votes = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{propagate, AdcConfig, CellLink, Path};
    use crate::tx::{CellConfig, CellTransmitter};

    fn slot_at_delay(delay: usize, seed: u64) -> (Vec<Cplx<i32>>, ScramblingCode) {
        let cfg = CellConfig::default();
        let mut tx = CellTransmitter::new(cfg);
        let bits: Vec<u8> = (0..2 * 2048 / cfg.dpch.sf).map(|i| (i % 2) as u8).collect();
        let signal = tx.transmit(&bits);
        let code = tx.scrambling_code().clone();
        let link = CellLink::new(vec![Path::new(delay, Cplx::new(0.8, 0.2))]);
        (
            propagate(&[(signal, link)], 0.03, seed, AdcConfig::default()),
            code,
        )
    }

    #[test]
    fn stable_path_stays_locked() {
        let (rx, code) = slot_at_delay(10, 1);
        let hit = PathHit {
            delay: 10,
            energy: 0,
        };
        let mut tracker = PathTracker::new(&[hit], PathSearcher::default());
        for seed in 0..4 {
            let (rx2, _) = slot_at_delay(10, seed + 2);
            tracker.update(&rx2, &code);
        }
        tracker.update(&rx, &code);
        assert_eq!(tracker.delays(), vec![10]);
        assert!(tracker.paths[0].energy > 0);
    }

    #[test]
    fn drifting_path_is_followed_with_hysteresis() {
        let code = ScramblingCode::downlink(0);
        let hit = PathHit {
            delay: 10,
            energy: 0,
        };
        let mut tracker = PathTracker::new(&[hit], PathSearcher::default());
        // The channel delay moves 10 → 11 (terminal motion of one chip).
        for seed in 0..2 {
            let (rx, _) = slot_at_delay(11, 40 + seed);
            tracker.update(&rx, &code);
        }
        assert_eq!(tracker.delays(), vec![11], "tracker should have slid late");
        // And it does not overshoot on further slots at 11.
        let (rx, _) = slot_at_delay(11, 50);
        tracker.update(&rx, &code);
        assert_eq!(tracker.delays(), vec![11]);
    }

    #[test]
    fn drift_back_early_is_followed() {
        let code = ScramblingCode::downlink(0);
        let mut tracker = PathTracker::new(
            &[PathHit {
                delay: 12,
                energy: 0,
            }],
            PathSearcher::default(),
        );
        for seed in 0..2 {
            let (rx, _) = slot_at_delay(11, 60 + seed);
            tracker.update(&rx, &code);
        }
        assert_eq!(tracker.delays(), vec![11]);
    }

    #[test]
    fn single_noisy_slot_does_not_move_the_finger() {
        let code = ScramblingCode::downlink(0);
        let mut tracker = PathTracker::new(
            &[PathHit {
                delay: 10,
                energy: 0,
            }],
            PathSearcher::default(),
        );
        // One slot at 11 (a fade/glitch), then back at 10: hysteresis = 2
        // means no slide happens.
        let (rx, _) = slot_at_delay(11, 70);
        tracker.update(&rx, &code);
        assert_eq!(tracker.delays(), vec![10]);
        let (rx, _) = slot_at_delay(10, 71);
        tracker.update(&rx, &code);
        assert_eq!(tracker.delays(), vec![10]);
    }

    #[test]
    fn vanished_path_is_marked_lost() {
        let code = ScramblingCode::downlink(0);
        let mut tracker = PathTracker::new(
            &[
                PathHit {
                    delay: 10,
                    energy: 0,
                },
                PathHit {
                    delay: 30,
                    energy: 0,
                },
            ],
            PathSearcher::default(),
        );
        // Only the delay-10 path is actually present.
        let (rx, _) = slot_at_delay(10, 80);
        tracker.update(&rx, &code);
        tracker.update(&rx, &code);
        assert_eq!(tracker.delays(), vec![10]);
        assert!(!tracker.paths[1].alive);
    }
}
