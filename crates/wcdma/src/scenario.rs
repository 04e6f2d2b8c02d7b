//! Rake-finger scenario model (paper Table 1).
//!
//! The paper implements a *single physical finger*, time-multiplexed over
//! every (base station × multipath × channel) combination: "By repeating the
//! descrambling and despreading operation on a single chip over multiple
//! scrambling and spreading codes and time multiplexing the resulting data
//! stream, the single physical finger thus corresponds to an implementation
//! of 18 rake fingers. The minimum operational frequency ... is thus
//! 18 × 3.84 MHz = 69.12 MHz."

/// The UMTS/W-CDMA chip rate.
pub(crate) const CHIP_RATE_HZ: f64 = 3.84e6;

/// The paper's design maximum: 18 virtual fingers on one physical finger.
pub(crate) const MAX_VIRTUAL_FINGERS: u32 = 18;

/// The paper's headline clock: 18 × 3.84 MHz.
pub const FULL_RATE_MHZ: f64 = 69.12;

/// One operational scenario from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FingerScenario {
    /// Base stations in the active (soft-handover) set.
    pub basestations: u32,
    /// Multipath components tracked per base station.
    pub multipaths: u32,
    /// Dedicated channels received per base station.
    pub channels: u32,
}

impl FingerScenario {
    /// Creates a scenario.
    pub fn new(basestations: u32, multipaths: u32, channels: u32) -> Self {
        FingerScenario {
            basestations,
            multipaths,
            channels,
        }
    }

    /// Virtual fingers required: one per (base station, multipath, channel).
    pub fn fingers(&self) -> u32 {
        self.basestations * self.multipaths * self.channels
    }

    /// Clock frequency (MHz) of the single time-multiplexed physical finger.
    pub fn required_mhz(&self) -> f64 {
        self.fingers() as f64 * CHIP_RATE_HZ / 1e6
    }

    /// True if the scenario needs the full 69.12 MHz clock (the shaded rows
    /// of Table 1).
    pub fn needs_full_rate(&self) -> bool {
        self.fingers() >= MAX_VIRTUAL_FINGERS
    }

    /// True if the scenario fits the paper's single-physical-finger design.
    pub fn feasible(&self) -> bool {
        self.fingers() <= MAX_VIRTUAL_FINGERS
    }
}

/// Enumerates the Table 1 grid: base stations and multipaths from 1 to 6,
/// single dedicated channel — plus the dual-channel column for small sets.
pub fn table1_scenarios() -> Vec<FingerScenario> {
    let mut rows = Vec::new();
    for bs in 1..=6u32 {
        for mp in 1..=6u32 {
            rows.push(FingerScenario::new(bs, mp, 1));
        }
    }
    for bs in 1..=3u32 {
        for mp in 1..=3u32 {
            rows.push(FingerScenario::new(bs, mp, 2));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_scenario_is_18_fingers_at_69_mhz() {
        let s = FingerScenario::new(6, 3, 1);
        assert_eq!(s.fingers(), 18);
        assert!((s.required_mhz() - FULL_RATE_MHZ).abs() < 1e-9);
        assert!(s.needs_full_rate());
        assert!(s.feasible());
    }

    #[test]
    fn small_scenarios_run_slower() {
        let s = FingerScenario::new(2, 3, 1);
        assert_eq!(s.fingers(), 6);
        assert!((s.required_mhz() - 23.04).abs() < 1e-9);
        assert!(!s.needs_full_rate());
    }

    #[test]
    fn oversized_scenarios_are_infeasible() {
        let s = FingerScenario::new(6, 6, 1);
        assert_eq!(s.fingers(), 36);
        assert!(!s.feasible());
    }

    #[test]
    fn dual_channel_doubles_fingers() {
        let one = FingerScenario::new(3, 3, 1);
        let two = FingerScenario::new(3, 3, 2);
        assert_eq!(two.fingers(), 2 * one.fingers());
        assert_eq!(two.fingers(), 18);
        assert!(two.feasible());
    }

    #[test]
    fn table_covers_grid() {
        let t = table1_scenarios();
        assert_eq!(t.len(), 36 + 9);
        assert!(t.iter().any(|s| s.fingers() == 18));
        let full: Vec<_> = t
            .iter()
            .filter(|s| s.needs_full_rate() && s.feasible())
            .collect();
        assert!(!full.is_empty());
    }
}
