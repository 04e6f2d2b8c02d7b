//! The SDR evaluation platform (paper Fig. 11): microcontroller/DSP,
//! dedicated hardware and the reconfigurable array behind streaming
//! interconnect.
//!
//! The physical board (QuickMIPS µC, DSP slot, streaming FPGA, XPP-64A)
//! exists to compose the three resource classes; [`SdrPlatform`] provides
//! the same composition in simulation: an [`Array`] instance, a
//! [`DspModel`], a registry of [`DedicatedBlock`]s, and aggregate
//! reporting (throughput, MIPS demand, energy).

use crate::dsp::DspModel;
use std::collections::BTreeMap;
use xpp_array::power::{EnergyModel, PowerReport};
use xpp_array::{Array, ArrayStats};

/// The paper's headline array clock for the 18-finger rake scenario.
pub(crate) const ARRAY_CLOCK_HZ: f64 = 69.12e6;

/// A fixed-function hardware block with a cost annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct DedicatedBlock {
    /// Block name.
    pub name: String,
    /// Clock cycles consumed per processed item (chip, bit, sample…).
    pub cycles_per_item: f64,
    /// Active power in milliwatts at the block's clock.
    pub power_mw: f64,
}

impl DedicatedBlock {
    /// Creates a block descriptor.
    pub(crate) fn new(name: impl Into<String>, cycles_per_item: f64, power_mw: f64) -> Self {
        DedicatedBlock {
            name: name.into(),
            cycles_per_item,
            power_mw,
        }
    }
}

/// Aggregate platform report.
#[derive(Debug, Clone)]
pub struct PlatformReport {
    /// Array activity counters.
    pub array_stats: ArrayStats,
    /// Array energy at the platform clock.
    pub array_power: PowerReport,
    /// DSP instructions charged.
    pub dsp_instructions: u64,
    /// DSP MIPS demand over the simulated array time.
    pub dsp_demand_mips: f64,
    /// Items processed per dedicated block.
    pub dedicated_items: BTreeMap<String, u64>,
}

/// The heterogeneous SDR platform.
///
/// # Example
///
/// ```
/// use sdr_core::platform::SdrPlatform;
///
/// let platform = SdrPlatform::evaluation_board();
/// assert!(platform.dedicated("viterbi").is_some());
/// assert_eq!(platform.array.geometry().alu_paes, 64);
/// ```
#[derive(Debug)]
pub struct SdrPlatform {
    /// The reconfigurable array.
    pub array: Array,
    /// The DSP model.
    pub dsp: DspModel,
    /// Array clock in Hz.
    pub clock_hz: f64,
    dedicated: Vec<DedicatedBlock>,
    dedicated_items: BTreeMap<String, u64>,
    energy: EnergyModel,
}

impl SdrPlatform {
    /// Builds the Fig. 11 evaluation platform: an XPP-64A, the reference
    /// 1600-MIPS DSP, and the dedicated blocks of the two receivers.
    pub fn evaluation_board() -> Self {
        SdrPlatform {
            array: Array::xpp64a(),
            dsp: DspModel::reference_200mhz(),
            clock_hz: ARRAY_CLOCK_HZ,
            dedicated: vec![
                DedicatedBlock::new("scrambling-code-gen", 1.0, 2.0),
                DedicatedBlock::new("ovsf-code-gen", 1.0, 1.0),
                DedicatedBlock::new("framing-sync", 1.0, 3.0),
                DedicatedBlock::new("viterbi", 4.0, 25.0),
            ],
            dedicated_items: BTreeMap::new(),
            energy: EnergyModel::hcmos9_130nm(),
        }
    }

    /// Looks up a dedicated block by name.
    pub fn dedicated(&self, name: &str) -> Option<&DedicatedBlock> {
        self.dedicated.iter().find(|b| b.name == name)
    }

    /// Charges `items` of work to a dedicated block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not one of the board's dedicated blocks.
    pub fn charge_dedicated(&mut self, name: &str, items: u64) {
        assert!(
            self.dedicated.iter().any(|b| b.name == name),
            "unknown dedicated block {name:?}"
        );
        *self.dedicated_items.entry(name.to_string()).or_insert(0) += items;
    }

    /// Aggregates the platform state into a report.
    pub fn report(&self) -> PlatformReport {
        let stats = self.array.stats();
        let array_power = self
            .energy
            .report(&stats, self.array.geometry(), self.clock_hz);
        let window = if self.clock_hz > 0.0 {
            stats.cycles as f64 / self.clock_hz
        } else {
            0.0
        };
        let dsp_demand = if window > 0.0 {
            self.dsp.demand_mips_over(window)
        } else {
            0.0
        };
        PlatformReport {
            array_stats: stats,
            array_power,
            dsp_instructions: self.dsp.total_instructions(),
            dsp_demand_mips: dsp_demand,
            dedicated_items: self.dedicated_items.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpp_array::{AluOp, NetlistBuilder, Word};

    #[test]
    fn board_has_the_paper_blocks() {
        let p = SdrPlatform::evaluation_board();
        for name in [
            "scrambling-code-gen",
            "ovsf-code-gen",
            "framing-sync",
            "viterbi",
        ] {
            assert!(p.dedicated(name).is_some(), "missing {name}");
        }
        assert!((p.dsp.mips() - 1600.0).abs() < 1e-9);
        assert!((p.clock_hz - 69.12e6).abs() < 1.0);
    }

    #[test]
    fn dedicated_charging_accumulates() {
        let mut p = SdrPlatform::evaluation_board();
        p.charge_dedicated("viterbi", 100);
        p.charge_dedicated("viterbi", 50);
        assert_eq!(p.dedicated_items.get("viterbi"), Some(&150));
        assert_eq!(p.dedicated_items.get("framing-sync"), None);
    }

    #[test]
    #[should_panic]
    fn unknown_block_rejected() {
        SdrPlatform::evaluation_board().charge_dedicated("nonexistent", 1);
    }

    #[test]
    fn report_combines_array_and_dsp() {
        let mut p = SdrPlatform::evaluation_board();
        // Run a small kernel on the platform's array.
        let mut nl = NetlistBuilder::new("k");
        let x = nl.input("x");
        let k = nl.constant(Word::new(3));
        let y = nl.alu(AluOp::Mul, x, k);
        nl.output("y", y);
        let cfg = p.array.configure(&nl.build().unwrap()).unwrap();
        p.array
            .push_input(cfg, "x", (0..64).map(Word::new))
            .unwrap();
        p.array.run_until_idle(10_000).unwrap();
        p.dsp.charge("control", 10_000);
        p.charge_dedicated("framing-sync", 64);

        let r = p.report();
        assert!(r.array_stats.cycles > 0);
        assert!(r.array_power.total_nj() > 0.0);
        assert_eq!(r.dsp_instructions, 10_000);
        assert!(r.dsp_demand_mips > 0.0);
        assert_eq!(r.dedicated_items["framing-sync"], 64);
    }
}
