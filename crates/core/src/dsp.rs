//! The DSP/microcontroller model: a task-level processor with MIPS
//! accounting.
//!
//! The paper maps "algorithmic parts with low criticality, mostly
//! implementing control code" onto a DSP. We run those algorithms for real
//! (channel estimation, path search, weight computation live in the
//! receiver crates) and charge each invocation a declared instruction cost
//! against a MIPS budget — reproducing the paper's budget arguments without
//! an instruction-set simulator (see DESIGN.md §2).

use std::collections::BTreeMap;

/// A task-level DSP model.
///
/// # Example
///
/// ```
/// use sdr_core::dsp::DspModel;
///
/// let mut dsp = DspModel::new(1_600.0); // the paper's 1600-MIPS DSP
/// let sum: i64 = dsp.run("channel-estimation", 5_000, || (0..100).sum());
/// assert_eq!(sum, 4950);
/// assert_eq!(dsp.total_instructions(), 5_000);
/// ```
#[derive(Debug, Clone)]
pub struct DspModel {
    mips: f64,
    total_instructions: u64,
    per_task: BTreeMap<String, u64>,
}

impl DspModel {
    /// Creates a DSP with a MIPS rating.
    ///
    /// # Panics
    ///
    /// Panics unless the rating is positive.
    pub fn new(mips: f64) -> Self {
        assert!(mips > 0.0);
        DspModel {
            mips,
            total_instructions: 0,
            per_task: BTreeMap::new(),
        }
    }

    /// The paper's reference DSP: 1600 MIPS at 200 MHz.
    pub(crate) fn reference_200mhz() -> Self {
        Self::new(crate::requirements::DSP_MIPS_AT_200_MHZ)
    }

    /// The MIPS rating.
    pub fn mips(&self) -> f64 {
        self.mips
    }

    /// Runs a task, charging `instructions` against the budget.
    pub fn run<T>(&mut self, task: &str, instructions: u64, f: impl FnOnce() -> T) -> T {
        self.total_instructions += instructions;
        *self.per_task.entry(task.to_string()).or_insert(0) += instructions;
        f()
    }

    /// Charges instructions without running anything (for pure accounting).
    pub fn charge(&mut self, task: &str, instructions: u64) {
        self.run(task, instructions, || ());
    }

    /// Total instructions charged.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Instructions charged per task name.
    pub fn task_breakdown(&self) -> &BTreeMap<String, u64> {
        &self.per_task
    }

    /// Equivalent sustained MIPS demand over a window.
    pub fn demand_mips_over(&self, window_seconds: f64) -> f64 {
        self.total_instructions as f64 / (window_seconds * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_task() {
        let mut dsp = DspModel::reference_200mhz();
        dsp.charge("search", 100);
        dsp.charge("search", 50);
        dsp.charge("estimate", 25);
        assert_eq!(dsp.total_instructions(), 175);
        assert_eq!(dsp.task_breakdown()["search"], 150);
        assert_eq!(dsp.task_breakdown()["estimate"], 25);
    }

    #[test]
    fn demand_over_a_window() {
        let mut dsp = DspModel::new(100.0); // 100 MIPS
        dsp.charge("x", 1_000_000); // 1e6 instructions in 10 ms
        assert!((dsp.demand_mips_over(0.01) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn run_returns_the_closure_result() {
        let mut dsp = DspModel::reference_200mhz();
        let v = dsp.run("t", 10, || 42);
        assert_eq!(v, 42);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_mips() {
        DspModel::new(0.0);
    }
}
