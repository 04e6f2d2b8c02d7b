//! The rake's word-level kernels expressed as XPP configurations.
//!
//! These are the paper's Figures 5–7: the descrambler, the despreader and
//! the channel-correction unit, built from ALU/register/RAM objects and
//! verified *bit-exact* against the golden models in [`crate::rake::finger`]
//! and [`crate::symbols`]. [`finger_netlist`] splices Figs. 5 and 6 into one
//! configuration — one rake finger, the descrambled chips streaming from
//! one datapath into the next on the array — from the builders the two
//! stand-alone netlists use, except that it maps the code bits to `±1`
//! with arithmetic where Fig. 5 merges over packed constants.
//!
//! Every kernel is a [`WcdmaKernel`] variant (its [`build`](WcdmaKernel::build)
//! is the netlist constructor) and has a **drive function** beside its
//! netlist — [`drive_descrambler`], [`drive_despreader`],
//! [`drive_multiplexed_despreader`], [`drive_finger`] (the one the engine
//! runs), [`drive_corrector`] and [`drive_sttd_corrector`] — the one place
//! that knows the netlist's port names, cycle budgets and push → run →
//! drain order. It runs one job on a caller-owned `Array` that may hold
//! other resident configurations, and streams its inputs straight from the
//! caller's slices, so calling it again with the same arguments — a
//! watchdog retry — replays the job. Per-job parameters the netlist takes
//! on ports (the multiplexed despreader's OVSF code, the correctors'
//! weights) are drive arguments.

pub mod corrector;
pub mod descrambler;
pub mod despreader;
pub mod finger;

use corrector::sttd_corrector_netlist;
pub use corrector::{corrector_netlist, drive_corrector, drive_sttd_corrector};
pub use descrambler::{descrambler_netlist, drive_descrambler};
pub use despreader::{
    despreader_multiplexed_netlist, despreader_single_netlist, drive_despreader,
    drive_multiplexed_despreader,
};
pub use finger::{drive_finger, finger_netlist};

use xpp_array::Netlist;

/// Registry of the crate's array kernels: every `*_netlist` constructor,
/// addressable by a stable identity instead of a function pointer.
///
/// A configuration manager keys its compiled-config cache by
/// [`config_name`](WcdmaKernel::config_name) — kernel id plus every
/// parameter that changes the generated netlist — and calls
/// [`build`](WcdmaKernel::build) only on a cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WcdmaKernel {
    /// Fig. 5 complex descrambler ([`drive_descrambler`]).
    Descrambler,
    /// Fig. 6 single-code despreader ([`drive_despreader`]).
    Despreader { sf: usize, code_index: usize },
    /// Fig. 5 wired into Fig. 6: one rake finger in one configuration
    /// ([`drive_finger`]).
    Finger { sf: usize, code_index: usize },
    /// Fig. 6 finger-multiplexed despreader
    /// ([`drive_multiplexed_despreader`]).
    MultiplexedDespreader { fingers: usize, sf: usize },
    /// Fig. 7 MRC channel corrector ([`drive_corrector`]).
    Corrector { fingers: usize },
    /// Fig. 7 STTD-decoding corrector ([`drive_sttd_corrector`]).
    SttdCorrector,
}

impl WcdmaKernel {
    /// Stable cache key: kernel id plus every netlist-shaping parameter.
    pub fn config_name(&self) -> String {
        match self {
            WcdmaKernel::Descrambler => "fig5-descrambler".to_string(),
            WcdmaKernel::Despreader { sf, code_index } => {
                format!("fig6-despreader-sf{sf}-c{code_index}")
            }
            WcdmaKernel::Finger { sf, code_index } => {
                format!("fig5-fig6-finger-sf{sf}-c{code_index}")
            }
            WcdmaKernel::MultiplexedDespreader { fingers, sf } => {
                format!("fig6-despreader-mux{fingers}-sf{sf}")
            }
            WcdmaKernel::Corrector { fingers } => format!("fig7-corrector-f{fingers}"),
            WcdmaKernel::SttdCorrector => "fig7-sttd-corrector".to_string(),
        }
    }

    /// Builds the kernel's netlist (the expensive step a compiled-config
    /// cache avoids repeating).
    pub fn build(&self) -> Netlist {
        match *self {
            WcdmaKernel::Descrambler => descrambler_netlist(),
            WcdmaKernel::Despreader { sf, code_index } => despreader_single_netlist(sf, code_index),
            WcdmaKernel::Finger { sf, code_index } => finger_netlist(sf, code_index),
            WcdmaKernel::MultiplexedDespreader { fingers, sf } => {
                despreader_multiplexed_netlist(fingers, sf)
            }
            WcdmaKernel::Corrector { fingers } => corrector_netlist(fingers),
            WcdmaKernel::SttdCorrector => sttd_corrector_netlist(),
        }
    }
}
