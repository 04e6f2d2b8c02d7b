//! The OFDM decoder's array configurations (paper Figs. 9 and 10).
//!
//! Every kernel is an [`OfdmKernel`] variant (its
//! [`build`](OfdmKernel::build) is the netlist constructor) and has a
//! **drive function** beside its netlist — [`drive_preamble_detector`]
//! (2a) and [`drive_demodulator`] (2b), which the multi-terminal engine
//! runs, and [`drive_fft64`] (Fig. 9) — the one place that knows the
//! netlist's port names, cycle budgets and push → run → drain order. It
//! runs one job on a caller-owned `Array` that may hold other resident
//! configurations (the engine's workers; [`ReconfigurableFrontend`] calls
//! it too), and streams its inputs straight from the caller's slices, so
//! calling it again with the same arguments — a watchdog retry — replays
//! the job. Configuration 1 ([`frontend_netlist`], the down-sampler beside
//! the FFT) is not a kernel of its own: it lives only inside the Fig. 10
//! scenario, [`ReconfigurableFrontend`], which routes it into 2a.

pub mod fft64;
pub mod frontend;

pub use fft64::{drive_fft64, fft64_netlist};
pub use frontend::{
    demodulator_netlist, downsample2, drive_demodulator, drive_preamble_detector, frontend_netlist,
    preamble_detector_netlist, ReconfigurableFrontend,
};

use xpp_array::Netlist;

/// Registry of the crate's array kernels (paper Figs. 9/10) under stable
/// identities, mirroring the wcdma crate's `WcdmaKernel` registry: a
/// configuration manager keys its compiled-config cache by
/// [`config_name`](OfdmKernel::config_name) and calls
/// [`build`](OfdmKernel::build) only on a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OfdmKernel {
    /// Fig. 10 configuration 2a: short-preamble autocorrelation detector
    /// ([`drive_preamble_detector`]).
    PreambleDetector,
    /// Fig. 10 configuration 2b: equalize-and-slice demodulator
    /// ([`drive_demodulator`]).
    Demodulator,
    /// Fig. 9 radix-4 64-point FFT ([`drive_fft64`]).
    Fft64 { stage_shift: u32 },
}

impl OfdmKernel {
    /// Stable cache key: kernel id plus every netlist-shaping parameter.
    pub fn config_name(&self) -> String {
        match self {
            OfdmKernel::PreambleDetector => "fig10-config2a-detector".to_string(),
            OfdmKernel::Demodulator => "fig10-config2b-demodulator".to_string(),
            OfdmKernel::Fft64 { stage_shift } => format!("fig9-fft64-s{stage_shift}"),
        }
    }

    /// Builds the kernel's netlist (the expensive step a compiled-config
    /// cache avoids repeating).
    pub fn build(&self) -> Netlist {
        match *self {
            OfdmKernel::PreambleDetector => preamble_detector_netlist(),
            OfdmKernel::Demodulator => demodulator_netlist(),
            OfdmKernel::Fft64 { stage_shift } => fft64_netlist(stage_shift),
        }
    }
}
