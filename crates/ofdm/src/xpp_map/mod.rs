//! The OFDM decoder's array configurations (paper Figs. 9 and 10).
//!
//! The two kernels the multi-terminal engine runs have a **drive
//! function** beside their netlist — [`drive_preamble_detector`] (2a) and
//! [`drive_demodulator`] (2b) — the one place that knows the netlist's
//! port names, cycle budgets and push → run → drain order. It runs one job
//! on a caller-owned `Array` that may hold other resident configurations
//! (the engine's workers; [`ReconfigurableFrontend`] calls it too), and
//! streams its inputs straight from the caller's slices, so calling it
//! again with the same arguments — a watchdog retry — replays the job.

pub mod fft64;
pub mod frontend;

pub use fft64::{fft64_netlist, ArrayFft64};
pub use frontend::{
    demodulator_netlist, downsample2, downsampler_netlist, drive_demodulator,
    drive_preamble_detector, frontend_netlist, preamble_detector_netlist, ReconfigEvent,
    ReconfigurableFrontend,
};

use sdr_dsp::Cplx;
use xpp_array::{Netlist, Word};

/// Registry of the crate's array kernels (paper Figs. 9/10) under stable
/// identities, mirroring the wcdma crate's `WcdmaKernel` registry: a
/// configuration manager keys its compiled-config cache by
/// [`config_name`](OfdmKernel::config_name) and calls
/// [`build`](OfdmKernel::build) only on a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OfdmKernel {
    /// Fig. 10 configuration 2a: short-preamble autocorrelation detector.
    PreambleDetector,
    /// Fig. 10 configuration 2b: equalize-and-slice demodulator.
    Demodulator,
    /// Fig. 9 receive frontend (downsampler + FFT).
    Frontend { stage_shift: u32 },
    /// Fig. 9 half-band downsampler alone.
    Downsampler,
    /// Fig. 9 radix-2 64-point FFT alone.
    Fft64 { stage_shift: u32 },
}

impl OfdmKernel {
    /// Stable cache key: kernel id plus every netlist-shaping parameter.
    pub fn config_name(&self) -> String {
        match self {
            OfdmKernel::PreambleDetector => "fig10-config2a-detector".to_string(),
            OfdmKernel::Demodulator => "fig10-config2b-demodulator".to_string(),
            OfdmKernel::Frontend { stage_shift } => format!("fig9-frontend-s{stage_shift}"),
            OfdmKernel::Downsampler => "fig9-downsampler".to_string(),
            OfdmKernel::Fft64 { stage_shift } => format!("fig9-fft64-s{stage_shift}"),
        }
    }

    /// Builds the kernel's netlist (the expensive step a compiled-config
    /// cache avoids repeating).
    pub fn build(&self) -> Netlist {
        match *self {
            OfdmKernel::PreambleDetector => preamble_detector_netlist(),
            OfdmKernel::Demodulator => demodulator_netlist(),
            OfdmKernel::Frontend { stage_shift } => frontend_netlist(stage_shift),
            OfdmKernel::Downsampler => downsampler_netlist(),
            OfdmKernel::Fft64 { stage_shift } => fft64_netlist(stage_shift),
        }
    }
}

/// Splits a complex integer stream into parallel I and Q word streams,
/// read lazily from the caller's slice (`Array::push_input` takes them as
/// they are).
pub(crate) fn split_iq(
    samples: &[Cplx<i32>],
) -> (
    impl Iterator<Item = Word> + '_,
    impl Iterator<Item = Word> + '_,
) {
    (
        samples.iter().map(|c| Word::new(c.re)),
        samples.iter().map(|c| Word::new(c.im)),
    )
}

/// Zips parallel I and Q word streams back into complex samples.
pub(crate) fn zip_iq(i: &[Word], q: &[Word]) -> Vec<Cplx<i32>> {
    assert_eq!(i.len(), q.len(), "I/Q stream length mismatch");
    i.iter()
        .zip(q)
        .map(|(a, b)| Cplx::new(a.value(), b.value()))
        .collect()
}
