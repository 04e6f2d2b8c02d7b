//! Fixed-point and integer-complex signal-processing primitives.
//!
//! This crate is the arithmetic foundation of the `xpp-sdr` workspace: every
//! other crate (the CGRA simulator, the W-CDMA rake receiver, the OFDM
//! receiver and the platform model) builds on the types defined here.
//!
//! The paper's hardware operates on 24-bit integer words (the XPP ALU
//! processing elements), on 12-bit I/Q samples (W-CDMA) and on 10-bit I/Q
//! samples (OFDM), so the emphasis is on *integer* signal processing with
//! explicit widths, explicit scaling and bit-exact reproducibility:
//!
//! * [`Cplx`] — a minimal complex-number type over `i32`, `i64` or `f64`,
//! * [`fixed`] — Q-format fixed-point helpers (saturation, rounding shifts),
//! * [`fft`] — a floating-point reference DFT/FFT and the bit-exact
//!   fixed-point radix-4 FFT-64 that the paper maps onto the array (Fig. 9),
//! * [`filter`] — sliding correlation,
//! * [`noise`] — a deterministic AWGN generator (every channel in the
//!   workspace is fixed complex path gains plus this noise; none fades),
//! * [`bits`] — LFSRs and bit packing shared by the scrambling-code and
//!   convolutional-code generators,
//! * [`metrics`] — the bit-error-rate counter used by the experiments.
//!
//! # Example
//!
//! ```
//! use sdr_dsp::{Cplx, fft};
//!
//! // A pure tone lands in a single FFT bin.
//! let tone: Vec<Cplx<f64>> = (0..64)
//!     .map(|n| Cplx::from_polar(1.0, 2.0 * std::f64::consts::PI * 5.0 * n as f64 / 64.0))
//!     .collect();
//! let spec = fft::fft(&tone);
//! let peak = spec
//!     .iter()
//!     .enumerate()
//!     .max_by(|a, b| a.1.sqmag().partial_cmp(&b.1.sqmag()).unwrap())
//!     .map(|(i, _)| i);
//! assert_eq!(peak, Some(5));
//! ```

pub mod bits;
pub mod complex;
pub mod fft;
pub mod filter;
pub mod fixed;
pub mod metrics;
pub mod noise;
pub mod rng;

pub use complex::Cplx;
