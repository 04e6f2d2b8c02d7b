//! UMTS/W-CDMA downlink substrate and rake receiver.
//!
//! This crate reproduces the first application of the DATE 2003 paper
//! *"Reconfigurable Signal Processing in Wireless Terminals"*: a flexible
//! mobile rake receiver capable of soft handover with up to six base
//! stations and three multipaths each, whose word-level kernels
//! (descrambling, despreading, channel correction — Figs. 5–7) run on the
//! reconfigurable array while control, synchronisation and channel
//! estimation run on the DSP, and code generation in dedicated hardware
//! (Fig. 4).
//!
//! Layers:
//!
//! * [`scrambling`], [`ovsf`], [`symbols`] — 3GPP code generators and
//!   mappings (the dedicated-hardware blocks),
//! * [`tx`], [`channel`] — the standard-conformant signal source and the
//!   multipath/AWGN/ADC front end substituting for the live network,
//! * [`rake`] — the golden receiver (searcher, estimator, fingers,
//!   combiner),
//! * [`xpp_map`] — the same word-level kernels expressed as XPP netlists,
//!   verified bit-exact against the golden models,
//! * [`scenario`] — the Table 1 finger-scenario model.
//!
//! # Example: one-cell link end to end
//!
//! ```
//! use sdr_wcdma::channel::{propagate, AdcConfig, CellLink, Path};
//! use sdr_wcdma::rake::{RakeConfig, RakeReceiver};
//! use sdr_wcdma::tx::{CellConfig, CellTransmitter};
//! use sdr_dsp::Cplx;
//!
//! let bits: Vec<u8> = (0..64).map(|i| (i % 2) as u8).collect();
//! let mut tx = CellTransmitter::new(CellConfig::default());
//! let signal = tx.transmit(&bits);
//! let link = CellLink::new(vec![Path::new(5, Cplx::new(0.8, 0.3))]);
//! let rx = propagate(&[(signal, link)], 0.02, 7, AdcConfig::default());
//!
//! let rake = RakeReceiver::new(vec![0], RakeConfig::default());
//! let out = rake.receive(&rx);
//! assert_eq!(&out.bits[..bits.len()], &bits[..]);
//! ```

pub mod channel;
pub mod ovsf;
pub mod rake;
pub mod scenario;
pub mod scrambling;
pub mod symbols;
pub mod tx;
pub mod xpp_map;

pub use scrambling::ScramblingCode;
pub use tx::{CellConfig, CellTransmitter};
