//! IEEE 802.11a / HiperLAN-2 OFDM substrate and receiver.
//!
//! This crate reproduces the second application of the DATE 2003 paper
//! *"Reconfigurable Signal Processing in Wireless Terminals"*: the OFDM
//! decoder for high-speed wireless LAN (Fig. 8), with the radix-4 FFT-64
//! (Fig. 9) and the runtime reconfiguration scenario between the preamble
//! detector and the demodulator (Fig. 10) mapped onto the XPP array.
//!
//! Layers:
//!
//! * [`params`], [`scrambler`], [`convolutional`], [`interleaver`],
//!   [`modulation`], `preamble` — the 802.11a PHY building blocks
//!   (code generation and Viterbi are *dedicated hardware* in the paper's
//!   partitioning),
//! * [`tx`], [`channel`] — the access-point signal source and indoor
//!   channel substituting for live infrastructure,
//! * [`rx`] — the golden receiver with the bit-exact integer kernels,
//! * [`xpp_map`] — the array configurations: FFT-64, down-sampler,
//!   preamble-detection correlator and demodulator.
//!
//! # Example: one frame end to end
//!
//! ```
//! use sdr_ofdm::channel::WlanChannel;
//! use sdr_ofdm::params::rate;
//! use sdr_ofdm::rx::OfdmReceiver;
//! use sdr_ofdm::tx::Transmitter;
//!
//! # fn main() -> Result<(), sdr_ofdm::rx::RxError> {
//! let r = rate(12).expect("12 Mb/s is a standard rate");
//! let bits: Vec<u8> = (0..96).map(|i| (i % 2) as u8).collect();
//! let frame = Transmitter::new(r).transmit(&bits);
//! let samples = WlanChannel::default().run(&frame.samples);
//! let out = OfdmReceiver::new(r).receive(&samples, bits.len())?;
//! assert_eq!(out.bits, bits);
//! # Ok(())
//! # }
//! ```

pub mod channel;
pub mod convolutional;
pub mod interleaver;
pub mod modulation;
pub mod params;
mod preamble;
pub mod rx;
pub mod scrambler;
pub mod signal_field;
pub mod tx;
pub mod xpp_map;

pub use tx::Transmitter;
