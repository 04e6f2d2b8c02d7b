//! Cycle-level simulator of a PACT XPP-64A style coarse-grained
//! reconfigurable array (CGRA).
//!
//! This crate is the reconfigurable-hardware substrate of the `xpp-sdr`
//! reproduction of *"Reconfigurable Signal Processing in Wireless Terminals"*
//! (DATE 2003). It models the architecture the paper describes:
//!
//! * an **8×8 array of 24-bit ALU processing elements** ([`Word`]) with a
//!   column of eight 512×24-bit RAM elements on either side ([`Geometry`]),
//! * **token-based handshake dataflow**: objects fire when their inputs hold
//!   packets and their outputs have space, so pipelining and back-pressure
//!   emerge from the protocol (bounded point-to-point token channels),
//! * **software-defined configurations**: a [`Netlist`] (built with
//!   [`NetlistBuilder`]) describes object behaviours and routing, playing the
//!   role of NML source code in the XPP tool flow,
//! * a **configuration manager** with runtime partial reconfiguration:
//!   configurations load over a serial bus, hold resources while resident,
//!   and can be removed to free PAEs for follow-on configurations
//!   ([`Array::configure`], [`Array::unload`]),
//! * **statistics and an energy/area model** calibrated to the paper's
//!   0.13 µm HCMOS9 implementation ([`ArrayStats`], [`power::EnergyModel`]).
//!
//! # Quick start
//!
//! ```
//! use xpp_array::{AluOp, Array, NetlistBuilder, Word};
//!
//! # fn main() -> Result<(), xpp_array::Error> {
//! // A multiply pipeline: y = (a*b) >> 4, running one result per clock
//! // cycle once the pipeline fills.
//! let mut nl = NetlistBuilder::new("mac");
//! let a = nl.input("a");
//! let b = nl.input("b");
//! let y = nl.alu(AluOp::MulShr(4), a, b);
//! nl.output("y", y);
//!
//! let mut array = Array::xpp64a();
//! let cfg = array.configure(&nl.build()?)?;
//! array.push_input(cfg, "a", (0..16).map(Word::new))?;
//! array.push_input(cfg, "b", (0..16).map(|_| Word::new(32)))?;
//! array.run_until_idle(1_000)?;
//! let y: Vec<i32> = array.drain_output(cfg, "y")?.iter().map(|w| w.value()).collect();
//! assert_eq!(y[3], 6); // (3*32) >> 4
//! # Ok(())
//! # }
//! ```

pub mod array;
mod channel;
pub mod compiled;
pub mod error;
pub mod fault;
pub mod iq;
pub mod netlist;
pub mod object;
pub mod place;
pub mod power;
pub mod schedule;
pub mod stats;
pub mod word;

pub use array::{Array, ConfigId, CONFIG_CYCLES_PER_OBJECT};
pub use compiled::CompiledConfig;
pub use error::{Error, Result};
pub use netlist::{DataOut, EvOut, Netlist, NetlistBuilder, DEFAULT_CHANNEL_CAPACITY};
pub use object::{AluOp, CounterCfg, ObjectKind, UnaryOp};
pub use place::{Geometry, ResourceCounts};
pub use schedule::ScheduleStats;
pub use stats::ArrayStats;
pub use word::{Word, WORD_MIN};
