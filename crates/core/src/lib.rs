//! The paper's contribution: a heterogeneous software-defined-radio
//! platform combining a DSP, dedicated hardware and a coarse-grained
//! reconfigurable array.
//!
//! *"The presented combination of reconfigurable hardware, dedicated
//! hardware and a DSP shows a very good fit to handle SDR wireless
//! applications"* — this crate models that combination and the arguments
//! around it:
//!
//! * [`requirements`] — the processing-power (Fig. 1) and data-rate vs
//!   mobility (Fig. 2) models motivating the architecture,
//! * [`partition`] — the task partitionings of the rake receiver (Fig. 4)
//!   and OFDM decoder (Fig. 8) onto DSP / dedicated HW / array,
//! * [`dsp`] — the task-level DSP model with MIPS accounting,
//! * [`platform`] — the Fig. 11 evaluation platform composing an
//!   [`xpp_array::Array`], the DSP model and dedicated blocks,
//! * [`scheduler`] — time-sliced multi-standard operation (EDF over
//!   measured kernel cycle counts).
//!
//! # Example
//!
//! ```
//! use sdr_core::requirements::{Protocol, exceeds_single_dsp};
//! use sdr_core::scheduler::{schedule_edf, Job};
//!
//! // The paper's motivation: UMTS exceeds a single DSP…
//! assert!(exceeds_single_dsp(Protocol::Umts));
//! // …and time-slicing two standards over one array is feasible when the
//! // measured utilizations fit.
//! let jobs = vec![Job::new("umts-rake-slot", 2_560, 38_400),
//!                 Job::new("ofdm-symbol", 1_000, 13_824)];
//! let report = schedule_edf(&jobs, 500_000);
//! assert!(report.feasible());
//! ```

pub mod dsp;
pub mod partition;
pub mod platform;
pub mod requirements;
pub mod scheduler;

pub use partition::{ofdm_partitioning, rake_partitioning};
pub use platform::SdrPlatform;
