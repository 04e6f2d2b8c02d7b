//! Multi-terminal baseband engine.
//!
//! The paper's platform runs *one* terminal's baseband on a reconfigurable
//! array; a base-station (or a dense simulation farm) must run many. This
//! crate scales the single-terminal pipelines of `sdr_wcdma` and
//! `sdr_ofdm` across a pool of simulated XPP arrays, stepped by a few
//! worker threads:
//!
//! * [`session`] — per-terminal state machines (W-CDMA rake acquisition,
//!   802.11a preamble detect → demodulate on the Fig. 10 configurations
//!   2a and 2b);
//! * [`pool`] — one bounded-queue shard per array: each array steps the
//!   most urgent session it owns (earliest deadline first), and a
//!   configuration stays resident until placement pressure evicts it;
//! * [`router`] — residency-affinity placement on what each array owns,
//!   the only placement decision: a session follows its kernel until the
//!   holder runs more than eight sessions ahead of the least-loaded array,
//!   and then spills there;
//! * [`config_manager`] — the configuration-manager subsystem: a
//!   [`KernelSpec`] registry of array kernels, a **process-wide**
//!   compile-once store of pre-compiled, pre-placed configurations (each
//!   kernel is built once per process, not once per worker, and named by a
//!   dense [`KernelId`](config_manager::KernelId)), and the
//!   [`WorkerArray`] that owns one array and its configuration lifecycle,
//!   whose least-recently-used eviction is the Fig. 10 resource recycling;
//! * [`metrics`] — a lock-free registry every component reports into;
//! * [`config`] — the one [`EngineConfig`] both the pool and the driver
//!   read.
//!
//! [`Frontend`] is the one driver — a single-threaded loop that owns the
//! pool, the control plane above that dataflow plane, as the paper's
//! configuration manager is the one authority that sequences every load,
//! run and eviction. Terminals are admitted as compact parked records,
//! rehydrated into a window no wider than the arrays' queues can hold, and
//! each hand-back is resubmitted until the session reaches a terminal
//! state. That credit window is the only flow control: the router always
//! finds an array with room, so no submission is refused and no thread
//! blocks. The run is *supervised*: a panicking step restarts its array
//! fresh and the session is re-dispatched (bounded by
//! [`RecoveryPolicy::max_session_attempts`], then dead-lettered), and a
//! frame whose modeled completion is hopelessly late is shed at admission
//! and reported in [`ScaleSummary::shed`] instead of queueing without
//! bound. A deterministic `FaultPlan` (`xpp_array::fault`) set as
//! [`EngineConfig::fault_plan`] is injected pool-wide to exercise exactly
//! these paths; with none set the fault hooks stay inert.
//!
//! ```
//! use sdr_engine::{EngineConfig, Frontend, ParkedSession, Session};
//!
//! let mut frontend = Frontend::new(EngineConfig { shards: 2, ..EngineConfig::default() });
//! frontend.admit(ParkedSession::new_wcdma(0, 1, 0));
//! frontend.admit(ParkedSession::new_ofdm(1, 2, 0));
//! let summary = frontend.run(&mut |_: &Session, _| None);
//! assert_eq!(summary.done, 2);
//! println!("{}", summary.snapshot);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod config_manager;
pub mod frontend;
pub mod metrics;
pub mod pool;
pub mod router;
pub mod session;

pub use config::{EngineConfig, RecoveryPolicy};
pub use config_manager::{ConfigStore, KernelSpec, WorkerArray};
pub use frontend::{Frontend, ScaleSummary};
pub use metrics::{Metrics, Snapshot};
pub use pool::{PoolConfig, ShardPool, SubmitError};
pub use router::{AffinityRouter, Placement, PlacementPolicy, ResidencyView, ShardStatus};
pub use session::{ParkedSession, Session, SessionState, Standard};
