//! The engine's one configuration: every setting of the worker pool and
//! of the front-end that drives it, in one struct with one `Default`.
//!
//! [`ShardPool::new`](crate::ShardPool::new) and
//! [`Frontend::new`](crate::Frontend::new) both take an [`EngineConfig`]
//! and read the fields that concern them, so a setting is declared — and
//! defaulted — exactly once.

use xpp_array::fault::FaultPlan;

use crate::router::PlacementPolicy;
use crate::session::WCDMA_PERIOD_CYCLES;

/// Supervision and recovery tuning shared by a pool's workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Kernel activation/run attempts before a fault error is surfaced to
    /// the session (each retry reloads the configuration from the shared
    /// [`ConfigStore`](crate::ConfigStore)). Clamped to at least 1.
    pub max_kernel_attempts: u32,
    /// Times a crashed session is re-dispatched to a restarted shard
    /// before it is dead-lettered.
    pub max_session_attempts: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_kernel_attempts: 3,
            max_session_attempts: 3,
        }
    }
}

/// Pool and front-end sizing and policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads. The router places on `shards × arrays_per_shard`
    /// arrays, each with its own queue, clock and residency
    /// ([`router`](crate::router)); a thread only steps the arrays it was
    /// given.
    pub shards: usize,
    /// Arrays each worker thread steps (`1`, the default, is one array per
    /// thread). A thread steps its arrays in clock order; it does not place
    /// sessions among them.
    pub arrays_per_shard: usize,
    /// Sessions each array may own at once: submitted to it and not yet
    /// handed back, whether queued or being stepped. The front-end's
    /// materialisation window is `min(64, arrays × queue_depth)`
    /// ([`Frontend::window`](crate::Frontend::window)).
    pub queue_depth: usize,
    /// Inert; the frozen benchmark package sets it and ROADMAP T deletes it.
    pub placement: PlacementPolicy,
    /// Inert; the frozen benchmark package sets it and ROADMAP T deletes it.
    pub work_stealing: bool,
    /// Inert; the frozen benchmark package sets it and ROADMAP T deletes it.
    pub delta_loading: bool,
    /// Supervision tuning: kernel/session retry budgets.
    pub recovery: RecoveryPolicy,
    /// Deterministic fault plan driven by one pool-wide injector shared
    /// across all shards (its load ordinal spans worker restarts). `None`
    /// injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Parking-lot slots to preallocate (parking within this budget is
    /// allocation-free). `0` grows on demand.
    pub parking_capacity: usize,
    /// A fresh frame whose modeled completion would run later than
    /// `deadline + shed_lateness_cycles` is shed at admission instead of
    /// being materialised.
    pub shed_lateness_cycles: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 4,
            arrays_per_shard: 1,
            queue_depth: 32,
            placement: PlacementPolicy::default(),
            work_stealing: true,
            delta_loading: false,
            recovery: RecoveryPolicy::default(),
            fault_plan: None,
            parking_capacity: 0,
            shed_lateness_cycles: 2 * WCDMA_PERIOD_CYCLES,
        }
    }
}
