//! The engine's one configuration: every setting of the worker pool and
//! of the front-end that drives it, in one struct with one `Default`.
//!
//! [`ShardPool::new`](crate::ShardPool::new) and
//! [`Frontend::new`](crate::Frontend::new) both take an [`EngineConfig`]
//! and read the fields that concern them, so a setting is declared — and
//! defaulted — exactly once.

#[cfg(feature = "faults")]
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
    /// Number of shards (each owning one array, or one gang). Sessions are
    /// routed to the shard that holds their next kernel, and with more than
    /// one shard an idle shard claims work a saturated one exposes
    /// ([`router`](crate::router)).
    pub shards: usize,
    /// Arrays per shard gang (`1`, the default, is one array per shard).
    /// The dispatch policy is the same for every size: a round steps the
    /// shard's most urgent session on the member that holds its kernel
    /// (else the least-busy member), and a gang spreads a saturated kernel
    /// over up to `arrays_per_shard − 1` members (both of a pair).
    pub arrays_per_shard: usize,
    /// Bounded depth of each shard's submission queue. The front-end's
    /// materialisation window is `min(64, shards × queue_depth)`
    /// ([`Frontend::window`](crate::Frontend::window)).
    pub queue_depth: usize,
    /// Inert; the frozen benchmark package sets it and ROADMAP E(2) deletes it.
    pub placement: PlacementPolicy,
    /// Inert; the frozen benchmark package sets it and ROADMAP E(2) deletes it.
    pub work_stealing: bool,
    /// Inert; the frozen benchmark package sets it and ROADMAP E(2) deletes it.
    pub delta_loading: bool,
    /// Supervision tuning: kernel/session retry budgets.
    pub recovery: RecoveryPolicy,
    /// Deterministic fault plan driven by one pool-wide injector shared
    /// across all shards (its load ordinal spans worker restarts). `None`
    /// injects nothing.
    #[cfg(feature = "faults")]
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
            #[cfg(feature = "faults")]
            fault_plan: None,
            parking_capacity: 0,
            shed_lateness_cycles: 2 * WCDMA_PERIOD_CYCLES,
        }
    }
}
