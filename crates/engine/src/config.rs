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
    /// Number of shards (each owning one array, or one gang).
    pub shards: usize,
    /// Arrays per shard gang. `1` (the default) keeps the seed behaviour:
    /// one array per shard, one session stepped per dispatch. Larger
    /// gangs enable batched dispatch: sessions are grouped by kernel and
    /// each group runs back-to-back on an array where its configuration
    /// is already resident.
    pub arrays_per_shard: usize,
    /// Bounded depth of each shard's submission queue.
    pub queue_depth: usize,
    /// Start every worker paused (deterministic backpressure tests);
    /// resume with [`ShardPool::resume`](crate::ShardPool::resume).
    pub start_paused: bool,
    /// How [`submit`](crate::ShardPool::submit) places sessions on shards:
    /// residency-affinity routing over the global
    /// [`ResidencyView`](crate::ResidencyView) (the default) or the seed's
    /// sticky `id % shards` hash (the golden oracle). With one shard the
    /// two are identical, and the front-end's virtual-time admission model
    /// does not depend on it.
    pub placement: PlacementPolicy,
    /// Let a saturated shard expose its coldest pending batch for an
    /// idle shard to claim (the default with more than one shard). The
    /// steal path recompiles nothing — the process-wide
    /// [`ConfigStore`](crate::ConfigStore) makes every compiled config
    /// shard-agnostic. Disabled automatically with a single shard.
    ///
    /// Session outcomes and the admission model's slack/shed figures are
    /// placement- and steal-independent and repeat exactly on any driver.
    /// The live dispatch counters (reconfigurations, prefetches,
    /// dense-stepping entries, router and steal lines) depend on which
    /// shard each step lands on and when — on the pool's threads they vary
    /// from run to run whatever this and `placement` are set to; only the
    /// lockstep driver ([`Frontend::lockstep`](crate::Frontend::lockstep))
    /// makes every counter exact.
    pub work_stealing: bool,
    /// Pending sessions a shard must have queued (in its EDF heap) before
    /// it exposes a steal offer.
    pub steal_threshold: usize,
    /// Inert; the frozen benchmark package sets it and ROADMAP E(2) deletes it.
    pub delta_loading: bool,
    /// Supervision tuning: kernel/session retry budgets.
    pub recovery: RecoveryPolicy,
    /// Deterministic fault plan driven by one pool-wide injector shared
    /// across all shards (its load ordinal spans worker restarts). `None`
    /// injects nothing.
    #[cfg(feature = "faults")]
    pub fault_plan: Option<FaultPlan>,
    /// Materialisation window: maximum concurrently *rehydrated*
    /// sessions (in flight in the pool). Everything beyond this stays
    /// parked. Clamped to `shards × queue_depth`, so a record is only
    /// rehydrated when the pool has a slot for it, and to at least 1
    /// ([`Frontend::window`](crate::Frontend::window)).
    pub max_resident: usize,
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
            start_paused: false,
            placement: PlacementPolicy::default(),
            work_stealing: true,
            steal_threshold: 8,
            delta_loading: false,
            recovery: RecoveryPolicy::default(),
            #[cfg(feature = "faults")]
            fault_plan: None,
            max_resident: 64,
            parking_capacity: 0,
            shed_lateness_cycles: 2 * WCDMA_PERIOD_CYCLES,
        }
    }
}
