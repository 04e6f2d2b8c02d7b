//! Two-level hierarchical scheduling: the global layer above the shards.
//!
//! Within a shard, one dispatch policy steps the most urgent session on
//! the member that holds its kernel (see [`pool`](crate::pool)); this
//! module adds the level above — the pieces that make `shards ×
//! arrays_per_shard` behave like one elastic pool instead of static
//! partitions:
//!
//! * [`ResidencyView`] — a cheaply-refreshed global snapshot of each
//!   shard's configuration residency, the sessions it owns (submitted to
//!   it and not yet handed back) and its cumulative array load.
//!   Shard loops *publish* into their own [`ShardStatus`] cell; the
//!   publish side uses `try_lock` so dispatch never blocks on a reader,
//!   and readers only ever take a lock a writer holds for the
//!   microseconds it takes to copy a handful of config names.
//! * [`AffinityRouter`] — the placement behind
//!   [`ShardPool::submit`](crate::pool::ShardPool::submit): it routes a
//!   session to a shard whose gang already holds its next [`KernelSpec`],
//!   has room and owns at most `MAX_HOLDER_LEAD` more sessions than the
//!   least-loaded shard, and otherwise to the least-loaded shard, so
//!   admissions and resubmitted steps land where their configuration is
//!   warm until a hotspot spills. A spill recompiles nothing: the
//!   process-wide [`ConfigStore`](crate::config_manager::ConfigStore)
//!   makes every `CompiledConfig` shard-agnostic. The front-end's credit
//!   window keeps the sessions in flight below what the shards may own in
//!   all, so some shard always has room and the router never picks a full
//!   one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::config_manager::KernelSpec;
use crate::metrics::Metrics;

/// How many more sessions than the least-loaded shard a shard holding a
/// session's kernel may own and still be picked for it. Past that lead,
/// affinity yields to balance: the session spills to the least-loaded
/// shard, which loads the kernel and becomes a holder in turn.
const MAX_HOLDER_LEAD: u64 = 8;

/// Inert; the frozen benchmark package sets it and ROADMAP E(2) deletes it.
/// Its one variant names the only placement, the [`AffinityRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Residency-affinity routing over the global [`ResidencyView`].
    #[default]
    Affinity,
}

/// One shard's published status cell inside the [`ResidencyView`].
///
/// The owning shard loop is the only writer; everything is either an
/// atomic or guarded by a mutex the writer takes with `try_lock`, so a
/// publish can never block dispatch behind a slow reader.
#[derive(Debug, Default)]
pub struct ShardStatus {
    /// Sessions the shard owns: raised by the pool's submit path, lowered
    /// by the shard as it hands each one back.
    queue_depth: Arc<AtomicU64>,
    /// Cumulative array cycles stepped by the shard's gang — the
    /// in-flight-load signal (survives worker rebuilds).
    busy_cycles: AtomicU64,
    /// Config names resident anywhere on the shard's gang, as of the
    /// last publish.
    resident: Mutex<Vec<String>>,
}

impl ShardStatus {
    /// A fresh cell reading the given owned-session counter.
    pub fn new(queue_depth: Arc<AtomicU64>) -> Self {
        ShardStatus {
            queue_depth,
            ..ShardStatus::default()
        }
    }

    /// Publishes a new residency snapshot and busy-cycle count. Never
    /// blocks: if a reader holds the residency lock right now, only the
    /// name list is skipped this round (the next round republishes it);
    /// the scalar fields always land.
    ///
    /// The retained `String` allocations are reused in place — a shard's
    /// resident set is stable in steady state, so the per-round publish
    /// (and therefore the router hot path reading it) allocates nothing
    /// once every slot has grown to its working size; only a snapshot
    /// larger than any before clones new tail entries.
    pub fn publish(&self, resident: &[String], busy_cycles: u64) {
        if let Ok(mut names) = self.resident.try_lock() {
            let keep = resident.len().min(names.len());
            for (slot, name) in names.iter_mut().zip(resident) {
                slot.clear();
                slot.push_str(name);
            }
            names.truncate(resident.len());
            for name in resident.iter().skip(keep) {
                names.push(name.clone());
            }
        }
        self.busy_cycles.store(busy_cycles, Ordering::Relaxed);
    }

    /// Sessions the shard owns: queued in its inbox or heap, or being
    /// stepped.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Cumulative array cycles the shard's gang has stepped.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles.load(Ordering::Relaxed)
    }

    /// Whether the last published snapshot held `name`.
    pub fn holds(&self, name: &str) -> bool {
        self.resident
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .any(|n| n == name)
    }
}

/// The global residency view: one [`ShardStatus`] cell per shard.
///
/// Routing reads are O(shards) scans over atomics plus one short-lived
/// lock per residency probe — cheap enough to sit on the submit path.
#[derive(Debug)]
pub struct ResidencyView {
    shards: Vec<Arc<ShardStatus>>,
    queue_limit: u64,
}

impl ResidencyView {
    /// A view over the given per-shard cells; `queue_limit` is the most
    /// sessions one shard may own (routing avoids full shards).
    pub fn new(shards: Vec<Arc<ShardStatus>>, queue_limit: u64) -> Self {
        ResidencyView {
            shards,
            queue_limit,
        }
    }

    /// The status cell of one shard.
    pub fn status(&self, shard: usize) -> &Arc<ShardStatus> {
        &self.shards[shard]
    }

    /// What the router compares shards by: sessions owned, then busy
    /// cycles, then index.
    fn load(&self, shard: usize) -> (u64, u64, usize) {
        let status = &self.shards[shard];
        (status.queue_depth(), status.busy_cycles(), shard)
    }

    /// The least-loaded shard holding `name` among those with room that
    /// own at most `MAX_HOLDER_LEAD` more sessions than the least-loaded
    /// shard. `None` when no shard qualifies.
    pub fn holder_of(&self, name: &str) -> Option<usize> {
        let least = self.load(self.least_loaded()).0;
        (0..self.shards.len())
            .filter(|&i| {
                let owned = self.shards[i].queue_depth();
                owned < self.queue_limit
                    && owned <= least + MAX_HOLDER_LEAD
                    && self.shards[i].holds(name)
            })
            .min_by_key(|&i| self.load(i))
    }

    /// The least-loaded shard: minimum (sessions owned, busy cycles,
    /// index). It has room whenever any shard does; when none does, the
    /// submit refuses with `WouldBlock`.
    pub fn least_loaded(&self) -> usize {
        (0..self.shards.len())
            .min_by_key(|&i| self.load(i))
            .unwrap_or(0)
    }
}

/// Maps a session (its next kernel and id) to a shard index. The
/// [`AffinityRouter`] is its one implementation; the frozen benchmark
/// package calls `place` through it, and ROADMAP E(2) deletes it.
pub trait Placement: Send + Sync {
    /// Picks the shard for a session about to be submitted.
    fn place(&self, next_kernel: Option<&KernelSpec>, session_id: u64) -> usize;
}

/// Residency-affinity routing over the global [`ResidencyView`].
///
/// A session whose next kernel is already resident on some shard that has
/// room and is not more than `MAX_HOLDER_LEAD` sessions ahead of the
/// least-loaded shard goes there — `router_affinity_hits`; everything else
/// (host-only steps, cold kernels, full or overloaded holders) falls back
/// to the least-loaded shard — `router_fallbacks`.
pub struct AffinityRouter {
    view: Arc<ResidencyView>,
    metrics: Arc<Metrics>,
}

impl AffinityRouter {
    /// A router over the pool's residency view.
    pub fn new(view: Arc<ResidencyView>, metrics: Arc<Metrics>) -> Self {
        AffinityRouter { view, metrics }
    }
}

impl Placement for AffinityRouter {
    fn place(&self, next_kernel: Option<&KernelSpec>, _session_id: u64) -> usize {
        if let Some(kernel) = next_kernel {
            let name = kernel.config_name();
            if let Some(shard) = self.view.holder_of(&name) {
                Metrics::incr(&self.metrics.router_affinity_hits);
                return shard;
            }
        }
        Metrics::incr(&self.metrics.router_fallbacks);
        self.view.least_loaded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_ofdm::xpp_map::OfdmKernel;
    use sdr_wcdma::xpp_map::WcdmaKernel;

    fn view(n: usize, queue_limit: u64) -> (Arc<ResidencyView>, Vec<Arc<AtomicU64>>) {
        let depths: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let cells = depths
            .iter()
            .map(|d| Arc::new(ShardStatus::new(Arc::clone(d))))
            .collect();
        (Arc::new(ResidencyView::new(cells, queue_limit)), depths)
    }

    #[test]
    fn affinity_prefers_the_holder_and_falls_back_least_loaded() {
        let (view, depths) = view(3, 8);
        let metrics = Arc::new(Metrics::new());
        let spec = KernelSpec::Wcdma(WcdmaKernel::Descrambler);
        let name = spec.config_name();
        view.status(2).publish(std::slice::from_ref(&name), 500);
        view.status(0).publish(&[], 100);
        view.status(1).publish(&[], 0);

        let router = AffinityRouter::new(Arc::clone(&view), Arc::clone(&metrics));
        assert_eq!(router.place(Some(&spec), 0), 2, "routes to the holder");
        // Host-only step: least-loaded fallback (all depths 0, busy
        // breaks the tie toward shard 1).
        assert_eq!(router.place(None, 0), 1);
        // Cold kernel: fallback too.
        let cold = KernelSpec::Ofdm(OfdmKernel::Demodulator);
        assert_eq!(router.place(Some(&cold), 0), 1);
        let snap = metrics.snapshot();
        assert_eq!(snap.router_affinity_hits, 1);
        assert_eq!(snap.router_fallbacks, 2);

        // A full holder queue disables the affinity route.
        depths[2].store(8, Ordering::Relaxed);
        assert_eq!(router.place(Some(&spec), 0), 1, "full holder is skipped");
        assert_eq!(metrics.snapshot().router_fallbacks, 3);
    }

    /// A holder keeps its sessions while it owns at most `MAX_HOLDER_LEAD`
    /// more than the least-loaded shard; one more and the session spills.
    #[test]
    fn an_overloaded_holder_spills_to_the_least_loaded() {
        let (view, depths) = view(2, 64);
        let metrics = Arc::new(Metrics::new());
        let spec = KernelSpec::Wcdma(WcdmaKernel::Descrambler);
        view.status(0).publish(&[spec.config_name()], 0);
        let router = AffinityRouter::new(Arc::clone(&view), Arc::clone(&metrics));
        depths[0].store(MAX_HOLDER_LEAD, Ordering::Relaxed);
        assert_eq!(router.place(Some(&spec), 0), 0, "a lead of eight keeps it");
        depths[0].store(MAX_HOLDER_LEAD + 1, Ordering::Relaxed);
        assert_eq!(router.place(Some(&spec), 0), 1, "nine spills");
        depths[1].store(1, Ordering::Relaxed);
        assert_eq!(router.place(Some(&spec), 0), 0, "the lead is relative");
        let snap = metrics.snapshot();
        assert_eq!((snap.router_affinity_hits, snap.router_fallbacks), (2, 1));
    }

    #[test]
    fn publish_replaces_the_residency_snapshot() {
        let (view, _) = view(1, 8);
        let cell = view.status(0);
        assert!(!cell.holds("fig5-descrambler"));
        cell.publish(&["fig5-descrambler".into()], 42);
        assert_eq!(cell.busy_cycles(), 42);
        assert!(cell.holds("fig5-descrambler"));
        cell.publish(&[], 50);
        assert!(!cell.holds("fig5-descrambler"), "snapshot is replaced");
    }
}
