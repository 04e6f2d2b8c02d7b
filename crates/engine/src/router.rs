//! Placement: the one decision about where a session's step runs.
//!
//! The array is the unit of placement (see [`pool`](crate::pool)): the
//! router sees `shards × arrays_per_shard` arrays, each with its own
//! owned count, residency and clock, and nothing below it places again.
//!
//! * [`ResidencyView`] — a cheaply-refreshed global snapshot of each
//!   array's configuration residency, the sessions it owns (submitted to
//!   it and not yet handed back) and its clock, the array cycles it has
//!   stepped. Each array *publishes* into its own [`ShardStatus`] cell;
//!   the publish side uses `try_lock` so dispatch never blocks on a
//!   reader, and readers only ever take a lock a writer holds for the
//!   microseconds it takes to copy a handful of config names.
//! * [`AffinityRouter`] — the placement behind
//!   [`ShardPool::submit`](crate::pool::ShardPool::submit): it routes a
//!   session to an array that already holds its next [`KernelSpec`], has
//!   room and owns at most `MAX_HOLDER_LEAD` more sessions than the
//!   least-loaded array, and otherwise to the least-loaded array, so
//!   admissions and resubmitted steps land where their configuration is
//!   warm until a hotspot spills. A spill recompiles nothing: the
//!   process-wide [`ConfigStore`](crate::config_manager::ConfigStore)
//!   makes every `CompiledConfig` array-agnostic. The front-end's credit
//!   window keeps the sessions in flight below what the arrays may own in
//!   all, so some array always has room and the router never picks a full
//!   one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::config_manager::KernelSpec;
use crate::metrics::Metrics;

/// How many more sessions than the least-loaded array an array holding a
/// session's kernel may own and still be picked for it. Past that lead,
/// affinity yields to balance: the session spills to the least-loaded
/// array, which loads the kernel and becomes a holder in turn.
const MAX_HOLDER_LEAD: u64 = 8;

/// Inert; the frozen benchmark package sets it and ROADMAP T deletes it.
/// Its one variant names the only placement, the [`AffinityRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Residency-affinity routing over the global [`ResidencyView`].
    #[default]
    Affinity,
}

/// One array's published status cell inside the [`ResidencyView`].
///
/// The array's shard is the only publisher; everything is either an
/// atomic or guarded by a mutex the publisher takes with `try_lock`, so a
/// publish can never block dispatch behind a slow reader.
#[derive(Debug, Default)]
pub struct ShardStatus {
    /// Sessions the array owns: raised by the pool's submit path, lowered
    /// by its shard as it hands each one back.
    queue_depth: AtomicU64,
    /// Array cycles the array has stepped — its clock (survives worker
    /// rebuilds).
    busy_cycles: AtomicU64,
    /// Config names resident on the array, as of the last publish.
    resident: Mutex<Vec<String>>,
}

impl ShardStatus {
    /// Publishes a new residency snapshot and busy-cycle count. Never
    /// blocks: if a reader holds the residency lock right now, only the
    /// name list is skipped this round (the next round republishes it);
    /// the scalar fields always land.
    ///
    /// The retained `String` allocations are reused in place — an array's
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

    /// Sessions the array owns: queued in its inbox or heap, or being
    /// stepped.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// The owned-session counter itself, which the pool raises at submit
    /// and the array's shard lowers at hand-back.
    pub(crate) fn owned(&self) -> &AtomicU64 {
        &self.queue_depth
    }

    /// Array cycles the array has stepped: its clock.
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

/// The global residency view: one [`ShardStatus`] cell per array.
///
/// Routing reads are O(arrays) scans over atomics plus one short-lived
/// lock per residency probe — cheap enough to sit on the submit path.
#[derive(Debug)]
pub struct ResidencyView {
    arrays: Vec<Arc<ShardStatus>>,
    queue_limit: u64,
}

impl ResidencyView {
    /// A view over the given per-array cells; `queue_limit` is the most
    /// sessions one array may own (routing avoids full arrays).
    pub fn new(arrays: Vec<Arc<ShardStatus>>, queue_limit: u64) -> Self {
        ResidencyView {
            arrays,
            queue_limit,
        }
    }

    /// The status cell of one array.
    pub fn status(&self, array: usize) -> &Arc<ShardStatus> {
        &self.arrays[array]
    }

    /// What the router compares arrays by: sessions owned, then clock,
    /// then index.
    fn load(&self, array: usize) -> (u64, u64, usize) {
        let status = &self.arrays[array];
        (status.queue_depth(), status.busy_cycles(), array)
    }

    /// The least-loaded array holding `name` among those with room that
    /// own at most `MAX_HOLDER_LEAD` more sessions than the least-loaded
    /// array. `None` when no array qualifies.
    pub fn holder_of(&self, name: &str) -> Option<usize> {
        let least = self.load(self.least_loaded()).0;
        (0..self.arrays.len())
            .filter(|&i| {
                let owned = self.arrays[i].queue_depth();
                owned < self.queue_limit
                    && owned <= least + MAX_HOLDER_LEAD
                    && self.arrays[i].holds(name)
            })
            .min_by_key(|&i| self.load(i))
    }

    /// The least-loaded array: minimum (sessions owned, clock, index). It
    /// has room whenever any array does; when none does, the submit
    /// refuses with `WouldBlock`.
    pub fn least_loaded(&self) -> usize {
        (0..self.arrays.len())
            .min_by_key(|&i| self.load(i))
            .unwrap_or(0)
    }
}

/// Maps a session (its next kernel and id) to an array index. The
/// [`AffinityRouter`] is its one implementation; the frozen benchmark
/// package calls `place` through it, and ROADMAP T deletes it.
pub trait Placement: Send + Sync {
    /// Picks the array for a session about to be submitted.
    fn place(&self, next_kernel: Option<&KernelSpec>, session_id: u64) -> usize;
}

/// Residency-affinity routing over the global [`ResidencyView`].
///
/// A session whose next kernel is already resident on some array that has
/// room and is not more than `MAX_HOLDER_LEAD` sessions ahead of the
/// least-loaded array goes there — `router_affinity_hits`; everything else
/// (host-only steps, cold kernels, full or overloaded holders) falls back
/// to the least-loaded array — `router_fallbacks`.
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
            if let Some(array) = self.view.holder_of(&name) {
                Metrics::incr(&self.metrics.router_affinity_hits);
                return array;
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

    fn view(n: usize, queue_limit: u64) -> Arc<ResidencyView> {
        let cells = (0..n).map(|_| Arc::default()).collect();
        Arc::new(ResidencyView::new(cells, queue_limit))
    }

    fn own(view: &ResidencyView, array: usize, sessions: u64) {
        view.status(array)
            .owned()
            .store(sessions, Ordering::Relaxed);
    }

    #[test]
    fn affinity_prefers_the_holder_and_falls_back_least_loaded() {
        let view = view(3, 8);
        let metrics = Arc::new(Metrics::new());
        let spec = KernelSpec::Wcdma(WcdmaKernel::Descrambler);
        let name = spec.config_name();
        view.status(2).publish(std::slice::from_ref(&name), 500);
        view.status(0).publish(&[], 100);
        view.status(1).publish(&[], 0);

        let router = AffinityRouter::new(Arc::clone(&view), Arc::clone(&metrics));
        assert_eq!(router.place(Some(&spec), 0), 2, "routes to the holder");
        // Host-only step: least-loaded fallback (all depths 0, busy
        // breaks the tie toward array 1).
        assert_eq!(router.place(None, 0), 1);
        // Cold kernel: fallback too.
        let cold = KernelSpec::Ofdm(OfdmKernel::Demodulator);
        assert_eq!(router.place(Some(&cold), 0), 1);
        let snap = metrics.snapshot();
        assert_eq!(snap.router_affinity_hits, 1);
        assert_eq!(snap.router_fallbacks, 2);

        // A full holder queue disables the affinity route.
        own(&view, 2, 8);
        assert_eq!(router.place(Some(&spec), 0), 1, "full holder is skipped");
        assert_eq!(metrics.snapshot().router_fallbacks, 3);
    }

    /// A holder keeps its sessions while it owns at most `MAX_HOLDER_LEAD`
    /// more than the least-loaded array; one more and the session spills.
    #[test]
    fn an_overloaded_holder_spills_to_the_least_loaded() {
        let view = view(2, 64);
        let metrics = Arc::new(Metrics::new());
        let spec = KernelSpec::Wcdma(WcdmaKernel::Descrambler);
        view.status(0).publish(&[spec.config_name()], 0);
        let router = AffinityRouter::new(Arc::clone(&view), Arc::clone(&metrics));
        own(&view, 0, MAX_HOLDER_LEAD);
        assert_eq!(router.place(Some(&spec), 0), 0, "a lead of eight keeps it");
        own(&view, 0, MAX_HOLDER_LEAD + 1);
        assert_eq!(router.place(Some(&spec), 0), 1, "nine spills");
        own(&view, 1, 1);
        assert_eq!(router.place(Some(&spec), 0), 0, "the lead is relative");
        let snap = metrics.snapshot();
        assert_eq!((snap.router_affinity_hits, snap.router_fallbacks), (2, 1));
    }

    #[test]
    fn publish_replaces_the_residency_snapshot() {
        let view = view(1, 8);
        let cell = view.status(0);
        assert!(!cell.holds("fig5-descrambler"));
        cell.publish(&["fig5-descrambler".into()], 42);
        assert_eq!(cell.busy_cycles(), 42);
        assert!(cell.holds("fig5-descrambler"));
        cell.publish(&[], 50);
        assert!(!cell.holds("fig5-descrambler"), "snapshot is replaced");
    }
}
