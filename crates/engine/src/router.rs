//! Placement: the one decision about where a session's step runs.
//!
//! The array is the unit of placement (see [`pool`](crate::pool)): the
//! router sees `shards × arrays_per_shard` arrays, each with its own
//! owned count, residency and clock, and nothing below it places again.
//!
//! * [`ResidencyView`] — a global snapshot of each array's configuration
//!   residency, the sessions it owns (submitted to it and not yet handed
//!   back) and its clock, the array cycles it has stepped. Each array
//!   *publishes* into its own [`ShardStatus`] cell, all atomics: its
//!   residency is one bit per [`KernelId`] of a `u64`, stored after every
//!   step, so neither side ever locks or allocates.
//! * [`AffinityRouter`] — the placement behind
//!   [`ShardPool::submit`](crate::pool::ShardPool::submit): it routes a
//!   session to an array that already holds its next [`KernelSpec`], has
//!   room and owns at most `MAX_HOLDER_LEAD` more sessions than the
//!   least-loaded array, and otherwise to the least-loaded array, so
//!   admissions and resubmitted steps land where their configuration is
//!   warm until a hotspot spills. A spill recompiles nothing: the
//!   process-wide [`ConfigStore`] makes every `CompiledConfig`
//!   array-agnostic, and routing resolves a kernel to its id there
//!   without compiling. The front-end's credit
//!   window keeps the sessions in flight below what the arrays may own in
//!   all, so some array always has room and the router never picks a full
//!   one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::config_manager::{ConfigStore, KernelId, KernelSpec};
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
/// The array's shard is the only publisher, and every field is an atomic,
/// so a publish never blocks dispatch and a read never blocks a publish.
#[derive(Debug, Default)]
pub struct ShardStatus {
    /// Sessions the array owns: raised by the pool's submit path, lowered
    /// by its shard as it hands each one back.
    queue_depth: AtomicU64,
    /// Array cycles the array has stepped — its clock (survives worker
    /// rebuilds).
    busy_cycles: AtomicU64,
    /// The kernels resident on the array as of the last publish, one
    /// [`KernelId::bit`] each.
    resident: AtomicU64,
}

impl ShardStatus {
    /// Publishes a new residency mask (see
    /// [`WorkerArray::resident_mask`](crate::WorkerArray::resident_mask))
    /// and busy-cycle count: two plain stores.
    pub fn publish(&self, resident: u64, busy_cycles: u64) {
        self.resident.store(resident, Ordering::Relaxed);
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
    pub(crate) fn busy_cycles(&self) -> u64 {
        self.busy_cycles.load(Ordering::Relaxed)
    }

    /// Whether the last published snapshot held `kernel`.
    pub(crate) fn holds(&self, kernel: KernelId) -> bool {
        self.resident.load(Ordering::Relaxed) & kernel.bit() != 0
    }
}

/// The global residency view: one [`ShardStatus`] cell per array, and the
/// pool's [`ConfigStore`], which names the kernels the cells' bits stand
/// for.
///
/// Routing reads are O(arrays) scans over atomics — cheap enough to sit on
/// the submit path.
#[derive(Debug)]
pub struct ResidencyView {
    arrays: Vec<Arc<ShardStatus>>,
    queue_limit: u64,
    store: Arc<ConfigStore>,
}

impl ResidencyView {
    /// A view over the given per-array cells, whose arrays draw from
    /// `store`; `queue_limit` is the most sessions one array may own
    /// (routing avoids full arrays).
    pub fn new(arrays: Vec<Arc<ShardStatus>>, queue_limit: u64, store: Arc<ConfigStore>) -> Self {
        ResidencyView {
            arrays,
            queue_limit,
            store,
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

    /// The least-loaded array holding `kernel` among those with room that
    /// own at most `MAX_HOLDER_LEAD` more sessions than the least-loaded
    /// array. `None` when no array qualifies, and at once for a kernel the
    /// store never interned: no array holds it.
    pub fn holder_of(&self, kernel: &KernelSpec) -> Option<usize> {
        let kernel = self.store.id_of(kernel)?;
        let least = self.load(self.least_loaded()).0;
        (0..self.arrays.len())
            .filter(|&i| {
                let owned = self.arrays[i].queue_depth();
                owned < self.queue_limit
                    && owned <= least + MAX_HOLDER_LEAD
                    && self.arrays[i].holds(kernel)
            })
            .min_by_key(|&i| self.load(i))
    }

    /// The least-loaded array: minimum (sessions owned, clock, index). It
    /// has room whenever any array does; when none does, the submit
    /// refuses with `WouldBlock`.
    pub(crate) fn least_loaded(&self) -> usize {
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
        if let Some(array) = next_kernel.and_then(|k| self.view.holder_of(k)) {
            Metrics::incr(&self.metrics.router_affinity_hits);
            return array;
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

    const DESCRAMBLER: KernelSpec = KernelSpec::Wcdma(WcdmaKernel::Descrambler);

    fn view(n: usize, queue_limit: u64) -> Arc<ResidencyView> {
        let cells = (0..n).map(|_| Arc::default()).collect();
        let store = Arc::new(ConfigStore::new(4));
        Arc::new(ResidencyView::new(cells, queue_limit, store))
    }

    /// The residency bit of `spec`, interning it.
    fn bit(view: &ResidencyView, spec: &KernelSpec) -> u64 {
        view.store.intern(spec).0.bit()
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
        let spec = DESCRAMBLER;
        view.status(2).publish(bit(&view, &spec), 500);
        view.status(0).publish(0, 100);
        view.status(1).publish(0, 0);

        let router = AffinityRouter::new(Arc::clone(&view), Arc::clone(&metrics));
        assert_eq!(router.place(Some(&spec), 0), 2, "routes to the holder");
        // Host-only step: least-loaded fallback (all depths 0, busy
        // breaks the tie toward array 1).
        assert_eq!(router.place(None, 0), 1);
        // Cold kernel: fallback too, whether interned or not.
        let cold = KernelSpec::Ofdm(OfdmKernel::Demodulator);
        assert_eq!(router.place(Some(&cold), 0), 1);
        bit(&view, &cold);
        assert_eq!(router.place(Some(&cold), 0), 1);
        let snap = metrics.snapshot();
        assert_eq!(snap.router_affinity_hits, 1);
        assert_eq!(snap.router_fallbacks, 3);

        // A full holder queue disables the affinity route.
        own(&view, 2, 8);
        assert_eq!(router.place(Some(&spec), 0), 1, "full holder is skipped");
        assert_eq!(metrics.snapshot().router_fallbacks, 4);
    }

    /// Routing resolves a kernel without compiling it: a spec the store
    /// never interned falls back, and the store counts no lookup.
    #[test]
    fn a_never_interned_kernel_falls_back_without_compiling() {
        let view = view(2, 8);
        let metrics = Arc::new(Metrics::new());
        // Array 1 claims every bit, but array 0 is the least loaded.
        view.status(1).publish(u64::MAX, 0);
        own(&view, 1, 1);
        let router = AffinityRouter::new(Arc::clone(&view), Arc::clone(&metrics));
        let misses = view.store.misses();
        assert_eq!(router.place(Some(&DESCRAMBLER), 0), 0);
        assert_eq!(view.store.misses(), misses);
        assert_eq!(view.store.id_of(&DESCRAMBLER), None);
        let snap = metrics.snapshot();
        assert_eq!((snap.router_affinity_hits, snap.router_fallbacks), (0, 1));
    }

    /// A holder keeps its sessions while it owns at most `MAX_HOLDER_LEAD`
    /// more than the least-loaded array; one more and the session spills.
    #[test]
    fn an_overloaded_holder_spills_to_the_least_loaded() {
        let view = view(2, 64);
        let metrics = Arc::new(Metrics::new());
        let spec = DESCRAMBLER;
        view.status(0).publish(bit(&view, &spec), 0);
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
        let descrambler = view.store.intern(&DESCRAMBLER).0;
        let cell = view.status(0);
        assert!(!cell.holds(descrambler));
        cell.publish(descrambler.bit(), 42);
        assert_eq!(cell.busy_cycles(), 42);
        assert!(cell.holds(descrambler));
        cell.publish(0, 50);
        assert!(!cell.holds(descrambler), "snapshot is replaced");
    }
}
