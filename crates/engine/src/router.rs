//! Two-level hierarchical scheduling: the global layer above the shards.
//!
//! Within a shard, one dispatch policy steps the most urgent session on
//! the member that holds its kernel (see [`pool`](crate::pool)); this
//! module adds the level above — the pieces that make `shards ×
//! arrays_per_shard` behave like one elastic pool instead of static
//! partitions:
//!
//! * [`ResidencyView`] — a cheaply-refreshed global snapshot of each
//!   shard's configuration residency, queue depth and in-flight load.
//!   Shard loops *publish* into their own [`ShardStatus`] cell; the
//!   publish side uses `try_lock` so dispatch never blocks on a reader,
//!   and readers only ever take a lock a writer holds for the
//!   microseconds it takes to copy a handful of config names.
//! * [`Placement`] — the routing policy behind
//!   [`ShardPool::submit`](crate::pool::ShardPool::submit).
//!   [`StaticPlacement`] is the seed's sticky `id % shards` hash, kept
//!   as the golden oracle; [`AffinityRouter`] routes a session to the
//!   shard whose gang already holds its next [`KernelSpec`] (falling
//!   back to least-loaded), so admissions and rehydrated parked sessions
//!   land
//!   where their configuration is warm.
//! * [`StealRegistry`] — cross-shard work stealing. A saturated shard
//!   exposes the latest-deadline half of its heap as a [`StealOffer`]; an
//!   idle shard claims it and runs it directly. The steal path recompiles
//!   nothing: the process-wide
//!   [`ConfigStore`](crate::config_manager::ConfigStore) makes every
//!   `CompiledConfig` (schedule hints included) shard-agnostic. Unclaimed
//!   offers are withdrawn by their owner once it idles, so no session is
//!   ever stranded.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::config_manager::KernelSpec;
use crate::metrics::Metrics;
use crate::session::Session;

/// Which routing policy [`ShardPool::submit`](crate::pool::ShardPool::submit)
/// uses to place sessions on shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The seed behaviour: sticky `session id % shards` hashing. Kept as
    /// the golden oracle for the routed path.
    Static,
    /// Residency-affinity routing over the global [`ResidencyView`]:
    /// prefer the shard already holding the session's next kernel, fall
    /// back to the least-loaded shard (the default).
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
    /// Mirror of the shard's submission-queue depth (shared with the
    /// pool's submit path).
    queue_depth: Arc<AtomicU64>,
    /// Cumulative array cycles stepped by the shard's gang — the
    /// in-flight-load signal (survives worker rebuilds).
    busy_cycles: AtomicU64,
    /// Config names resident anywhere on the shard's gang, as of the
    /// last publish.
    resident: Mutex<Vec<String>>,
}

impl ShardStatus {
    /// A fresh cell mirroring the given queue-depth counter.
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

    /// Current submission-queue depth.
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
    /// A view over the given per-shard cells; `queue_limit` is each
    /// shard's bounded queue depth (routing avoids full shards).
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

    /// The shard holding `name` with queue room, least loaded first
    /// (depth, then busy cycles, then index). `None` when no shard with
    /// room holds it.
    pub fn holder_of(&self, name: &str) -> Option<usize> {
        (0..self.shards.len())
            .filter(|&i| {
                self.shards[i].queue_depth() < self.queue_limit && self.shards[i].holds(name)
            })
            .min_by_key(|&i| {
                (
                    self.shards[i].queue_depth(),
                    self.shards[i].busy_cycles(),
                    i,
                )
            })
    }

    /// The least-loaded shard: minimum (depth, busy cycles, index) among
    /// shards with queue room, or over all shards when everything is
    /// full (the submit will then surface `WouldBlock` backpressure).
    pub fn least_loaded(&self) -> usize {
        let with_room = (0..self.shards.len())
            .filter(|&i| self.shards[i].queue_depth() < self.queue_limit)
            .min_by_key(|&i| {
                (
                    self.shards[i].queue_depth(),
                    self.shards[i].busy_cycles(),
                    i,
                )
            });
        with_room.unwrap_or_else(|| {
            (0..self.shards.len())
                .min_by_key(|&i| {
                    (
                        self.shards[i].queue_depth(),
                        self.shards[i].busy_cycles(),
                        i,
                    )
                })
                .unwrap_or(0)
        })
    }
}

/// The placement policy behind [`ShardPool::submit`](crate::pool::ShardPool::submit):
/// maps a session (its next kernel and id) to a shard index.
pub trait Placement: Send + Sync {
    /// Picks the shard for a session about to be submitted.
    fn place(&self, next_kernel: Option<&KernelSpec>, session_id: u64) -> usize;
}

/// The seed placement: sticky `session id % shards` hashing. Retained as
/// the oracle the router-golden suite pins the routed path against.
#[derive(Debug, Clone, Copy)]
pub struct StaticPlacement {
    /// Number of shards to hash over.
    pub shards: usize,
}

impl Placement for StaticPlacement {
    fn place(&self, _next_kernel: Option<&KernelSpec>, session_id: u64) -> usize {
        (session_id % self.shards.max(1) as u64) as usize
    }
}

/// Residency-affinity routing over the global [`ResidencyView`].
///
/// A session whose next kernel is already resident on some shard (with
/// queue room) goes there — `router_affinity_hits`; everything else
/// (host-only steps, cold kernels, full affinity targets) falls back to
/// the least-loaded shard — `router_fallbacks`.
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

/// Sessions a saturated shard has exposed for another shard to claim.
#[derive(Debug)]
pub struct StealOffer {
    /// The shard that exposed the sessions.
    pub victim: usize,
    /// The sessions, latest deadline first.
    pub sessions: Vec<Session>,
}

/// The cross-shard steal mediation point: saturated shards push
/// [`StealOffer`]s, idle shards claim them. One mutex over a short vec —
/// touched only when a shard saturates or idles, never on the per-session
/// dispatch path.
#[derive(Debug, Default)]
pub struct StealRegistry {
    offers: Mutex<Vec<StealOffer>>,
}

impl StealRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        StealRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<StealOffer>> {
        self.offers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exposes sessions for other shards to claim; an empty one is
    /// dropped. The offer owns its sessions, so each is runnable by
    /// whichever one shard claims or withdraws it — no id check is needed,
    /// and ids are not identities anyway (two frames of one terminal may
    /// be in flight at once).
    pub fn offer(&self, offer: StealOffer) {
        if !offer.sessions.is_empty() {
            self.lock().push(offer);
        }
    }

    /// Whether `victim` currently has an unclaimed offer exposed.
    pub fn has_offer_from(&self, victim: usize) -> bool {
        self.lock().iter().any(|o| o.victim == victim)
    }

    /// Claims the first offer not exposed by `thief` itself, if any.
    pub fn claim(&self, thief: usize) -> Option<StealOffer> {
        let mut offers = self.lock();
        let idx = offers.iter().position(|o| o.victim != thief)?;
        Some(offers.remove(idx))
    }

    /// Withdraws every unclaimed offer `victim` exposed, returning the
    /// sessions so the owner can run them itself (idle or shutting
    /// down). Claim and withdraw are atomic under the registry lock, so
    /// a session is run by exactly one shard.
    pub fn withdraw(&self, victim: usize) -> Vec<Session> {
        let mut offers = self.lock();
        let mut sessions = Vec::new();
        let mut i = 0;
        while i < offers.len() {
            if offers[i].victim == victim {
                sessions.extend(offers.remove(i).sessions);
            } else {
                i += 1;
            }
        }
        sessions
    }

    /// Whether no offer is currently exposed.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
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
    fn static_placement_is_the_seed_hash() {
        let p = StaticPlacement { shards: 4 };
        for id in 0..32u64 {
            assert_eq!(p.place(None, id), (id % 4) as usize);
        }
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

    #[test]
    fn steal_registry_claims_and_withdraws_atomically() {
        let reg = StealRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.claim(1).is_none());
        reg.offer(StealOffer {
            victim: 0,
            sessions: vec![Session::wcdma(1, 1), Session::wcdma(2, 2)],
        });
        assert!(reg.has_offer_from(0));
        assert!(!reg.has_offer_from(1));
        assert!(reg.claim(0).is_none(), "a shard never claims its own offer");
        let claimed = reg.claim(1).expect("other shards can claim");
        assert_eq!(claimed.victim, 0);
        assert_eq!(claimed.sessions.len(), 2);
        assert!(reg.is_empty());
        assert!(reg.withdraw(0).is_empty(), "claimed offers cannot return");

        reg.offer(StealOffer {
            victim: 3,
            sessions: vec![Session::ofdm(9, 9)],
        });
        let mine = reg.withdraw(3);
        assert_eq!(mine.len(), 1, "unclaimed offers come back to the owner");
        assert!(reg.is_empty());
    }

    #[test]
    fn empty_offers_are_dropped() {
        let reg = StealRegistry::new();
        reg.offer(StealOffer {
            victim: 0,
            sessions: Vec::new(),
        });
        assert!(reg.is_empty());
    }
}
