//! The engine's configuration manager: kernel registry, process-wide
//! compiled-config store, and the per-worker configuration lifecycle.
//!
//! The paper's platform revolves around a configuration manager that
//! loads, caches and swaps array configurations at runtime. This module
//! is that subsystem, split into three pieces:
//!
//! * [`KernelSpec`] — a stable identity for every array kernel the
//!   receivers register (`sdr_wcdma::xpp_map::WcdmaKernel`,
//!   `sdr_ofdm::xpp_map::OfdmKernel`), replacing ad-hoc netlist-builder
//!   function pointers as the unit of request;
//! * [`ConfigStore`] — a **process-wide** bounded LRU of
//!   [`Arc<CompiledConfig>`]s, shared by every worker shard, so each
//!   kernel is built and placed **once per process** instead of once per
//!   worker (the old per-worker netlist cache rebuilt and re-placed the
//!   same kernels on every shard);
//! * [`ConfigManager`] — the per-worker lifecycle driver layered over one
//!   array, tracking which configurations are resident and in what state.
//!
//! # Configuration lifecycle
//!
//! A configuration request moves through an explicit state machine:
//!
//! ```text
//! request ──► prefetch ──► loading ──► active ──► unload
//!    │                                   ▲
//!    └───────────(demand load)───────────┘
//! ```
//!
//! * **request** — a session names a [`KernelSpec`]; the store resolves it
//!   to an `Arc<CompiledConfig>` (compiling on first use).
//! * **prefetch** — [`ConfigManager::prefetch`] places the compiled config
//!   onto the array *speculatively*: resources are reserved and the serial
//!   configuration bus starts streaming, but nobody waits for it. The
//!   load overlaps whatever the array is already running (the paper's
//!   Fig. 10 trick: configuration 2b loads while 2a is still searching
//!   for the preamble).
//! * **loading** — the bus streams the configuration; a prefetched entry
//!   sits in [`CmState::Loading`] until someone activates it.
//! * **active** — [`ConfigManager::activate`] finishes any remaining bus
//!   cycles and hands the session a running [`ConfigId`]. Activating a
//!   prefetched entry is a *prefetch hit*: the swap pays only residual
//!   activation, not build + place + load.
//! * **unload** — [`ConfigManager::deactivate`] (or placement-pressure
//!   eviction, least recently used first) releases the resources.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use sdr_ofdm::xpp_map::OfdmKernel;
use sdr_wcdma::xpp_map::WcdmaKernel;
use xpp_array::{
    Array, CompiledConfig, ConfigDelta, ConfigId, Error as XppError, Netlist, Result as XppResult,
};

use crate::metrics::Metrics;

/// A kernel identity across both standards: the unit of request the
/// configuration manager works in.
///
/// [`config_name`](KernelSpec::config_name) is the cache key — kernel id
/// plus every parameter that changes the generated netlist — and
/// [`build`](KernelSpec::build) produces the netlist on a store miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelSpec {
    /// A W-CDMA rake kernel (paper Figs. 5–7).
    Wcdma(WcdmaKernel),
    /// An 802.11a OFDM kernel (paper Figs. 9–10).
    Ofdm(OfdmKernel),
}

impl KernelSpec {
    /// The stable store key for this kernel + parameters.
    pub fn config_name(&self) -> String {
        match self {
            KernelSpec::Wcdma(k) => k.config_name(),
            KernelSpec::Ofdm(k) => k.config_name(),
        }
    }

    /// Builds the kernel's netlist (only called on a store miss).
    pub fn build(&self) -> Netlist {
        match self {
            KernelSpec::Wcdma(k) => k.build(),
            KernelSpec::Ofdm(k) => k.build(),
        }
    }
}

impl From<WcdmaKernel> for KernelSpec {
    fn from(k: WcdmaKernel) -> Self {
        KernelSpec::Wcdma(k)
    }
}

impl From<OfdmKernel> for KernelSpec {
    fn from(k: OfdmKernel) -> Self {
        KernelSpec::Ofdm(k)
    }
}

/// Outcome of a [`ConfigStore`] lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreLookup {
    /// The compiled config was already in the store; no build happened.
    pub hit: bool,
    /// An LRU entry was dropped to make room.
    pub evicted: bool,
}

#[derive(Debug)]
struct StoreEntry {
    name: String,
    config: Arc<CompiledConfig>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct StoreInner {
    entries: Vec<StoreEntry>,
    tick: u64,
}

/// One cached word-level delta: the ordered `(from, to)` name pair and
/// the shared diff computed for it.
type CachedDelta = ((String, String), Arc<ConfigDelta>);

/// Process-wide bounded LRU store of compiled configurations.
///
/// One store is shared (via `Arc`) by every worker in a
/// [`ShardPool`](crate::pool::ShardPool): the first worker to request a
/// kernel pays
/// netlist build + placement + port-map flattening, every later request —
/// from *any* shard — gets the same `Arc<CompiledConfig>` and pays only
/// the serial configuration bus on its own array.
///
/// Builds happen under the store lock, so concurrent workers requesting
/// the same kernel compile it exactly once (the second blocks briefly and
/// then hits).
#[derive(Debug)]
pub struct ConfigStore {
    capacity: usize,
    inner: Mutex<StoreInner>,
    /// Word-level deltas between stored configs, keyed `(from, to)` —
    /// computed once per ordered pair and shared by every delta-loading
    /// manager and by the router's delta-aware shard scoring. A flat vec
    /// (at most `capacity²` small entries) so lookups borrow `&str` keys
    /// without allocating.
    deltas: Mutex<Vec<CachedDelta>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ConfigStore {
    /// Creates an empty store holding at most `capacity` compiled configs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store capacity must be positive");
        ConfigStore {
            capacity,
            inner: Mutex::new(StoreInner::default()),
            deltas: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Locks the store, recovering from poisoning: a worker that panicked
    /// mid-lookup cannot have left the entries inconsistent (the mutations
    /// are single `Vec` operations), so the supervisor's replacement
    /// workers keep sharing the store instead of cascading the panic.
    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the compiled config for `name`, building and compiling it
    /// with `build` on a miss. The LRU entry is evicted when full.
    pub fn get_or_compile<F: FnOnce() -> Netlist>(
        &self,
        name: &str,
        build: F,
    ) -> (Arc<CompiledConfig>, StoreLookup) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.iter_mut().find(|e| e.name == name) {
            entry.last_used = tick;
            let config = Arc::clone(&entry.config);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (
                config,
                StoreLookup {
                    hit: true,
                    evicted: false,
                },
            );
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut evicted = false;
        if inner.entries.len() == self.capacity {
            if let Some(lru) = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                inner.entries.swap_remove(lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                evicted = true;
            }
        }
        let config = Arc::new(CompiledConfig::compile(&build()));
        inner.entries.push(StoreEntry {
            name: name.to_string(),
            config: Arc::clone(&config),
            last_used: tick,
        });
        (
            config,
            StoreLookup {
                hit: false,
                evicted,
            },
        )
    }

    /// Whether `name` is currently stored (no LRU touch).
    pub fn contains(&self, name: &str) -> bool {
        self.lock().entries.iter().any(|e| e.name == name)
    }

    /// Number of stored compiled configs.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of stored compiled configs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups served without a compile.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build and compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    fn lock_deltas(&self) -> MutexGuard<'_, Vec<CachedDelta>> {
        self.deltas.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The word-level delta from `resident` to `target`, computed once per
    /// ordered `(from, to)` pair and cached process-wide. Every
    /// delta-loading [`ConfigManager`] asking "how cheap is the swap from
    /// what I hold?" lands on the same `Arc<ConfigDelta>`, and the cached
    /// answers feed the router's delta-aware shard scoring for free.
    pub fn delta(&self, resident: &CompiledConfig, target: &CompiledConfig) -> Arc<ConfigDelta> {
        let mut deltas = self.lock_deltas();
        if let Some((_, d)) = deltas
            .iter()
            .find(|((from, to), _)| from == resident.name() && to == target.name())
        {
            return Arc::clone(d);
        }
        let d = Arc::new(target.delta_from(resident));
        // Ordered pairs over a bounded store: cap the cache at capacity²
        // entries (each is two names and a handful of counters), dropping
        // the oldest pair when a churny name mix would grow it past that.
        if deltas.len() >= self.capacity * self.capacity {
            deltas.remove(0);
        }
        deltas.push((
            (resident.name().to_string(), target.name().to_string()),
            Arc::clone(&d),
        ));
        d
    }

    /// The cached delta word count from `from` to `to`, without computing
    /// anything — the allocation-free probe the affinity router and the
    /// gang's cold-route scoring use on their hot paths. `None` until some
    /// manager has actually diffed the pair.
    pub fn cached_delta_words(&self, from: &str, to: &str) -> Option<u64> {
        self.lock_deltas()
            .iter()
            .find(|((f, t), _)| f == from && t == to)
            .map(|(_, d)| d.words())
    }

    /// Number of cached `(from, to)` deltas (tests, introspection).
    pub fn delta_cache_len(&self) -> usize {
        self.lock_deltas().len()
    }
}

/// Where a resident configuration is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmState {
    /// Placed on the array and streaming over the configuration bus; a
    /// prefetched configuration waits here until someone activates it.
    Loading,
    /// Finished loading; sessions may drive I/O on it.
    Active,
}

#[derive(Debug)]
struct Resident {
    name: String,
    id: ConfigId,
    state: CmState,
    /// The configuration's object-fire count when activity was last
    /// refreshed. A resident whose live count still equals the mark has
    /// done no work since — it is *quiescent* and a spill-aware prefetch
    /// may reclaim its resources.
    fire_mark: u64,
    /// The resident's compiled form, pinned so the delta tier can diff a
    /// target's word stream against it even after the store's LRU has
    /// moved on.
    compiled: Arc<CompiledConfig>,
}

/// Per-worker configuration lifecycle driver.
///
/// Owns the worker's resident-configuration list (least recently used
/// first) and resolves every request through the shared [`ConfigStore`].
/// Activation is tiered exactly like the paper's CM:
///
/// 1. **resident active** — free;
/// 2. **resident loading** (prefetched) — pay only the residual bus
///    cycles (a *prefetch hit*);
/// 3. **stored** — pay the full serial bus load;
/// 4. **cold** — build + compile + place, then load.
///
/// When placement fails, resident configurations are evicted least
/// recently used first and the load retried — the paper's Fig. 10
/// resource recycling. Prefetches may only *spill*: evict a quiescent
/// resident (zero fires since the last activity refresh, and never the
/// most recently activated configuration) — a speculative load must not
/// cost a *working* configuration its resources.
///
/// With [`set_delta_loading`](ConfigManager::set_delta_loading) enabled a
/// fifth tier slots between *stored* and *cold*: **delta** — when some
/// active resident's word stream overlaps the target's, the manager swaps
/// through [`Array::configure_delta`], streaming only the changed words
/// instead of the full configuration (the victim is consumed; it was
/// about to be recycled anyway in the swap workloads the tier targets).
/// The tier is chosen purely by comparing the cached
/// [`ConfigDelta::words`] against the target's full `load_cycles`.
#[derive(Debug)]
pub struct ConfigManager {
    store: Arc<ConfigStore>,
    resident: Vec<Resident>,
    metrics: Arc<Metrics>,
    /// Stream word-level deltas instead of full loads when a resident
    /// overlaps the target (default off: the seed streams full loads and
    /// the golden suites pin both settings against each other).
    delta_loading: bool,
}

impl ConfigManager {
    /// Creates a manager drawing from `store`.
    pub fn new(store: Arc<ConfigStore>, metrics: Arc<Metrics>) -> Self {
        ConfigManager {
            store,
            resident: Vec::new(),
            metrics,
            delta_loading: false,
        }
    }

    /// Enables or disables differential loading: when on, an activation
    /// (or squeezed prefetch) whose target overlaps an active resident's
    /// word stream swaps through [`Array::configure_delta`], streaming
    /// only the changed words. The victim with the cheapest delta is
    /// consumed, and only when its delta is strictly smaller than the
    /// target's full load. Off by default — the seed streams full loads
    /// and the golden suites run both settings against each other.
    pub fn set_delta_loading(&mut self, enabled: bool) {
        self.delta_loading = enabled;
    }

    /// Whether differential loading is enabled.
    pub fn delta_loading(&self) -> bool {
        self.delta_loading
    }

    /// The shared compiled-config store.
    pub fn store(&self) -> &Arc<ConfigStore> {
        &self.store
    }

    /// The lifecycle state of a resident configuration, if resident.
    pub fn state_of(&self, name: &str) -> Option<CmState> {
        self.resident
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.state)
    }

    /// Whether `name` is resident on the array (loading or active).
    pub fn is_resident(&self, name: &str) -> bool {
        self.resident.iter().any(|r| r.name == name)
    }

    /// Appends the names of resident configurations to `out`, skipping
    /// any already present — the allocation-light export the shard loops
    /// use to publish a gang-wide residency snapshot into the global
    /// [`ResidencyView`](crate::router::ResidencyView) without building a
    /// fresh `Vec` per member per round.
    pub fn resident_names_into(&self, out: &mut Vec<String>) {
        for r in &self.resident {
            if !out.iter().any(|n| n == &r.name) {
                out.push(r.name.clone());
            }
        }
    }

    /// Re-marks every resident's object-fire counter as seen. A resident
    /// whose live count has not advanced past its mark by the next
    /// placement squeeze is quiescent and eligible for a prefetch spill.
    /// The dispatcher calls this after each batch (or session step).
    pub fn refresh_activity(&mut self, array: &Array) {
        for r in &mut self.resident {
            r.fire_mark = array.config_fire_count(r.id);
        }
    }

    /// Ensures the configuration is resident *and running*, returning its
    /// handle. See the type docs for the activation tiers.
    ///
    /// # Errors
    ///
    /// Returns an error if placement fails even after unloading every
    /// other resident configuration, or a typed fault error
    /// ([`Error::is_fault`](xpp_array::Error::is_fault)) when the load went
    /// wrong — the faulted residue is already unloaded, so the caller can
    /// simply retry.
    pub fn activate(&mut self, array: &mut Array, spec: &KernelSpec) -> XppResult<ConfigId> {
        let name = spec.config_name();
        if let Some(pos) = self.resident.iter().position(|r| r.name == name) {
            let mut entry = self.resident.remove(pos);
            match entry.state {
                CmState::Active => {
                    Metrics::incr(&self.metrics.cache_hits);
                }
                CmState::Loading => {
                    // Prefetch hit: the bus may still be streaming; pay
                    // only what the overlap didn't already hide. A faulted
                    // load was disposed of inside finish_load — drop the
                    // entry and surface the error.
                    Self::finish_load(array, entry.id, &self.metrics)?;
                    entry.state = CmState::Active;
                    Metrics::incr(&self.metrics.prefetch_hits);
                }
            }
            let id = entry.id;
            self.resident.push(entry); // most recently used
            return Ok(id);
        }

        let compiled = self.lookup(&name, spec);

        // Delta tier: swap through the active resident whose word stream
        // overlaps the target most, streaming only the changed words.
        if self.delta_loading {
            if let Some(id) = self.try_delta_activate(array, &compiled)? {
                let fire_mark = array.config_fire_count(id);
                self.resident.push(Resident {
                    name,
                    id,
                    state: CmState::Active,
                    fire_mark,
                    compiled,
                });
                return Ok(id);
            }
        }

        let id = self.place_with_eviction(array, &compiled)?;
        Self::finish_load(array, id, &self.metrics)?;
        Metrics::add(&self.metrics.config_words_demand, compiled.load_cycles());
        let fire_mark = array.config_fire_count(id);
        self.resident.push(Resident {
            name,
            id,
            state: CmState::Active,
            fire_mark,
            compiled,
        });
        Ok(id)
    }

    /// Resolves `spec` through the shared store (compiling on a miss) and
    /// counts the lookup.
    fn lookup(&self, name: &str, spec: &KernelSpec) -> Arc<CompiledConfig> {
        let (compiled, lookup) = self.store.get_or_compile(name, || spec.build());
        Metrics::incr(if lookup.hit {
            &self.metrics.cache_hits
        } else {
            &self.metrics.cache_misses
        });
        if lookup.evicted {
            Metrics::incr(&self.metrics.cache_evictions);
        }
        compiled
    }

    /// The demand-path delta tier: picks the running resident whose word
    /// stream yields the cheapest [`ConfigDelta`] to `target` (strictly
    /// cheaper than a full load), consumes it through
    /// [`Array::configure_delta`] and finishes the short load. Returns
    /// `Ok(None)` when no resident qualifies or the swapped placement
    /// cannot fit even with the victim's resources freed — the caller then
    /// takes the full-load path.
    ///
    /// # Errors
    ///
    /// Propagates typed fault errors from the delta load itself (the
    /// faulted residue is already unloaded, exactly like the full path).
    fn try_delta_activate(
        &mut self,
        array: &mut Array,
        target: &Arc<CompiledConfig>,
    ) -> XppResult<Option<ConfigId>> {
        let Some((pos, delta)) = self.cheapest_delta_victim(array, target, |_, _| true) else {
            return Ok(None);
        };
        let Some(id) = self.swap_through(array, target, pos, &delta)? else {
            return Ok(None);
        };
        Self::finish_load(array, id, &self.metrics)?;
        Metrics::incr(&self.metrics.delta_loads);
        Metrics::add(&self.metrics.delta_words_saved, delta.words_saved());
        Metrics::add(&self.metrics.config_words_demand, delta.words());
        Ok(Some(id))
    }

    /// Consumes the resident at `pos` as the source of a delta load of
    /// `target`. Returns `Ok(None)` — with the victim back where it was,
    /// still resident and running — when the array rejects the swap, so
    /// the caller falls through to its full-load path.
    fn swap_through(
        &mut self,
        array: &mut Array,
        target: &CompiledConfig,
        pos: usize,
        delta: &ConfigDelta,
    ) -> XppResult<Option<ConfigId>> {
        let victim = self.resident.remove(pos);
        // The victim is unloaded *inside* `configure_delta`; its injected
        // fault record must be surfaced first (disposal counts it as
        // detected + recovered exactly once) or it would vanish with the
        // unload and the fault ledger would undercount.
        Self::surface_fault(array, victim.id, &self.metrics);
        match array.configure_delta_prediffed(victim.id, target, delta) {
            Ok(id) => Ok(Some(id)),
            Err(XppError::PlacementFailed { .. } | XppError::DeltaSourceNotRunning { .. }) => {
                self.resident.insert(pos, victim);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// The active resident with the cheapest delta to `target` among those
    /// `eligible` admits, or `None` when even the cheapest delta would not
    /// beat a full load. Diffing goes through the store's `(from, to)`
    /// cache, so repeated swaps between the same pair cost one comparison,
    /// and the cached answers feed the router's delta-aware scoring.
    fn cheapest_delta_victim(
        &self,
        array: &Array,
        target: &Arc<CompiledConfig>,
        eligible: impl Fn(usize, &Resident) -> bool,
    ) -> Option<(usize, Arc<ConfigDelta>)> {
        let mut best: Option<(usize, Arc<ConfigDelta>)> = None;
        for (i, r) in self.resident.iter().enumerate() {
            if r.state != CmState::Active || !array.is_running(r.id) || !eligible(i, r) {
                continue;
            }
            let delta = self.store.delta(&r.compiled, target);
            if delta.words() >= target.load_cycles() {
                continue;
            }
            let better = match &best {
                None => true,
                Some((_, b)) => delta.words() < b.words(),
            };
            if better {
                best = Some((i, delta));
            }
        }
        best
    }

    /// The cheapest *cached* delta word count from any active resident to
    /// `target`, without computing anything — the probe the gang's
    /// cold-route scoring uses to prefer the member whose residency
    /// minimizes the swap delta.
    pub fn cheapest_delta_words_to(&self, target: &str) -> Option<u64> {
        self.resident
            .iter()
            .filter(|r| r.state == CmState::Active)
            .filter_map(|r| self.store.cached_delta_words(&r.name, target))
            .min()
    }

    /// Speculatively places the configuration and starts its bus load
    /// without waiting for it — the **prefetch** edge of the lifecycle.
    /// Returns whether a prefetch was actually issued (`false` when the
    /// configuration is already resident or the array is too full).
    ///
    /// A later [`activate`](ConfigManager::activate) of the same spec is
    /// then a prefetch hit: the load streamed while the array ran other
    /// configurations, so the activation pays only the residue.
    ///
    /// # Errors
    ///
    /// Propagates array errors other than placement failure. A placement
    /// failure first tries to **spill** a quiescent resident (zero fires
    /// since [`refresh_activity`](ConfigManager::refresh_activity), and
    /// never the most recently activated configuration); if no quiescent
    /// victim exists the prefetch is skipped — speculative work must never
    /// evict a working configuration.
    pub fn prefetch(&mut self, array: &mut Array, spec: &KernelSpec) -> XppResult<bool> {
        let name = spec.config_name();
        if self.is_resident(&name) {
            return Ok(false);
        }
        let compiled = self.lookup(&name, spec);
        let mut via_delta: Option<Arc<ConfigDelta>> = None;
        let id = loop {
            match array.configure_compiled(&compiled) {
                Ok(id) => break id,
                Err(XppError::PlacementFailed { .. }) => {
                    // Delta tier for squeezed prefetches: instead of
                    // spilling a quiescent victim *and* streaming the full
                    // target, swap through the quiescent victim whose word
                    // stream overlaps the target most — the same eviction,
                    // a fraction of the bus traffic.
                    if self.delta_loading {
                        if let Some((id, d)) = self.delta_swap_quiescent(array, &compiled)? {
                            via_delta = Some(d);
                            break id;
                        }
                    }
                    if !self.spill_quiescent(array)? {
                        return Ok(false);
                    }
                }
                Err(e) => return Err(e),
            }
        };
        Metrics::incr(&self.metrics.prefetches);
        let streamed = via_delta
            .as_ref()
            .map_or(compiled.load_cycles(), |d| d.words());
        Metrics::add(&self.metrics.config_words_prefetched, streamed);
        if let Some(d) = &via_delta {
            Metrics::incr(&self.metrics.delta_loads);
            Metrics::add(&self.metrics.delta_words_saved, d.words_saved());
        }
        let fire_mark = array.config_fire_count(id);
        self.resident.push(Resident {
            name,
            id,
            state: CmState::Loading,
            fire_mark,
            compiled,
        });
        Ok(true)
    }

    /// The prefetch-path delta tier: like
    /// [`spill_quiescent`](ConfigManager::spill_quiescent) it only
    /// considers quiescent victims that are not the most recently
    /// activated configuration, but instead of unload-then-full-load it
    /// consumes the victim with the cheapest word delta through
    /// [`Array::configure_delta`]. Returns `Ok(None)` when no quiescent
    /// victim beats a full load (the plain spill then decides).
    ///
    /// # Errors
    ///
    /// Propagates array errors other than the rejected-placement fallback.
    fn delta_swap_quiescent(
        &mut self,
        array: &mut Array,
        target: &Arc<CompiledConfig>,
    ) -> XppResult<Option<(ConfigId, Arc<ConfigDelta>)>> {
        let protected = self
            .resident
            .iter()
            .rposition(|r| r.state == CmState::Active);
        let Some((pos, delta)) = self.cheapest_delta_victim(array, target, |i, r| {
            Some(i) != protected && array.config_fire_count(r.id) == r.fire_mark
        }) else {
            return Ok(None);
        };
        let Some(id) = self.swap_through(array, target, pos, &delta)? else {
            return Ok(None);
        };
        Metrics::incr(&self.metrics.prefetch_spills);
        Metrics::incr(&self.metrics.cache_evictions);
        Ok(Some((id, delta)))
    }

    /// Evicts the least-recently-used *quiescent* resident to make room
    /// for a prefetch: its fire counter has not advanced past its activity
    /// mark, and it is not the most recently activated configuration
    /// (which a session may be about to drive even at zero fires).
    /// Returns whether a victim was spilled.
    fn spill_quiescent(&mut self, array: &mut Array) -> XppResult<bool> {
        let protected = self
            .resident
            .iter()
            .rposition(|r| r.state == CmState::Active);
        let victim = self
            .resident
            .iter()
            .enumerate()
            .find(|(i, r)| Some(*i) != protected && array.config_fire_count(r.id) == r.fire_mark)
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                let entry = self.resident.remove(i);
                Self::surface_fault(array, entry.id, &self.metrics);
                array.unload(entry.id)?;
                Metrics::incr(&self.metrics.prefetch_spills);
                Metrics::incr(&self.metrics.cache_evictions);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Unloads the named configuration if resident (in any lifecycle
    /// state); returns whether it was.
    ///
    /// # Errors
    ///
    /// Returns an error if the array rejects the unload.
    pub fn deactivate(&mut self, array: &mut Array, name: &str) -> XppResult<bool> {
        match self.resident.iter().position(|r| r.name == name) {
            Some(pos) => {
                let entry = self.resident.remove(pos);
                Self::surface_fault(array, entry.id, &self.metrics);
                array.unload(entry.id)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn place_with_eviction(
        &mut self,
        array: &mut Array,
        compiled: &CompiledConfig,
    ) -> XppResult<ConfigId> {
        loop {
            match array.configure_compiled(compiled) {
                Ok(id) => return Ok(id),
                Err(XppError::PlacementFailed { .. }) if !self.resident.is_empty() => {
                    let lru = self.resident.remove(0);
                    Self::surface_fault(array, lru.id, &self.metrics);
                    array.unload(lru.id)?;
                    Metrics::incr(&self.metrics.cache_evictions);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Counts the injected-fault record of a configuration about to be
    /// disposed of, so every injected fault shows up as detected (and its
    /// disposal as a recovery) exactly once — even a stalled or faulted
    /// prefetch that is evicted before anyone activates it.
    fn surface_fault(array: &mut Array, id: ConfigId, metrics: &Metrics) {
        if array.clear_injected_fault(id) {
            Metrics::incr(&metrics.faults_detected);
            Metrics::incr(&metrics.recoveries);
        }
    }

    /// Streams the remaining configuration-bus cycles of `id`, recording
    /// them as load latency the sessions actually waited for.
    ///
    /// # Errors
    ///
    /// Returns the typed fault error of a corrupted or aborted load. The
    /// faulted residue is unloaded (and counted as a detected fault)
    /// before returning, so the array is clean for a retry.
    fn finish_load(array: &mut Array, id: ConfigId, metrics: &Metrics) -> XppResult<()> {
        let bus_before = array.stats().config_cycles;
        loop {
            if array.is_running(id) {
                break;
            }
            if let Some(err) = array.load_error(id) {
                // Surfacing the typed error counts as the detection; the
                // caller decides between retry and dead-letter, so the
                // recovery/dead-letter counters are theirs to bump.
                array.clear_injected_fault(id);
                Metrics::incr(&metrics.faults_detected);
                Metrics::add(
                    &metrics.config_bus_cycles,
                    array.stats().config_cycles - bus_before,
                );
                array.unload(id)?;
                return Err(err);
            }
            array.step();
        }
        Metrics::add(
            &metrics.config_bus_cycles,
            array.stats().config_cycles - bus_before,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_wcdma::xpp_map::WcdmaKernel;

    const DESCRAMBLER: KernelSpec = KernelSpec::Wcdma(WcdmaKernel::Descrambler);
    const DETECTOR: KernelSpec = KernelSpec::Ofdm(OfdmKernel::PreambleDetector);
    const DEMODULATOR: KernelSpec = KernelSpec::Ofdm(OfdmKernel::Demodulator);

    #[test]
    fn store_compiles_once_and_shares() {
        let store = ConfigStore::new(4);
        let (a, l1) = store.get_or_compile("fig5-descrambler", || DESCRAMBLER.build());
        let (b, l2) = store.get_or_compile("fig5-descrambler", || panic!("hit must not rebuild"));
        assert!(!l1.hit && l2.hit);
        assert!(Arc::ptr_eq(&a, &b), "both callers share one compile");
        assert_eq!((store.hits(), store.misses()), (1, 1));
    }

    #[test]
    fn store_evicts_least_recently_used() {
        let store = ConfigStore::new(2);
        store.get_or_compile("a", || DESCRAMBLER.build());
        store.get_or_compile("b", || DETECTOR.build());
        store.get_or_compile("a", || unreachable!()); // touch a; b is LRU
        let (_, l) = store.get_or_compile("c", || DEMODULATOR.build());
        assert!(l.evicted);
        assert!(store.contains("a") && store.contains("c") && !store.contains("b"));
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn activation_walks_the_lifecycle() {
        let metrics = Arc::new(Metrics::new());
        let mut cm = ConfigManager::new(Arc::new(ConfigStore::new(4)), Arc::clone(&metrics));
        let mut array = Array::xpp64a();

        // request → loading → active (demand load).
        let id = cm.activate(&mut array, &DETECTOR).unwrap();
        assert!(array.is_running(id));
        assert_eq!(cm.state_of(&DETECTOR.config_name()), Some(CmState::Active));

        // prefetch: placed, loading, not waited for.
        assert!(cm.prefetch(&mut array, &DEMODULATOR).unwrap());
        assert_eq!(
            cm.state_of(&DEMODULATOR.config_name()),
            Some(CmState::Loading)
        );
        // A second prefetch of the same spec is a no-op.
        assert!(!cm.prefetch(&mut array, &DEMODULATOR).unwrap());

        // activate the prefetched config: a prefetch hit.
        let id2 = cm.activate(&mut array, &DEMODULATOR).unwrap();
        assert!(array.is_running(id2));
        let snap = metrics.snapshot();
        assert_eq!(snap.prefetches, 1);
        assert_eq!(snap.prefetch_hits, 1);

        // unload ends the lifecycle.
        assert!(cm
            .deactivate(&mut array, &DEMODULATOR.config_name())
            .unwrap());
        assert!(!cm.is_resident(&DEMODULATOR.config_name()));
    }

    #[test]
    fn prefetch_overlaps_the_bus_with_running_work() {
        let metrics = Arc::new(Metrics::new());
        let mut cm = ConfigManager::new(Arc::new(ConfigStore::new(4)), metrics);
        let mut array = Array::xpp64a();
        cm.activate(&mut array, &DETECTOR).unwrap();
        cm.prefetch(&mut array, &DEMODULATOR).unwrap();
        // Let the array run "other work": the bus streams the prefetched
        // load in the background.
        for _ in 0..1_000 {
            array.step();
        }
        // By activation time the load has fully overlapped: zero residual
        // bus cycles, zero added array cycles.
        let cycles_before = array.stats().cycles;
        let id = cm.activate(&mut array, &DEMODULATOR).unwrap();
        assert!(array.is_running(id));
        assert_eq!(
            array.stats().cycles,
            cycles_before,
            "prefetched activation must not step the array"
        );
    }

    #[test]
    fn prefetch_never_evicts_residents() {
        let metrics = Arc::new(Metrics::new());
        let mut cm = ConfigManager::new(Arc::new(ConfigStore::new(8)), Arc::clone(&metrics));
        // An array whose I/O channels fit the detector exactly, so any
        // further configuration fails placement. The detector is the most
        // recently activated configuration, so even the spill-aware
        // prefetch must not touch it.
        let compiled = CompiledConfig::compile(&DETECTOR.build());
        let mut geometry = xpp_array::Geometry::xpp64a();
        geometry.io_channels = compiled.placement().counts.io;
        let mut array = Array::with_geometry(geometry);
        cm.activate(&mut array, &DETECTOR).unwrap();
        assert!(
            !cm.prefetch(&mut array, &DEMODULATOR).unwrap(),
            "prefetch must fail soft when the array is full"
        );
        assert!(cm.is_resident(&DETECTOR.config_name()), "resident survived");
        assert_eq!(metrics.snapshot().prefetch_spills, 0);
    }

    /// Sizes an array's I/O channels to fit exactly the given specs.
    fn array_fitting(specs: &[&KernelSpec]) -> Array {
        let mut geometry = xpp_array::Geometry::xpp64a();
        geometry.io_channels = specs
            .iter()
            .map(|s| CompiledConfig::compile(&s.build()).placement().counts.io)
            .sum();
        Array::with_geometry(geometry)
    }

    #[test]
    fn prefetch_spills_a_quiescent_resident() {
        let metrics = Arc::new(Metrics::new());
        let mut cm = ConfigManager::new(Arc::new(ConfigStore::new(8)), Arc::clone(&metrics));
        let mut array = array_fitting(&[&DESCRAMBLER, &DETECTOR]);
        cm.activate(&mut array, &DESCRAMBLER).unwrap();
        cm.activate(&mut array, &DETECTOR).unwrap();
        cm.refresh_activity(&array);
        // Array is full; the descrambler has done no work since the
        // refresh and is not the most recent activation, so the prefetch
        // may reclaim its resources.
        assert!(
            cm.prefetch(&mut array, &DEMODULATOR).unwrap(),
            "prefetch spills the quiescent descrambler"
        );
        assert!(!cm.is_resident(&DESCRAMBLER.config_name()));
        assert!(cm.is_resident(&DETECTOR.config_name()));
        assert_eq!(
            cm.state_of(&DEMODULATOR.config_name()),
            Some(CmState::Loading)
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.prefetch_spills, 1);
        assert_eq!(snap.prefetches, 1);
    }

    #[test]
    fn store_caches_deltas_by_ordered_pair() {
        let store = ConfigStore::new(4);
        let (det, _) = store.get_or_compile("fig10-config2a-detector", || DETECTOR.build());
        let (dem, _) = store.get_or_compile("fig10-config2b-demodulator", || DEMODULATOR.build());
        let d1 = store.delta(&det, &dem);
        let d2 = store.delta(&det, &dem);
        assert!(Arc::ptr_eq(&d1, &d2), "same pair shares one computed delta");
        assert_eq!(store.delta_cache_len(), 1);
        // The Fig. 10 pair overlaps at the word level: the delta swap
        // streams strictly fewer words than the demodulator's full load.
        assert!(
            d1.words() < dem.load_cycles(),
            "2a→2b delta ({}) must beat the full load ({})",
            d1.words(),
            dem.load_cycles()
        );
        // The reverse direction is a different cache entry.
        let rev = store.delta(&dem, &det);
        assert_eq!(store.delta_cache_len(), 2);
        assert_eq!(
            store.cached_delta_words(det.name(), dem.name()),
            Some(d1.words())
        );
        assert_eq!(
            store.cached_delta_words(dem.name(), det.name()),
            Some(rev.words())
        );
        assert_eq!(store.cached_delta_words("nope", dem.name()), None);
    }

    #[test]
    fn activate_delta_tier_swaps_the_overlapping_resident() {
        let metrics = Arc::new(Metrics::new());
        let mut cm = ConfigManager::new(Arc::new(ConfigStore::new(8)), Arc::clone(&metrics));
        cm.set_delta_loading(true);
        let mut array = Array::xpp64a();
        cm.activate(&mut array, &DETECTOR).unwrap();
        let demand_before = metrics.snapshot().config_words_demand;

        let id = cm.activate(&mut array, &DEMODULATOR).unwrap();
        assert!(array.is_running(id));
        assert!(
            !cm.is_resident(&DETECTOR.config_name()),
            "the delta swap consumes its source"
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.delta_loads, 1);
        assert!(snap.delta_words_saved > 0);
        let streamed = snap.config_words_demand - demand_before;
        let full = CompiledConfig::compile(&DEMODULATOR.build()).load_cycles();
        assert!(
            streamed < full,
            "delta demand words ({streamed}) must undercut the full load ({full})"
        );
        assert_eq!(streamed + snap.delta_words_saved, full);
        // Only the pairs a manager actually diffed are cached; the swap
        // computed detector→demodulator, not the reverse.
        assert!(cm
            .store()
            .cached_delta_words(&DETECTOR.config_name(), &DEMODULATOR.config_name())
            .is_some());
        assert_eq!(cm.cheapest_delta_words_to(&DETECTOR.config_name()), None);
        // Once some manager diffs the reverse pair the probe answers.
        let det = CompiledConfig::compile(&DETECTOR.build());
        let dem = CompiledConfig::compile(&DEMODULATOR.build());
        let rev = cm.store().delta(&dem, &det);
        assert_eq!(
            cm.cheapest_delta_words_to(&DETECTOR.config_name()),
            Some(rev.words())
        );
    }

    #[test]
    fn delta_tier_off_by_default_streams_full_loads() {
        let metrics = Arc::new(Metrics::new());
        let mut cm = ConfigManager::new(Arc::new(ConfigStore::new(8)), Arc::clone(&metrics));
        let mut array = Array::xpp64a();
        cm.activate(&mut array, &DETECTOR).unwrap();
        cm.activate(&mut array, &DEMODULATOR).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.delta_loads, 0);
        assert_eq!(snap.delta_words_saved, 0);
        assert!(
            cm.is_resident(&DETECTOR.config_name()),
            "without the delta tier both configurations stay resident"
        );
    }

    #[test]
    fn squeezed_prefetch_delta_swaps_the_quiescent_victim() {
        let metrics = Arc::new(Metrics::new());
        let mut cm = ConfigManager::new(Arc::new(ConfigStore::new(8)), Arc::clone(&metrics));
        // Size the I/O budget so the demodulator fits only by reclaiming
        // the detector's channels: the delta swap must exactly close the
        // deficit. The residents load fully (delta off) so the setup is
        // deterministic; only the prefetch under test runs the delta tier.
        let mut array = array_fitting(&[&DEMODULATOR, &DESCRAMBLER]);
        cm.activate(&mut array, &DETECTOR).unwrap();
        cm.activate(&mut array, &DESCRAMBLER).unwrap();
        cm.set_delta_loading(true);
        cm.refresh_activity(&array);
        // Array full; the descrambler is protected (most recent Active),
        // the detector is quiescent — and overlaps the demodulator, so the
        // prefetch swaps through it with a word delta instead of a full
        // spill-then-load.
        let prefetched_before = metrics.snapshot().config_words_prefetched;
        assert!(cm.prefetch(&mut array, &DEMODULATOR).unwrap());
        assert!(!cm.is_resident(&DETECTOR.config_name()));
        assert_eq!(
            cm.state_of(&DEMODULATOR.config_name()),
            Some(CmState::Loading)
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.delta_loads, 1);
        assert_eq!(snap.prefetch_spills, 1);
        let streamed = snap.config_words_prefetched - prefetched_before;
        let full = CompiledConfig::compile(&DEMODULATOR.build()).load_cycles();
        assert!(
            streamed < full,
            "delta prefetch words ({streamed}) must undercut the full load ({full})"
        );
        // Activating finishes the short load as a plain prefetch hit.
        let id = cm.activate(&mut array, &DEMODULATOR).unwrap();
        assert!(array.is_running(id));
        assert_eq!(metrics.snapshot().prefetch_hits, 1);
    }

    #[test]
    fn disjoint_kernels_fall_back_to_the_full_path() {
        let metrics = Arc::new(Metrics::new());
        let mut cm = ConfigManager::new(Arc::new(ConfigStore::new(8)), Arc::clone(&metrics));
        cm.set_delta_loading(true);
        let mut array = Array::xpp64a();
        cm.activate(&mut array, &DESCRAMBLER).unwrap();
        // A W-CDMA descrambler shares little with the OFDM detector; only
        // a delta strictly cheaper than the full load may take the tier.
        cm.activate(&mut array, &DETECTOR).unwrap();
        let snap = metrics.snapshot();
        if snap.delta_loads == 0 {
            assert!(
                cm.is_resident(&DESCRAMBLER.config_name()),
                "full path leaves the resident in place"
            );
        } else {
            // If the word streams do overlap, the swap must have saved
            // words — the tier never fires for a break-even delta.
            assert!(snap.delta_words_saved > 0);
        }
    }

    #[test]
    fn prefetch_never_spills_a_busy_resident() {
        let metrics = Arc::new(Metrics::new());
        let mut cm = ConfigManager::new(Arc::new(ConfigStore::new(8)), Arc::clone(&metrics));
        let mut array = array_fitting(&[&DETECTOR, &DESCRAMBLER]);
        let det = cm.activate(&mut array, &DETECTOR).unwrap();
        cm.refresh_activity(&array);
        // Drive samples through the detector so its fire counter advances
        // past the activity mark: it is resident-but-busy.
        use xpp_array::Word;
        let burst: Vec<Word> = (0..32).map(Word::new).collect();
        array.push_input(det, "i_in", burst.clone()).unwrap();
        array.push_input(det, "q_in", burst).unwrap();
        for _ in 0..64 {
            array.step();
        }
        cm.activate(&mut array, &DESCRAMBLER).unwrap();
        // Full array again; the detector fired since its mark and the
        // descrambler is the most recent activation — no victim.
        assert!(
            !cm.prefetch(&mut array, &DEMODULATOR).unwrap(),
            "no quiescent victim: prefetch must fail soft"
        );
        assert!(cm.is_resident(&DETECTOR.config_name()));
        assert!(cm.is_resident(&DESCRAMBLER.config_name()));
        assert_eq!(metrics.snapshot().prefetch_spills, 0);
    }
}
