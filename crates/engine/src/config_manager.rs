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
//! * [`ConfigStore`] — a **process-wide** compile-once map of
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
use xpp_array::{Array, CompiledConfig, ConfigId, Error as XppError, Netlist, Result as XppResult};

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

/// Process-wide compile-once store of compiled configurations.
///
/// One store is shared (via `Arc`) by every worker in a
/// [`ShardPool`](crate::pool::ShardPool): the first worker to request a
/// kernel pays
/// netlist build + placement + port-map flattening, every later request —
/// from *any* shard — gets the same `Arc<CompiledConfig>` and pays only
/// the serial configuration bus on its own array. Nothing is evicted: the
/// sessions request four configuration names between them, so every
/// compile is kept for the life of the store.
///
/// Builds happen under the store lock, so concurrent workers requesting
/// the same kernel compile it exactly once (the second blocks briefly and
/// then hits).
#[derive(Debug)]
pub struct ConfigStore {
    entries: Mutex<Vec<(String, Arc<CompiledConfig>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ConfigStore {
    /// Creates an empty store with room for `capacity` compiled configs
    /// before it reallocates.
    pub fn new(capacity: usize) -> Self {
        ConfigStore {
            entries: Mutex::new(Vec::with_capacity(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Locks the store, recovering from poisoning: a worker that panicked
    /// mid-lookup cannot have left the entries inconsistent (the only
    /// mutation is one `Vec::push`), so the supervisor's replacement
    /// workers keep sharing the store instead of cascading the panic.
    fn lock(&self) -> MutexGuard<'_, Vec<(String, Arc<CompiledConfig>)>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the compiled config for `name` and whether it was already
    /// stored, building and compiling it with `build` on a miss.
    pub fn get_or_compile<F: FnOnce() -> Netlist>(
        &self,
        name: &str,
        build: F,
    ) -> (Arc<CompiledConfig>, bool) {
        let mut entries = self.lock();
        if let Some((_, config)) = entries.iter().find(|(n, _)| n == name) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(config), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let config = Arc::new(CompiledConfig::compile(&build()));
        entries.push((name.to_string(), Arc::clone(&config)));
        (config, false)
    }

    /// Lookups served without a compile.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build and compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
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
#[derive(Debug)]
pub struct ConfigManager {
    store: Arc<ConfigStore>,
    resident: Vec<Resident>,
    metrics: Arc<Metrics>,
}

impl ConfigManager {
    /// Creates a manager drawing from `store`.
    pub fn new(store: Arc<ConfigStore>, metrics: Arc<Metrics>) -> Self {
        ConfigManager {
            store,
            resident: Vec::new(),
            metrics,
        }
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
        let id = self.place_with_eviction(array, &compiled)?;
        Self::finish_load(array, id, &self.metrics)?;
        Metrics::add(&self.metrics.config_words_demand, compiled.load_cycles());
        let fire_mark = array.config_fire_count(id);
        self.resident.push(Resident {
            name,
            id,
            state: CmState::Active,
            fire_mark,
        });
        Ok(id)
    }

    /// Resolves `spec` through the shared store (compiling on a miss) and
    /// counts the lookup.
    fn lookup(&self, name: &str, spec: &KernelSpec) -> Arc<CompiledConfig> {
        let (compiled, hit) = self.store.get_or_compile(name, || spec.build());
        Metrics::incr(if hit {
            &self.metrics.cache_hits
        } else {
            &self.metrics.cache_misses
        });
        compiled
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
        let id = loop {
            match array.configure_compiled(&compiled) {
                Ok(id) => break id,
                Err(XppError::PlacementFailed { .. }) => {
                    if !self.spill_quiescent(array)? {
                        return Ok(false);
                    }
                }
                Err(e) => return Err(e),
            }
        };
        Metrics::incr(&self.metrics.prefetches);
        Metrics::add(
            &self.metrics.config_words_prefetched,
            compiled.load_cycles(),
        );
        let fire_mark = array.config_fire_count(id);
        self.resident.push(Resident {
            name,
            id,
            state: CmState::Loading,
            fire_mark,
        });
        Ok(true)
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
        // Past its preallocation the store grows; it never forgets a compile.
        let store = ConfigStore::new(1);
        let (a, hit_a) = store.get_or_compile("fig5-descrambler", || DESCRAMBLER.build());
        store.get_or_compile("fig10-config2a-detector", || DETECTOR.build());
        let (b, hit_b) =
            store.get_or_compile("fig5-descrambler", || panic!("hit must not rebuild"));
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b), "both callers share one compile");
        assert_eq!((store.hits(), store.misses()), (1, 2));
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
    fn demand_loads_stream_every_word_and_evict_nothing_that_fits() {
        let metrics = Arc::new(Metrics::new());
        let mut cm = ConfigManager::new(Arc::new(ConfigStore::new(8)), Arc::clone(&metrics));
        let mut array = Array::xpp64a();
        cm.activate(&mut array, &DETECTOR).unwrap();
        cm.activate(&mut array, &DEMODULATOR).unwrap();
        let full = |spec: &KernelSpec| CompiledConfig::compile(&spec.build()).load_cycles();
        assert_eq!(
            metrics.snapshot().config_words_demand,
            full(&DETECTOR) + full(&DEMODULATOR)
        );
        assert!(
            cm.is_resident(&DETECTOR.config_name()),
            "both configurations fit, so both stay resident"
        );
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
