//! The engine's configuration manager: kernel registry, process-wide
//! compiled-config store, and the per-array configuration lifecycle.
//!
//! The paper's platform revolves around a configuration manager that
//! loads, caches and swaps array configurations at runtime. This module
//! is that subsystem, in three pieces:
//!
//! * [`KernelSpec`] — a stable identity for every array kernel the
//!   receivers register (`sdr_wcdma::xpp_map::WcdmaKernel`,
//!   `sdr_ofdm::xpp_map::OfdmKernel`), the unit of request;
//! * [`ConfigStore`] — a **process-wide** compile-once map of
//!   [`Arc<CompiledConfig>`]s, shared by every array, so each kernel is
//!   built and placed **once per process**. It interns each spec to a
//!   dense [`KernelId`], which is how arrays record and publish what they
//!   hold;
//! * [`WorkerArray`] — one array and the one owner of its configuration
//!   lifecycle: which kernels are resident.
//!
//! # Activation tiers
//!
//! [`WorkerArray::activate`] is the only way sessions load configurations,
//! and it is tiered like the paper's CM:
//!
//! 1. **resident** — the configuration is running on the array: free;
//! 2. **stored** — the compiled config is in the [`ConfigStore`]: pay only
//!    the serial configuration bus;
//! 3. **cold** — build, compile and store it, then load.
//!
//! When placement fails, the least recently used resident configuration
//! is unloaded and the load retried — the paper's Fig. 10 resource
//! recycling. The engine's sessions only activate: nothing unloads a
//! configuration that still fits, so a configuration loads once and then
//! streams data while the bus idles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use sdr_ofdm::xpp_map::OfdmKernel;
use sdr_wcdma::xpp_map::WcdmaKernel;
use xpp_array::fault::FaultInjector;
use xpp_array::{Array, CompiledConfig, ConfigId, Error as XppError, Netlist, Result as XppResult};

use crate::config::RecoveryPolicy;
use crate::metrics::{KernelKind, Metrics};

/// Extra array cycles granted to a configuration that has fired nothing
/// before the watchdog declares it wedged and forces an unload + reload.
const WATCHDOG_BUDGET: u64 = 2_000;

/// The most kernels one [`ConfigStore`] interns: an array publishes its
/// residency as one bit per [`KernelId`] of a `u64`.
pub(crate) const MAX_KERNELS: usize = 64;

/// A kernel identity across both standards: the unit of request the
/// configuration manager works in.
///
/// [`config_name`](KernelSpec::config_name) is the label and the store's
/// name key — kernel id plus every parameter that changes the generated
/// netlist — and [`build`](KernelSpec::build) produces the netlist on a
/// store miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelSpec {
    /// A W-CDMA rake kernel (paper Figs. 5–7).
    Wcdma(WcdmaKernel),
    /// An 802.11a OFDM kernel (paper Figs. 9–10).
    Ofdm(OfdmKernel),
}

impl KernelSpec {
    /// The stable name key for this kernel + parameters.
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

/// A kernel's dense id within its [`ConfigStore`], handed out at the
/// spec's first request: what an array records a resident by, and its bit
/// in the array's published residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelId(u8);

impl KernelId {
    /// The id's bit in a residency mask.
    pub(crate) fn bit(self) -> u64 {
        1 << self.0
    }
}

/// Process-wide compile-once store of compiled configurations.
///
/// One store is shared (via `Arc`) by every array in a
/// [`ShardPool`](crate::pool::ShardPool): the first array to request a
/// kernel pays netlist build + placement + port-map flattening, every later
/// request — from *any* array — gets the same `Arc<CompiledConfig>` and
/// pays only the serial configuration bus on its own array. Nothing is
/// evicted: the sessions request three configuration names between them
/// (the finger, 2a and 2b), so every compile is kept for the life of the
/// store.
///
/// [`get_or_compile`](ConfigStore::get_or_compile) is the one compile
/// path, keyed by name, and builds under the store lock, so concurrent
/// requests for the same kernel compile it exactly once. A spec's first
/// `intern` goes through it and then gives the spec
/// the next [`KernelId`]; every later request resolves the spec without
/// locking or allocating.
#[derive(Debug)]
pub struct ConfigStore {
    entries: Mutex<Vec<(String, Arc<CompiledConfig>)>>,
    /// Interned kernels: slot `i` holds `KernelId(i)`'s spec and config.
    /// Slots fill in order, under the lock, so the filled ones are a prefix.
    kernels: [OnceLock<(KernelSpec, Arc<CompiledConfig>)>; MAX_KERNELS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ConfigStore {
    /// Creates an empty store with room for `capacity` compiled configs
    /// before it reallocates.
    pub fn new(capacity: usize) -> Self {
        ConfigStore {
            entries: Mutex::new(Vec::with_capacity(capacity)),
            kernels: std::array::from_fn(|_| OnceLock::new()),
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

    /// The interned slot of `spec`, read without the lock.
    fn find(&self, spec: &KernelSpec) -> Option<(KernelId, &Arc<CompiledConfig>)> {
        self.kernels
            .iter()
            .map_while(OnceLock::get)
            .enumerate()
            .find(|(_, (s, _))| s == spec)
            .map(|(i, (_, config))| (KernelId(i as u8), config))
    }

    /// The id of `spec`, if it has ever been requested. Never compiles: a
    /// spec that was never interned is held by no array.
    pub fn id_of(&self, spec: &KernelSpec) -> Option<KernelId> {
        self.find(spec).map(|(id, _)| id)
    }

    /// Resolves `spec` to its id and compiled config and says whether the
    /// config was already stored. Its first request interns it, through
    /// [`get_or_compile`](ConfigStore::get_or_compile) by its name, so it
    /// hits an entry a name request created.
    ///
    /// # Panics
    ///
    /// Panics if the store would intern more than [`MAX_KERNELS`] specs.
    pub(crate) fn intern(&self, spec: &KernelSpec) -> (KernelId, Arc<CompiledConfig>, bool) {
        if let Some((id, config)) = self.find(spec) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (id, Arc::clone(config), true);
        }
        let (config, hit) = self.get_or_compile(&spec.config_name(), || spec.build());
        // Under the lock, so two first requests agree on one id.
        let _entries = self.lock();
        let id = self.id_of(spec).unwrap_or_else(|| {
            let next = self.kernels.iter().map_while(OnceLock::get).count();
            assert!(
                next < MAX_KERNELS,
                "a store interns at most {MAX_KERNELS} kernels"
            );
            let _ = self.kernels[next].set((*spec, Arc::clone(&config)));
            KernelId(next as u8)
        });
        (id, config, hit)
    }

    /// Lookups served without a compile.
    #[cfg(test)]
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build and compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// One array and its configuration lifecycle (module docs, "Activation
/// tiers"): the resident list, least recently used first, resolved
/// through the shared [`ConfigStore`], plus the retry policy for faulted
/// loads and the zero-fire watchdog.
#[derive(Debug)]
pub struct WorkerArray {
    array: Array,
    store: Arc<ConfigStore>,
    /// Every resident has finished loading and is running.
    resident: Vec<(KernelId, ConfigId)>,
    metrics: Arc<Metrics>,
    policy: RecoveryPolicy,
}

impl WorkerArray {
    /// Creates a worker context around a fresh XPP-64A with its own
    /// private store (tests, benches, single-worker use).
    pub fn new(store_capacity: usize, metrics: Arc<Metrics>) -> Self {
        let store = Arc::new(ConfigStore::new(store_capacity));
        Self::with_store(store, metrics)
    }

    /// Creates a worker context drawing compiled configs from a shared
    /// process-wide store (what [`ShardPool`](crate::pool::ShardPool)
    /// arrays use).
    pub fn with_store(store: Arc<ConfigStore>, metrics: Arc<Metrics>) -> Self {
        Self::with_policy(store, metrics, RecoveryPolicy::default())
    }

    /// Like [`with_store`](WorkerArray::with_store) with an explicit
    /// recovery policy (retry counts).
    pub(crate) fn with_policy(
        store: Arc<ConfigStore>,
        metrics: Arc<Metrics>,
        policy: RecoveryPolicy,
    ) -> Self {
        WorkerArray {
            array: Array::xpp64a(),
            store,
            resident: Vec::new(),
            metrics,
            policy,
        }
    }

    /// Inert; the frozen benchmark package calls it and ROADMAP T deletes it.
    pub fn set_delta_loading(&mut self, _enabled: bool) {}

    /// Attaches a shared fault injector to this worker's array. The
    /// injector's load ordinal is global across every array it is attached
    /// to, so a plan keeps advancing through worker restarts.
    pub(crate) fn attach_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.array.attach_fault_injector(injector);
    }

    /// The underlying array, for driving I/O on an activated configuration.
    pub fn array_mut(&mut self) -> &mut Array {
        &mut self.array
    }

    /// Read-only view of the array (stats, placements).
    pub fn array(&self) -> &Array {
        &self.array
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The position of `spec` in the resident list, if resident.
    fn resident_index(&self, spec: &KernelSpec) -> Option<usize> {
        let kernel = self.store.id_of(spec)?;
        self.resident.iter().position(|&(k, _)| k == kernel)
    }

    /// Whether the kernel's configuration is on the array.
    #[cfg(test)]
    pub(crate) fn is_resident(&self, spec: impl Into<KernelSpec>) -> bool {
        self.resident_index(&spec.into()).is_some()
    }

    /// The kernels on the array, one `KernelId::bit` each: what the
    /// array publishes into its residency cell after every step.
    pub fn resident_mask(&self) -> u64 {
        self.resident
            .iter()
            .fold(0, |mask, (kernel, _)| mask | kernel.bit())
    }

    /// Inert: there is no prefetch whose victims it would mark. The frozen
    /// benchmark package calls it; ROADMAP T deletes it.
    pub fn refresh_activity(&mut self) {}

    /// Ensures the kernel's configuration is loaded and running, and
    /// returns its handle. See the module docs for the activation tiers.
    ///
    /// Loads that fail with an injected fault (corrupted or aborted bus
    /// stream) are retried up to the policy's `max_kernel_attempts`: the
    /// faulted residue is already unloaded, so each retry is a clean
    /// reload from the shared store.
    ///
    /// # Errors
    ///
    /// Returns an error if placement fails even after unloading every
    /// other resident configuration, or a fault error once the retry
    /// budget is exhausted.
    pub fn activate(&mut self, spec: impl Into<KernelSpec>) -> XppResult<ConfigId> {
        let spec = spec.into();
        for _ in 1..self.policy.max_kernel_attempts.max(1) {
            match self.activate_once(&spec) {
                // Detection was counted where the load failed; the reload
                // we are about to do is the matching recovery.
                Err(e) if e.is_fault() => Metrics::incr(&self.metrics.recoveries),
                other => return other,
            }
        }
        self.activate_once(&spec)
    }

    /// One activation attempt, down the tiers.
    fn activate_once(&mut self, spec: &KernelSpec) -> XppResult<ConfigId> {
        if let Some(pos) = self.resident_index(spec) {
            Metrics::incr(&self.metrics.cache_hits);
            let entry = self.resident.remove(pos);
            self.resident.push(entry); // most recently used
            return Ok(entry.1);
        }
        let (kernel, compiled) = self.lookup(spec);
        let id = self.place_with_eviction(&compiled)?;
        self.finish_load(id)?;
        Metrics::add(&self.metrics.config_words_demand, compiled.load_cycles());
        self.resident.push((kernel, id));
        Ok(id)
    }

    /// Resolves `spec` through the shared store (compiling on a miss) and
    /// counts the lookup.
    fn lookup(&self, spec: &KernelSpec) -> (KernelId, Arc<CompiledConfig>) {
        let (kernel, compiled, hit) = self.store.intern(spec);
        Metrics::incr(if hit {
            &self.metrics.cache_hits
        } else {
            &self.metrics.cache_misses
        });
        (kernel, compiled)
    }

    /// Runs one array job under the zero-fire watchdog: activates the
    /// configuration, lets `drive` — the kernel's `xpp_map::drive_*`
    /// function — run on the array, and books the job's cycles and object
    /// fires under `kind`. If `drive` times out without the configuration
    /// having fired a single object, it gets one extra `WATCHDOG_BUDGET` of
    /// cycles — still silent means the load is wedged (e.g. an injected
    /// stall), so the configuration is forcibly unloaded and the whole
    /// attempt retried from the store. The replay is safe: `drive` re-reads
    /// the caller's slices and the reload starts from clean token state.
    ///
    /// # Errors
    ///
    /// Propagates `drive`'s error, or [`XppError::ConfigWedged`] once a
    /// wedged configuration has exhausted the kernel retry budget.
    pub(crate) fn run_kernel<T>(
        &mut self,
        kind: KernelKind,
        spec: impl Into<KernelSpec>,
        mut drive: impl FnMut(&mut Array, ConfigId) -> XppResult<T>,
    ) -> XppResult<T> {
        let spec = spec.into();
        let attempts = self.policy.max_kernel_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            let cfg = self.activate(spec)?;
            let cycles_before = self.array.stats().cycles;
            let fires_before = self.array.config_fire_count(cfg);
            match drive(&mut self.array, cfg) {
                Ok(out) => {
                    self.metrics.record_kernel(
                        kind,
                        self.array.stats().cycles - cycles_before,
                        self.array.config_fire_count(cfg) - fires_before,
                    );
                    return Ok(out);
                }
                Err(e @ XppError::Timeout { .. }) => {
                    if !self.watchdog_wedged(cfg, fires_before) {
                        return Err(e);
                    }
                    Metrics::incr(&self.metrics.watchdog_kicks);
                    // Force the zombie off the array. Disposal surfaces
                    // the injected stall record (detected + recovered);
                    // the next attempt reloads from the store.
                    self.deactivate(spec)?;
                    if attempt >= attempts {
                        return Err(XppError::ConfigWedged {
                            config: cfg.index(),
                        });
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// After a timeout: has the configuration fired anything, even when
    /// granted `WATCHDOG_BUDGET` extra cycles? No fires at all means the
    /// load completed but the objects never came alive.
    fn watchdog_wedged(&mut self, cfg: ConfigId, fires_before: u64) -> bool {
        if self.array.config_fire_count(cfg) != fires_before {
            return false;
        }
        self.array.run(WATCHDOG_BUDGET);
        self.array.config_fire_count(cfg) == fires_before
    }

    /// Inert: issues nothing and returns `Ok(false)`, the "not issued"
    /// result. The engine loads a configuration when a session needs it.
    /// The frozen benchmark package calls it; ROADMAP T deletes it.
    pub fn prefetch(&mut self, _spec: impl Into<KernelSpec>) -> XppResult<bool> {
        Ok(false)
    }

    /// Unloads the kernel's configuration if resident; returns whether it
    /// was.
    ///
    /// # Errors
    ///
    /// Returns an error if the array rejects the unload.
    pub fn deactivate(&mut self, spec: impl Into<KernelSpec>) -> XppResult<bool> {
        match self.resident_index(&spec.into()) {
            Some(pos) => self.unload_resident(pos).map(|()| true),
            None => Ok(false),
        }
    }

    /// The explicit Fig. 10 swap: [`deactivate`](WorkerArray::deactivate)
    /// `from`, then [`activate`](WorkerArray::activate) `to` in the freed
    /// resources. The engine's sessions do not call it; the reconfig bench
    /// times it and the frozen benchmark package calls it.
    ///
    /// # Errors
    ///
    /// Returns an error if the unload or the activation fails.
    pub fn swap(
        &mut self,
        from: impl Into<KernelSpec>,
        to: impl Into<KernelSpec>,
    ) -> XppResult<ConfigId> {
        self.deactivate(from)?;
        self.activate(to)
    }

    fn place_with_eviction(&mut self, compiled: &CompiledConfig) -> XppResult<ConfigId> {
        loop {
            match self.array.configure_compiled(compiled) {
                Ok(id) => return Ok(id),
                Err(XppError::PlacementFailed { .. }) if !self.resident.is_empty() => {
                    self.unload_resident(0)?;
                    Metrics::incr(&self.metrics.cache_evictions);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Removes resident `pos` from the list and unloads it, first counting
    /// its injected-fault record, so every injected fault shows up as
    /// detected (and its disposal as a recovery) exactly once — even a
    /// stalled load that the watchdog forces out.
    fn unload_resident(&mut self, pos: usize) -> XppResult<()> {
        let (_, id) = self.resident.remove(pos);
        if self.array.clear_injected_fault(id) {
            Metrics::incr(&self.metrics.faults_detected);
            Metrics::incr(&self.metrics.recoveries);
        }
        self.array.unload(id)
    }

    /// Streams the configuration-bus cycles of `id`, recording them as
    /// load latency the sessions actually waited for.
    ///
    /// # Errors
    ///
    /// Returns the typed fault error of a corrupted or aborted load. The
    /// faulted residue is unloaded (and counted as a detected fault)
    /// before returning, so the array is clean for a retry.
    fn finish_load(&mut self, id: ConfigId) -> XppResult<()> {
        let bus_before = self.array.stats().config_cycles;
        let failed = loop {
            if self.array.is_running(id) {
                break None;
            }
            if let Some(err) = self.array.load_error(id) {
                break Some(err);
            }
            self.array.step();
        };
        Metrics::add(
            &self.metrics.config_bus_cycles,
            self.array.stats().config_cycles - bus_before,
        );
        match failed {
            None => Ok(()),
            Some(err) => {
                // Surfacing the typed error counts as the detection; the
                // caller decides between retry and dead-letter, so the
                // recovery/dead-letter counters are theirs to bump.
                self.array.clear_injected_fault(id);
                Metrics::incr(&self.metrics.faults_detected);
                self.array.unload(id)?;
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_wcdma::xpp_map::WcdmaKernel;

    const DESCRAMBLER: KernelSpec = KernelSpec::Wcdma(WcdmaKernel::Descrambler);
    const DETECTOR: KernelSpec = KernelSpec::Ofdm(OfdmKernel::PreambleDetector);
    const DEMODULATOR: KernelSpec = KernelSpec::Ofdm(OfdmKernel::Demodulator);

    fn worker(metrics: &Arc<Metrics>) -> WorkerArray {
        WorkerArray::new(8, Arc::clone(metrics))
    }

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

    /// A spec's first request hits the entry a name request created, and
    /// ids are dense in first-request order.
    #[test]
    fn a_spec_interns_onto_the_entry_its_name_created() {
        let store = ConfigStore::new(4);
        let (by_name, _) = store.get_or_compile(&DETECTOR.config_name(), || DETECTOR.build());
        assert_eq!(
            store.id_of(&DETECTOR),
            None,
            "a name request interns nothing"
        );
        let (id, by_spec, hit) = store.intern(&DETECTOR);
        assert!(hit && Arc::ptr_eq(&by_name, &by_spec));
        assert_eq!(store.id_of(&DETECTOR), Some(id));
        let (second, _, hit) = store.intern(&DEMODULATOR);
        assert!(!hit);
        assert_eq!((id.bit(), second.bit()), (1, 2));
        assert_eq!(
            store.intern(&DETECTOR).0,
            id,
            "an interned spec keeps its id"
        );
        assert_eq!((store.hits(), store.misses()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "a store interns at most 64 kernels")]
    fn a_store_interns_at_most_64_kernels() {
        let store = ConfigStore::new(MAX_KERNELS + 1);
        // Warm every name with one small netlist, so no spec compiles.
        let small = DESCRAMBLER.build();
        for code_index in 0..=MAX_KERNELS {
            let spec = KernelSpec::Wcdma(WcdmaKernel::Despreader {
                sf: 128,
                code_index,
            });
            store.get_or_compile(&spec.config_name(), || small.clone());
            store.intern(&spec);
        }
    }

    #[test]
    fn two_workers_sharing_a_store_get_one_id_per_spec() {
        let metrics = Arc::new(Metrics::new());
        let store = Arc::new(ConfigStore::new(4));
        let mut w1 = WorkerArray::with_store(Arc::clone(&store), Arc::clone(&metrics));
        let mut w2 = WorkerArray::with_store(Arc::clone(&store), Arc::clone(&metrics));
        w1.activate(DESCRAMBLER).unwrap();
        w2.activate(DETECTOR).unwrap();
        w2.activate(DESCRAMBLER).unwrap();
        let id = store.id_of(&DESCRAMBLER).unwrap();
        assert_eq!(w1.resident_mask(), id.bit());
        assert_eq!(
            w2.resident_mask(),
            id.bit() | store.id_of(&DETECTOR).unwrap().bit()
        );
    }

    #[test]
    fn workers_share_one_store_across_shards() {
        let metrics = Arc::new(Metrics::new());
        let store = Arc::new(ConfigStore::new(4));
        let mut w1 = WorkerArray::with_store(Arc::clone(&store), Arc::clone(&metrics));
        let mut w2 = WorkerArray::with_store(Arc::clone(&store), Arc::clone(&metrics));
        w1.activate(WcdmaKernel::Descrambler).unwrap();
        w2.activate(WcdmaKernel::Descrambler).unwrap();
        assert_eq!(store.misses(), 1, "second worker reused the compile");
        assert_eq!(store.hits(), 1);
    }

    #[test]
    fn activation_tiers_resident_then_stored() {
        let metrics = Arc::new(Metrics::new());
        let mut w = WorkerArray::new(4, Arc::clone(&metrics));
        let a = w.activate(WcdmaKernel::Descrambler).unwrap();
        let b = w.activate(WcdmaKernel::Descrambler).unwrap();
        assert_eq!(a, b, "resident activation returns the same handle");
        assert_eq!(w.store.misses(), 1, "one build + compile");
        let snap = metrics.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));
        assert!(snap.config_bus_cycles > 0, "the load paid bus cycles");
    }

    #[test]
    fn a_demand_load_runs_and_deactivate_unloads_it() {
        let metrics = Arc::new(Metrics::new());
        let mut w = worker(&metrics);
        let id = w.activate(DETECTOR).unwrap();
        assert!(w.array().is_running(id));
        assert!(w.is_resident(DETECTOR));

        assert!(w.deactivate(DETECTOR).unwrap());
        assert!(!w.is_resident(DETECTOR));
        assert!(!w.array().is_running(id));
        assert_eq!(w.resident_mask(), 0);
        assert!(!w.deactivate(DETECTOR).unwrap(), "nothing left to unload");
    }

    /// The frozen benchmark's layer replay calls `prefetch` and relies on
    /// it loading nothing.
    #[test]
    fn prefetch_issues_nothing() {
        let metrics = Arc::new(Metrics::new());
        let mut w = worker(&metrics);
        w.activate(DETECTOR).unwrap();
        let before = (w.resident_mask(), w.array().stats().config_words);
        assert!(!w.prefetch(DEMODULATOR).unwrap());
        assert_eq!((w.resident_mask(), w.array().stats().config_words), before);
    }

    #[test]
    fn demand_loads_stream_every_word_and_evict_nothing_that_fits() {
        let metrics = Arc::new(Metrics::new());
        let mut w = worker(&metrics);
        w.activate(DETECTOR).unwrap();
        w.activate(DEMODULATOR).unwrap();
        let full = |spec: &KernelSpec| CompiledConfig::compile(&spec.build()).load_cycles();
        assert_eq!(
            metrics.snapshot().config_words_demand,
            full(&DETECTOR) + full(&DEMODULATOR)
        );
        assert!(
            w.is_resident(DETECTOR),
            "both configurations fit, so both stay resident"
        );
    }

    #[test]
    fn swap_unloads_the_source_and_reuses_stored_configs() {
        let metrics = Arc::new(Metrics::new());
        let mut w = WorkerArray::new(4, Arc::clone(&metrics));
        w.activate(DETECTOR).unwrap();
        w.swap(DETECTOR, DEMODULATOR).unwrap();
        assert!(!w.is_resident(DETECTOR));
        assert!(w.is_resident(DEMODULATOR));
        // Swapping back: the detector config comes from the store.
        w.swap(DEMODULATOR, DETECTOR).unwrap();
        assert!(!w.is_resident(DEMODULATOR));
        assert_eq!(w.store.misses(), 2, "each kernel compiled exactly once");
        assert_eq!(w.store.hits(), 1, "re-activation served from the store");
    }

    #[test]
    fn swap_without_resident_source_still_activates() {
        let metrics = Arc::new(Metrics::new());
        let mut w = WorkerArray::new(4, Arc::clone(&metrics));
        w.swap(DEMODULATOR, DESCRAMBLER).unwrap();
        assert!(w.is_resident(DESCRAMBLER));
    }
}
