//! Configuration management: placing compiled configurations, streaming
//! them over the serial configuration bus, and unloading.

use std::collections::VecDeque;
use std::sync::Arc;

use super::{Array, ConfigId};
use crate::channel::Slab;
use crate::compiled::{CompiledConfig, Program};
use crate::error::{Error, Result};
#[cfg(feature = "faults")]
use crate::fault::{FaultInjector, FaultKind};
use crate::netlist::Netlist;
use crate::object::{CounterCfg, ObjectKind, RAM_WORDS};
use crate::place::Placement;
use crate::word::Word;

#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum ConfigState {
    Loading {
        remaining: u64,
    },
    Running,
    /// The load went wrong (injected fault); the configuration holds its
    /// resources but will never run and must be unloaded.
    #[cfg(feature = "faults")]
    Faulted(FaultKind),
}

/// The internal state of one stateful object (see [`ObjState::stateful`]).
#[derive(Debug)]
pub(crate) enum ObjState {
    /// The stand-in the reference stepper hands a stateless object.
    #[cfg(any(test, feature = "reference"))]
    None,
    Counter {
        cfg: CounterCfg,
        value: i64,
        remaining: u64,
    },
    Accum(Word),
    Ram(Vec<Word>),
    Fifo(VecDeque<Word>),
    ExtInData(VecDeque<Word>),
    ExtOutData(Vec<Word>),
    ExtInEv(VecDeque<bool>),
    ExtOutEv(Vec<bool>),
}

impl ObjState {
    /// True if objects of `kind` keep internal state.
    pub(crate) fn stateful(kind: &ObjectKind) -> bool {
        matches!(
            kind,
            ObjectKind::Counter(_)
                | ObjectKind::AccumDump
                | ObjectKind::Ram { .. }
                | ObjectKind::RamFifo { .. }
                | ObjectKind::Input(_)
                | ObjectKind::Output(_)
                | ObjectKind::InputEvent(_)
                | ObjectKind::OutputEvent(_)
        )
    }

    /// The power-on internal state of a [stateful](Self::stateful) object
    /// of `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is stateless.
    pub(crate) fn initial(kind: &ObjectKind) -> ObjState {
        match kind {
            ObjectKind::Counter(cfg) => ObjState::Counter {
                cfg: *cfg,
                value: 0,
                remaining: 0,
            },
            ObjectKind::AccumDump => ObjState::Accum(Word::ZERO),
            ObjectKind::Ram { preload } => {
                let mut mem = vec![Word::ZERO; RAM_WORDS];
                mem[..preload.len()].copy_from_slice(preload);
                ObjState::Ram(mem)
            }
            ObjectKind::RamFifo { preload, .. } => {
                ObjState::Fifo(preload.iter().copied().collect())
            }
            ObjectKind::Input(_) => ObjState::ExtInData(VecDeque::new()),
            ObjectKind::Output(_) => ObjState::ExtOutData(Vec::new()),
            ObjectKind::InputEvent(_) => ObjState::ExtInEv(VecDeque::new()),
            ObjectKind::OutputEvent(_) => ObjState::ExtOutEv(Vec::new()),
            _ => unreachable!("a stateless object has no state"),
        }
    }
}

/// One resident configuration: the shared compiled [`Program`] plus all of
/// its mutable state, in the program's own numbering — slot `k` of `slab`
/// is the program's channel slot `k`, entry `s` of `states` the state of
/// the program's stateful object `s`, entry `i` of `fires` the count of op
/// `i`. Nothing else on the array points into these, so loading and
/// unloading never move or renumber anything.
#[derive(Debug)]
pub(super) struct LoadedConfig {
    pub(super) id: u32,
    pub(super) program: Arc<Program>,
    pub(super) state: ConfigState,
    /// True once the load completed and the objects may fire (a stalled
    /// configuration reports `Running` but is never enabled).
    pub(super) enabled: bool,
    /// True while the stepper visits this configuration: set by a wake
    /// (`Array::wake`), cleared by a pass that fires nothing.
    pub(super) awake: bool,
    /// Every channel, data and event, with its tokens.
    pub(super) slab: Slab,
    /// Internal state of the stateful objects only.
    pub(super) states: Vec<ObjState>,
    /// Lifetime fire count per op (the program's `order` maps an op to its
    /// node); `config_fire_count` sums these on demand.
    pub(super) fires: Vec<u64>,
    /// Fault assigned to this load by the injector, cleared when a recovery
    /// layer surfaces it (see [`Array::clear_injected_fault`]).
    #[cfg(feature = "faults")]
    fault: Option<FaultKind>,
    /// Bus words remaining at which an [`FaultKind::AbortLoad`] strikes
    /// (half the load window).
    #[cfg(feature = "faults")]
    fault_at: u64,
}

impl Array {
    /// Attaches a shared fault injector; every subsequent configuration
    /// load consults its plan. A supervisor re-attaches the same injector
    /// to a replacement array after a crash so the schedule continues.
    #[cfg(feature = "faults")]
    pub fn attach_fault_injector(&mut self, injector: std::sync::Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Placement footprint of a resident configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchConfig`] if the id is stale.
    pub fn placement(&self, cfg: ConfigId) -> Result<&Placement> {
        Ok(&self.config(cfg)?.program.placement)
    }

    /// The name of a resident configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchConfig`] if the id is stale.
    pub fn config_name(&self, cfg: ConfigId) -> Result<&str> {
        Ok(&self.config(cfg)?.program.name)
    }

    /// True if the configuration has finished loading.
    pub fn is_running(&self, cfg: ConfigId) -> bool {
        matches!(self.config(cfg).map(|c| &c.state), Ok(ConfigState::Running))
    }

    /// The typed error a faulted load left behind, if any.
    ///
    /// Always available; without the `faults` feature (or with no injector
    /// attached) this is always `None`. A faulted configuration keeps its
    /// resources until [`unload`](Array::unload), so anyone waiting for
    /// [`is_running`](Array::is_running) must poll this too or spin forever.
    pub fn load_error(&self, cfg: ConfigId) -> Option<Error> {
        #[cfg(feature = "faults")]
        if let Ok(ConfigState::Faulted(kind)) = self.config(cfg).map(|c| &c.state) {
            return Some(match kind {
                FaultKind::AbortLoad => Error::LoadAborted { config: cfg.0 },
                _ => Error::ConfigCorrupted { config: cfg.0 },
            });
        }
        let _ = cfg;
        None
    }

    /// Clears the injected-fault record of a resident configuration,
    /// returning `true` if one was present. Recovery layers call this when
    /// disposing of a configuration so each injected fault is counted as
    /// detected exactly once, even for stalls that never raise an error.
    pub fn clear_injected_fault(&mut self, cfg: ConfigId) -> bool {
        #[cfg(feature = "faults")]
        if let Some(at) = self.config_index(cfg.0) {
            return self.configs[at].fault.take().is_some();
        }
        let _ = cfg;
        false
    }

    /// Clears the injected-fault records of *every* resident
    /// configuration, returning how many there were. Supervisors call this
    /// on an array they are about to discard wholesale (e.g. after a
    /// worker crash) so pending faults still count as detected.
    pub fn take_injected_faults(&mut self) -> u64 {
        #[cfg(feature = "faults")]
        let swept = self
            .configs
            .iter_mut()
            .filter_map(|c| c.fault.take())
            .count() as u64;
        #[cfg(not(feature = "faults"))]
        let swept = 0;
        swept
    }

    // ---- configuration management ------------------------------------

    /// Places a netlist onto the array and queues it for loading over the
    /// configuration bus.
    ///
    /// The configuration starts executing once loading completes (loading
    /// progresses as the array runs). Resources are reserved immediately, so
    /// a conflicting configuration is rejected up front.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PlacementFailed`] if any resource class is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if a channel is deeper than 255 tokens (see
    /// [`CompiledConfig::compile`]).
    pub fn configure(&mut self, netlist: &Netlist) -> Result<ConfigId> {
        self.configure_compiled(&CompiledConfig::compile(netlist))
    }

    /// Loads a pre-compiled configuration: the load-time half of
    /// [`configure`](Array::configure).
    ///
    /// Placement footprint, port maps and runs were computed by
    /// [`CompiledConfig::compile`]; this call only allocates array
    /// resources, copies the channel slab and instantiates the stateful
    /// objects' state from the compiled templates, and queues the serial
    /// configuration-bus load. A
    /// configuration manager holding `Arc<CompiledConfig>`s pays the
    /// compile cost once per kernel, not once per load.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PlacementFailed`] if any resource class is exhausted.
    pub fn configure_compiled(&mut self, compiled: &CompiledConfig) -> Result<ConfigId> {
        let program = &compiled.program;
        self.pool.allocate(program.placement.counts)?;
        // Ordinals count only loads that got past placement; a WorkerPanic
        // strikes here, before any array state mutates — the supervisor
        // discards the whole array, so the allocation above is moot.
        #[cfg(feature = "faults")]
        let injected = {
            let injected = self.injector.as_ref().and_then(|inj| inj.on_load());
            if injected == Some(FaultKind::WorkerPanic) {
                panic!(
                    "injected fault: loader crashed while configuring {:?}",
                    program.name
                );
            }
            injected
        };
        let id = self.next_id;
        self.next_id += 1;

        // Ids only grow, so pushing keeps `configs` sorted by id.
        self.configs.push(LoadedConfig {
            id,
            program: Arc::clone(program),
            state: ConfigState::Loading {
                remaining: program.load_cycles,
            },
            enabled: false,
            awake: false,
            slab: program.slab.clone(),
            states: (program.stateful.iter())
                .map(|&n| ObjState::initial(&program.nodes[n as usize].kind))
                .collect(),
            fires: vec![0; program.ops.len()],
            #[cfg(feature = "faults")]
            fault: injected,
            #[cfg(feature = "faults")]
            fault_at: program.load_cycles / 2,
        });
        self.load_queue.push_back(id);
        Ok(ConfigId(id))
    }

    /// Removes a configuration, releasing its resources for reuse — the
    /// paper's differential reconfiguration (Fig. 10): a follow-on
    /// configuration can be placed into the freed PAEs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchConfig`] if the id is stale.
    pub fn unload(&mut self, cfg: ConfigId) -> Result<()> {
        let at = self.config_index(cfg.0).ok_or(Error::NoSuchConfig(cfg.0))?;
        let loaded = self.configs.remove(at);
        if loaded.awake {
            self.schedule.invalidations += 1;
        }
        self.retired_fires.insert(cfg.0, loaded.fires.iter().sum());
        self.pool.release(loaded.program.placement.counts);
        self.load_queue.retain(|&q| q != cfg.0);
        self.connections
            .retain(|c| c.from.0 != cfg.0 && c.to.0 != cfg.0);
        Ok(())
    }

    /// Configuration bus: the front of the queue loads one step's worth of
    /// configuration words. On completion the configuration is enabled and
    /// woken so its objects can fire in the same cycle (matching the
    /// original stepper, which rebuilt its loading set after the bus tick).
    /// Returns `true` if a load progressed.
    pub(super) fn tick_config_bus(&mut self) -> bool {
        let Some(&front) = self.load_queue.front() else {
            return false;
        };
        self.stats.config_cycles += 1;
        // One word crosses the bus per busy cycle while a load is in flight;
        // both steppers share this helper so the counter stays bit-identical
        // between production and reference runs.
        let mut config_words_streamed = 0;
        let mut finished = false;
        let at = self.config_index(front).expect("queued config exists");
        let cfg = &mut self.configs[at];
        if let ConfigState::Loading { remaining } = &mut cfg.state {
            *remaining = remaining.saturating_sub(1);
            config_words_streamed = 1;
            let left = *remaining;
            // An aborted load drops off the bus halfway through its window;
            // a corrupted one consumes the full window but ends Faulted
            // instead of Running. Either way the bus moves on to the next
            // queued load and the residue waits for an unload.
            #[cfg(feature = "faults")]
            {
                if cfg.fault == Some(FaultKind::AbortLoad) && left <= cfg.fault_at {
                    cfg.state = ConfigState::Faulted(FaultKind::AbortLoad);
                    self.load_queue.pop_front();
                    self.stats.config_words += 1;
                    return true;
                }
                if cfg.fault == Some(FaultKind::CorruptConfig) && left == 0 {
                    cfg.state = ConfigState::Faulted(FaultKind::CorruptConfig);
                    self.load_queue.pop_front();
                    self.stats.config_words += 1;
                    return true;
                }
            }
            if left == 0 {
                cfg.state = ConfigState::Running;
                finished = true;
            }
        }
        self.stats.config_words += config_words_streamed;
        if finished {
            self.stats.configs_loaded += 1;
            self.load_queue.pop_front();
            // A stalled configuration reports Running but its objects are
            // never enabled: zero fires and no error — detectable only by
            // the zero-fire watchdog above the array.
            #[cfg(feature = "faults")]
            if self.configs[at].fault == Some(FaultKind::StallConfig) {
                return true;
            }
            self.configs[at].enabled = true;
            self.wake(at);
        }
        true
    }
}
