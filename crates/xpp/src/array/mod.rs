//! The reconfigurable array runtime: configuration management, token-flow
//! simulation and streaming I/O.
//!
//! An [`Array`] models one XPP device. Configurations (validated
//! [`Netlist`](crate::Netlist)s) are loaded through a serial configuration
//! bus (taking [`CONFIG_CYCLES_PER_OBJECT`] cycles per object), occupy
//! physical resources while resident, and execute synchronously: every
//! cycle, every object of every *running* configuration fires if its token
//! handshake allows. The configuration manager enforces the paper's
//! protection rule — "configurations cannot be overwritten illegally" —
//! because resources held by a resident configuration are never handed to
//! another one.
//!
//! # One firing rule, three steppers
//!
//! What an object does when it fires is written once, in `fire::fire`. A
//! stepper only decides *which* objects to hand that function each cycle,
//! so steppers can differ in the objects they visit, never in what firing
//! does:
//!
//! * the **event-driven** stepper (`event`) — because objects fire only
//!   when a token arrives or output space frees up, a `Scheduler` keeps a
//!   ready list of objects whose adjacent channels moved tokens last cycle
//!   (plus any object touched by external I/O or a configuration load), and
//!   the commit phase walks only the channels that actually staged
//!   movement. Fire decisions depend solely on committed start-of-cycle
//!   channel state, so restricting the fire scan to woken objects is exact,
//!   not heuristic: an unwoken object could not have fired anyway;
//! * **schedule replay** (`replay`) — once the event stepper's fire
//!   sequence is verified periodic (see [`crate::schedule`]) the recorded
//!   objects are fired straight from a compiled op list, guarded per cycle;
//! * the original **scan-the-world** stepper (`reference`), retained behind
//!   the `reference` feature (and in tests) as the semantic oracle.
//!
//! # Module map
//!
//! | module      | holds                                                      |
//! |-------------|------------------------------------------------------------|
//! | `mod`       | [`Array`], its observers, streaming port I/O, `step`/`run` |
//! | `load`      | configure / delta / unload / preempt, the config bus       |
//! | `fire`      | the firing rules, object and micro-op representations      |
//! | `event`     | the ready-list stepper                                     |
//! | `replay`    | the replay stepper, promotion, slab remap, invalidation    |
//! | `reference` | the scan stepper (`cfg(any(test, feature = "reference"))`) |

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

use crate::channel::Channel;
use crate::compiled::PortDir;
use crate::error::{Error, Result};
use crate::place::{Geometry, ResourceCounts, ResourcePool};
use crate::schedule::{ScheduleEngine, ScheduleStats};
use crate::stats::ArrayStats;
use crate::word::{Event, Word};

mod event;
mod fire;
mod load;
#[cfg(any(test, feature = "reference"))]
mod reference;
mod replay;

use event::Scheduler;
use fire::{Micro, ObjState, RuntimeObject};
use load::LoadedConfig;

pub use load::LoadCheckpoint;
#[cfg(any(test, feature = "reference"))]
pub use reference::with_reference_stepper;

/// Configuration-bus cost: cycles needed to load one object's configuration
/// words.
pub const CONFIG_CYCLES_PER_OBJECT: u64 = 3;

thread_local! {
    static CAPTURE_SCHEDULES: std::cell::Cell<bool> = const { std::cell::Cell::new(true) };
}

/// Runs `f` with every [`Array`] constructed inside it fixed to schedule
/// capture `on` (or off). Capture is on by default; the golden-equivalence
/// suites use this to pin capture-forced-on and capture-forced-off runs
/// against each other and against the reference stepper.
///
/// Like `with_reference_stepper`, the choice is latched at construction
/// so arrays built by nested helpers are covered. It can still be changed
/// per array afterwards via [`Array::set_schedule_capture`].
pub fn with_schedule_capture<T>(on: bool, f: impl FnOnce() -> T) -> T {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            CAPTURE_SCHEDULES.with(|c| c.set(self.0));
        }
    }
    let _reset = Reset(CAPTURE_SCHEDULES.with(|c| c.replace(on)));
    f()
}

/// Handle to a loaded configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigId(u32);

impl ConfigId {
    /// The numeric id (stable for the lifetime of the array).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ConfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cfg{}", self.0)
    }
}

#[derive(Debug, Clone, Copy)]
struct Connection {
    from_obj: usize,
    to_obj: usize,
    event: bool,
    from_cfg: u32,
    to_cfg: u32,
}

/// A simulated XPP reconfigurable processing array.
///
/// # Example
///
/// ```
/// use xpp_array::{AluOp, Array, NetlistBuilder, Word};
///
/// # fn main() -> Result<(), xpp_array::Error> {
/// let mut nl = NetlistBuilder::new("doubler");
/// let input = nl.input("in");
/// let two = nl.constant(Word::new(2));
/// let out = nl.alu(AluOp::Mul, input, two);
/// nl.output("out", out);
///
/// let mut array = Array::xpp64a();
/// let cfg = array.configure(&nl.build()?)?;
/// array.push_input(cfg, "in", [1, 2, 3].map(Word::new))?;
/// array.run_until_idle(1_000)?;
/// let doubled: Vec<i32> = array.drain_output(cfg, "out")?.iter().map(|w| w.value()).collect();
/// assert_eq!(doubled, vec![2, 4, 6]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Array {
    geometry: Geometry,
    pool: ResourcePool,
    objects: Vec<Option<RuntimeObject>>,
    dchans: Vec<Option<Channel<Word>>>,
    echans: Vec<Option<Channel<Event>>>,
    /// Per data-channel (producer, consumer) object slots, filled at
    /// configure time — the wake adjacency.
    d_adj: Vec<(usize, usize)>,
    /// Per event-channel (producer, consumer) object slots.
    e_adj: Vec<(usize, usize)>,
    configs: BTreeMap<u32, LoadedConfig>,
    load_queue: VecDeque<u32>,
    connections: Vec<Connection>,
    next_id: u32,
    stats: ArrayStats,
    /// Fire totals of configurations that have been unloaded (live totals
    /// are aggregated from per-object counters on demand).
    retired_fires: HashMap<u32, u64>,
    sched: Scheduler,
    /// Data channels with staged movement this cycle (commit worklist).
    dirty_d: Vec<usize>,
    /// Event channels with staged movement this cycle.
    dirty_e: Vec<usize>,
    /// Reusable board-connection move buffers (keep their capacity so the
    /// steady-state step loop never allocates).
    board_d: Vec<Word>,
    board_e: Vec<bool>,
    /// Steady-state schedule capture/replay state machine (see the
    /// `schedule` module): observes the event stepper, captures periodic
    /// fire sequences, and drives the straight-line replay loop.
    replay: ScheduleEngine,
    /// Compiled form of the active schedule's fire ops (parallel to its
    /// flat op vector): ports pre-resolved from the object table, so the
    /// replay loop streams a dense op vector instead of chasing object
    /// structs every cycle. Rebuilt at each promotion, cleared on
    /// invalidation.
    replay_micro: Vec<Micro>,
    /// Fan-out channel table the compiled micro-ops' output ranges index.
    replay_fan: Vec<u32>,
    /// Per-slot fire counts accumulated by the replay loop (a dense
    /// side-car, so the hot loop never touches the
    /// object table for bookkeeping). Folded into `RuntimeObject::fires`
    /// on invalidation; the `&self` fire-count views add the pending
    /// deltas so observers never see a stale count.
    replay_fires: Vec<u64>,
    /// Dense channel register files for replay: at promotion every channel
    /// the schedule references is moved out of the sparse `dchans`/`echans`
    /// tables into these slabs (the vacated slots hold `None`) and the
    /// micro-ops are remapped to slab indices, so the replay loop runs
    /// `Option`-free over contiguous, cache-resident channel state.
    /// Invalidation moves every channel back before the event scheduler
    /// resumes; all channel-observing public APIs perturb (and therefore
    /// restore) first, so no reader ever sees a vacated slot.
    replay_dslab: Vec<Channel<Word>>,
    replay_eslab: Vec<Channel<Event>>,
    /// Slab index → original channel id, for the move-back at
    /// invalidation.
    replay_dsrc: Vec<u32>,
    replay_esrc: Vec<u32>,
    /// The commit signature remapped to slab indices, flat in phase order
    /// (`replay_comspan[phase]` holds the cumulative `(dcoms, ecoms)`
    /// ends). The replay commit loop streams these lists — committing
    /// exactly the recorded channels and comparing transition flags —
    /// instead of collecting dirty lists.
    replay_dcoms: Vec<u32>,
    replay_ecoms: Vec<u32>,
    replay_comspan: Vec<(u32, u32)>,
    #[cfg(any(test, feature = "reference"))]
    use_reference: bool,
    /// Shared fault scheduler consulted at every configuration load; `None`
    /// (the default) takes no fault path at all.
    #[cfg(feature = "faults")]
    injector: Option<std::sync::Arc<crate::fault::FaultInjector>>,
}

impl Array {
    /// Creates an array with the XPP-64A geometry.
    pub fn xpp64a() -> Self {
        Self::with_geometry(Geometry::xpp64a())
    }

    /// Creates an array with a custom geometry.
    pub fn with_geometry(geometry: Geometry) -> Self {
        #[cfg(any(test, feature = "reference"))]
        let use_reference = reference::forced();
        #[cfg(not(any(test, feature = "reference")))]
        let use_reference = false;
        let capture = !use_reference && CAPTURE_SCHEDULES.with(|c| c.get());
        Array {
            geometry,
            pool: ResourcePool::new(geometry),
            objects: Vec::new(),
            dchans: Vec::new(),
            echans: Vec::new(),
            d_adj: Vec::new(),
            e_adj: Vec::new(),
            configs: BTreeMap::new(),
            load_queue: VecDeque::new(),
            connections: Vec::new(),
            next_id: 0,
            stats: ArrayStats::new(),
            retired_fires: HashMap::new(),
            sched: Scheduler::default(),
            dirty_d: Vec::new(),
            dirty_e: Vec::new(),
            board_d: Vec::new(),
            board_e: Vec::new(),
            replay: ScheduleEngine::new(capture),
            replay_micro: Vec::new(),
            replay_fan: Vec::new(),
            replay_fires: Vec::new(),
            replay_dslab: Vec::new(),
            replay_eslab: Vec::new(),
            replay_dsrc: Vec::new(),
            replay_esrc: Vec::new(),
            replay_dcoms: Vec::new(),
            replay_ecoms: Vec::new(),
            replay_comspan: Vec::new(),
            #[cfg(any(test, feature = "reference"))]
            use_reference,
            #[cfg(feature = "faults")]
            injector: None,
        }
    }

    /// Enables or disables steady-state schedule capture (on by default;
    /// see [`with_schedule_capture`] for the construction-time latch).
    /// Turning capture off while a schedule is replaying invalidates it
    /// and falls back to the event scheduler.
    pub fn set_schedule_capture(&mut self, on: bool) {
        if !on {
            if self.replay.is_replaying() {
                self.invalidate_schedule(false);
            }
            self.replay.abort_capture();
        }
        self.replay.enabled = on;
    }

    /// Capture/replay side counters (not part of [`ArrayStats`], which is
    /// pinned bit-identical across all steppers).
    pub fn schedule_stats(&self) -> ScheduleStats {
        self.replay.stats()
    }

    /// True while `step` is replaying a captured steady-state schedule
    /// instead of running the event scheduler.
    pub fn schedule_replay_active(&self) -> bool {
        self.replay.is_replaying()
    }

    /// The array geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Accumulated activity statistics.
    pub fn stats(&self) -> ArrayStats {
        self.stats
    }

    /// Firings attributed to one configuration so far (counts of unloaded
    /// configurations remain queryable).
    pub fn config_fire_count(&self, cfg: ConfigId) -> u64 {
        match self.configs.get(&cfg.0) {
            Some(loaded) => self.live_fires(loaded),
            None => self.retired_fires.get(&cfg.0).copied().unwrap_or(0),
        }
    }

    /// Fire totals of every resident configuration, aggregated from the
    /// per-object counters.
    pub fn fires_by_config(&self) -> Vec<(ConfigId, u64)> {
        self.configs
            .iter()
            .map(|(&id, loaded)| (ConfigId(id), self.live_fires(loaded)))
            .collect()
    }

    fn live_fires(&self, loaded: &LoadedConfig) -> u64 {
        loaded
            .objects
            .iter()
            .filter(|&&o| self.objects[o].is_some())
            .map(|&o| self.object_fires(o))
            .sum()
    }

    /// Committed fire count of a live object slot: the object-table counter
    /// plus any delta still parked in the replay loop's side-car.
    fn object_fires(&self, slot: usize) -> u64 {
        let base = self.objects[slot].as_ref().map_or(0, |o| o.fires);
        base + self.replay_fires.get(slot).copied().unwrap_or(0)
    }

    /// Per-object fire counts of a configuration (label, fires) — the
    /// profiling view a hardware engineer uses to find a stalled pipeline
    /// stage.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchConfig`] if the id is stale.
    pub fn object_fire_counts(&self, cfg: ConfigId) -> Result<Vec<(String, u64)>> {
        let loaded = self.configs.get(&cfg.0).ok_or(Error::NoSuchConfig(cfg.0))?;
        Ok(loaded
            .objects
            .iter()
            .filter_map(|&o| self.objects[o].as_ref().map(|obj| (o, obj)))
            .map(|(o, obj)| (obj.label.clone(), self.object_fires(o)))
            .collect())
    }

    /// Currently free resources.
    pub fn free_resources(&self) -> ResourceCounts {
        self.pool.free()
    }

    /// Fraction of ALU-PAEs held by resident configurations.
    pub fn alu_utilization(&self) -> f64 {
        self.pool.alu_utilization()
    }

    // ---- streaming I/O --------------------------------------------------

    fn port(&self, cfg: ConfigId, name: &str, dir: PortDir) -> Result<usize> {
        let loaded = self.configs.get(&cfg.0).ok_or(Error::NoSuchConfig(cfg.0))?;
        match loaded.ports.get(name) {
            Some(&(obj, d)) if d == dir => Ok(obj),
            _ => Err(Error::UnknownPort(name.to_string())),
        }
    }

    /// Queues words on a named input port (buffered outside the array until
    /// the configuration consumes them).
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration or port does not exist.
    pub fn push_input(
        &mut self,
        cfg: ConfigId,
        name: &str,
        words: impl IntoIterator<Item = Word>,
    ) -> Result<()> {
        let obj = self.port(cfg, name, PortDir::DataIn)?;
        self.perturb_schedule();
        if let Some(RuntimeObject {
            state: ObjState::ExtInData(q),
            ..
        }) = self.objects[obj].as_mut()
        {
            q.extend(words);
            self.sched.wake(obj);
            Ok(())
        } else {
            Err(Error::UnknownPort(name.to_string()))
        }
    }

    /// Queues events on a named event input port.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration or port does not exist.
    pub fn push_input_events(
        &mut self,
        cfg: ConfigId,
        name: &str,
        events: impl IntoIterator<Item = bool>,
    ) -> Result<()> {
        let obj = self.port(cfg, name, PortDir::EvIn)?;
        self.perturb_schedule();
        if let Some(RuntimeObject {
            state: ObjState::ExtInEv(q),
            ..
        }) = self.objects[obj].as_mut()
        {
            q.extend(events);
            self.sched.wake(obj);
            Ok(())
        } else {
            Err(Error::UnknownPort(name.to_string()))
        }
    }

    /// Takes all words produced so far on a named output port.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration or port does not exist.
    pub fn drain_output(&mut self, cfg: ConfigId, name: &str) -> Result<Vec<Word>> {
        let obj = self.port(cfg, name, PortDir::DataOut)?;
        if let Some(RuntimeObject {
            state: ObjState::ExtOutData(v),
            ..
        }) = self.objects[obj].as_mut()
        {
            Ok(std::mem::take(v))
        } else {
            Err(Error::UnknownPort(name.to_string()))
        }
    }

    /// Takes all events produced so far on a named event output port.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration or port does not exist.
    pub fn drain_output_events(&mut self, cfg: ConfigId, name: &str) -> Result<Vec<bool>> {
        let obj = self.port(cfg, name, PortDir::EvOut)?;
        if let Some(RuntimeObject {
            state: ObjState::ExtOutEv(v),
            ..
        }) = self.objects[obj].as_mut()
        {
            Ok(std::mem::take(v))
        } else {
            Err(Error::UnknownPort(name.to_string()))
        }
    }

    /// Number of words waiting on an output port.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration or port does not exist.
    pub fn output_len(&self, cfg: ConfigId, name: &str) -> Result<usize> {
        let obj = self.port(cfg, name, PortDir::DataOut)?;
        if let Some(RuntimeObject {
            state: ObjState::ExtOutData(v),
            ..
        }) = self.objects[obj].as_ref()
        {
            Ok(v.len())
        } else {
            Err(Error::UnknownPort(name.to_string()))
        }
    }

    /// Routes an output port of one configuration into an input port of
    /// another — the board-level stream routing the evaluation platform's
    /// FPGA provides (Fig. 11). Tokens move once per cycle.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint does not exist or the directions
    /// do not match.
    pub fn connect(
        &mut self,
        from: ConfigId,
        from_port: &str,
        to: ConfigId,
        to_port: &str,
    ) -> Result<()> {
        let from_obj = self.port(from, from_port, PortDir::DataOut)?;
        let to_obj = self.port(to, to_port, PortDir::DataIn)?;
        self.perturb_schedule();
        self.connections.push(Connection {
            from_obj,
            to_obj,
            event: false,
            from_cfg: from.0,
            to_cfg: to.0,
        });
        Ok(())
    }

    /// Routes an event output port into an event input port of another
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint does not exist or the directions
    /// do not match.
    pub fn connect_events(
        &mut self,
        from: ConfigId,
        from_port: &str,
        to: ConfigId,
        to_port: &str,
    ) -> Result<()> {
        let from_obj = self.port(from, from_port, PortDir::EvOut)?;
        let to_obj = self.port(to, to_port, PortDir::EvIn)?;
        self.perturb_schedule();
        self.connections.push(Connection {
            from_obj,
            to_obj,
            event: true,
            from_cfg: from.0,
            to_cfg: to.0,
        });
        Ok(())
    }

    // ---- simulation -----------------------------------------------------

    /// Advances one clock cycle. Returns `true` if any activity occurred
    /// (an object fired, a load progressed, or a board connection moved
    /// tokens).
    pub fn step(&mut self) -> bool {
        #[cfg(any(test, feature = "reference"))]
        if self.use_reference {
            return self.step_reference();
        }
        if self.replay.is_replaying() {
            return self.step_replay();
        }
        self.step_event()
    }

    /// Board-level connections: move buffered tokens between external
    /// ports through the reusable scratch buffers (no per-cycle
    /// allocation). Returns `true` if any token moved.
    fn move_board_tokens(&mut self) -> bool {
        let mut active = false;
        for i in 0..self.connections.len() {
            let conn = self.connections[i];
            if conn.event {
                let mut scratch = std::mem::take(&mut self.board_e);
                if let Some(RuntimeObject {
                    state: ObjState::ExtOutEv(v),
                    ..
                }) = self.objects[conn.from_obj].as_mut()
                {
                    std::mem::swap(v, &mut scratch);
                }
                if !scratch.is_empty() {
                    active = true;
                    if let Some(RuntimeObject {
                        state: ObjState::ExtInEv(q),
                        ..
                    }) = self.objects[conn.to_obj].as_mut()
                    {
                        q.extend(scratch.drain(..));
                    } else {
                        scratch.clear();
                    }
                    self.sched.wake(conn.to_obj);
                }
                self.board_e = scratch;
            } else {
                let mut scratch = std::mem::take(&mut self.board_d);
                if let Some(RuntimeObject {
                    state: ObjState::ExtOutData(v),
                    ..
                }) = self.objects[conn.from_obj].as_mut()
                {
                    std::mem::swap(v, &mut scratch);
                }
                if !scratch.is_empty() {
                    active = true;
                    if let Some(RuntimeObject {
                        state: ObjState::ExtInData(q),
                        ..
                    }) = self.objects[conn.to_obj].as_mut()
                    {
                        q.extend(scratch.drain(..));
                    } else {
                        scratch.clear();
                    }
                    self.sched.wake(conn.to_obj);
                }
                self.board_d = scratch;
            }
        }
        active
    }

    /// Runs exactly `cycles` clock cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Runs until a full cycle passes with no activity, returning the number
    /// of cycles executed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Timeout`] if the array is still active after
    /// `budget` cycles (e.g. a free-running counter with an unbounded sink).
    pub fn run_until_idle(&mut self, budget: u64) -> Result<u64> {
        for n in 0..budget {
            if !self.step() {
                return Ok(n + 1);
            }
        }
        Err(Error::Timeout { budget })
    }

    /// Runs until `count` words are available on the named output port.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Timeout`] if the budget expires first, or an error
    /// if the port does not exist.
    pub fn run_until_output(
        &mut self,
        cfg: ConfigId,
        name: &str,
        count: usize,
        budget: u64,
    ) -> Result<u64> {
        for n in 0..budget {
            if self.output_len(cfg, name)? >= count {
                return Ok(n);
            }
            self.step();
        }
        if self.output_len(cfg, name)? >= count {
            Ok(budget)
        } else {
            Err(Error::Timeout { budget })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::object::AluOp;

    #[test]
    fn fires_by_config_matches_per_config_counts() {
        let mut array = Array::xpp64a();
        let mut nl = NetlistBuilder::new("p");
        let a = nl.input("a");
        let c = nl.constant(Word::new(1));
        let y = nl.alu(AluOp::Add, a, c);
        nl.output("y", y);
        let cfg = array.configure(&nl.build().unwrap()).unwrap();
        array.push_input(cfg, "a", (0..8).map(Word::new)).unwrap();
        array.run_until_idle(10_000).unwrap();
        let by_config = array.fires_by_config();
        assert_eq!(by_config.len(), 1);
        assert_eq!(by_config[0].0, cfg);
        assert_eq!(by_config[0].1, array.config_fire_count(cfg));
        assert!(by_config[0].1 > 0);
        // Unloading preserves the total under config_fire_count and drops
        // the config from the live view.
        let total = array.config_fire_count(cfg);
        array.unload(cfg).unwrap();
        assert_eq!(array.config_fire_count(cfg), total);
        assert!(array.fires_by_config().is_empty());
    }
}
