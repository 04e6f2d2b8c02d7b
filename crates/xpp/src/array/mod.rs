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
//! # One stepper and its oracle, two statements of every rule
//!
//! A stepper decides which objects to offer each cycle and fires them
//! against committed start-of-cycle channel state. Fire decisions read only
//! that state, and every channel has one producer and one consumer, so any
//! stepper that offers a *superset* of the fireable objects, in any order,
//! is exact (the argument is spelled out in [`crate::schedule`]):
//!
//! * the production stepper (`dense`) offers every object of every awake
//!   configuration, every cycle, as the compiled program's *runs* — one
//!   monomorphic loop per firing rule (and per `AluOp`/`UnaryOp`), ports
//!   resolved to channel slots with fan-out inline — then commits every
//!   channel. A pass that fires nothing puts the configuration to sleep;
//!   external input, a board route moving tokens in, or its load
//!   completing wakes it;
//! * the original **scan-the-world** stepper (`reference`), retained behind
//!   the `reference` feature (and in tests) as the semantic oracle, steps
//!   every enabled configuration every cycle, object by object in node
//!   order, through the general firing rule `fire::fire` — one `match` over
//!   every rule — and never sleeps.
//!
//! What firing does is thus written twice, independently: once per run in
//! `dense`, once in `fire::fire`. Both run over the same channel slab and
//! object state, and the golden suites hold them to the same outputs, fire
//! counts and statistics, so a wrong rule in either fails the lattice.
//!
//! # A configuration is self-contained
//!
//! Everything immutable about a configuration — runs, port wiring, port
//! names, word stream — is compiled once into a shared program, in the
//! netlist's own numbering. A resident configuration owns its channel slab,
//! the states of its stateful objects and its fire counts, so loading never
//! translates an index, unloading drops them, and the steppers run over
//! contiguous, `Option`-free state.
//!
//! # Module map
//!
//! | module      | holds                                                      |
//! |-------------|------------------------------------------------------------|
//! | `mod`       | [`Array`], its observers, streaming port I/O, `step`/`run` |
//! | `load`      | configure / unload, the config bus, object state           |
//! | `fire`      | the reference's general firing rule (with `reference`)     |
//! | `dense`     | the stepper: the run loops, the sleep rule, the wake path  |
//! | `reference` | the scan stepper (`cfg(any(test, feature = "reference"))`) |

use std::collections::{HashMap, VecDeque};
use std::fmt;

use crate::compiled::PortDir;
use crate::error::{Error, Result};
use crate::place::{Geometry, ResourceCounts, ResourcePool};
use crate::schedule::ScheduleStats;
use crate::stats::ArrayStats;
use crate::word::Word;

mod dense;
#[cfg(any(test, feature = "reference"))]
pub(crate) mod fire;
mod load;
#[cfg(any(test, feature = "reference"))]
mod reference;

use load::LoadedConfig;
pub(crate) use load::ObjState;

#[cfg(any(test, feature = "reference"))]
pub use reference::with_reference_stepper;

/// Configuration-bus cost: cycles needed to load one object's configuration
/// words.
pub const CONFIG_CYCLES_PER_OBJECT: u64 = 3;

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

/// A board-level route: (configuration id, state slot) of the output port
/// it drains and of the input port it feeds.
#[derive(Debug, Clone, Copy)]
struct Connection {
    from: (u32, usize),
    to: (u32, usize),
    event: bool,
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
    /// Resident configurations, sorted by id.
    configs: Vec<LoadedConfig>,
    load_queue: VecDeque<u32>,
    connections: Vec<Connection>,
    next_id: u32,
    stats: ArrayStats,
    /// Fire totals of configurations that have been unloaded (live totals
    /// are aggregated from per-object counters on demand).
    retired_fires: HashMap<u32, u64>,
    /// Reusable board-connection move buffers (keep their capacity so the
    /// steady-state step loop never allocates).
    board_d: Vec<Word>,
    board_e: Vec<bool>,
    /// Wakes, awake cycles and sleeps (see [`ScheduleStats`]).
    schedule: ScheduleStats,
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
        Array {
            geometry,
            pool: ResourcePool::new(geometry),
            configs: Vec::new(),
            load_queue: VecDeque::new(),
            connections: Vec::new(),
            next_id: 0,
            stats: ArrayStats::new(),
            retired_fires: HashMap::new(),
            board_d: Vec::new(),
            board_e: Vec::new(),
            schedule: ScheduleStats::default(),
            #[cfg(any(test, feature = "reference"))]
            use_reference: reference::forced(),
            #[cfg(feature = "faults")]
            injector: None,
        }
    }

    /// Has no effect. There is one production stepper, so there is
    /// nothing left to switch; the method survives because the frozen
    /// benchmark package calls it. (The name dates from when the fast path
    /// replayed captured schedules.)
    pub fn set_schedule_capture(&mut self, _on: bool) {}

    /// How the stepper slept and woke, in counts (not part of
    /// [`ArrayStats`], which is pinned bit-identical across both steppers).
    pub fn schedule_stats(&self) -> ScheduleStats {
        self.schedule
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
        match self.config(cfg) {
            Ok(loaded) => loaded.fires.iter().sum(),
            Err(_) => self.retired_fires.get(&cfg.0).copied().unwrap_or(0),
        }
    }

    /// Fire totals of every resident configuration, aggregated from the
    /// per-object counters.
    pub fn fires_by_config(&self) -> Vec<(ConfigId, u64)> {
        self.configs
            .iter()
            .map(|c| (ConfigId(c.id), c.fires.iter().sum()))
            .collect()
    }

    /// Per-object fire counts of a configuration (label, fires) — the
    /// profiling view a hardware engineer uses to find a stalled pipeline
    /// stage.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchConfig`] if the id is stale.
    pub fn object_fire_counts(&self, cfg: ConfigId) -> Result<Vec<(String, u64)>> {
        let loaded = self.config(cfg)?;
        let mut fires = vec![0; loaded.fires.len()];
        for (&node, &count) in loaded.program.order.iter().zip(&loaded.fires) {
            fires[node as usize] = count;
        }
        let labels = loaded.program.nodes.iter().map(|n| n.label.clone());
        Ok(labels.zip(fires).collect())
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

    fn config_index(&self, id: u32) -> Option<usize> {
        self.configs.binary_search_by_key(&id, |c| c.id).ok()
    }

    fn config(&self, cfg: ConfigId) -> Result<&LoadedConfig> {
        let at = self.config_index(cfg.0).ok_or(Error::NoSuchConfig(cfg.0))?;
        Ok(&self.configs[at])
    }

    /// Resolves a named external port of direction `dir` to (position of
    /// the configuration in `configs`, the port object's state slot). The
    /// position holds until the next configure or unload.
    fn port(&self, cfg: ConfigId, name: &str, dir: PortDir) -> Result<(usize, usize)> {
        let at = self.config_index(cfg.0).ok_or(Error::NoSuchConfig(cfg.0))?;
        match self.configs[at].program.ports.get(name) {
            Some(&(slot, d)) if d == dir => Ok((at, slot)),
            _ => Err(Error::UnknownPort(name.to_string())),
        }
    }

    /// The external buffer behind a resolved port. Pushing into an input
    /// port's queue must be followed by a wake of its configuration.
    fn port_state(&mut self, (at, slot): (usize, usize)) -> &mut ObjState {
        &mut self.configs[at].states[slot]
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
        let port = self.port(cfg, name, PortDir::DataIn)?;
        let ObjState::ExtInData(q) = self.port_state(port) else {
            return Err(Error::UnknownPort(name.to_string()));
        };
        q.extend(words);
        self.wake(port.0);
        Ok(())
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
        let port = self.port(cfg, name, PortDir::EvIn)?;
        let ObjState::ExtInEv(q) = self.port_state(port) else {
            return Err(Error::UnknownPort(name.to_string()));
        };
        q.extend(events);
        self.wake(port.0);
        Ok(())
    }

    /// Takes all words produced so far on a named output port.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration or port does not exist.
    pub fn drain_output(&mut self, cfg: ConfigId, name: &str) -> Result<Vec<Word>> {
        let port = self.port(cfg, name, PortDir::DataOut)?;
        match self.port_state(port) {
            ObjState::ExtOutData(v) => Ok(std::mem::take(v)),
            _ => Err(Error::UnknownPort(name.to_string())),
        }
    }

    /// Takes all events produced so far on a named event output port.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration or port does not exist.
    pub fn drain_output_events(&mut self, cfg: ConfigId, name: &str) -> Result<Vec<bool>> {
        let port = self.port(cfg, name, PortDir::EvOut)?;
        match self.port_state(port) {
            ObjState::ExtOutEv(v) => Ok(std::mem::take(v)),
            _ => Err(Error::UnknownPort(name.to_string())),
        }
    }

    /// Number of words waiting on an output port.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration or port does not exist.
    pub fn output_len(&self, cfg: ConfigId, name: &str) -> Result<usize> {
        let port = self.port(cfg, name, PortDir::DataOut)?;
        Ok(self.output_len_at(port))
    }

    /// Words waiting on a resolved data output port.
    #[inline]
    fn output_len_at(&self, (at, slot): (usize, usize)) -> usize {
        match &self.configs[at].states[slot] {
            ObjState::ExtOutData(v) => v.len(),
            _ => unreachable!("a DataOut port is an Output object"),
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
        let (_, from_slot) = self.port(from, from_port, PortDir::DataOut)?;
        let (_, to_slot) = self.port(to, to_port, PortDir::DataIn)?;
        self.connections.push(Connection {
            from: (from.0, from_slot),
            to: (to.0, to_slot),
            event: false,
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
        let (_, from_slot) = self.port(from, from_port, PortDir::EvOut)?;
        let (_, to_slot) = self.port(to, to_port, PortDir::EvIn)?;
        self.connections.push(Connection {
            from: (from.0, from_slot),
            to: (to.0, to_slot),
            event: true,
        });
        Ok(())
    }

    // ---- simulation -----------------------------------------------------

    /// Advances one clock cycle. Returns `true` if any activity occurred
    /// (an object fired, a load progressed, or a board connection moved
    /// tokens).
    pub fn step(&mut self) -> bool {
        self.stats.cycles += 1;
        let loading = !self.load_queue.is_empty() && self.tick_config_bus();
        #[cfg(any(test, feature = "reference"))]
        let fired = if self.use_reference {
            self.step_reference()
        } else {
            self.step_configs()
        };
        #[cfg(not(any(test, feature = "reference")))]
        let fired = self.step_configs();
        let routed = !self.connections.is_empty() && self.move_board_tokens();
        loading | fired | routed
    }

    /// Board-level connections: move buffered tokens between external
    /// ports through the reusable scratch buffers (no per-cycle
    /// allocation). Returns `true` if any token moved.
    fn move_board_tokens(&mut self) -> bool {
        let mut active = false;
        for i in 0..self.connections.len() {
            let Connection { from, to, event } = self.connections[i];
            // `unload` drops a configuration's connections with it.
            let from = (self.config_index(from.0).expect("source resident"), from.1);
            let to = (self.config_index(to.0).expect("sink resident"), to.1);
            let moved = if event {
                let mut scratch = std::mem::take(&mut self.board_e);
                if let ObjState::ExtOutEv(v) = self.port_state(from) {
                    std::mem::swap(v, &mut scratch);
                }
                let moved = !scratch.is_empty();
                if let ObjState::ExtInEv(q) = self.port_state(to) {
                    q.extend(scratch.drain(..));
                }
                scratch.clear();
                self.board_e = scratch;
                moved
            } else {
                let mut scratch = std::mem::take(&mut self.board_d);
                if let ObjState::ExtOutData(v) = self.port_state(from) {
                    std::mem::swap(v, &mut scratch);
                }
                let moved = !scratch.is_empty();
                if let ObjState::ExtInData(q) = self.port_state(to) {
                    q.extend(scratch.drain(..));
                }
                scratch.clear();
                self.board_d = scratch;
                moved
            };
            if moved {
                active = true;
                self.wake(to.0);
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
        // Resolved once: stepping neither adds nor removes configurations.
        let port = self.port(cfg, name, PortDir::DataOut)?;
        for n in 0..budget {
            if self.output_len_at(port) >= count {
                return Ok(n);
            }
            self.step();
        }
        if self.output_len_at(port) >= count {
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

    fn add_one() -> crate::netlist::Netlist {
        let mut nl = NetlistBuilder::new("p");
        let a = nl.input("a");
        let c = nl.constant(Word::new(1));
        let y = nl.alu(AluOp::Add, a, c);
        nl.output("y", y);
        nl.build().unwrap()
    }

    /// `run_until_output` resolves its port once, before the loop; each of
    /// its three errors still comes back in exactly the cases it always did.
    #[test]
    fn run_until_output_pins_its_three_errors() {
        let mut array = Array::xpp64a();
        let cfg = array.configure(&add_one()).unwrap();
        // UnknownPort: no such name, or a name of the wrong direction —
        // whatever the budget, and without stepping.
        for (port, budget) in [("nope", 10), ("a", 10), ("nope", 0)] {
            assert_eq!(
                array.run_until_output(cfg, port, 1, budget),
                Err(Error::UnknownPort(port.to_string()))
            );
        }
        assert_eq!(array.stats().cycles, 0);
        // Timeout: the budget is spent in full, then reported.
        assert_eq!(
            array.run_until_output(cfg, "y", 1, 50),
            Err(Error::Timeout { budget: 50 })
        );
        assert_eq!(array.stats().cycles, 50);
        assert_eq!(
            array.run_until_output(cfg, "y", 1, 0),
            Err(Error::Timeout { budget: 0 })
        );
        // Success reports the cycles stepped: some, then none once the
        // words are already waiting, and exactly the budget when the last
        // permitted step delivers.
        array.push_input(cfg, "a", (0..3).map(Word::new)).unwrap();
        let n = array.run_until_output(cfg, "y", 2, 1_000).unwrap();
        assert!(n > 0 && array.output_len(cfg, "y").unwrap() == 2);
        assert_eq!(array.run_until_output(cfg, "y", 2, 1_000), Ok(0));
        assert_eq!(array.run_until_output(cfg, "y", 2, 0), Ok(0));
        assert_eq!(array.run_until_output(cfg, "y", 3, 1), Ok(1));
        // NoSuchConfig: a stale id, again whatever the budget.
        array.unload(cfg).unwrap();
        for budget in [0, 10] {
            assert_eq!(
                array.run_until_output(cfg, "y", 1, budget),
                Err(Error::NoSuchConfig(cfg.index()))
            );
        }
    }

    #[test]
    fn fires_by_config_matches_per_config_counts() {
        let mut array = Array::xpp64a();
        let cfg = array.configure(&add_one()).unwrap();
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
