//! The compile-time half of the configuration path.
//!
//! [`Array::configure`](crate::Array::configure) used to do everything at
//! once: compute the placement footprint, resolve every port of every node
//! into channel endpoints (through per-call `HashMap`s), and stream the
//! result over the configuration bus. The first two steps depend only on
//! the netlist, never on the array the configuration lands on — so a
//! [`CompiledConfig`] captures them once, and
//! [`Array::configure_compiled`](crate::Array::configure_compiled) pays
//! only the load. A configuration manager can therefore compile a netlist
//! a single time and share the result (behind an `Arc`) across every array
//! in a worker pool, the way the XPP tool flow compiles NML source once
//! and downloads the binary configuration to any number of devices.
//!
//! The compiled form is also what the array *executes*: the visit list
//! (one micro-op per object, ports resolved), the wake adjacency and the
//! port map are part of the shared program, and a loaded configuration
//! keeps its state in the program's numbering — so the steady-state
//! schedule of a configuration is a compile artifact, not something a
//! running array has to discover (see [`crate::schedule`]).

use std::collections::HashMap;
use std::sync::Arc;

use crate::array::fire::Micro;
use crate::array::CONFIG_CYCLES_PER_OBJECT;
use crate::netlist::{EdgeSpec, EvEdgeSpec, Netlist};
use crate::object::ObjectKind;
use crate::place::Placement;

/// Direction of a named external port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PortDir {
    DataIn,
    DataOut,
    EvIn,
    EvOut,
}

/// One node of a compiled configuration: its behaviour plus flattened
/// port→channel maps in *netlist-local* channel numbering (index into the
/// configuration's own edge lists) — the form the [`Micro`] visit list is
/// packed from.
#[derive(Debug)]
pub(crate) struct CompiledNode {
    pub(crate) kind: ObjectKind,
    pub(crate) label: String,
    pub(crate) din: [Option<u32>; 3],
    pub(crate) dout: [Vec<u32>; 2],
    pub(crate) evin: [Option<u32>; 2],
    pub(crate) evout: [Vec<u32>; 1],
}

/// A netlist compiled down to everything an [`Array`](crate::Array) needs
/// at load time and at every cycle after: the placement footprint, the
/// channel templates and the per-object visit list.
///
/// Compiling is the expensive, array-independent half of configuration;
/// loading a `CompiledConfig` onto an array only allocates resources and
/// streams the serial configuration bus. Compile once, load anywhere —
/// including concurrently on many arrays via `Arc<CompiledConfig>`.
///
/// # Example
///
/// ```
/// use xpp_array::{AluOp, Array, CompiledConfig, NetlistBuilder, Word};
///
/// # fn main() -> Result<(), xpp_array::Error> {
/// let mut nl = NetlistBuilder::new("inc");
/// let a = nl.input("a");
/// let k = nl.constant(Word::new(1));
/// let y = nl.alu(AluOp::Add, a, k);
/// nl.output("y", y);
/// let compiled = CompiledConfig::compile(&nl.build()?);
///
/// // The same compiled configuration loads onto any number of arrays.
/// for _ in 0..2 {
///     let mut array = Array::xpp64a();
///     let cfg = array.configure_compiled(&compiled)?;
///     array.push_input(cfg, "a", [Word::new(41)])?;
///     array.run_until_idle(1_000)?;
///     assert_eq!(array.drain_output(cfg, "y")?, vec![Word::new(42)]);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledConfig {
    /// Shared, immutable: `Clone` and every load hand out the same
    /// `Arc`, so a load allocates only the configuration's mutable state.
    pub(crate) program: Arc<Program>,
}

/// What [`CompiledConfig::compile`] produces, in netlist-local numbering
/// throughout: object `n` is node `n`, data/event channel `k` is edge `k`
/// of the respective list. A loaded configuration owns its channels and
/// object state as dense vectors in exactly this numbering, so nothing
/// here is translated, rebased or copied at load time — the array steps a
/// configuration straight off the shared program.
#[derive(Debug)]
pub(crate) struct Program {
    pub(crate) name: String,
    pub(crate) placement: Placement,
    pub(crate) load_cycles: u64,
    pub(crate) d_edges: Vec<EdgeSpec>,
    pub(crate) e_edges: Vec<EvEdgeSpec>,
    pub(crate) nodes: Vec<CompiledNode>,
    /// External port name → (node, direction).
    pub(crate) ports: HashMap<String, (usize, PortDir)>,
    /// The configuration's schedule in its always-sound form — *every
    /// object, every cycle*: one micro-op per node, in node order, ports
    /// pre-resolved. The dense stepper fires the whole list each cycle; the
    /// ready-list stepper indexes it by woken object.
    pub(crate) micro: Vec<Micro>,
    /// Fan-out channel table the micro-ops' output ranges index.
    pub(crate) fan: Vec<u32>,
    /// Per data channel, its (producer, consumer) objects — whom a commit
    /// transition wakes.
    pub(crate) d_adj: Vec<(u32, u32)>,
    /// Per event channel, its (producer, consumer) objects.
    pub(crate) e_adj: Vec<(u32, u32)>,
}

impl CompiledConfig {
    /// Compiles a netlist: computes its placement footprint, resolves
    /// every port into local channel indices and packs the visit list.
    pub fn compile(netlist: &Netlist) -> Self {
        let placement = Placement::of(netlist);

        // Port → local-channel maps, built once here instead of on every
        // Array::configure call.
        let mut d_map: HashMap<(usize, usize), Vec<u32>> = HashMap::new();
        let mut d_in: HashMap<(usize, usize), u32> = HashMap::new();
        for (k, e) in netlist.data_edges.iter().enumerate() {
            d_map.entry(e.from).or_default().push(k as u32);
            d_in.insert(e.to, k as u32);
        }
        let mut e_map: HashMap<(usize, usize), Vec<u32>> = HashMap::new();
        let mut e_in: HashMap<(usize, usize), u32> = HashMap::new();
        for (k, e) in netlist.ev_edges.iter().enumerate() {
            e_map.entry(e.from).or_default().push(k as u32);
            e_in.insert(e.to, k as u32);
        }

        let mut nodes = Vec::with_capacity(netlist.nodes.len());
        let mut ports = HashMap::new();
        for (n, spec) in netlist.nodes.iter().enumerate() {
            let shape = spec.kind.shape();
            let mut din = [None; 3];
            for (p, slot) in din.iter_mut().enumerate().take(shape.din) {
                *slot = d_in.get(&(n, p)).copied();
            }
            let mut dout: [Vec<u32>; 2] = Default::default();
            for (p, list) in dout.iter_mut().enumerate().take(shape.dout) {
                *list = d_map.get(&(n, p)).cloned().unwrap_or_default();
            }
            let mut evin = [None; 2];
            for (p, slot) in evin.iter_mut().enumerate().take(shape.evin) {
                *slot = e_in.get(&(n, p)).copied();
            }
            let mut evout: [Vec<u32>; 1] = Default::default();
            for (p, list) in evout.iter_mut().enumerate().take(shape.evout) {
                *list = e_map.get(&(n, p)).cloned().unwrap_or_default();
            }
            let dir = match &spec.kind {
                ObjectKind::Input(name) => Some((name, PortDir::DataIn)),
                ObjectKind::Output(name) => Some((name, PortDir::DataOut)),
                ObjectKind::InputEvent(name) => Some((name, PortDir::EvIn)),
                ObjectKind::OutputEvent(name) => Some((name, PortDir::EvOut)),
                _ => None,
            };
            if let Some((name, dir)) = dir {
                ports.insert(name.clone(), (n, dir));
            }
            nodes.push(CompiledNode {
                kind: spec.kind.clone(),
                label: spec.label.clone(),
                din,
                dout,
                evin,
                evout,
            });
        }

        let mut fan = Vec::new();
        let micro = nodes.iter().map(|n| Micro::pack(n, &mut fan)).collect();
        let adj = |from: (usize, usize), to: (usize, usize)| (from.0 as u32, to.0 as u32);
        CompiledConfig {
            program: Arc::new(Program {
                name: netlist.name().to_string(),
                placement,
                load_cycles: netlist.object_count() as u64 * CONFIG_CYCLES_PER_OBJECT,
                d_adj: netlist
                    .data_edges
                    .iter()
                    .map(|e| adj(e.from, e.to))
                    .collect(),
                e_adj: netlist.ev_edges.iter().map(|e| adj(e.from, e.to)).collect(),
                d_edges: netlist.data_edges.clone(),
                e_edges: netlist.ev_edges.clone(),
                nodes,
                ports,
                micro,
                fan,
            }),
        }
    }

    /// The configuration name.
    pub fn name(&self) -> &str {
        &self.program.name
    }

    /// The precomputed placement footprint.
    pub fn placement(&self) -> &Placement {
        &self.program.placement
    }

    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.program.nodes.len()
    }

    /// Serial configuration-bus cycles a load of this configuration costs.
    pub fn load_cycles(&self) -> u64 {
        self.program.load_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::object::AluOp;

    fn pipeline() -> Netlist {
        let mut nl = NetlistBuilder::new("p");
        let a = nl.input("a");
        let b = nl.input("b");
        let y = nl.alu(AluOp::Add, a, b);
        nl.output("y", y);
        nl.build().unwrap()
    }

    #[test]
    fn compile_captures_footprint_and_ports() {
        let nl = pipeline();
        let c = CompiledConfig::compile(&nl);
        assert_eq!(c.name(), "p");
        assert_eq!(c.object_count(), nl.object_count());
        assert_eq!(c.load_cycles(), nl.object_count() as u64 * 3);
        assert_eq!(c.placement().counts, Placement::of(&nl).counts);
        assert_eq!(c.program.ports.len(), 3, "a, b, y");
        // The ALU node reads both data edges and drives the output edge.
        let alu = c
            .program
            .nodes
            .iter()
            .find(|n| matches!(n.kind, ObjectKind::Alu(_)))
            .unwrap();
        assert!(alu.din[0].is_some() && alu.din[1].is_some());
        assert_eq!(alu.dout[0].len(), 1);
    }
}
