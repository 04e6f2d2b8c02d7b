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
//! The compiled form is also what the array *executes*. `compile` lowers
//! the objects into *runs*: grouped by firing rule (one group per
//! `AluOp`/`UnaryOp`, gated counters apart), each object an op whose ports
//! are resolved to slots of the configuration's channel slab with fan-out
//! inline, so the stepper runs one monomorphic loop per run instead of
//! deciding per object what it is.
//! The slab template, the ops and the runs are part of the shared program,
//! and a loaded configuration keeps its state in the program's numbering —
//! so the steady-state schedule of a configuration is a compile artifact,
//! not something a running array has to discover (see [`crate::schedule`]).

use std::collections::HashMap;
use std::sync::Arc;

#[cfg(any(test, feature = "reference"))]
use crate::array::fire::Micro;
use crate::array::ObjState;
use crate::array::CONFIG_CYCLES_PER_OBJECT;
use crate::channel::Slab;
use crate::netlist::Netlist;
use crate::object::{AluOp, ObjectKind, UnaryOp};
use crate::place::Placement;
use crate::word::Word;

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
/// configuration's own edge lists) — the form both the [`Op`]s and the
/// reference stepper's visit list are lowered from.
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

/// What a [`Run`]'s objects are: one firing rule, split as far as its loop
/// body specialises — one kind per `AluOp` and per `UnaryOp`, whatever its
/// constants (they ride in the [`Op`], so every `AddK` of a configuration
/// shares one run), and gated counters apart from free-running ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Kind {
    Add,
    Sub,
    Mul,
    MulShr,
    And,
    Or,
    Xor,
    Min,
    Max,
    Lt,
    Eq,
    Shl,
    Shr,
    Pass,
    Neg,
    Abs,
    ShlK,
    ShrK,
    AddK,
    MulKShr,
    AndK,
    XorK,
    EqK,
    LtK,
    GeK,
    Const,
    /// A counter; its op's `s` is 1 if the value output is connected (one
    /// without it only ever consumes go events).
    Counter,
    GatedCounter,
    Select,
    Merge,
    Demux,
    Swap,
    Gate,
    AccumDump,
    ToEvent,
    ToData,
    EventNot,
    EventAnd,
    EventOr,
    Ram,
    FifoRing,
    /// A plain FIFO; its depth limit is the op's `s`.
    Fifo,
    Input,
    Output,
    InputEvent,
    OutputEvent,
}

impl Kind {
    /// The run an object of `kind` with these outputs steps in and the
    /// constants its op carries (`k`, `s`); `None` if it can never fire (a
    /// constant, a ring FIFO or a free-running counter nobody reads).
    fn of(kind: &ObjectKind, outputs: &[Vec<u32>; 2]) -> Option<(Kind, Word, u32)> {
        use {AluOp as A, Kind as K, UnaryOp as U};
        let emits = !outputs[0].is_empty();
        let z = Word::ZERO;
        let plain = |kind| Some((kind, z, 0));
        match *kind {
            ObjectKind::Alu(op) => match op {
                A::Add => plain(K::Add),
                A::Sub => plain(K::Sub),
                A::Mul => plain(K::Mul),
                A::MulShr(s) => Some((K::MulShr, z, s)),
                A::And => plain(K::And),
                A::Or => plain(K::Or),
                A::Xor => plain(K::Xor),
                A::Min => plain(K::Min),
                A::Max => plain(K::Max),
                A::Lt => plain(K::Lt),
                A::Eq => plain(K::Eq),
                A::Shl => plain(K::Shl),
                A::Shr => plain(K::Shr),
            },
            ObjectKind::Unary(op) => match op {
                U::Pass => plain(K::Pass),
                U::Neg => plain(K::Neg),
                U::Abs => plain(K::Abs),
                U::ShlK(s) => Some((K::ShlK, z, s)),
                U::ShrK(s) => Some((K::ShrK, z, s)),
                U::AddK(k) => Some((K::AddK, k, 0)),
                U::MulKShr(k, s) => Some((K::MulKShr, k, s)),
                U::AndK(k) => Some((K::AndK, k, 0)),
                U::XorK(k) => Some((K::XorK, k, 0)),
                U::EqK(k) => Some((K::EqK, k, 0)),
                U::LtK(k) => Some((K::LtK, k, 0)),
                U::GeK(k) => Some((K::GeK, k, 0)),
            },
            ObjectKind::Const(k) if emits => Some((K::Const, k, 0)),
            ObjectKind::Counter(cfg) if cfg.gated => Some((K::GatedCounter, z, u32::from(emits))),
            ObjectKind::Counter(_) if emits => Some((K::Counter, z, 1)),
            ObjectKind::Select => plain(K::Select),
            ObjectKind::Merge => plain(K::Merge),
            ObjectKind::Demux => plain(K::Demux),
            ObjectKind::Swap => plain(K::Swap),
            ObjectKind::Gate => plain(K::Gate),
            ObjectKind::AccumDump => plain(K::AccumDump),
            ObjectKind::ToEvent => plain(K::ToEvent),
            ObjectKind::ToData => plain(K::ToData),
            ObjectKind::EventNot => plain(K::EventNot),
            ObjectKind::EventAnd => plain(K::EventAnd),
            ObjectKind::EventOr => plain(K::EventOr),
            ObjectKind::Ram { .. } => plain(K::Ram),
            ObjectKind::RamFifo { ring: true, .. } if emits => plain(K::FifoRing),
            ObjectKind::RamFifo {
                ring: false, depth, ..
            } => Some((
                K::Fifo,
                z,
                u32::try_from(depth).expect("FIFO depth fits u32"),
            )),
            ObjectKind::Input(_) => plain(K::Input),
            ObjectKind::Output(_) => plain(K::Output),
            ObjectKind::InputEvent(_) => plain(K::InputEvent),
            ObjectKind::OutputEvent(_) => plain(K::OutputEvent),
            ObjectKind::Const(_) | ObjectKind::Counter(_) | ObjectKind::RamFifo { .. } => None,
        }
    }
}

/// One object as its run steps it, every port a slab slot.
///
/// Inputs are the node's data inputs in port order, then its event inputs;
/// outputs likewise (so a counter's value is `o[0]` and its wrap event
/// `o[1]`, a converter's event output `o[0]`). An unconnected port is the
/// slab's null channel. How an output port lists its channels depends on
/// the run's [`Arity`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    pub(crate) i: [u32; 3],
    pub(crate) o: [[u32; 2]; 2],
    /// The object's [`ObjState`] slot (stateful rules only).
    pub(crate) state: u32,
    /// The word constant of a `Const` or a `UnaryOp`.
    pub(crate) k: Word,
    /// The shift of an `AluOp`/`UnaryOp`, or a FIFO's depth limit.
    pub(crate) s: u32,
}

/// How many channels the widest output port of an op drives, which fixes
/// how [`Op::o`] names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Arity {
    /// At most one: `[channel, null]`.
    One,
    /// Two: `[channel, channel]` (or the null channel for a port with
    /// fewer).
    Two,
    /// More than two: `[start, len]` of the program's fan table.
    Wide,
}

/// A stretch of the program's ops that share one [`Kind`] and one
/// [`Arity`], stepped by one monomorphic loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    pub(crate) kind: Kind,
    pub(crate) arity: Arity,
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// What [`CompiledConfig::compile`] produces. Object `n` is node `n`; a
/// loaded configuration owns a copy of the channel slab template, the
/// states of the stateful objects and one fire counter per op, all in the
/// numbering fixed here, so nothing is translated, rebased or copied at
/// load time beyond those — the array steps a configuration straight off
/// the shared program.
#[derive(Debug)]
pub(crate) struct Program {
    pub(crate) name: String,
    pub(crate) placement: Placement,
    pub(crate) load_cycles: u64,
    pub(crate) nodes: Vec<CompiledNode>,
    /// External port name → ([`ObjState`] slot, direction).
    pub(crate) ports: HashMap<String, (usize, PortDir)>,
    /// Every channel with its initial tokens: data edge `k` is slot `k`,
    /// event edge `k` slot `data edges + k`, then the null channel.
    pub(crate) slab: Slab,
    /// The node of each [`ObjState`] slot.
    pub(crate) stateful: Vec<u32>,
    /// The ops, run by run; ops past the last run never fire.
    pub(crate) ops: Vec<Op>,
    /// The node of each op: fire counters are kept in op order.
    pub(crate) order: Vec<u32>,
    pub(crate) runs: Vec<Run>,
    /// Fan-out table of the wide runs' output ports.
    pub(crate) fan: Vec<u32>,
    /// The reference stepper's visit list — every object in node order —
    /// and the fan table its output ranges index.
    #[cfg(any(test, feature = "reference"))]
    pub(crate) micro: Vec<Micro>,
    #[cfg(any(test, feature = "reference"))]
    pub(crate) micro_fan: Vec<u32>,
}

impl CompiledConfig {
    /// Compiles a netlist: computes its placement footprint, lays out its
    /// channel slab, resolves every port into a slab slot and lowers the
    /// objects into runs.
    ///
    /// # Panics
    ///
    /// Panics if a channel is deeper than 255 tokens.
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

        let d_slots = netlist.data_edges.len() as u32;
        let event_tokens: Vec<Vec<Word>> = (netlist.ev_edges.iter())
            .map(|e| e.initial.iter().map(|&b| Word::new(i32::from(b))).collect())
            .collect();
        let slab = Slab::new(
            (netlist.data_edges.iter())
                .map(|e| (e.capacity, &e.initial[..]))
                .chain(
                    netlist
                        .ev_edges
                        .iter()
                        .zip(&event_tokens)
                        .map(|(e, t)| (e.capacity, &t[..])),
                ),
        );
        let stateful: Vec<u32> = (0..nodes.len() as u32)
            .filter(|&n| ObjState::stateful(&nodes[n as usize].kind))
            .collect();
        // A stateless object's slot is `u32::MAX`, the reference's NO_CHAN.
        let mut state_of = vec![u32::MAX; nodes.len()];
        for (slot, &n) in stateful.iter().enumerate() {
            state_of[n as usize] = slot as u32;
        }
        for (slot, _) in ports.values_mut() {
            *slot = state_of[*slot] as usize;
        }
        let (ops, order, runs, fan) = lower(&nodes, &state_of, d_slots, slab.null());
        #[cfg(any(test, feature = "reference"))]
        let (micro, micro_fan) = {
            let mut op_of = vec![0; nodes.len()];
            for (op, &n) in order.iter().enumerate() {
                op_of[n as usize] = op as u32;
            }
            let mut fan = Vec::new();
            let micro = (nodes.iter().enumerate())
                .map(|(n, node)| Micro::pack(node, d_slots, state_of[n], op_of[n], &mut fan))
                .collect();
            (micro, fan)
        };
        CompiledConfig {
            program: Arc::new(Program {
                name: netlist.name().to_string(),
                placement,
                load_cycles: netlist.object_count() as u64 * CONFIG_CYCLES_PER_OBJECT,
                nodes,
                ports,
                slab,
                stateful,
                ops,
                order,
                runs,
                fan,
                #[cfg(any(test, feature = "reference"))]
                micro,
                #[cfg(any(test, feature = "reference"))]
                micro_fan,
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

/// Lowers the nodes into runs: ops grouped by ([`Kind`], [`Arity`]), runs in
/// the order their first object appears, objects in node order within a
/// run, and the objects that can never fire after the last run. Returns
/// (ops, node of each op, runs, wide fan table).
fn lower(
    nodes: &[CompiledNode],
    state_of: &[u32],
    d_slots: u32,
    null: u32,
) -> (Vec<Op>, Vec<u32>, Vec<Run>, Vec<u32>) {
    let mut groups: Vec<((Kind, Arity), Vec<u32>)> = Vec::new();
    let mut inert = Vec::new();
    let mut io = Vec::with_capacity(nodes.len());
    for (n, node) in nodes.iter().enumerate() {
        let shape = node.kind.shape();
        let ev = |c: &u32| d_slots + c;
        let inputs: Vec<u32> = (node.din.iter().take(shape.din))
            .map(|c| c.unwrap_or(null))
            .chain(
                node.evin
                    .iter()
                    .take(shape.evin)
                    .map(|c| c.as_ref().map_or(null, ev)),
            )
            .collect();
        let mut outputs: [Vec<u32>; 2] = Default::default();
        let ports = (node.dout.iter().take(shape.dout).cloned()).chain(
            node.evout
                .iter()
                .take(shape.evout)
                .map(|l| l.iter().map(ev).collect()),
        );
        for (slot, port) in outputs.iter_mut().zip(ports) {
            *slot = port;
        }
        let arity = match outputs.iter().map(Vec::len).max() {
            Some(0 | 1) | None => Arity::One,
            Some(2) => Arity::Two,
            Some(_) => Arity::Wide,
        };
        let (k, s) = match Kind::of(&node.kind, &outputs) {
            Some((kind, k, s)) => {
                match groups.iter_mut().find(|(key, _)| *key == (kind, arity)) {
                    Some((_, members)) => members.push(n as u32),
                    None => groups.push(((kind, arity), vec![n as u32])),
                }
                (k, s)
            }
            None => {
                inert.push(n as u32);
                (Word::ZERO, 0)
            }
        };
        io.push((inputs, outputs, k, s));
    }

    let (mut ops, mut order, mut runs, mut fan) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut emit = |n: u32, arity: Arity, ops: &mut Vec<Op>| {
        let (inputs, outputs, k, s) = &io[n as usize];
        let mut i = [null; 3];
        i[..inputs.len()].copy_from_slice(inputs);
        let o = outputs.clone().map(|port| {
            if arity == Arity::Wide {
                let start = u32::try_from(fan.len()).expect("fan table fits u32");
                fan.extend_from_slice(&port);
                [start, port.len() as u32]
            } else {
                [0, 1].map(|k| port.get(k).copied().unwrap_or(null))
            }
        });
        ops.push(Op {
            i,
            o,
            state: state_of[n as usize],
            k: *k,
            s: *s,
        });
        order.push(n);
    };
    for ((kind, arity), members) in groups {
        let start = ops.len() as u32;
        for n in members {
            emit(n, arity, &mut ops);
        }
        runs.push(Run {
            kind,
            arity,
            start,
            end: ops.len() as u32,
        });
    }
    for n in inert {
        emit(n, Arity::One, &mut ops);
    }
    (ops, order, runs, fan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

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

    /// Objects group into one run per rule whatever their constants, fan-out
    /// splits a rule by arity, and an object that can never fire steps in no
    /// run; every node keeps exactly one op.
    #[test]
    fn lowering_groups_objects_into_runs() {
        let mut nl = NetlistBuilder::new("runs");
        let x = nl.input("x");
        let a = nl.unary(UnaryOp::AddK(Word::new(1)), x);
        let b = nl.unary(UnaryOp::AddK(Word::new(2)), a);
        let c = nl.unary(UnaryOp::ShrK(1), b);
        // `c` feeds three consumers: its run is wide.
        for name in ["y0", "y1", "y2"] {
            let d = nl.unary(UnaryOp::ShrK(2), c);
            nl.output(name, d);
        }
        let _unread = nl.constant(Word::new(7));
        let program = CompiledConfig::compile(&nl.build().unwrap()).program;
        let runs: Vec<_> = (program.runs.iter())
            .map(|r| (r.kind, r.arity, r.end - r.start))
            .collect();
        assert_eq!(
            runs,
            [
                (Kind::Input, Arity::One, 1),
                (Kind::AddK, Arity::One, 2),
                (Kind::ShrK, Arity::Wide, 1),
                (Kind::ShrK, Arity::One, 3),
                (Kind::Output, Arity::One, 3),
            ]
        );
        // The constants ride in the ops; the unread constant comes last.
        let addk: Vec<_> = program.ops[1..3].iter().map(|op| op.k).collect();
        assert_eq!(addk, [Word::new(1), Word::new(2)]);
        assert_eq!(program.ops.len(), program.nodes.len());
        let last = *program.order.last().unwrap() as usize;
        assert!(matches!(program.nodes[last].kind, ObjectKind::Const(_)));
        let mut order = program.order.clone();
        order.sort_unstable();
        assert!(order.iter().copied().eq(0..program.nodes.len() as u32));
        assert_eq!(program.fan.len(), 3);
    }
}
