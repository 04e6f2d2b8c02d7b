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
//! So is whether it has a full-rate steady state, and the producer-first
//! op order and stream layout a block steps it in (`FullRate`).

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
use crate::stats::ArrayStats;
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

/// Picks one firing class of [`ArrayStats`].
type StatClass = fn(&mut ArrayStats) -> &mut u64;

impl Kind {
    /// The [`ArrayStats`] class an op of this kind books its fires in and
    /// how many fires its full action is (a FIFO's pop and push count two),
    /// or `None` if whether it fires, or how much, can turn on the values
    /// it reads or on its state: such an op has no full rate. (A counter's
    /// wrap event and an accumulate-and-dump's dump do; [`FullRate::plan`]
    /// admits them under the conditions that keep those still.)
    fn full_action(self) -> Option<(StatClass, u64)> {
        use Kind as K;
        let class: StatClass = match self {
            K::Mul | K::MulShr | K::MulKShr => |s| &mut s.mul_fires,
            K::AccumDump
            | K::Add
            | K::Sub
            | K::And
            | K::Or
            | K::Xor
            | K::Min
            | K::Max
            | K::Lt
            | K::Eq
            | K::Shl
            | K::Shr => |s| &mut s.alu_fires,
            K::Pass
            | K::Neg
            | K::Abs
            | K::ShlK
            | K::ShrK
            | K::AddK
            | K::AndK
            | K::XorK
            | K::EqK
            | K::LtK
            | K::GeK
            | K::Const
            | K::Select
            | K::Swap
            | K::ToData
            | K::Counter => |s| &mut s.reg_fires,
            K::ToEvent
            | K::EventNot
            | K::EventAnd
            | K::EventOr
            | K::InputEvent
            | K::OutputEvent => |s| &mut s.event_fires,
            K::FifoRing => |s| &mut s.fifo_fires,
            K::Fifo => return Some((|s| &mut s.fifo_fires, 2)),
            K::Input | K::Output => |s| &mut s.io_words,
            K::GatedCounter | K::Merge | K::Demux | K::Gate | K::Ram => return None,
        };
        Some((class, 1))
    }

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

impl Op {
    /// The channels output port `p` drives (a null channel among them
    /// stands for no channel).
    pub(crate) fn port<'a>(&'a self, p: usize, arity: Arity, fan: &'a [u32]) -> &'a [u32] {
        let [a, b] = self.o[p];
        match arity {
            Arity::One => &self.o[p][..1],
            Arity::Two => &self.o[p],
            Arity::Wide => &fan[a as usize..][..b as usize],
        }
    }
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
    /// Runs before this one step no object behind a dump (see [`lower`]).
    pub(crate) split: usize,
    /// Fan-out table of the wide runs' output ports.
    pub(crate) fan: Vec<u32>,
    /// The block plan, if the program is full-rate eligible.
    pub(crate) full: Option<FullRate>,
    /// The reference stepper's visit list — every object in node order —
    /// and the fan table its output ranges index.
    #[cfg(any(test, feature = "reference"))]
    pub(crate) micro: Vec<Micro>,
    #[cfg(any(test, feature = "reference"))]
    pub(crate) micro_fan: Vec<u32>,
}

/// Most cycles one block steps (see `array::block`); the streams are
/// sized for it.
pub(crate) const BLOCK: usize = 256;

/// One op as a block steps it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub(crate) op: u32,
    pub(crate) kind: Kind,
    pub(crate) arity: Arity,
    /// Fires of the op's full action, and the [`ArrayStats`] class they
    /// count in.
    pub(crate) fires: u64,
    pub(crate) class: StatClass,
    /// Whether the op takes tokens from one of its own outputs.
    pub(crate) looped: bool,
}

/// What a block needs of a *full-rate eligible* program: one whose every
/// run is of a kind whose full action — one token taken from each input,
/// one put on each output — does not depend on the values (ALU, unary,
/// event logic, converters, `Select`, `Swap`, `Const`, FIFOs, ring FIFOs,
/// data and event I/O, and free-running counters with no wrap consumer),
/// and whose channels form no cycle but self-loops.
///
/// In such a program, a pass in which every object does its full action
/// leaves every channel's occupancy and every FIFO's length as they were,
/// so the next pass is full too as long as every input queue holds a word.
///
/// An accumulate-and-dump is admitted too, with a *dump horizon*: every
/// ancestor of its dump event must be a free-running counter or a
/// stateless op (no FIFO, no port), and every object behind it (see
/// [`lower`]) must take its inputs from objects behind it or from its sums.
/// Between dumps it takes one product and one 0 event a pass and puts
/// nothing, and the objects behind it stay idle, so a full pass is one in
/// which every other object does its full action and those behind none.
/// Its dump event is a function of counter states and tokens already in
/// flight, so a block steps the dump chain (the first `chain` steps of
/// `order`) ahead over every pass it may take, and stops before the first
/// pass that would take a 1 event: the dump pass, and the drain behind it,
/// stay dense.
#[derive(Debug)]
pub(crate) struct FullRate {
    /// Fires of a full pass.
    pub(crate) fires: u64,
    /// Every op of the runs not behind a dump, each after the producers of
    /// its inputs (its own output aside), the dump chain first.
    pub(crate) order: Vec<Step>,
    /// The dump chain's steps: the ancestors of every dump event.
    pub(crate) chain: usize,
    /// The accumulate-and-dumps' event channels.
    pub(crate) dumps: Vec<u32>,
    /// The accumulate-and-dumps' output channels: one holding a sum means
    /// the objects behind it act on the next pass.
    pub(crate) sums: Vec<u32>,
    /// The channels a block streams: all but those into objects behind a
    /// dump, which a block leaves as they are.
    pub(crate) streamed: Vec<u32>,
    /// The state slots of the output ports behind a dump: a block puts no
    /// word on them.
    pub(crate) idle_ports: Vec<u32>,
    /// Where each channel slot's stream starts in the array's block
    /// scratch: its committed tokens, then its producer's outputs. A
    /// channel into a FIFO has room for the FIFO's queue in front of it.
    pub(crate) base: Vec<u32>,
    /// Scratch words the streams take.
    pub(crate) words: usize,
    /// The most channels one output port drives.
    pub(crate) widest: usize,
}

impl FullRate {
    /// The block plan of a program whose first `split` runs are not behind
    /// a dump, or `None` if it is not full-rate eligible.
    fn plan(ops: &[Op], runs: &[Run], split: usize, fan: &[u32], slab: &Slab) -> Option<FullRate> {
        let null = slab.null();
        let slots = null as usize + 1;
        let front = runs.get(split).map_or(ops.len(), |r| r.start as usize);
        let (mut fires, mut widest, mut steps) = (0, 0, Vec::new());
        let (mut producer, mut consumer) = (vec![u32::MAX; slots], vec![u32::MAX; slots]);
        let mut kinds = Vec::new();
        for (r, run) in runs.iter().enumerate() {
            let (class, n) = run.kind.full_action()?;
            for at in run.start..run.end {
                let op = &ops[at as usize];
                for p in 0..2 {
                    let port = op.port(p, run.arity, fan);
                    widest = widest.max(port.len());
                    port.iter().for_each(|&c| producer[c as usize] = at);
                }
                op.i.iter().for_each(|&c| consumer[c as usize] = at);
                kinds.push(run.kind);
                if r < split {
                    fires += n;
                    steps.push(Step {
                        op: at,
                        kind: run.kind,
                        arity: run.arity,
                        fires: n,
                        class,
                        looped: false,
                    });
                }
            }
        }
        (producer[null as usize], consumer[null as usize]) = (u32::MAX, u32::MAX);
        for step in &mut steps {
            let op = &ops[step.op as usize];
            step.looped = op.i.iter().any(|&c| producer[c as usize] == step.op);
        }

        // An object behind a dump reads only objects behind it and sums.
        let (mut dumps, mut sums) = (Vec::new(), Vec::new());
        let mut chain = vec![false; front];
        let mut ancestors = Vec::new();
        for (at, &kind) in kinds.iter().enumerate() {
            let op = &ops[at];
            if at >= front {
                let fed = |c: &u32| {
                    let from = producer[*c as usize] as usize;
                    *c == null || from >= front || kinds[from] == Kind::AccumDump
                };
                if !op.i.iter().all(fed) {
                    return None;
                }
            } else if kind == Kind::Counter {
                // A wrap event would put a token every `period` passes.
                if op.port(1, steps[at].arity, fan).iter().any(|&c| c != null) {
                    return None;
                }
            } else if kind == Kind::AccumDump {
                let dump = op.i[1];
                if !dumps.contains(&dump) {
                    dumps.push(dump);
                    ancestors.push(producer[dump as usize]);
                }
                let port = op.port(0, steps[at].arity, fan);
                sums.extend(port.iter().filter(|&&c| c != null));
            }
        }
        while let Some(at) = ancestors.pop() {
            // (An unconnected dump event never lets the accumulator fire.)
            let at = at as usize;
            if at >= front {
                return None;
            }
            if chain[at] {
                continue;
            }
            chain[at] = true;
            match kinds[at] {
                Kind::Counter => {}
                Kind::Fifo
                | Kind::FifoRing
                | Kind::Input
                | Kind::InputEvent
                | Kind::Output
                | Kind::OutputEvent
                | Kind::AccumDump => return None,
                _ => {
                    let inputs = ops[at].i.iter().filter(|&&c| c != null);
                    ancestors.extend(inputs.map(|&c| producer[c as usize]));
                }
            }
        }

        // Kahn's algorithm over the producer -> consumer edges (`steps[k]`
        // is op `k`'s: the runs cover the first ops, in order); a
        // self-loop is no edge, any other cycle leaves ops unplaced.
        let edge = |c: u32| {
            let (from, to) = (producer[c as usize], consumer[c as usize]);
            (from != u32::MAX && (to as usize) < front && from != to).then_some(to as usize)
        };
        let mut waiting = vec![0u32; steps.len()];
        (0..null).filter_map(edge).for_each(|k| waiting[k] += 1);
        let mut order: Vec<Step> = (steps.iter())
            .filter(|s| waiting[s.op as usize] == 0)
            .copied()
            .collect();
        let mut next = 0;
        while let Some(&Step { op, arity, .. }) = order.get(next) {
            next += 1;
            for p in 0..2 {
                for k in ops[op as usize]
                    .port(p, arity, fan)
                    .iter()
                    .filter_map(|&c| edge(c))
                {
                    waiting[k] -= 1;
                    if waiting[k] == 0 {
                        order.push(steps[k]);
                    }
                }
            }
        }
        if order.len() < steps.len() {
            return None;
        }
        // The chain reads only the chain, so it may go first.
        order.sort_by_key(|s| !chain[s.op as usize]);

        let mut base = vec![0; slots];
        let mut words = 0;
        for c in 0..null {
            let queue = match steps.get(consumer[c as usize] as usize) {
                Some(s) if s.kind == Kind::Fifo => ops[s.op as usize].s as usize,
                _ => 0,
            };
            base[c as usize] = u32::try_from(words + queue).expect("block streams fit u32");
            words += queue + slab.cap(c) + BLOCK;
        }
        let streamed = (0..null)
            .filter(|&c| {
                consumer[c as usize] == u32::MAX || (consumer[c as usize] as usize) < front
            })
            .collect();
        let idle_ports = (front..ops.len())
            .filter(|&at| matches!(kinds.get(at), Some(Kind::Output | Kind::OutputEvent)))
            .map(|at| ops[at].state)
            .collect();
        Some(FullRate {
            fires,
            chain: chain.iter().filter(|&&c| c).count(),
            order,
            dumps,
            sums,
            streamed,
            idle_ports,
            base,
            words,
            widest,
        })
    }
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
        let (ops, order, runs, split, fan) = lower(&nodes, &state_of, d_slots, slab.null());
        let full = FullRate::plan(&ops, &runs, split, &fan, &slab);
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
                split,
                fan,
                full,
                #[cfg(any(test, feature = "reference"))]
                micro,
                #[cfg(any(test, feature = "reference"))]
                micro_fan,
            }),
        }
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

/// What [`lower`] produces: the ops, the node of each op, the runs, how
/// many of them come before the first run of objects behind a dump, and
/// the wide fan table.
type Lowered = (Vec<Op>, Vec<u32>, Vec<Run>, usize, Vec<u32>);

/// Lowers the nodes into runs: ops grouped by ([`Kind`], [`Arity`]), runs in
/// the order their first object appears — those of the objects *behind a
/// dump* (downstream of an accumulate-and-dump's output, idle between its
/// dumps) after all others — objects in node order within a run, and the
/// objects that can never fire after the last run.
fn lower(nodes: &[CompiledNode], state_of: &[u32], d_slots: u32, null: u32) -> Lowered {
    let mut io = Vec::with_capacity(nodes.len());
    for node in nodes {
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
        let kind = Kind::of(&node.kind, &outputs);
        io.push((inputs, outputs, arity, kind));
    }

    let mut consumer = vec![u32::MAX; null as usize + 1];
    for (n, (inputs, ..)) in io.iter().enumerate() {
        inputs.iter().for_each(|&c| consumer[c as usize] = n as u32);
    }
    let mut behind = vec![false; nodes.len()];
    let mut reached: Vec<u32> = (io.iter())
        .filter(|(.., kind)| matches!(kind, Some((Kind::AccumDump, ..))))
        .flat_map(|(_, outputs, ..)| outputs[0].iter().copied())
        .collect();
    while let Some(c) = reached.pop() {
        let n = consumer[c as usize];
        if c != null && n != u32::MAX && !behind[n as usize] {
            behind[n as usize] = true;
            reached.extend(io[n as usize].1.iter().flatten().copied());
        }
    }

    let mut groups: Vec<((bool, Kind, Arity), Vec<u32>)> = Vec::new();
    let mut inert = Vec::new();
    for (n, &(_, _, arity, kind)) in io.iter().enumerate() {
        let Some((kind, ..)) = kind else {
            inert.push(n as u32);
            continue;
        };
        let key = (behind[n], kind, arity);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(n as u32),
            None => groups.push((key, vec![n as u32])),
        }
    }
    groups.sort_by_key(|((behind, ..), _)| *behind);
    let split = groups
        .iter()
        .take_while(|((behind, ..), _)| !behind)
        .count();

    let (mut ops, mut order, mut runs, mut fan) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut emit = |n: u32, arity: Arity, ops: &mut Vec<Op>| {
        let (inputs, outputs, _, kind) = &io[n as usize];
        let (k, s) = kind.map_or((Word::ZERO, 0), |(_, k, s)| (k, s));
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
            k,
            s,
        });
        order.push(n);
    };
    for ((_, kind, arity), members) in groups {
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
    (ops, order, runs, split, fan)
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
        assert_eq!(c.program.name, "p");
        assert_eq!(c.object_count(), nl.object_count());
        assert_eq!(c.load_cycles(), nl.object_count() as u64 * 3);
        assert_eq!(c.program.placement.counts, Placement::of(&nl).counts);
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

    /// A program is full-rate eligible exactly when every run is of a
    /// value-independent kind and no cycle but a self-loop closes; its
    /// order puts every producer before its consumers.
    #[test]
    fn full_rate_eligibility_and_order() {
        let plan = |nl: NetlistBuilder| CompiledConfig::compile(&nl.build().unwrap()).program;
        // x -> fifo -> add(x, fifo) -> acc (self-loop) -> y, built so node
        // order is not producer order.
        let mut nl = NetlistBuilder::new("eligible");
        let (step, acc_in, acc) = nl.alu_deferred(AluOp::Add);
        nl.output("y", acc);
        let x = nl.input("x");
        let fifo = nl.fifo(3, vec![Word::ZERO; 2]);
        nl.wire(x, fifo.input);
        let sum = nl.alu(AluOp::Add, x, fifo.output);
        nl.wire(sum, step);
        nl.wire_with(acc, acc_in, 2, vec![Word::ZERO]);
        let program = plan(nl);
        let full = program.full.as_ref().expect("eligible");
        // One fire per object, two for the FIFO.
        assert_eq!(full.fires, 6);
        let mut stats = ArrayStats::default();
        for step in &full.order {
            *(step.class)(&mut stats) += step.fires;
        }
        assert_eq!(
            (stats.alu_fires, stats.fifo_fires, stats.io_words),
            (2, 2, 2)
        );
        let at: Vec<u32> = full
            .order
            .iter()
            .map(|s| program.order[s.op as usize])
            .collect();
        let pos = |node: u32| at.iter().position(|&n| n == node).unwrap();
        // Nodes: acc 0, y 1, x 2, fifo 3, sum 4.
        assert!(pos(2) < pos(3) && pos(3) < pos(4) && pos(4) < pos(0) && pos(0) < pos(1));

        // A free-running counter emits on every pass; its wrap event does
        // not, and a gated counter waits for its go event.
        use crate::object::CounterCfg;
        let counted = |cfg, wrap: bool| {
            let mut nl = NetlistBuilder::new("counted");
            let ctr = nl.counter(cfg);
            nl.output("y", ctr.value);
            if wrap {
                nl.output_event("w", ctr.wrap);
            }
            if let Some(go) = ctr.go {
                let e = nl.input_event("go");
                nl.wire_ev(e, go);
            }
            plan(nl).full.is_some()
        };
        assert!(counted(CounterCfg::modulo(3), false));
        assert!(!counted(CounterCfg::modulo(3), true));
        assert!(!counted(CounterCfg::gated_burst(3), false));

        // An accumulate-and-dump steered by a counter through stateless
        // ops: eligible, with the counter's chain ahead of every other op,
        // and the shift and port behind it outside the block.
        let dumped = |from_input: bool, mixed: bool| {
            let mut nl = NetlistBuilder::new("dumped");
            let x = nl.input("x");
            let ev = if from_input {
                nl.input_event("e")
            } else {
                let ctr = nl.counter(CounterCfg::modulo(4));
                let last = nl.unary(UnaryOp::EqK(Word::new(3)), ctr.value);
                nl.to_event(last)
            };
            let sum = nl.accum_dump(x, ev);
            let y = if mixed {
                nl.alu(AluOp::Add, sum, x)
            } else {
                nl.unary(UnaryOp::ShrK(2), sum)
            };
            nl.output("y", y);
            plan(nl)
        };
        let program = dumped(false, false);
        let full = program.full.as_ref().expect("eligible");
        assert_eq!((full.chain, full.dumps.len(), full.sums.len()), (3, 1, 1));
        let kinds: Vec<Kind> = full.order.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                Kind::Counter,
                Kind::EqK,
                Kind::ToEvent,
                Kind::Input,
                Kind::AccumDump
            ]
        );
        assert_eq!(full.fires, 5);
        assert_eq!(full.idle_ports.len(), 1);
        // A dump event from a port, or an object behind the dump that
        // also reads ahead of it: not eligible.
        assert!(dumped(true, false).full.is_none());
        assert!(dumped(false, true).full.is_none());

        // A cycle through two objects: not eligible.
        let mut nl = NetlistBuilder::new("ring");
        let (a0, a1, a) = nl.alu_deferred(AluOp::Add);
        let x = nl.input("x");
        nl.wire(x, a0);
        let b = nl.unary(UnaryOp::Neg, a);
        nl.wire_with(b, a1, 2, vec![Word::ZERO]);
        nl.output("y", a);
        assert!(plan(nl).full.is_none());
    }
}
