//! Netlist construction: the software description of a configuration.
//!
//! A [`Netlist`] plays the role of the NML source in the XPP tool flow: it
//! names a set of objects and the token channels between them. The
//! [`NetlistBuilder`] offers typed handles so data and event networks cannot
//! be confused, supports feedback edges carrying initial tokens (dataflow
//! loops), and validates connectivity at [`NetlistBuilder::build`].

use crate::error::{Error, Result};
use crate::object::{AluOp, CounterCfg, ObjectKind, UnaryOp, RAM_WORDS};
use crate::word::Word;

/// Default capacity of a channel: an output register plus one forward
/// register, which is what sustains one token per cycle through a pipeline.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 2;

/// Identifies an object inside one netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// A data output port handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataOut {
    pub(crate) node: usize,
    pub(crate) port: usize,
}

/// A data input port handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataIn {
    pub(crate) node: usize,
    pub(crate) port: usize,
}

/// An event output port handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvOut {
    pub(crate) node: usize,
    pub(crate) port: usize,
}

/// An event input port handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvIn {
    pub(crate) node: usize,
    pub(crate) port: usize,
}

/// Handles to the four ports of a RAM object.
#[derive(Debug, Clone, Copy)]
pub struct RamPorts {
    /// Read-address input.
    pub rd_addr: DataIn,
    /// Write-address input.
    pub wr_addr: DataIn,
    /// Write-data input.
    pub wr_data: DataIn,
    /// Read-data output.
    pub rd_data: DataOut,
    /// The underlying node.
    pub node: NodeId,
}

/// Handles to the ports of a (non-ring) FIFO object.
#[derive(Debug, Clone, Copy)]
pub struct FifoPorts {
    /// Enqueue input.
    pub input: DataIn,
    /// Dequeue output.
    pub output: DataOut,
    /// The underlying node.
    pub node: NodeId,
}

/// Handles to a counter's outputs.
#[derive(Debug, Clone, Copy)]
pub struct CounterPorts {
    /// The value stream.
    pub value: DataOut,
    /// `true` event emitted with the last value of each burst.
    pub wrap: EvOut,
    /// Go input (present only for gated counters).
    pub go: Option<EvIn>,
    /// The underlying node.
    pub node: NodeId,
}

#[derive(Debug, Clone)]
pub(crate) struct NodeSpec {
    pub(crate) kind: ObjectKind,
    pub(crate) label: String,
}

#[derive(Debug, Clone)]
pub(crate) struct EdgeSpec {
    pub(crate) from: (usize, usize),
    pub(crate) to: (usize, usize),
    pub(crate) capacity: usize,
    pub(crate) initial: Vec<Word>,
}

#[derive(Debug, Clone)]
pub(crate) struct EvEdgeSpec {
    pub(crate) from: (usize, usize),
    pub(crate) to: (usize, usize),
    pub(crate) capacity: usize,
    pub(crate) initial: Vec<bool>,
}

/// A validated configuration description, ready to be loaded onto an
/// [`crate::Array`].
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) nodes: Vec<NodeSpec>,
    pub(crate) data_edges: Vec<EdgeSpec>,
    pub(crate) ev_edges: Vec<EvEdgeSpec>,
}

impl Netlist {
    /// The configuration name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of channels (data + event).
    pub(crate) fn edge_count(&self) -> usize {
        self.data_edges.len() + self.ev_edges.len()
    }

    /// Iterates over the object kinds (for resource accounting).
    pub fn kinds(&self) -> impl Iterator<Item = &ObjectKind> {
        self.nodes.iter().map(|n| &n.kind)
    }
}

/// Builds a [`Netlist`] incrementally.
///
/// # Example
///
/// ```
/// use xpp_array::{AluOp, NetlistBuilder, Word};
///
/// # fn main() -> Result<(), xpp_array::Error> {
/// let mut nl = NetlistBuilder::new("scale-add");
/// let a = nl.input("a");
/// let b = nl.input("b");
/// let scaled = nl.alu(AluOp::MulShr(1), a, b);
/// nl.output("y", scaled);
/// let netlist = nl.build()?;
/// assert_eq!(netlist.object_count(), 4); // 2 inputs, 1 alu, 1 output
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    nodes: Vec<NodeSpec>,
    data_edges: Vec<EdgeSpec>,
    ev_edges: Vec<EvEdgeSpec>,
    default_capacity: usize,
}

impl NetlistBuilder {
    /// Starts an empty netlist with the given configuration name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            nodes: Vec::new(),
            data_edges: Vec::new(),
            ev_edges: Vec::new(),
            default_capacity: DEFAULT_CHANNEL_CAPACITY,
        }
    }

    /// Overrides the capacity used by [`wire`](Self::wire) and the
    /// convenience constructors (the channel-capacity ablation experiment).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_default_capacity(&mut self, capacity: usize) {
        assert!(capacity >= 1, "channel capacity must be at least 1");
        self.default_capacity = capacity;
    }

    fn push(&mut self, kind: ObjectKind) -> usize {
        let label = format!("{}{}", kind.kind_name(), self.nodes.len());
        self.nodes.push(NodeSpec { kind, label });
        self.nodes.len() - 1
    }

    // ---- wiring -------------------------------------------------------

    /// Connects a data output to a data input with the default capacity.
    pub fn wire(&mut self, from: DataOut, to: DataIn) {
        self.wire_with(from, to, self.default_capacity, Vec::new());
    }

    /// Connects a data output to a data input with explicit capacity and
    /// initial tokens (feedback loops require at least one initial token).
    pub fn wire_with(&mut self, from: DataOut, to: DataIn, capacity: usize, initial: Vec<Word>) {
        self.data_edges.push(EdgeSpec {
            from: (from.node, from.port),
            to: (to.node, to.port),
            capacity,
            initial,
        });
    }

    /// Connects an event output to an event input.
    pub fn wire_ev(&mut self, from: EvOut, to: EvIn) {
        self.wire_ev_with(from, to, self.default_capacity, Vec::new());
    }

    /// Connects an event output to an event input with explicit capacity and
    /// initial tokens.
    pub fn wire_ev_with(&mut self, from: EvOut, to: EvIn, capacity: usize, initial: Vec<bool>) {
        self.ev_edges.push(EvEdgeSpec {
            from: (from.node, from.port),
            to: (to.node, to.port),
            capacity,
            initial,
        });
    }

    // ---- I/O ----------------------------------------------------------

    /// Adds an external data input port.
    pub fn input(&mut self, name: impl Into<String>) -> DataOut {
        let n = self.push(ObjectKind::Input(name.into()));
        DataOut { node: n, port: 0 }
    }

    /// Adds an external data output port fed by `src`.
    pub fn output(&mut self, name: impl Into<String>, src: DataOut) {
        let n = self.push(ObjectKind::Output(name.into()));
        self.wire(src, DataIn { node: n, port: 0 });
    }

    /// Adds an external event input port.
    pub fn input_event(&mut self, name: impl Into<String>) -> EvOut {
        let n = self.push(ObjectKind::InputEvent(name.into()));
        EvOut { node: n, port: 0 }
    }

    /// Adds an external event output port fed by `src`.
    pub fn output_event(&mut self, name: impl Into<String>, src: EvOut) {
        let n = self.push(ObjectKind::OutputEvent(name.into()));
        self.wire_ev(src, EvIn { node: n, port: 0 });
    }

    // ---- compute objects ---------------------------------------------

    /// Adds a constant source.
    pub fn constant(&mut self, value: Word) -> DataOut {
        let n = self.push(ObjectKind::Const(value));
        DataOut { node: n, port: 0 }
    }

    /// Adds a binary ALU object wired to two sources.
    pub fn alu(&mut self, op: AluOp, a: DataOut, b: DataOut) -> DataOut {
        let n = self.push(ObjectKind::Alu(op));
        self.wire(a, DataIn { node: n, port: 0 });
        self.wire(b, DataIn { node: n, port: 1 });
        DataOut { node: n, port: 0 }
    }

    /// Adds a binary ALU object with unwired inputs (for feedback loops).
    pub fn alu_deferred(&mut self, op: AluOp) -> (DataIn, DataIn, DataOut) {
        let n = self.push(ObjectKind::Alu(op));
        (
            DataIn { node: n, port: 0 },
            DataIn { node: n, port: 1 },
            DataOut { node: n, port: 0 },
        )
    }

    /// Adds a unary object wired to a source.
    pub fn unary(&mut self, op: UnaryOp, a: DataOut) -> DataOut {
        let n = self.push(ObjectKind::Unary(op));
        self.wire(a, DataIn { node: n, port: 0 });
        DataOut { node: n, port: 0 }
    }

    /// Adds a chain of `n` pass registers (pipeline balancing delay).
    pub fn delay(&mut self, mut src: DataOut, n: usize) -> DataOut {
        for _ in 0..n {
            src = self.unary(UnaryOp::Pass, src);
        }
        src
    }

    /// Adds a counter.
    ///
    /// # Panics
    ///
    /// Panics if the counter period is zero.
    pub fn counter(&mut self, cfg: CounterCfg) -> CounterPorts {
        assert!(cfg.period >= 1, "counter period must be at least 1");
        let gated = cfg.gated;
        let n = self.push(ObjectKind::Counter(cfg));
        CounterPorts {
            value: DataOut { node: n, port: 0 },
            wrap: EvOut { node: n, port: 0 },
            go: if gated {
                Some(EvIn { node: n, port: 0 })
            } else {
                None
            },
            node: NodeId(n),
        }
    }

    /// Adds a select (consumes both inputs, emits `sel ? b : a`).
    pub fn select(&mut self, sel: EvOut, a: DataOut, b: DataOut) -> DataOut {
        let n = self.push(ObjectKind::Select);
        self.wire(a, DataIn { node: n, port: 0 });
        self.wire(b, DataIn { node: n, port: 1 });
        self.wire_ev(sel, EvIn { node: n, port: 0 });
        DataOut { node: n, port: 0 }
    }

    /// Adds a merge (consumes only the selected input).
    pub fn merge(&mut self, sel: EvOut, a: DataOut, b: DataOut) -> DataOut {
        let n = self.push(ObjectKind::Merge);
        self.wire(a, DataIn { node: n, port: 0 });
        self.wire(b, DataIn { node: n, port: 1 });
        self.wire_ev(sel, EvIn { node: n, port: 0 });
        DataOut { node: n, port: 0 }
    }

    /// Adds a demux: routes input to output 0 (sel false) or 1 (sel true).
    /// Unconnected outputs discard.
    pub fn demux(&mut self, sel: EvOut, a: DataOut) -> (DataOut, DataOut) {
        let n = self.push(ObjectKind::Demux);
        self.wire(a, DataIn { node: n, port: 0 });
        self.wire_ev(sel, EvIn { node: n, port: 0 });
        (DataOut { node: n, port: 0 }, DataOut { node: n, port: 1 })
    }

    /// Adds a swap: straight through on sel false, crossed on sel true.
    pub fn swap(&mut self, sel: EvOut, a: DataOut, b: DataOut) -> (DataOut, DataOut) {
        let n = self.push(ObjectKind::Swap);
        self.wire(a, DataIn { node: n, port: 0 });
        self.wire(b, DataIn { node: n, port: 1 });
        self.wire_ev(sel, EvIn { node: n, port: 0 });
        (DataOut { node: n, port: 0 }, DataOut { node: n, port: 1 })
    }

    /// Adds a gate: passes data when the event is true, discards otherwise.
    pub fn gate(&mut self, ev: EvOut, a: DataOut) -> DataOut {
        let n = self.push(ObjectKind::Gate);
        self.wire(a, DataIn { node: n, port: 0 });
        self.wire_ev(ev, EvIn { node: n, port: 0 });
        DataOut { node: n, port: 0 }
    }

    /// Adds an accumulate-and-dump object.
    pub fn accum_dump(&mut self, data: DataOut, dump: EvOut) -> DataOut {
        let n = self.push(ObjectKind::AccumDump);
        self.wire(data, DataIn { node: n, port: 0 });
        self.wire_ev(dump, EvIn { node: n, port: 0 });
        DataOut { node: n, port: 0 }
    }

    /// Converts a data stream to an event stream (`true` iff non-zero).
    pub fn to_event(&mut self, a: DataOut) -> EvOut {
        let n = self.push(ObjectKind::ToEvent);
        self.wire(a, DataIn { node: n, port: 0 });
        EvOut { node: n, port: 0 }
    }

    /// Converts an event stream to a 0/1 data stream.
    pub fn to_data(&mut self, ev: EvOut) -> DataOut {
        let n = self.push(ObjectKind::ToData);
        self.wire_ev(ev, EvIn { node: n, port: 0 });
        DataOut { node: n, port: 0 }
    }

    /// Inverts an event stream.
    pub fn ev_not(&mut self, ev: EvOut) -> EvOut {
        let n = self.push(ObjectKind::EventNot);
        self.wire_ev(ev, EvIn { node: n, port: 0 });
        EvOut { node: n, port: 0 }
    }

    /// ANDs two event streams.
    pub fn ev_and(&mut self, a: EvOut, b: EvOut) -> EvOut {
        let n = self.push(ObjectKind::EventAnd);
        self.wire_ev(a, EvIn { node: n, port: 0 });
        self.wire_ev(b, EvIn { node: n, port: 1 });
        EvOut { node: n, port: 0 }
    }

    /// ORs two event streams.
    pub fn ev_or(&mut self, a: EvOut, b: EvOut) -> EvOut {
        let n = self.push(ObjectKind::EventOr);
        self.wire_ev(a, EvIn { node: n, port: 0 });
        self.wire_ev(b, EvIn { node: n, port: 1 });
        EvOut { node: n, port: 0 }
    }

    // ---- memory objects ------------------------------------------------

    /// Adds a dual-ported RAM with initial contents (≤ 512 words).
    pub fn ram(&mut self, preload: Vec<Word>) -> RamPorts {
        let n = self.push(ObjectKind::Ram { preload });
        RamPorts {
            rd_addr: DataIn { node: n, port: 0 },
            wr_addr: DataIn { node: n, port: 1 },
            wr_data: DataIn { node: n, port: 2 },
            rd_data: DataOut { node: n, port: 0 },
            node: NodeId(n),
        }
    }

    /// Adds a FIFO with a depth limit and initial contents.
    pub fn fifo(&mut self, depth: usize, preload: Vec<Word>) -> FifoPorts {
        let n = self.push(ObjectKind::RamFifo {
            depth,
            preload,
            ring: false,
        });
        FifoPorts {
            input: DataIn { node: n, port: 0 },
            output: DataOut { node: n, port: 0 },
            node: NodeId(n),
        }
    }

    /// Adds a circular preloaded lookup FIFO: its contents stream out
    /// repeatedly, forever (the paper's twiddle/address lookup tables).
    pub fn ring_fifo(&mut self, contents: Vec<Word>) -> DataOut {
        let depth = contents.len();
        let n = self.push(ObjectKind::RamFifo {
            depth,
            preload: contents,
            ring: true,
        });
        DataOut { node: n, port: 0 }
    }

    // ---- validation -----------------------------------------------------

    /// Validates the netlist and freezes it.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist is empty, an external port name is
    /// duplicated, a required input is unconnected or doubly driven, a RAM
    /// write port pair is only half-connected, a preload exceeds the RAM
    /// depth, or initial tokens exceed a channel's capacity.
    pub fn build(self) -> Result<Netlist> {
        if self.nodes.is_empty() {
            return Err(Error::EmptyNetlist);
        }
        // External port names must be unique within the netlist.
        let mut names = std::collections::HashSet::new();
        for node in &self.nodes {
            let name = match &node.kind {
                ObjectKind::Input(n)
                | ObjectKind::Output(n)
                | ObjectKind::InputEvent(n)
                | ObjectKind::OutputEvent(n) => Some(n.clone()),
                _ => None,
            };
            if let Some(n) = name {
                if !names.insert(n.clone()) {
                    return Err(Error::DuplicatePortName(n));
                }
            }
        }
        // Preload sizes.
        for node in &self.nodes {
            match &node.kind {
                ObjectKind::Ram { preload } if preload.len() > RAM_WORDS => {
                    return Err(Error::PreloadTooLarge {
                        object: node.label.clone(),
                        requested: preload.len(),
                        max: RAM_WORDS,
                    });
                }
                ObjectKind::RamFifo { depth, preload, .. } => {
                    let max = (*depth).min(RAM_WORDS);
                    if preload.len() > max || *depth > RAM_WORDS {
                        return Err(Error::PreloadTooLarge {
                            object: node.label.clone(),
                            requested: preload.len().max(*depth),
                            max: RAM_WORDS,
                        });
                    }
                }
                _ => {}
            }
        }
        // Initial tokens must fit their channel.
        for e in &self.data_edges {
            if e.initial.len() > e.capacity {
                return Err(Error::TooManyInitialTokens {
                    requested: e.initial.len(),
                    capacity: e.capacity,
                });
            }
        }
        for e in &self.ev_edges {
            if e.initial.len() > e.capacity {
                return Err(Error::TooManyInitialTokens {
                    requested: e.initial.len(),
                    capacity: e.capacity,
                });
            }
        }
        // Input connectivity: exactly one driver per connected input;
        // required inputs must be connected.
        let mut data_in_driven = std::collections::HashMap::new();
        for e in &self.data_edges {
            let count = data_in_driven.entry(e.to).or_insert(0usize);
            *count += 1;
            if *count > 1 {
                let node = &self.nodes[e.to.0];
                return Err(Error::InputAlreadyConnected {
                    object: node.label.clone(),
                    port: format!("in{}", e.to.1),
                });
            }
        }
        let mut ev_in_driven = std::collections::HashMap::new();
        for e in &self.ev_edges {
            let count = ev_in_driven.entry(e.to).or_insert(0usize);
            *count += 1;
            if *count > 1 {
                let node = &self.nodes[e.to.0];
                return Err(Error::InputAlreadyConnected {
                    object: node.label.clone(),
                    port: format!("ev{}", e.to.1),
                });
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let shape = node.kind.shape();
            for p in 0..shape.din {
                let connected = data_in_driven.contains_key(&(i, p));
                if !connected && !node.kind.data_input_optional(p) {
                    return Err(Error::UnconnectedInput {
                        object: node.label.clone(),
                        port: format!("in{p}"),
                    });
                }
            }
            for p in 0..shape.evin {
                if !ev_in_driven.contains_key(&(i, p)) {
                    return Err(Error::UnconnectedInput {
                        object: node.label.clone(),
                        port: format!("ev{p}"),
                    });
                }
            }
            // RAM write ports must be connected pairwise.
            if matches!(node.kind, ObjectKind::Ram { .. }) {
                let wa = data_in_driven.contains_key(&(i, 1));
                let wd = data_in_driven.contains_key(&(i, 2));
                if wa != wd {
                    return Err(Error::UnconnectedInput {
                        object: node.label.clone(),
                        port: if wa {
                            "in2 (wr_data)".into()
                        } else {
                            "in1 (wr_addr)".into()
                        },
                    });
                }
            }
        }
        Ok(Netlist {
            name: self.name,
            nodes: self.nodes,
            data_edges: self.data_edges,
            ev_edges: self.ev_edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_pipeline_builds() {
        let mut nl = NetlistBuilder::new("t");
        let a = nl.input("a");
        let b = nl.constant(Word::new(3));
        let y = nl.alu(AluOp::Add, a, b);
        nl.output("y", y);
        let netlist = nl.build().unwrap();
        assert_eq!(netlist.name(), "t");
        assert_eq!(netlist.object_count(), 4);
        assert_eq!(netlist.edge_count(), 3);
    }

    #[test]
    fn empty_netlist_rejected() {
        assert_eq!(
            NetlistBuilder::new("e").build().unwrap_err(),
            Error::EmptyNetlist
        );
    }

    #[test]
    fn unconnected_alu_input_rejected() {
        let mut nl = NetlistBuilder::new("t");
        let a = nl.input("a");
        let (in0, _in1, _out) = nl.alu_deferred(AluOp::Add);
        nl.wire(a, in0);
        assert!(matches!(nl.build(), Err(Error::UnconnectedInput { .. })));
    }

    #[test]
    fn double_driven_input_rejected() {
        let mut nl = NetlistBuilder::new("t");
        let a = nl.input("a");
        let b = nl.input("b");
        let (in0, in1, _out) = nl.alu_deferred(AluOp::Add);
        nl.wire(a, in0);
        nl.wire(b, in0);
        nl.wire(b, in1);
        assert!(matches!(
            nl.build(),
            Err(Error::InputAlreadyConnected { .. })
        ));
    }

    #[test]
    fn duplicate_port_names_rejected() {
        let mut nl = NetlistBuilder::new("t");
        let a = nl.input("x");
        nl.output("x", a);
        assert_eq!(
            nl.build().unwrap_err(),
            Error::DuplicatePortName("x".into())
        );
    }

    #[test]
    fn half_connected_ram_write_rejected() {
        let mut nl = NetlistBuilder::new("t");
        let addr = nl.input("addr");
        let ram = nl.ram(vec![]);
        nl.wire(addr, ram.wr_addr);
        // rd unused, wr_data missing.
        assert!(matches!(nl.build(), Err(Error::UnconnectedInput { .. })));
    }

    #[test]
    fn read_only_ram_accepted() {
        let mut nl = NetlistBuilder::new("t");
        let addr = nl.input("addr");
        let ram = nl.ram(vec![Word::new(7)]);
        nl.wire(addr, ram.rd_addr);
        nl.output("q", ram.rd_data);
        assert!(nl.build().is_ok());
    }

    #[test]
    fn oversized_preload_rejected() {
        let mut nl = NetlistBuilder::new("t");
        let addr = nl.input("addr");
        let ram = nl.ram(vec![Word::ZERO; 600]);
        nl.wire(addr, ram.rd_addr);
        nl.output("q", ram.rd_data);
        assert!(matches!(nl.build(), Err(Error::PreloadTooLarge { .. })));
    }

    #[test]
    fn initial_tokens_must_fit_capacity() {
        let mut nl = NetlistBuilder::new("t");
        let a = nl.input("a");
        let (in0, in1, out) = nl.alu_deferred(AluOp::Add);
        nl.wire(a, in0);
        nl.wire_with(out, in1, 2, vec![Word::ZERO; 3]);
        assert!(matches!(
            nl.build(),
            Err(Error::TooManyInitialTokens { .. })
        ));
    }

    #[test]
    fn feedback_loop_with_initial_token_builds() {
        let mut nl = NetlistBuilder::new("acc");
        let a = nl.input("a");
        let (in0, in1, out) = nl.alu_deferred(AluOp::Add);
        nl.wire(a, in0);
        nl.wire_with(out, in1, 2, vec![Word::ZERO]);
        nl.output("sum", out);
        assert!(nl.build().is_ok());
    }

    #[test]
    fn counter_handles_match_gating() {
        let mut nl = NetlistBuilder::new("c");
        let free = nl.counter(CounterCfg::modulo(4));
        assert!(free.go.is_none());
        let gated = nl.counter(CounterCfg::gated_burst(4));
        assert!(gated.go.is_some());
        nl.output("v", free.value);
        // Gated counter's go must be wired.
        let start = nl.input_event("go");
        nl.wire_ev(start, gated.go.unwrap());
        nl.output("w", gated.value);
        assert!(nl.build().is_ok());
    }

    #[test]
    fn gated_counter_without_go_rejected() {
        let mut nl = NetlistBuilder::new("c");
        let gated = nl.counter(CounterCfg::gated_burst(4));
        nl.output("w", gated.value);
        assert!(matches!(nl.build(), Err(Error::UnconnectedInput { .. })));
    }
}
