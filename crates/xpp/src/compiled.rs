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
use crate::object::{ObjectKind, SlotClass};
use crate::place::{Placement, ResourceCounts};
use crate::word::ConfigWordHasher;

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
/// configuration's own edge lists) — the form the word stream is derived
/// from and the [`Micro`] visit list is packed from.
#[derive(Debug)]
pub(crate) struct CompiledNode {
    pub(crate) kind: ObjectKind,
    pub(crate) label: String,
    pub(crate) din: [Option<u32>; 3],
    pub(crate) dout: [Vec<u32>; 2],
    pub(crate) evin: [Option<u32>; 2],
    pub(crate) evout: [Vec<u32>; 1],
}

/// One word of a configuration's canonical serial-bus stream.
///
/// Every object contributes [`CONFIG_CYCLES_PER_OBJECT`] words: a
/// behaviour word (the object's kind and parameters), an input-wiring
/// word and an output-wiring word. The *address* is derived from the
/// placement — the object's resource class and its ordinal within that
/// class — so two configurations that place the same behaviour at the
/// same class-relative position produce the identical word at the
/// identical address. That stability is what makes a word-level diff
/// between a resident and a target configuration meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigWord {
    addr: u64,
    bits: u64,
}

impl ConfigWord {
    /// The word's stable bus address: packed (resource class, ordinal
    /// within the class, word offset 0..3).
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// The word's configuration bit pattern.
    pub fn bits(&self) -> u64 {
        self.bits
    }
}

/// The difference between a resident configuration's word stream and a
/// target's: the words the serial bus must actually stream to turn the
/// resident footprint into the target, plus the resource footprints that
/// the swap frees and places.
///
/// Computed by [`CompiledConfig::delta_from`]; consumed by
/// [`Array::configure_delta`](crate::Array::configure_delta) and by the
/// engine's configuration-manager tier selection (a delta swap is only
/// worth taking when [`ConfigDelta::words`] undercuts the target's full
/// [`CompiledConfig::load_cycles`]).
#[derive(Debug, Clone)]
pub struct ConfigDelta {
    from: String,
    to: String,
    changed_words: u64,
    full_words: u64,
    freed: ResourceCounts,
    placed: ResourceCounts,
}

impl ConfigDelta {
    /// Name of the resident (source) configuration.
    pub fn from_name(&self) -> &str {
        &self.from
    }

    /// Name of the target configuration.
    pub fn to_name(&self) -> &str {
        &self.to
    }

    /// Serial-bus words a delta load streams. Every load occupies the
    /// bus for at least one word (the commit word that flips the target
    /// to running), so this is the changed-word count floored at 1.
    pub fn words(&self) -> u64 {
        self.changed_words.max(1)
    }

    /// Target words whose address/bit pattern differ from the resident
    /// stream (including words at addresses the resident never wrote).
    pub fn changed_words(&self) -> u64 {
        self.changed_words
    }

    /// Words a full (non-differential) load of the target streams.
    pub fn full_words(&self) -> u64 {
        self.full_words
    }

    /// Bus words a delta load saves over a full load of the target.
    pub fn words_saved(&self) -> u64 {
        self.full_words.saturating_sub(self.words())
    }

    /// Resource footprint the swap frees (the resident's placement).
    pub fn freed(&self) -> ResourceCounts {
        self.freed
    }

    /// Resource footprint the swap places (the target's placement).
    pub fn placed(&self) -> ResourceCounts {
        self.placed
    }
}

/// A netlist compiled down to everything an [`Array`](crate::Array) needs
/// at load time and at every cycle after: the placement footprint, the
/// channel templates, the word stream, and the per-object visit list.
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
    /// Canonical word-stream view, sorted by address (see [`ConfigWord`]).
    pub(crate) words: Vec<ConfigWord>,
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

        let words = config_word_stream(&nodes, &netlist.data_edges, &netlist.ev_edges);
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
                words,
                micro,
                fan,
            }),
        }
    }

    /// The canonical word-stream view: one address-stable word per
    /// configuration-bus cycle of a full load, sorted by address.
    pub fn config_words(&self) -> &[ConfigWord] {
        &self.program.words
    }

    /// Diffs this configuration (the target) against a resident one,
    /// returning the words the bus must stream to replace `resident`
    /// with `self` plus the freed/newly-placed resource footprints.
    ///
    /// A target word counts as changed when no resident word shares its
    /// address or the resident word at that address carries different
    /// bits. Resident words at addresses the target never writes cost no
    /// bus traffic: deconfiguring is resource release, which the serial
    /// bus does not carry (exactly as [`Array::unload`](crate::Array::unload)
    /// charges no words today).
    pub fn delta_from(&self, resident: &CompiledConfig) -> ConfigDelta {
        ConfigDelta {
            from: resident.name().to_string(),
            to: self.name().to_string(),
            changed_words: changed_word_count(resident.config_words(), self.config_words()),
            full_words: self.load_cycles(),
            freed: resident.placement().counts,
            placed: self.placement().counts,
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

/// Counts target words that differ from the resident stream (both slices
/// address-sorted): missing at that address, or same address with
/// different bits. Shared by [`CompiledConfig::delta_from`] and the
/// array's `configure_delta`, which diffs against the word stream a
/// resident load left behind.
pub(crate) fn changed_word_count(resident: &[ConfigWord], target: &[ConfigWord]) -> u64 {
    let mut changed = 0u64;
    let mut r = resident.iter().peekable();
    for w in target {
        while r.next_if(|rw| rw.addr < w.addr).is_some() {}
        match r.peek() {
            Some(rw) if rw.addr == w.addr && rw.bits == w.bits => {}
            _ => changed += 1,
        }
    }
    changed
}

/// Numeric discriminant of a resource class for address packing.
fn class_index(class: SlotClass) -> u64 {
    match class {
        SlotClass::Alu => 0,
        SlotClass::Reg => 1,
        SlotClass::Ram => 2,
        SlotClass::Io => 3,
    }
}

/// Packs a word address from (resource class, per-class ordinal, word
/// offset). Ordinals are far below 2³⁸, so the packing never collides.
fn word_addr(class: SlotClass, ordinal: u64, offset: u64) -> u64 {
    (class_index(class) << 40) | (ordinal << 2) | offset
}

/// Derives the canonical word stream of a compiled netlist.
///
/// Each node occupies one slot of its resource class (in node order, the
/// same order the placer and loader walk) and contributes three words at
/// that slot's addresses: behaviour, input wiring, output wiring. Wiring
/// words identify the peer endpoint by its *class-relative* slot — not
/// the raw node index — so shared datapath structure hashes identically
/// even when the two netlists interleave their classes differently.
fn config_word_stream(
    nodes: &[CompiledNode],
    d_edges: &[EdgeSpec],
    e_edges: &[EvEdgeSpec],
) -> Vec<ConfigWord> {
    let mut counters = [0u64; 4];
    let mut slots = Vec::with_capacity(nodes.len());
    for node in nodes {
        let class = node.kind.slot_class();
        let idx = class_index(class) as usize;
        slots.push((class, counters[idx]));
        counters[idx] += 1;
    }
    let fold_endpoint = |h: &mut ConfigWordHasher, (n, p): (usize, usize)| {
        let (class, ordinal) = slots[n];
        h.write_u64(class_index(class));
        h.write_u64(ordinal);
        h.write_u64(p as u64);
    };
    let mut words = Vec::with_capacity(nodes.len() * CONFIG_CYCLES_PER_OBJECT as usize);
    for (n, node) in nodes.iter().enumerate() {
        let (class, ordinal) = slots[n];

        // Word 0 — behaviour: the object kind with all its parameters
        // (op, constants, counter config, preload contents, port names).
        let mut h = ConfigWordHasher::new();
        h.write_bytes(format!("{:?}", node.kind).as_bytes());
        words.push(ConfigWord {
            addr: word_addr(class, ordinal, 0),
            bits: h.finish(),
        });

        // Word 1 — input wiring: per data/event input port, the producer
        // endpoint plus the channel's capacity and initial tokens.
        let mut h = ConfigWordHasher::new();
        for slot in &node.din {
            match slot {
                Some(k) => {
                    let e = &d_edges[*k as usize];
                    h.write_u64(1);
                    fold_endpoint(&mut h, e.from);
                    h.write_u64(e.capacity as u64);
                    for w in &e.initial {
                        h.write_u64(w.bits() as u64);
                    }
                }
                None => h.write_u64(0),
            }
        }
        for slot in &node.evin {
            match slot {
                Some(k) => {
                    let e = &e_edges[*k as usize];
                    h.write_u64(1);
                    fold_endpoint(&mut h, e.from);
                    h.write_u64(e.capacity as u64);
                    for &b in &e.initial {
                        h.write_u64(b as u64);
                    }
                }
                None => h.write_u64(0),
            }
        }
        words.push(ConfigWord {
            addr: word_addr(class, ordinal, 1),
            bits: h.finish(),
        });

        // Word 2 — output wiring: per output port, the fan-out list of
        // consumer endpoints with each channel's capacity and tokens.
        let mut h = ConfigWordHasher::new();
        for list in &node.dout {
            h.write_u64(list.len() as u64);
            for k in list {
                let e = &d_edges[*k as usize];
                fold_endpoint(&mut h, e.to);
                h.write_u64(e.capacity as u64);
                for w in &e.initial {
                    h.write_u64(w.bits() as u64);
                }
            }
        }
        for list in &node.evout {
            h.write_u64(list.len() as u64);
            for k in list {
                let e = &e_edges[*k as usize];
                fold_endpoint(&mut h, e.to);
                h.write_u64(e.capacity as u64);
                for &b in &e.initial {
                    h.write_u64(b as u64);
                }
            }
        }
        words.push(ConfigWord {
            addr: word_addr(class, ordinal, 2),
            bits: h.finish(),
        });
    }
    words.sort_by_key(|w| w.addr);
    words
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

    fn two_input_alu(name: &str, op: AluOp) -> Netlist {
        let mut nl = NetlistBuilder::new(name);
        let a = nl.input("a");
        let b = nl.input("b");
        let y = nl.alu(op, a, b);
        nl.output("y", y);
        nl.build().unwrap()
    }

    #[test]
    fn word_stream_covers_every_load_cycle_with_unique_addresses() {
        let c = CompiledConfig::compile(&pipeline());
        assert_eq!(c.config_words().len() as u64, c.load_cycles());
        for pair in c.config_words().windows(2) {
            assert!(pair[0].addr() < pair[1].addr(), "addresses sorted, unique");
        }
    }

    #[test]
    fn word_stream_is_deterministic_across_compiles() {
        let a = CompiledConfig::compile(&pipeline());
        let b = CompiledConfig::compile(&pipeline());
        assert_eq!(a.config_words(), b.config_words());
    }

    #[test]
    fn delta_to_identical_structure_floors_at_one_word() {
        let c = CompiledConfig::compile(&pipeline());
        let d = c.delta_from(&c);
        assert_eq!(d.changed_words(), 0);
        assert_eq!(d.words(), 1, "the commit word always streams");
        assert_eq!(d.words_saved(), c.load_cycles() - 1);
        assert_eq!(d.full_words(), c.load_cycles());
    }

    #[test]
    fn delta_isolates_the_single_changed_behaviour_word() {
        let add = CompiledConfig::compile(&two_input_alu("v-add", AluOp::Add));
        let sub = CompiledConfig::compile(&two_input_alu("v-sub", AluOp::Sub));
        let d = sub.delta_from(&add);
        // Identical shape and wiring: only the ALU's behaviour word moved.
        assert_eq!(d.changed_words(), 1);
        assert_eq!(d.words(), 1);
        assert_eq!(d.from_name(), "v-add");
        assert_eq!(d.to_name(), "v-sub");
        assert_eq!(d.freed(), add.placement().counts);
        assert_eq!(d.placed(), sub.placement().counts);
    }

    #[test]
    fn delta_restreams_words_the_resident_never_held() {
        let small = CompiledConfig::compile(&two_input_alu("small", AluOp::Add));
        let mut nl = NetlistBuilder::new("grown");
        let a = nl.input("a");
        let b = nl.input("b");
        let y = nl.alu(AluOp::Add, a, b);
        let z = nl.alu(AluOp::Mul, y, b);
        nl.output("y", z);
        let grown = CompiledConfig::compile(&nl.build().unwrap());
        let d = grown.delta_from(&small);
        // The second ALU is brand new: all three of its words stream,
        // plus whatever wiring the first ALU's fan-out change dirtied.
        assert!(d.changed_words() >= 3);
        assert!(d.words() <= d.full_words());
    }
}
