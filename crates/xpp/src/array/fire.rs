//! The general firing rule the reference stepper runs — compiled only with
//! it, in tests and under the `reference` feature.
//!
//! [`fire`] is the *oracle's* statement of what an object does when it
//! fires: one `match` over every rule, evaluated against committed
//! start-of-cycle channel state. Production steps the rule-specialised runs
//! of `super::dense` instead, a second and independent body of every rule
//! over the same channel slab and object state ([`ObjState`]), so the
//! golden lattice compares two implementations instead of one with itself.
//!
//! An object's ports reach [`fire`] as a [`Micro`] — packed once, by
//! [`CompiledConfig::compile`](crate::CompiledConfig::compile), straight
//! from the compiled node and independently of the production lowering,
//! in the numbering of the configuration's channel slab.

use super::ObjState;
use crate::channel::Chans;
use crate::compiled::CompiledNode;
use crate::object::{AluOp, ObjectKind, UnaryOp, RAM_WORDS};
use crate::stats::ArrayStats;
use crate::word::{Event, Word};

/// "No channel" sentinel for an unconnected port of a [`Micro`]: past the
/// end of every slab, so the fireability check fails and a rule that needs
/// the port never fires. Also the state slot of a stateless object.
pub(crate) const NO_CHAN: u32 = u32::MAX;

/// Rule selector: an [`ObjectKind`] reduced to what firing needs, `Copy`
/// and resolved once at compile time (multiplier class, FIFO mode) instead
/// of per fire. Stateful rules find their parameters next to their state
/// ([`ObjState`]); names and preloads stay behind in the netlist.
#[derive(Debug, Clone, Copy)]
pub(super) enum Rule {
    /// `(op, uses_multiplier)`.
    Alu(AluOp, bool),
    Unary(UnaryOp, bool),
    Const(Word),
    Select,
    Merge,
    Demux,
    Swap,
    Gate,
    ToEvent,
    ToData,
    EventNot,
    EventAnd,
    EventOr,
    Counter,
    AccumDump,
    Ram,
    FifoRing,
    /// Plain FIFO with its depth limit.
    Fifo(usize),
    Input,
    Output,
    InputEvent,
    OutputEvent,
}

impl Rule {
    pub(super) fn of(kind: &ObjectKind) -> Rule {
        match kind {
            ObjectKind::Alu(op) => Rule::Alu(*op, op.uses_multiplier()),
            ObjectKind::Unary(op) => Rule::Unary(*op, op.uses_multiplier()),
            ObjectKind::Const(k) => Rule::Const(*k),
            ObjectKind::Counter(_) => Rule::Counter,
            ObjectKind::Select => Rule::Select,
            ObjectKind::Merge => Rule::Merge,
            ObjectKind::Demux => Rule::Demux,
            ObjectKind::Swap => Rule::Swap,
            ObjectKind::Gate => Rule::Gate,
            ObjectKind::AccumDump => Rule::AccumDump,
            ObjectKind::ToEvent => Rule::ToEvent,
            ObjectKind::ToData => Rule::ToData,
            ObjectKind::EventNot => Rule::EventNot,
            ObjectKind::EventAnd => Rule::EventAnd,
            ObjectKind::EventOr => Rule::EventOr,
            ObjectKind::Ram { .. } => Rule::Ram,
            ObjectKind::RamFifo { ring: true, .. } => Rule::FifoRing,
            ObjectKind::RamFifo { depth, .. } => Rule::Fifo(*depth),
            ObjectKind::Input(_) => Rule::Input,
            ObjectKind::Output(_) => Rule::Output,
            ObjectKind::InputEvent(_) => Rule::InputEvent,
            ObjectKind::OutputEvent(_) => Rule::OutputEvent,
        }
    }
}

/// One object of the reference stepper's visit list: its rule and its ports
/// packed into five slots. No [`ObjectKind::shape`] populates both tenants
/// of a shared slot:
///
/// | slot | holds                                                    |
/// |------|----------------------------------------------------------|
/// | `a`  | data input 0                                             |
/// | `b`  | data input 1, or event input 1 (the binary event gates)  |
/// | `ev` | event input 0, or data input 2 (RAM write-data)          |
/// | `f0` | data output 0, as a range of the fan table               |
/// | `f1` | data output 1, or the event output, as a range           |
///
/// [`Micro::pack`] packs and [`Ports`] unpacks. Unconnected inputs hold
/// [`NO_CHAN`]; unconnected outputs are empty ranges. `state` is the
/// object's [`ObjState`] slot ([`NO_CHAN`] if stateless) and `op` the
/// index of its fire counter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Micro {
    rule: Rule,
    a: u32,
    b: u32,
    ev: u32,
    f0: u32,
    f1: u32,
    f0n: u16,
    f1n: u16,
    pub(super) state: u32,
    pub(super) op: u32,
}

impl Micro {
    /// Packs one compiled node, appending its output fan-outs to `fan`.
    /// Event channel `k` is slab slot `ev_base + k`.
    pub(crate) fn pack(
        node: &CompiledNode,
        ev_base: u32,
        state: u32,
        op: u32,
        fan: &mut Vec<u32>,
    ) -> Micro {
        debug_assert!(
            node.din[1].is_none() || node.evin[1].is_none(),
            "slot b has two tenants"
        );
        debug_assert!(
            node.evin[0].is_none() || node.din[2].is_none(),
            "slot ev has two tenants"
        );
        debug_assert!(
            node.dout[1].is_empty() || node.evout[0].is_empty(),
            "slot f1 has two tenants"
        );
        let mut push_fan = |chans: &[u32], base: u32| {
            let start = u32::try_from(fan.len()).expect("fan table fits u32");
            let n = u16::try_from(chans.len()).expect("fan-out fits u16");
            fan.extend(chans.iter().map(|&c| base + c));
            (start, n)
        };
        let (f0, f0n) = push_fan(&node.dout[0], 0);
        let (f1, f1n) = if node.evout[0].is_empty() {
            push_fan(&node.dout[1], 0)
        } else {
            push_fan(&node.evout[0], ev_base)
        };
        let ev = |c: Option<u32>| c.map(|c| ev_base + c);
        Micro {
            rule: Rule::of(&node.kind),
            a: node.din[0].unwrap_or(NO_CHAN),
            b: node.din[1].or(ev(node.evin[1])).unwrap_or(NO_CHAN),
            ev: ev(node.evin[0]).or(node.din[2]).unwrap_or(NO_CHAN),
            f0,
            f1,
            f0n,
            f1n,
            state,
            op,
        }
    }
}

/// Operand source of a fire: a [`Micro`] together with the fan table its
/// output ranges index, read by port position.
struct Ports<'a> {
    m: &'a Micro,
    fan: &'a [u32],
}

impl Ports<'_> {
    #[inline]
    fn din(&self, i: usize) -> u32 {
        match i {
            0 => self.m.a,
            1 => self.m.b,
            _ => self.m.ev,
        }
    }
    #[inline]
    fn evin(&self, i: usize) -> u32 {
        match i {
            0 => self.m.ev,
            _ => self.m.b,
        }
    }
    #[inline]
    fn dout(&self, i: usize) -> &[u32] {
        let (start, n) = match i {
            0 => (self.m.f0, self.m.f0n),
            _ => (self.m.f1, self.m.f1n),
        };
        &self.fan[start as usize..start as usize + usize::from(n)]
    }
    #[inline]
    fn evout(&self) -> &[u32] {
        self.dout(1)
    }
}

/// True if every channel of an output port has space ([`NO_CHAN`] never
/// appears here: an unconnected output is an empty list).
#[inline]
fn can_put(ch: &Chans<'_>, chans: &[u32]) -> bool {
    chans.iter().all(|&c| ch.space(c))
}

/// Produces `v` into every channel of an output port.
#[inline]
fn put(ch: &mut Chans<'_>, chans: &[u32], v: Word) {
    for &c in chans {
        ch.put(c, v);
    }
}

/// Produces an event into every channel of an event output port.
#[inline]
fn put_ev(ch: &mut Chans<'_>, chans: &[u32], e: Event) {
    for &c in chans {
        ch.put_ev(c, e);
    }
}

/// Everything outside the object that a fire reads or writes.
pub(super) struct Net<'a> {
    pub(super) ch: Chans<'a>,
    pub(super) stats: &'a mut ArrayStats,
}

/// Fires every enabled rule of object `m`; returns the number of rule
/// fires. `state` is the object's internal state, touched only by the
/// stateful rules and only once their channel-side conditions hold.
///
/// Always inlined: each caller then holds `net`'s references as plain
/// locals instead of reaching them through an aggregate behind a pointer
/// (an out-of-line call once measured ~9% of stepping time).
#[inline(always)]
pub(super) fn fire(m: &Micro, fan: &[u32], state: &mut ObjState, net: &mut Net<'_>) -> u32 {
    let (rule, p) = (m.rule, Ports { m, fan });
    let Net { ch, stats } = net;
    // Each rule reads its operands in the order it tests them — inputs,
    // then outputs — so an object that cannot fire is dismissed at its
    // first empty input.
    match rule {
        Rule::Alu(op, mul) => {
            let (a, b) = (p.din(0), p.din(1));
            if ch.has(a) && ch.has(b) {
                let out = p.dout(0);
                if can_put(ch, out) {
                    let (x, y) = (ch.take(a), ch.take(b));
                    put(ch, out, op.eval(x, y));
                    if mul {
                        stats.mul_fires += 1;
                    } else {
                        stats.alu_fires += 1;
                    }
                    return 1;
                }
            }
            0
        }
        Rule::Unary(op, mul) => {
            let a = p.din(0);
            if ch.has(a) {
                let out = p.dout(0);
                if can_put(ch, out) {
                    let x = ch.take(a);
                    put(ch, out, op.eval(x));
                    if mul {
                        stats.mul_fires += 1;
                    } else {
                        stats.reg_fires += 1;
                    }
                    return 1;
                }
            }
            0
        }
        Rule::Const(k) => {
            let out = p.dout(0);
            if !out.is_empty() && can_put(ch, out) {
                put(ch, out, k);
                stats.reg_fires += 1;
                return 1;
            }
            0
        }
        Rule::Counter => {
            let ObjState::Counter {
                cfg,
                value,
                remaining,
            } = state
            else {
                return 0;
            };
            let mut fires = 0;
            if *remaining == 0 {
                if cfg.gated {
                    let go = p.evin(0);
                    if !ch.has(go) {
                        return 0;
                    }
                    ch.take_ev(go);
                    stats.event_fires += 1;
                    fires += 1;
                }
                // Ungated, this is an internal reset without any token
                // movement and counts as no fire: a pass that does only
                // this stages nothing, and the next pass finds the reset
                // already done, so the configuration may still sleep.
                *remaining = cfg.period;
                *value = cfg.start;
            }
            // A counter with no data consumers would fire forever without
            // moving a token; require at least one connected value channel.
            let out = p.dout(0);
            if out.is_empty() {
                return fires;
            }
            let last = *remaining == 1;
            let wrap = p.evout();
            if can_put(ch, out) && (!last || can_put(ch, wrap)) {
                put(ch, out, Word::from_i64(*value));
                if last {
                    put_ev(ch, wrap, Event(true));
                }
                *value += cfg.step;
                *remaining -= 1;
                stats.reg_fires += 1;
                fires += 1;
            }
            fires
        }
        Rule::Select => {
            let (a, b, sel) = (p.din(0), p.din(1), p.evin(0));
            if ch.has(a) && ch.has(b) && ch.has(sel) {
                let out = p.dout(0);
                if can_put(ch, out) {
                    let s = ch.take_ev(sel);
                    let (x, y) = (ch.take(a), ch.take(b));
                    put(ch, out, if s.0 { y } else { x });
                    stats.reg_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::Merge => {
            let sel = p.evin(0);
            if ch.has(sel) {
                let out = p.dout(0);
                let port = p.din(usize::from(ch.peek_ev(sel).0));
                if can_put(ch, out) && ch.has(port) {
                    ch.take_ev(sel);
                    let v = ch.take(port);
                    put(ch, out, v);
                    stats.reg_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::Demux => {
            let (a, sel) = (p.din(0), p.evin(0));
            if ch.has(a) && ch.has(sel) {
                let out = p.dout(usize::from(ch.peek_ev(sel).0));
                if can_put(ch, out) {
                    ch.take_ev(sel);
                    let v = ch.take(a);
                    put(ch, out, v);
                    stats.reg_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::Swap => {
            let (a, b, sel) = (p.din(0), p.din(1), p.evin(0));
            if ch.has(a) && ch.has(b) && ch.has(sel) {
                let (out0, out1) = (p.dout(0), p.dout(1));
                if can_put(ch, out0) && can_put(ch, out1) {
                    let s = ch.take_ev(sel);
                    let (x, y) = (ch.take(a), ch.take(b));
                    let (x, y) = if s.0 { (y, x) } else { (x, y) };
                    put(ch, out0, x);
                    put(ch, out1, y);
                    stats.reg_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::Gate => {
            let (a, sel) = (p.din(0), p.evin(0));
            if ch.has(a) && ch.has(sel) {
                let out = p.dout(0);
                let pass = ch.peek_ev(sel).0;
                if pass && !can_put(ch, out) {
                    return 0;
                }
                ch.take_ev(sel);
                let v = ch.take(a);
                if pass {
                    put(ch, out, v);
                }
                stats.reg_fires += 1;
                return 1;
            }
            0
        }
        Rule::AccumDump => {
            let (a, sel) = (p.din(0), p.evin(0));
            if ch.has(a) && ch.has(sel) {
                let out = p.dout(0);
                let dump = ch.peek_ev(sel).0;
                if dump && !can_put(ch, out) {
                    return 0;
                }
                let ObjState::Accum(acc) = state else {
                    return 0;
                };
                ch.take_ev(sel);
                *acc = acc.wrapping_add(ch.take(a));
                if dump {
                    put(ch, out, std::mem::replace(acc, Word::ZERO));
                }
                stats.alu_fires += 1;
                return 1;
            }
            0
        }
        Rule::ToEvent => {
            let a = p.din(0);
            if ch.has(a) {
                let out = p.evout();
                if can_put(ch, out) {
                    let v = ch.take(a);
                    put_ev(ch, out, Event(v.truthy()));
                    stats.event_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::ToData => {
            let a = p.evin(0);
            if ch.has(a) {
                let out = p.dout(0);
                if can_put(ch, out) {
                    let v = ch.take_ev(a);
                    put(ch, out, Word::new(v.0 as i32));
                    stats.reg_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::EventNot => {
            let a = p.evin(0);
            if ch.has(a) {
                let out = p.evout();
                if can_put(ch, out) {
                    let v = ch.take_ev(a);
                    put_ev(ch, out, Event(!v.0));
                    stats.event_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::EventAnd | Rule::EventOr => {
            let (a, b) = (p.evin(0), p.evin(1));
            if ch.has(a) && ch.has(b) {
                let out = p.evout();
                if can_put(ch, out) {
                    let (x, y) = (ch.take_ev(a), ch.take_ev(b));
                    let r = if matches!(rule, Rule::EventAnd) {
                        x.0 && y.0
                    } else {
                        x.0 || y.0
                    };
                    put_ev(ch, out, Event(r));
                    stats.event_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::Ram => {
            let ObjState::Ram(mem) = state else {
                return 0;
            };
            let mut fires = 0;
            // Write rule first: write-through within the cycle.
            let (wr_addr, wr_data) = (p.din(1), p.din(2));
            if ch.has(wr_addr) && ch.has(wr_data) {
                let a = ch.take(wr_addr).bits() as usize % RAM_WORDS;
                mem[a] = ch.take(wr_data);
                stats.ram_writes += 1;
                fires += 1;
            }
            let rd_addr = p.din(0);
            if ch.has(rd_addr) {
                let out = p.dout(0);
                if can_put(ch, out) {
                    let a = ch.take(rd_addr).bits() as usize % RAM_WORDS;
                    put(ch, out, mem[a]);
                    stats.ram_reads += 1;
                    fires += 1;
                }
            }
            fires
        }
        Rule::FifoRing => {
            let out = p.dout(0);
            if !out.is_empty() && can_put(ch, out) {
                if let ObjState::Fifo(buf) = state {
                    if let Some(v) = buf.pop_front() {
                        put(ch, out, v);
                        buf.push_back(v);
                        stats.fifo_fires += 1;
                        return 1;
                    }
                }
            }
            0
        }
        Rule::Fifo(depth) => {
            let ObjState::Fifo(buf) = state else {
                return 0;
            };
            let (a, out) = (p.din(0), p.dout(0));
            let mut fires = 0;
            // The popped word leaves the queue only after the push rule has
            // seen this cycle's occupancy.
            let popped = !buf.is_empty() && can_put(ch, out);
            if popped {
                put(ch, out, *buf.front().expect("nonempty"));
                stats.fifo_fires += 1;
                fires += 1;
            }
            if buf.len() - usize::from(popped) < depth && ch.has(a) {
                buf.push_back(ch.take(a));
                stats.fifo_fires += 1;
                fires += 1;
            }
            if popped {
                buf.pop_front();
            }
            fires
        }
        Rule::Input => {
            let out = p.dout(0);
            if can_put(ch, out) {
                if let ObjState::ExtInData(q) = state {
                    if let Some(v) = q.pop_front() {
                        put(ch, out, v);
                        stats.io_words += 1;
                        return 1;
                    }
                }
            }
            0
        }
        Rule::Output => {
            let a = p.din(0);
            if ch.has(a) {
                if let ObjState::ExtOutData(buf) = state {
                    buf.push(ch.take(a));
                    stats.io_words += 1;
                    return 1;
                }
            }
            0
        }
        Rule::InputEvent => {
            let out = p.evout();
            if can_put(ch, out) {
                if let ObjState::ExtInEv(q) = state {
                    if let Some(v) = q.pop_front() {
                        put_ev(ch, out, Event(v));
                        stats.event_fires += 1;
                        return 1;
                    }
                }
            }
            0
        }
        Rule::OutputEvent => {
            let a = p.evin(0);
            if ch.has(a) {
                if let ObjState::ExtOutEv(buf) = state {
                    buf.push(ch.take_ev(a).0);
                    stats.event_fires += 1;
                    return 1;
                }
            }
            0
        }
    }
}
