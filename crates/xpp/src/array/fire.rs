//! The firing rules: what an object does when it fires — and the only place
//! in the crate that says so.
//!
//! [`fire`] evaluates every enabled rule of one object against committed
//! start-of-cycle channel state. Both steppers — the production pass and
//! the reference scan — call it on every object of a configuration they
//! step and then commit every channel; they differ in nothing that firing
//! does.
//!
//! An object's ports reach the function as a [`Micro`] — packed once, by
//! [`CompiledConfig::compile`](crate::CompiledConfig::compile), in the
//! configuration's own channel numbering, which is also the numbering of the
//! dense channel vectors a loaded configuration owns.

use std::collections::VecDeque;

use crate::channel::Channel;
use crate::compiled::CompiledNode;
use crate::object::{AluOp, CounterCfg, ObjectKind, UnaryOp, RAM_WORDS};
use crate::stats::ArrayStats;
use crate::word::{Event, Word};

/// "No channel" sentinel for an unconnected port: the fireability check
/// fails, so a rule that needs the port never fires.
pub(super) const NO_CHAN: u32 = u32::MAX;

#[derive(Debug)]
pub(super) enum ObjState {
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
    /// The power-on internal state of an object of `kind`.
    pub(super) fn initial(kind: &ObjectKind) -> ObjState {
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
            _ => ObjState::None,
        }
    }
}

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

/// One object of a configuration's visit list: its rule and its ports packed
/// into five slots, so the stepping loops stream a dense ~40-byte op. No
/// [`ObjectKind::shape`] populates both tenants of a shared slot:
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
/// [`NO_CHAN`]; unconnected outputs are empty ranges.
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
}

impl Micro {
    /// Packs one compiled node, appending its output fan-outs to `fan`.
    pub(crate) fn pack(node: &CompiledNode, fan: &mut Vec<u32>) -> Micro {
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
        let mut push_fan = |chans: &[u32]| {
            let start = u32::try_from(fan.len()).expect("fan table fits u32");
            let n = u16::try_from(chans.len()).expect("fan-out fits u16");
            fan.extend_from_slice(chans);
            (start, n)
        };
        let (f0, f0n) = push_fan(&node.dout[0]);
        let (f1, f1n) = if node.evout[0].is_empty() {
            push_fan(&node.dout[1])
        } else {
            push_fan(&node.evout[0])
        };
        Micro {
            rule: Rule::of(&node.kind),
            a: node.din[0].unwrap_or(NO_CHAN),
            b: node.din[1].or(node.evin[1]).unwrap_or(NO_CHAN),
            ev: node.evin[0].or(node.din[2]).unwrap_or(NO_CHAN),
            f0,
            f1,
            f0n,
            f1n,
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

/// One token network (data or event) as a fire sees it: the configuration's
/// channels.
pub(super) struct Lane<'a, T>(pub(super) &'a mut [Channel<T>]);

impl<T: Copy + Default> Lane<'_, T> {
    /// [`NO_CHAN`] is past the end of every channel vector, so the bounds
    /// check doubles as the "port connected" test.
    #[inline]
    fn has(&self, c: u32) -> bool {
        self.0.get(c as usize).is_some_and(Channel::has_token)
    }

    #[inline]
    fn can_put(&self, chans: &[u32]) -> bool {
        chans.iter().all(|&c| self.0[c as usize].has_space())
    }

    #[inline]
    fn peek(&self, c: u32) -> T {
        self.0[c as usize].peek().expect("token present")
    }

    #[inline]
    fn take(&mut self, c: u32) -> T {
        self.0[c as usize].consume()
    }

    #[inline]
    fn put(&mut self, chans: &[u32], v: T) {
        for &c in chans {
            self.0[c as usize].produce(v);
        }
    }
}

/// Everything outside the object that a fire reads or writes.
pub(super) struct Net<'a> {
    pub(super) d: Lane<'a, Word>,
    pub(super) e: Lane<'a, Event>,
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
    let Net { d, e, stats } = net;
    // Each rule reads its operands in the order it tests them — inputs,
    // then outputs — so an object that cannot fire is dismissed at its
    // first empty input.
    match rule {
        Rule::Alu(op, mul) => {
            let (a, b) = (p.din(0), p.din(1));
            if d.has(a) && d.has(b) {
                let out = p.dout(0);
                if d.can_put(out) {
                    let (x, y) = (d.take(a), d.take(b));
                    d.put(out, op.eval(x, y));
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
            if d.has(a) {
                let out = p.dout(0);
                if d.can_put(out) {
                    let x = d.take(a);
                    d.put(out, op.eval(x));
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
            if !out.is_empty() && d.can_put(out) {
                d.put(out, k);
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
                    if !e.has(go) {
                        return 0;
                    }
                    e.take(go);
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
            if d.can_put(out) && (!last || e.can_put(wrap)) {
                d.put(out, Word::from_i64(*value));
                if last {
                    e.put(wrap, Event(true));
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
            if d.has(a) && d.has(b) && e.has(sel) {
                let out = p.dout(0);
                if d.can_put(out) {
                    let s = e.take(sel);
                    let (x, y) = (d.take(a), d.take(b));
                    d.put(out, if s.0 { y } else { x });
                    stats.reg_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::Merge => {
            let sel = p.evin(0);
            if e.has(sel) {
                let out = p.dout(0);
                let port = p.din(usize::from(e.peek(sel).0));
                if d.can_put(out) && d.has(port) {
                    e.take(sel);
                    let v = d.take(port);
                    d.put(out, v);
                    stats.reg_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::Demux => {
            let (a, sel) = (p.din(0), p.evin(0));
            if d.has(a) && e.has(sel) {
                let out = p.dout(usize::from(e.peek(sel).0));
                if d.can_put(out) {
                    e.take(sel);
                    let v = d.take(a);
                    d.put(out, v);
                    stats.reg_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::Swap => {
            let (a, b, sel) = (p.din(0), p.din(1), p.evin(0));
            if d.has(a) && d.has(b) && e.has(sel) {
                let (out0, out1) = (p.dout(0), p.dout(1));
                if d.can_put(out0) && d.can_put(out1) {
                    let s = e.take(sel);
                    let (x, y) = (d.take(a), d.take(b));
                    let (x, y) = if s.0 { (y, x) } else { (x, y) };
                    d.put(out0, x);
                    d.put(out1, y);
                    stats.reg_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::Gate => {
            let (a, sel) = (p.din(0), p.evin(0));
            if d.has(a) && e.has(sel) {
                let out = p.dout(0);
                let pass = e.peek(sel).0;
                if pass && !d.can_put(out) {
                    return 0;
                }
                e.take(sel);
                let v = d.take(a);
                if pass {
                    d.put(out, v);
                }
                stats.reg_fires += 1;
                return 1;
            }
            0
        }
        Rule::AccumDump => {
            let (a, sel) = (p.din(0), p.evin(0));
            if d.has(a) && e.has(sel) {
                let out = p.dout(0);
                let dump = e.peek(sel).0;
                if dump && !d.can_put(out) {
                    return 0;
                }
                let ObjState::Accum(acc) = state else {
                    return 0;
                };
                e.take(sel);
                *acc = acc.wrapping_add(d.take(a));
                if dump {
                    d.put(out, std::mem::replace(acc, Word::ZERO));
                }
                stats.alu_fires += 1;
                return 1;
            }
            0
        }
        Rule::ToEvent => {
            let a = p.din(0);
            if d.has(a) {
                let out = p.evout();
                if e.can_put(out) {
                    let v = d.take(a);
                    e.put(out, Event(v.truthy()));
                    stats.event_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::ToData => {
            let a = p.evin(0);
            if e.has(a) {
                let out = p.dout(0);
                if d.can_put(out) {
                    let v = e.take(a);
                    d.put(out, Word::new(v.0 as i32));
                    stats.reg_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::EventNot => {
            let a = p.evin(0);
            if e.has(a) {
                let out = p.evout();
                if e.can_put(out) {
                    let v = e.take(a);
                    e.put(out, Event(!v.0));
                    stats.event_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::EventAnd | Rule::EventOr => {
            let (a, b) = (p.evin(0), p.evin(1));
            if e.has(a) && e.has(b) {
                let out = p.evout();
                if e.can_put(out) {
                    let (x, y) = (e.take(a), e.take(b));
                    let r = if matches!(rule, Rule::EventAnd) {
                        x.0 && y.0
                    } else {
                        x.0 || y.0
                    };
                    e.put(out, Event(r));
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
            if d.has(wr_addr) && d.has(wr_data) {
                let a = d.take(wr_addr).bits() as usize % RAM_WORDS;
                mem[a] = d.take(wr_data);
                stats.ram_writes += 1;
                fires += 1;
            }
            let rd_addr = p.din(0);
            if d.has(rd_addr) {
                let out = p.dout(0);
                if d.can_put(out) {
                    let a = d.take(rd_addr).bits() as usize % RAM_WORDS;
                    d.put(out, mem[a]);
                    stats.ram_reads += 1;
                    fires += 1;
                }
            }
            fires
        }
        Rule::FifoRing => {
            let out = p.dout(0);
            if !out.is_empty() && d.can_put(out) {
                if let ObjState::Fifo(buf) = state {
                    if let Some(v) = buf.pop_front() {
                        d.put(out, v);
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
            let popped = !buf.is_empty() && d.can_put(out);
            if popped {
                d.put(out, *buf.front().expect("nonempty"));
                stats.fifo_fires += 1;
                fires += 1;
            }
            if buf.len() - usize::from(popped) < depth && d.has(a) {
                buf.push_back(d.take(a));
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
            if d.can_put(out) {
                if let ObjState::ExtInData(q) = state {
                    if let Some(v) = q.pop_front() {
                        d.put(out, v);
                        stats.io_words += 1;
                        return 1;
                    }
                }
            }
            0
        }
        Rule::Output => {
            let a = p.din(0);
            if d.has(a) {
                if let ObjState::ExtOutData(buf) = state {
                    buf.push(d.take(a));
                    stats.io_words += 1;
                    return 1;
                }
            }
            0
        }
        Rule::InputEvent => {
            let out = p.evout();
            if e.can_put(out) {
                if let ObjState::ExtInEv(q) = state {
                    if let Some(v) = q.pop_front() {
                        e.put(out, Event(v));
                        stats.event_fires += 1;
                        return 1;
                    }
                }
            }
            0
        }
        Rule::OutputEvent => {
            let a = p.evin(0);
            if e.has(a) {
                if let ObjState::ExtOutEv(buf) = state {
                    buf.push(e.take(a).0);
                    stats.event_fires += 1;
                    return 1;
                }
            }
            0
        }
    }
}
