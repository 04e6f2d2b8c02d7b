//! The firing rules: what an object does when it fires — and the only place
//! in the crate that says so.
//!
//! [`fire`] evaluates every enabled rule of one object against committed
//! start-of-cycle channel state. All three steppers call it; they differ
//! only in *which* objects they hand it and in three representation choices
//! that the function is generic over, so each stepper gets its own
//! monomorphised copy of the one body and no dynamic dispatch:
//!
//! * where the operand channels come from ([`Ports`]): the object table's
//!   own port maps ([`ObjPorts`], event and reference steppers) or a
//!   compiled [`Micro`] with its ports pre-resolved to replay-slab indices;
//! * how a channel id reaches a channel ([`ChanTable`]): the sparse
//!   `Option` tables or the dense replay slabs;
//! * what happens when a fire first stages a channel ([`StageSink`]): the
//!   event stepper collects the id for its commit walk, replay only counts.

use std::collections::VecDeque;

use crate::channel::Channel;
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

/// Inline fan-out list of channel indices for one output port. Fan-out
/// beyond the inline capacity spills to the heap; netlists rarely need it.
#[derive(Debug, Default)]
pub(super) struct PortList {
    inline: [u32; 4],
    len: u8,
    spill: Vec<u32>,
}

impl PortList {
    pub(super) fn from_chans(chans: Vec<usize>) -> Self {
        let mut list = PortList::default();
        if chans.len() <= list.inline.len() {
            for (i, c) in chans.iter().enumerate() {
                list.inline[i] = *c as u32;
            }
            list.len = chans.len() as u8;
        } else {
            list.spill = chans.into_iter().map(|c| c as u32).collect();
        }
        list
    }

    #[inline]
    pub(super) fn chans(&self) -> &[u32] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

/// Rule selector: an [`ObjectKind`] reduced to what firing needs, `Copy`
/// and resolved once at load time (multiplier class, FIFO mode) instead of
/// per fire. Stateful rules find their parameters next to their state
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
    /// Fires zero times. Compiled for a recorded op whose object vanished or
    /// was disabled between capture and promotion (impossible: every such
    /// mutation invalidates first), so the replay guard trips on its first
    /// cycle and hands control back to the event scheduler.
    Nop,
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

/// Operand source of a fire: the channel behind each port of the object,
/// by port position. Unconnected inputs read [`NO_CHAN`]; unconnected
/// outputs are empty fan-out lists.
pub(super) trait Ports {
    fn din(&self, i: usize) -> u32;
    fn evin(&self, i: usize) -> u32;
    fn dout(&self, i: usize) -> &[u32];
    fn evout(&self) -> &[u32];
}

/// An object's port maps into the sparse channel tables, sized to the
/// widest port shapes so the hot loop never chases a heap pointer to find
/// a channel index.
#[derive(Debug)]
pub(super) struct ObjPorts {
    pub(super) din: [Option<u32>; 3],
    pub(super) dout: [PortList; 2],
    pub(super) evin: [Option<u32>; 2],
    pub(super) evout: [PortList; 1],
}

impl Ports for ObjPorts {
    #[inline]
    fn din(&self, i: usize) -> u32 {
        self.din[i].unwrap_or(NO_CHAN)
    }
    #[inline]
    fn evin(&self, i: usize) -> u32 {
        self.evin[i].unwrap_or(NO_CHAN)
    }
    #[inline]
    fn dout(&self, i: usize) -> &[u32] {
        self.dout[i].chans()
    }
    #[inline]
    fn evout(&self) -> &[u32] {
        self.evout[0].chans()
    }
}

#[derive(Debug)]
pub(super) struct RuntimeObject {
    pub(super) rule: Rule,
    pub(super) label: String,
    pub(super) state: ObjState,
    /// Lifetime fire count; `config_fire_count` aggregates these lazily
    /// instead of a per-fire `HashMap` update in the hot loop.
    pub(super) fires: u64,
    /// True once the owning configuration finished loading. Replaces the
    /// per-step set of loading configurations.
    pub(super) enabled: bool,
    pub(super) ports: ObjPorts,
}

/// One compiled fire op of the active schedule: an object's ports packed
/// into five slots and resolved to replay-slab indices at promotion, so the
/// replay loop streams a dense ~40-byte op instead of chasing the object
/// table. No [`ObjectKind::shape`] populates both tenants of a shared slot:
///
/// | slot | holds                                                    |
/// |------|----------------------------------------------------------|
/// | `a`  | data input 0                                             |
/// | `b`  | data input 1, or event input 1 (the binary event gates)  |
/// | `ev` | event input 0, or data input 2 (RAM write-data)          |
/// | `f0` | data output 0, as a range of the fan table               |
/// | `f1` | data output 1, or the event output, as a range           |
///
/// [`compile_micro_op`] packs and `impl Ports for MicroPorts` unpacks.
/// Internal state stays in the object table under `slot`.
#[derive(Debug, Clone, Copy)]
pub(super) struct Micro {
    pub(super) rule: Rule,
    pub(super) slot: u32,
    a: u32,
    b: u32,
    ev: u32,
    f0: u32,
    f1: u32,
    f0n: u16,
    f1n: u16,
    /// Recorded fire count for this op (from the schedule's packed op),
    /// baked in so the replay guard streams a single array.
    pub(super) fires: u8,
}

/// A [`Micro`] together with the fan table its output ranges index.
pub(super) struct MicroPorts<'a> {
    pub(super) m: &'a Micro,
    pub(super) fan: &'a [u32],
}

impl Ports for MicroPorts<'_> {
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

/// Packs one recorded fire op into a [`Micro`]. `data`/`event` translate a
/// channel id of the respective network into the index the replay loop
/// will use (moving the channel into its slab on first sight); output
/// fan-outs are appended to `fan`. An op whose object vanished or was
/// disabled compiles to [`Rule::Nop`].
pub(super) fn compile_micro_op(
    obj: Option<&RuntimeObject>,
    slot: u32,
    fires: u8,
    fan: &mut Vec<u32>,
    mut data: impl FnMut(u32) -> u32,
    mut event: impl FnMut(u32) -> u32,
) -> Micro {
    let mut m = Micro {
        rule: Rule::Nop,
        slot,
        a: NO_CHAN,
        b: NO_CHAN,
        ev: NO_CHAN,
        f0: 0,
        f1: 0,
        f0n: 0,
        f1n: 0,
        fires,
    };
    // A disabled object cannot have been recorded firing; a Nop keeps the
    // guard honest should that invariant ever bend.
    let Some(obj) = obj.filter(|o| o.enabled) else {
        return m;
    };
    let p = &obj.ports;
    debug_assert!(
        p.din[1].is_none() || p.evin[1].is_none(),
        "slot b has two tenants"
    );
    debug_assert!(
        p.evin[0].is_none() || p.din[2].is_none(),
        "slot ev has two tenants"
    );
    debug_assert!(
        p.dout[1].chans().is_empty() || p.evout[0].chans().is_empty(),
        "slot f1 has two tenants"
    );
    m.a = p.din[0].map_or(NO_CHAN, &mut data);
    m.b = match (p.din[1], p.evin[1]) {
        (Some(c), _) => data(c),
        (None, Some(c)) => event(c),
        (None, None) => NO_CHAN,
    };
    m.ev = match (p.evin[0], p.din[2]) {
        (Some(c), _) => event(c),
        (None, Some(c)) => data(c),
        (None, None) => NO_CHAN,
    };
    let mut push_fan = |chans: &[u32], map: &mut dyn FnMut(u32) -> u32| {
        let start = u32::try_from(fan.len()).ok()?;
        let n = u16::try_from(chans.len()).ok()?;
        fan.extend(chans.iter().map(|&c| map(c)));
        Some((start, n))
    };
    let out0 = push_fan(p.dout[0].chans(), &mut data);
    let out1 = if p.evout[0].chans().is_empty() {
        push_fan(p.dout[1].chans(), &mut data)
    } else {
        push_fan(p.evout[0].chans(), &mut event)
    };
    let (Some((f0, f0n)), Some((f1, f1n))) = (out0, out1) else {
        return m;
    };
    (m.f0, m.f0n, m.f1, m.f1n) = (f0, f0n, f1, f1n);
    m.rule = obj.rule;
    m
}

/// Channel-table access for the firing rules: the sparse `Option` tables
/// (`dchans`/`echans`) or the dense slabs built at promotion.
pub(super) trait ChanTable {
    type Token: Copy + Default;
    fn chan(&self, c: u32) -> &Channel<Self::Token>;
    fn chan_mut(&mut self, c: u32) -> &mut Channel<Self::Token>;
}

impl<T: Copy + Default> ChanTable for [Option<Channel<T>>] {
    type Token = T;
    #[inline]
    fn chan(&self, c: u32) -> &Channel<T> {
        self[c as usize].as_ref().expect("live channel")
    }
    #[inline]
    fn chan_mut(&mut self, c: u32) -> &mut Channel<T> {
        self[c as usize].as_mut().expect("live channel")
    }
}

impl<T: Copy + Default> ChanTable for [Channel<T>] {
    type Token = T;
    #[inline]
    fn chan(&self, c: u32) -> &Channel<T> {
        &self[c as usize]
    }
    #[inline]
    fn chan_mut(&mut self, c: u32) -> &mut Channel<T> {
        &mut self[c as usize]
    }
}

/// Sink for "channel newly staged this cycle" notifications from the
/// firing rules. The event stepper collects the ids (its commit loop
/// walks exactly the staged channels and wakes their endpoints); the
/// replay loop only counts them, because its commit loop streams the
/// recorded signature and verifies set equality via the count.
pub(super) trait StageSink {
    fn note(&mut self, c: usize);
}

impl StageSink for Vec<usize> {
    #[inline]
    fn note(&mut self, c: usize) {
        self.push(c);
    }
}

/// Counting sink for the replay loop: no per-touch memory traffic.
#[derive(Default)]
pub(super) struct StageCount(pub(super) u32);

impl StageSink for StageCount {
    #[inline]
    fn note(&mut self, _c: usize) {
        self.0 += 1;
    }
}

/// One token network (data or event) as a fire sees it: its channel table
/// and the sink told about each channel the fire is first to stage.
pub(super) struct Lane<'a, C: ?Sized, S> {
    pub(super) chans: &'a mut C,
    pub(super) staged: &'a mut S,
}

impl<C: ChanTable + ?Sized, S: StageSink> Lane<'_, C, S> {
    #[inline]
    fn has(&self, c: u32) -> bool {
        c != NO_CHAN && self.chans.chan(c).has_token()
    }

    #[inline]
    fn can_put(&self, chans: &[u32]) -> bool {
        chans.iter().all(|&c| self.chans.chan(c).has_space())
    }

    #[inline]
    fn peek(&self, c: u32) -> C::Token {
        self.chans.chan(c).peek().expect("token present")
    }

    #[inline]
    fn take(&mut self, c: u32) -> C::Token {
        let ch = self.chans.chan_mut(c);
        if !ch.is_staged() {
            self.staged.note(c as usize);
        }
        ch.consume()
    }

    #[inline]
    fn put(&mut self, chans: &[u32], v: C::Token) {
        for &c in chans {
            let ch = self.chans.chan_mut(c);
            if !ch.is_staged() {
                self.staged.note(c as usize);
            }
            ch.produce(v);
        }
    }
}

/// Everything outside the object that a fire reads or writes.
pub(super) struct Net<'a, D: ?Sized, E: ?Sized, S> {
    pub(super) d: Lane<'a, D, S>,
    pub(super) e: Lane<'a, E, S>,
    pub(super) stats: &'a mut ArrayStats,
}

impl RuntimeObject {
    /// [`fire`] on this object's own ports and state, against the sparse
    /// channel tables and dirty-channel worklists — the one instantiation
    /// the event and reference steppers share.
    #[inline]
    pub(super) fn fire(
        &mut self,
        dchans: &mut [Option<Channel<Word>>],
        echans: &mut [Option<Channel<Event>>],
        dirty_d: &mut Vec<usize>,
        dirty_e: &mut Vec<usize>,
        stats: &mut ArrayStats,
    ) -> u32 {
        let mut net = Net {
            d: Lane {
                chans: dchans,
                staged: dirty_d,
            },
            e: Lane {
                chans: echans,
                staged: dirty_e,
            },
            stats,
        };
        fire(self.rule, &self.ports, || Some(&mut self.state), &mut net)
    }
}

/// Fires every enabled rule of one object; returns the number of rule
/// fires. `state` fetches the object's internal state and is called only
/// by the stateful rules, once their channel-side conditions hold.
///
/// Channels a fire is first to touch are reported to the lane's sink
/// (deduplicated via [`Channel::is_staged`]), in take/put order — the
/// order the replay commit-signature guard verifies. Because every stepper
/// runs this one body, steppers can differ only in which objects they
/// visit, and an unvisited object never fires.
///
/// Always inlined: each caller then holds `net`'s references as plain
/// locals instead of reaching them through an aggregate behind a pointer
/// (measured: ~9% of event-stepper time when the call stayed out of line).
#[inline(always)]
pub(super) fn fire<'s, P, D, E, S>(
    rule: Rule,
    p: &P,
    state: impl FnOnce() -> Option<&'s mut ObjState>,
    net: &mut Net<'_, D, E, S>,
) -> u32
where
    P: Ports,
    D: ChanTable<Token = Word> + ?Sized,
    E: ChanTable<Token = Event> + ?Sized,
    S: StageSink,
{
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
            let Some(ObjState::Counter {
                cfg,
                value,
                remaining,
            }) = state()
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
                // movement: deferring it until the next wake is
                // observationally identical, so the scheduler may legally
                // skip idle counters in this state.
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
                let Some(ObjState::Accum(acc)) = state() else {
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
            let Some(ObjState::Ram(mem)) = state() else {
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
                if let Some(ObjState::Fifo(buf)) = state() {
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
            let Some(ObjState::Fifo(buf)) = state() else {
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
                if let Some(ObjState::ExtInData(q)) = state() {
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
                if let Some(ObjState::ExtOutData(buf)) = state() {
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
                if let Some(ObjState::ExtInEv(q)) = state() {
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
                if let Some(ObjState::ExtOutEv(buf)) = state() {
                    buf.push(e.take(a).0);
                    stats.event_fires += 1;
                    return 1;
                }
            }
            0
        }
        Rule::Nop => 0,
    }
}
