//! Full-rate blocks: many cycles of one configuration stepped op-major.
//!
//! A configuration whose program is *full-rate eligible* (see
//! [`FullRate`]) has a steady state the dense stepper cannot skip but need
//! not repeat cycle by cycle: a pass in which every object does its full
//! action — takes one token from each input, puts one on each output, a
//! FIFO pops and pushes — leaves every channel's occupancy and every
//! FIFO's length as they were. Nothing an eligible object decides on reads
//! a value, so the next pass is full again as long as every input queue
//! holds a word, and so on by induction. When the dense pass just stepped
//! was full (its fires equal the program's full total, one comparison),
//! `Array::{run, run_until_idle, run_until_output}` step the next
//! `B = min(input queue lengths, the caller's remaining cycles or missing
//! output words, BLOCK)` cycles (and no further than the next dump: see
//! below) as one block — only while that
//! configuration is the array's one awake configuration, no load is on the
//! bus and no board route is wired, since each of those acts every cycle.
//!
//! A block runs op by op, producers first, each op over all `B` passes,
//! on *streams*: channel `c`'s stream is its `L` committed tokens followed
//! by its producer's `B` outputs, so its consumer takes token `j` of the
//! stream on pass `j`. A FIFO is a channel as long as its queue (its `K`
//! queued words sit in front of its input channel's stream, and it emits
//! word `j` of the joined stream on pass `j`); a self-loop reads its own
//! outputs of `L` passes before. Each channel is left holding the last `L`
//! tokens of its stream and each FIFO the last `K` of its own, and `B` full
//! passes are booked in every count the dense stepper keeps — per-op
//! fires, [`ArrayStats`](crate::ArrayStats) (cycles included) and
//! [`ScheduleStats`](crate::schedule::ScheduleStats)`::replay_cycles` —
//! so every observable equals the dense stepper's.
//!
//! # Dump horizons
//!
//! An accumulate-and-dump whose dump event descends from a free-running
//! counter through stateless ops (the despreader of the rake finger: a
//! modulo-SF counter, `EqK(SF − 1)`, `to_event`) has a full action too as
//! long as its event is 0: it takes one product and one event and puts
//! nothing, and the objects behind its output stay idle. So a full pass of
//! such a program is one in which every object ahead of a dump does its
//! full action and every object behind one does none (the dense pass
//! counts the two apart: the compiled runs put the objects behind a dump
//! last), and a block may start after it only if no accumulator dumped in
//! it (its output channels are empty). Before the block:
//!
//! * the *dump chain* — every ancestor of a dump event — steps first, over
//!   the most passes the block may take: its ops keep no state but the
//!   counters', which it reads without advancing;
//! * the *horizon* is the first pass whose event stream, committed tokens
//!   then the chain's outputs, holds a 1 at an accumulator, and the block
//!   steps the rest of the program up to it: `B = min(input queues,
//!   horizon, the caller's limit, BLOCK)` passes, each accumulator adding
//!   `B` products, everything behind it left as it was;
//! * the counters advance by `B`, and the pass at the horizon — the dump —
//!   and the drain behind it run dense.
//!
//! A `run_until_output` on a port behind a dump is not bounded by its
//! missing words, since a block puts none on it.
//!
//! This is not the capture/replay the crate once had: there is no period
//! to detect, nothing recorded to replay and no guard to trip. The rule is
//! a property of the compiled program plus one comparison per pass, and
//! it holds whatever the data.

use super::load::LoadedConfig;
use super::{Array, ObjState};
use crate::channel::Slab;
use crate::compiled::{FullRate, Kind, Program, Step, BLOCK};
use crate::object::CounterCfg;
use crate::stats::ArrayStats;
use crate::word::Word;

/// The array's block scratch, sized at configure time for the largest
/// eligible program ever loaded, so a block never allocates.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    /// Every channel's stream (see the module doc).
    streams: Vec<Word>,
    /// One op's outputs before they are copied into its channels' streams.
    tmp: Vec<Word>,
    /// Stream positions one op writes its outputs at.
    outs: Vec<usize>,
}

impl Scratch {
    /// Grows the scratch to hold the streams of `rate`'s program.
    pub(super) fn fit(&mut self, rate: &FullRate) {
        if self.streams.len() < rate.words {
            self.streams.resize(rate.words, Word::ZERO);
        }
        self.tmp.resize(BLOCK, Word::ZERO);
        self.outs.reserve(2 * rate.widest);
    }
}

thread_local! {
    #[cfg(any(test, feature = "reference"))]
    static CAP: std::cell::Cell<usize> = const { std::cell::Cell::new(BLOCK) };
}

/// Runs `f` with every [`Array`] constructed inside it stepping blocks of
/// at most `cap` cycles (at most [`BLOCK`]; 0 steps no block). Test builds
/// only, like [`with_reference_stepper`](super::with_reference_stepper).
#[cfg(any(test, feature = "reference"))]
pub fn with_block_cap<T>(cap: usize, f: impl FnOnce() -> T) -> T {
    struct Reset(usize);
    impl Drop for Reset {
        fn drop(&mut self) {
            CAP.with(|c| c.set(self.0));
        }
    }
    let _reset = Reset(CAP.with(|c| c.replace(cap.min(BLOCK))));
    f()
}

/// The block cap an array latches at construction.
#[cfg(any(test, feature = "reference"))]
pub(super) fn cap() -> usize {
    CAP.with(|c| c.get())
}

impl Array {
    /// Most cycles one block of this array steps.
    fn block_cap(&self) -> usize {
        #[cfg(any(test, feature = "reference"))]
        let cap = self.block_cap;
        #[cfg(not(any(test, feature = "reference")))]
        let cap = BLOCK;
        cap
    }

    /// Cycles this array has stepped in blocks (test builds only).
    #[cfg(any(test, feature = "reference"))]
    pub fn block_cycles(&self) -> u64 {
        self.block_cycles
    }

    /// Whether a block of the configuration at `at` may put words on the
    /// data output port `port`: not if the port is another configuration's
    /// (asleep while `at` steps alone) or behind a dump.
    pub(super) fn block_feeds(&self, at: usize, (cfg, slot): (usize, usize)) -> bool {
        let rate = self.configs[at].program.full.as_ref();
        cfg == at && !rate.is_some_and(|r| r.idle_ports.contains(&(slot as u32)))
    }

    /// Steps up to `limit` cycles as one block of the configuration at
    /// `at`, whose pass this cycle was full and the only one stepped, if
    /// nothing else acts per cycle. Returns the cycles stepped (0 for no
    /// block).
    pub(super) fn block(&mut self, at: usize, limit: u64) -> u64 {
        if !self.load_queue.is_empty() || !self.connections.is_empty() {
            return 0;
        }
        let cap = self.block_cap();
        let cfg = &mut self.configs[at];
        let rate = cfg.program.full.as_ref().expect("an eligible program");
        // A sum dumped this pass: the objects behind it act on the next.
        if rate.sums.iter().any(|&c| cfg.slab.len(c) != 0) {
            return 0;
        }
        let queued = cfg.states.iter().filter_map(|s| match s {
            ObjState::ExtInData(q) => Some(q.len()),
            ObjState::ExtInEv(q) => Some(q.len()),
            _ => None,
        });
        let b = queued
            .fold(cap, usize::min)
            .min(usize::try_from(limit).unwrap_or(usize::MAX));
        if b == 0 {
            return 0;
        }
        let b = cfg.run_block(b, &mut self.scratch, &mut self.stats);
        self.stats.cycles += b as u64;
        self.schedule.replay_cycles += b as u64;
        #[cfg(any(test, feature = "reference"))]
        {
            self.block_cycles += b as u64;
        }
        b as u64
    }
}

impl LoadedConfig {
    /// Up to `most` full passes, op-major over the streams, stopping before
    /// the first that would dump; books their fires and returns how many.
    fn run_block(&mut self, most: usize, scratch: &mut Scratch, stats: &mut ArrayStats) -> usize {
        let program = &*self.program;
        let rate = program.full.as_ref().expect("an eligible program");
        for &c in &rate.streamed {
            let at = rate.base[c as usize] as usize;
            self.slab
                .read(c, &mut scratch.streams[at..at + self.slab.len(c)]);
        }
        // The dump chain over every pass the block may take, then the
        // horizon: the passes before a 1 event reaches an accumulator.
        let (chain, rest) = rate.order.split_at(rate.chain);
        for step in chain {
            scratch.passes(program, &self.slab, step, most, &mut self.states);
        }
        let b = rate.dumps.iter().fold(most, |b, &c| {
            let at = rate.base[c as usize] as usize;
            let events = &scratch.streams[at..at + b];
            events.iter().position(|&e| e != Word::ZERO).unwrap_or(b)
        });
        if b == 0 {
            return 0;
        }
        for step in rest {
            scratch.passes(program, &self.slab, step, b, &mut self.states);
        }
        for step in &rate.order {
            self.fires[step.op as usize] += b as u64 * step.fires;
            *(step.class)(stats) += b as u64 * step.fires;
            if step.kind == Kind::Counter {
                let state = &mut self.states[program.ops[step.op as usize].state as usize];
                let ObjState::Counter {
                    cfg,
                    value,
                    remaining,
                } = state
                else {
                    unreachable!("a counter's state")
                };
                for _ in 0..b {
                    tick(cfg, value, remaining);
                }
            }
        }
        for &c in &rate.streamed {
            let at = rate.base[c as usize] as usize + b;
            self.slab
                .write(c, &scratch.streams[at..at + self.slab.len(c)]);
        }
        b
    }
}

impl Scratch {
    /// `b` passes of one step of `program`, whose channels are `slab`'s,
    /// over the streams.
    fn passes(
        &mut self,
        program: &Program,
        slab: &Slab,
        step: &Step,
        b: usize,
        states: &mut [ObjState],
    ) {
        let rate = program.full.as_ref().expect("an eligible program");
        let op = &program.ops[step.op as usize];
        let Scratch { streams, tmp, outs } = self;
        outs.clear();
        let mut split = 0;
        for p in 0..2 {
            for &c in op.port(p, step.arity, &program.fan) {
                if c != slab.null() {
                    outs.push(rate.base[c as usize] as usize + slab.len(c));
                }
            }
            if p == 0 {
                split = outs.len();
            }
        }
        let (outs0, outs1) = outs.split_at(split);
        let mut passes = Passes {
            s: streams,
            tmp,
            b,
            looped: step.looped,
            outs: [outs0, outs1],
        };
        let rd = |k: usize| rate.base[op.i[k] as usize] as usize;
        passes.run(step.kind, op, rd, states.get_mut(op.state as usize));
    }
}

/// A free-running counter's next value, what it emits on a pass, from
/// its state (`value`, `remaining`), which it advances.
#[inline(always)]
fn tick(cfg: &CounterCfg, value: &mut i64, remaining: &mut u64) -> Word {
    if *remaining == 0 {
        (*remaining, *value) = (cfg.period, cfg.start);
    }
    let v = Word::from_i64(*value);
    *value += cfg.step;
    *remaining -= 1;
    v
}

/// The event word of a boolean.
#[inline(always)]
fn ev(b: bool) -> Word {
    Word::new(i32::from(b))
}

/// One op's `b` passes over the streams.
struct Passes<'a> {
    s: &'a mut [Word],
    tmp: &'a mut [Word],
    b: usize,
    /// The op takes tokens from one of its own outputs.
    looped: bool,
    /// Stream positions of output port 0's channels and port 1's.
    outs: [&'a [usize]; 2],
}

impl Passes<'_> {
    /// Output port 0 on pass `j` is `f` of the inputs at `ins` on pass `j`.
    /// A self-loop runs pass by pass in the streams, reading what earlier
    /// passes wrote; any other op runs its passes into `tmp` (one loop
    /// over slices, no index checks) and copies them out.
    #[inline(always)]
    fn map<const N: usize>(&mut self, ins: [usize; N], f: impl Fn([Word; N]) -> Word) {
        let (s, b) = (&mut *self.s, self.b);
        if self.looped {
            for j in 0..b {
                let v = f(ins.map(|r| s[r + j]));
                self.outs[0].iter().for_each(|&w| s[w + j] = v);
            }
            return;
        }
        let ins = ins.map(|r| &s[r..r + b]);
        for (j, t) in self.tmp[..b].iter_mut().enumerate() {
            *t = f(ins.map(|x| x[j]));
        }
        self.copy_out();
    }

    /// Output port 0 takes `words`, one per pass.
    fn fill(&mut self, words: impl Iterator<Item = Word>) {
        for (t, v) in self.tmp[..self.b].iter_mut().zip(words) {
            *t = v;
        }
        self.copy_out();
    }

    /// Copies `tmp` into every stream of output port 0.
    fn copy_out(&mut self) {
        let b = self.b;
        for &w in self.outs[0] {
            self.s[w..w + b].copy_from_slice(&self.tmp[..b]);
        }
    }

    /// The `b` passes of `op`, a `kind` op whose input `k` is at `rd(k)`.
    fn run(
        &mut self,
        kind: Kind,
        op: &crate::compiled::Op,
        rd: impl Fn(usize) -> usize,
        state: Option<&mut ObjState>,
    ) {
        use crate::object::{AluOp as A, UnaryOp as U};
        use Kind as K;
        let (k, sh, b) = (op.k, op.s, self.b);
        let bin = |x: &mut Self, f: fn(Word, Word, Word, u32) -> Word| {
            x.map([rd(0), rd(1)], |[a, c]| f(a, c, k, sh))
        };
        let un = |x: &mut Self, f: fn(Word, Word, u32) -> Word| x.map([rd(0)], |[a]| f(a, k, sh));
        match kind {
            K::Add => bin(self, |x, y, _, _| A::Add.eval(x, y)),
            K::Sub => bin(self, |x, y, _, _| A::Sub.eval(x, y)),
            K::Mul => bin(self, |x, y, _, _| A::Mul.eval(x, y)),
            K::MulShr => bin(self, |x, y, _, sh| A::MulShr(sh).eval(x, y)),
            K::And => bin(self, |x, y, _, _| A::And.eval(x, y)),
            K::Or => bin(self, |x, y, _, _| A::Or.eval(x, y)),
            K::Xor => bin(self, |x, y, _, _| A::Xor.eval(x, y)),
            K::Min => bin(self, |x, y, _, _| A::Min.eval(x, y)),
            K::Max => bin(self, |x, y, _, _| A::Max.eval(x, y)),
            K::Lt => bin(self, |x, y, _, _| A::Lt.eval(x, y)),
            K::Eq => bin(self, |x, y, _, _| A::Eq.eval(x, y)),
            K::Shl => bin(self, |x, y, _, _| A::Shl.eval(x, y)),
            K::Shr => bin(self, |x, y, _, _| A::Shr.eval(x, y)),
            K::Pass => un(self, |x, _, _| U::Pass.eval(x)),
            K::Neg => un(self, |x, _, _| U::Neg.eval(x)),
            K::Abs => un(self, |x, _, _| U::Abs.eval(x)),
            K::ShlK => un(self, |x, _, sh| U::ShlK(sh).eval(x)),
            K::ShrK => un(self, |x, _, sh| U::ShrK(sh).eval(x)),
            K::AddK => un(self, |x, k, _| U::AddK(k).eval(x)),
            K::MulKShr => un(self, |x, k, sh| U::MulKShr(k, sh).eval(x)),
            K::AndK => un(self, |x, k, _| U::AndK(k).eval(x)),
            K::XorK => un(self, |x, k, _| U::XorK(k).eval(x)),
            K::EqK => un(self, |x, k, _| U::EqK(k).eval(x)),
            K::LtK => un(self, |x, k, _| U::LtK(k).eval(x)),
            K::GeK => un(self, |x, k, _| U::GeK(k).eval(x)),
            K::ToEvent => un(self, |x, _, _| ev(x.truthy())),
            // An event word is already the data word 0 or 1.
            K::ToData => un(self, |x, _, _| x),
            K::EventNot => un(self, |x, _, _| ev(x == Word::ZERO)),
            K::EventAnd => bin(self, |x, y, _, _| ev(x != Word::ZERO && y != Word::ZERO)),
            K::EventOr => bin(self, |x, y, _, _| ev(x != Word::ZERO || y != Word::ZERO)),
            K::Select => self.map(
                [rd(0), rd(1), rd(2)],
                |[x, y, sel]| {
                    if sel == Word::ZERO {
                        x
                    } else {
                        y
                    }
                },
            ),
            K::Swap => {
                // Pass by pass, both ports: rare enough not to specialise.
                let (a, c, sel, s) = (rd(0), rd(1), rd(2), &mut *self.s);
                for j in 0..b {
                    let (x, y) = (s[a + j], s[c + j]);
                    let (x, y) = if s[sel + j] == Word::ZERO {
                        (x, y)
                    } else {
                        (y, x)
                    };
                    self.outs[0].iter().for_each(|&w| s[w + j] = x);
                    self.outs[1].iter().for_each(|&w| s[w + j] = y);
                }
            }
            K::Const => self.fill(std::iter::repeat(k)),
            K::Fifo => {
                let Some(ObjState::Fifo(buf)) = state else {
                    unreachable!("a FIFO's state")
                };
                // The queue sits in front of the input stream: word j of
                // the joined stream leaves on pass j.
                let at = rd(0) - buf.len();
                for (slot, &v) in self.s[at..].iter_mut().zip(buf.iter()) {
                    *slot = v;
                }
                self.map([at], |[x]| x);
                let kept = at + b..at + b + buf.len();
                buf.clear();
                buf.extend(&self.s[kept]);
            }
            K::FifoRing => {
                let Some(ObjState::Fifo(buf)) = state else {
                    unreachable!("a FIFO's state")
                };
                self.fill(buf.iter().copied().cycle());
                let turn = b % buf.len();
                buf.rotate_left(turn);
            }
            K::Input | K::InputEvent => match state {
                Some(ObjState::ExtInData(q)) => {
                    self.fill(q.drain(..b));
                }
                Some(ObjState::ExtInEv(q)) => {
                    self.fill(q.drain(..b).map(ev));
                }
                _ => unreachable!("an input port's state"),
            },
            K::Output | K::OutputEvent => {
                let tokens = &self.s[rd(0)..rd(0) + b];
                match state {
                    Some(ObjState::ExtOutData(v)) => v.extend_from_slice(tokens),
                    Some(ObjState::ExtOutEv(v)) => {
                        v.extend(tokens.iter().map(|&w| w != Word::ZERO));
                    }
                    _ => unreachable!("an output port's state"),
                }
            }
            K::Counter => {
                // From a copy: the block advances the state by the passes
                // it keeps once it knows them.
                let Some(ObjState::Counter {
                    cfg,
                    value,
                    remaining,
                }) = state
                else {
                    unreachable!("a counter's state")
                };
                let (mut value, mut remaining) = (*value, *remaining);
                self.fill(std::iter::repeat_with(|| {
                    tick(cfg, &mut value, &mut remaining)
                }));
            }
            K::AccumDump => {
                // Every event of the block is 0: add, put nothing.
                let Some(ObjState::Accum(acc)) = state else {
                    unreachable!("an accumulator's state")
                };
                let products = &self.s[rd(0)..rd(0) + b];
                *acc = products.iter().fold(*acc, |a, &x| a.wrapping_add(x));
            }
            K::GatedCounter | K::Merge | K::Demux | K::Gate | K::Ram => {
                unreachable!("no full rate")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::with_block_cap;
    use crate::array::{with_reference_stepper, Array};
    use crate::netlist::NetlistBuilder;
    use crate::object::{AluOp, UnaryOp};
    use crate::word::Word;

    /// 2a's shape in one lane: `x` against itself through a lag FIFO, a
    /// sliding window kept by a FIFO and a self-loop accumulator.
    fn lane() -> crate::netlist::Netlist {
        let mut nl = NetlistBuilder::new("lane");
        let x = nl.input("x");
        let lag = nl.fifo(5, vec![Word::ZERO; 4]);
        nl.wire(x, lag.input);
        let p = nl.alu(AluOp::Mul, x, lag.output);
        let window = nl.fifo(9, vec![Word::ZERO; 8]);
        nl.wire(p, window.input);
        let diff = nl.alu(AluOp::Sub, p, window.output);
        let (step, acc_in, acc) = nl.alu_deferred(AluOp::Add);
        nl.wire(diff, step);
        nl.wire_with(acc, acc_in, 2, vec![Word::ZERO]);
        let y = nl.unary(UnaryOp::Abs, acc);
        nl.output("y", y);
        nl.build().unwrap()
    }

    /// Two jobs on a resident lane: outputs, fires and statistics.
    fn jobs(array: &mut Array) -> (Vec<Word>, Vec<(String, u64)>, crate::ArrayStats) {
        let cfg = array.configure(&lane()).unwrap();
        let mut out = Vec::new();
        for n in [300, 41] {
            array
                .push_input(cfg, "x", (0..n).map(|i| Word::new(i * 7 % 50 - 25)))
                .unwrap();
            array
                .run_until_output(cfg, "y", n as usize, 10_000)
                .unwrap();
            array.run_until_idle(100).unwrap();
            out.extend(array.drain_output(cfg, "y").unwrap());
        }
        (out, array.object_fire_counts(cfg).unwrap(), array.stats())
    }

    #[test]
    fn a_lane_in_blocks_matches_the_reference() {
        let slow = with_reference_stepper(|| jobs(&mut Array::xpp64a()));
        for cap in [1, 5, super::BLOCK] {
            let mut array = with_block_cap(cap, Array::xpp64a);
            assert_eq!(jobs(&mut array), slow, "cap {cap}");
            // A block of one cycle follows each dense full pass.
            assert!(array.block_cycles() > 150, "cap {cap}");
        }
    }

    /// A block waits for every cycle-by-cycle actor to go quiet: a second
    /// awake configuration, a load on the bus or a board route.
    #[test]
    fn no_block_beside_another_actor() {
        let mut array = Array::xpp64a();
        let a = array.configure(&lane()).unwrap();
        let b = array.configure(&lane()).unwrap();
        array.run_until_idle(1_000).unwrap();
        let push = |array: &mut Array, cfg| {
            array.push_input(cfg, "x", (0..200).map(Word::new)).unwrap();
        };
        push(&mut array, a);
        push(&mut array, b);
        array.run_until_idle(1_000).unwrap();
        assert_eq!(array.block_cycles(), 0, "two awake configurations");
        array.connect(a, "y", b, "x").unwrap();
        push(&mut array, a);
        array.run_until_idle(1_000).unwrap();
        assert_eq!(array.block_cycles(), 0, "a board route");
        let mut array = Array::xpp64a();
        let a = array.configure(&lane()).unwrap();
        array.run_until_idle(1_000).unwrap();
        push(&mut array, a);
        // Eight objects: 24 cycles on the bus.
        let _loading = array.configure(&lane()).unwrap();
        array.run(20);
        assert_eq!(array.block_cycles(), 0, "a load on the bus");
        array.run_until_idle(1_000).unwrap();
        assert!(array.block_cycles() > 0, "alone again");
    }
}
