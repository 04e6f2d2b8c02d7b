//! The stepper: every object of an awake configuration, every cycle, as
//! rule-specialised runs.
//!
//! The XPP is a synchronous token-handshake array — every PAE of a running
//! configuration evaluates its handshake on every clock — and this is that
//! model executed as written: each cycle, an awake configuration steps
//! every [`Run`] of its compiled program, one monomorphic loop over the
//! objects of one firing rule (and one `AluOp`/`UnaryOp`), then commits
//! every channel of its slab. No object is asked what it is, no port is
//! tested for being connected (an unconnected one is the null channel) and
//! no fan-out list is decoded (fan-out up to two is inline); each run adds
//! its firing classes to [`ArrayStats`] once. There is no wake dedup,
//! dirty-channel worklist or adjacency table to keep (see
//! [`crate::schedule`] for why the full pass, in any order, is exact).
//!
//! What makes quiet cycles cheap is sleep: a pass that fires nothing
//! stages nothing, so the next one would fire nothing either, and the
//! configuration is skipped until one of exactly four events wakes it —
//! `push_input`, `push_input_events`, a board route moving tokens in, or
//! its load completing.
//!
//! What makes busy cycles cheap, for a full-rate eligible program, is the
//! block rule: a pass whose fires equal the program's full total (one
//! comparison, which is all an ineligible program pays) tells the run
//! loops in `mod.rs` that the passes ahead repeat it until an input queue
//! runs dry, and `super::block` steps them op-major. That is no detected
//! schedule: nothing is observed over time, recorded or guarded; the
//! property is the compiled program's (see [`crate::schedule`]).
//!
//! This is the second statement of every firing rule in the crate; the
//! first, `super::fire::fire`, is the reference stepper's, and the golden
//! suites hold the two to the same outputs, fire counts and statistics.

use std::mem;

use super::load::LoadedConfig;
use super::Array;
use super::ObjState;
use crate::channel::Chans;
use crate::compiled::{Arity, Kind, Op, Run};
use crate::object::{AluOp, UnaryOp, RAM_WORDS};
use crate::stats::ArrayStats;
use crate::word::Word;

/// How a run's output ports name their channels ([`Arity`]).
trait Fan {
    /// True if every channel of `port` has space.
    fn space(ch: &Chans<'_>, fan: &[u32], port: [u32; 2]) -> bool;
    /// Produces `v` into every channel of `port`.
    fn put(ch: &mut Chans<'_>, fan: &[u32], port: [u32; 2], v: Word);
}

/// [`Arity::One`]: the channel is `port[0]`.
struct One;

impl Fan for One {
    #[inline(always)]
    fn space(ch: &Chans<'_>, _: &[u32], [c, _]: [u32; 2]) -> bool {
        ch.space(c)
    }

    #[inline(always)]
    fn put(ch: &mut Chans<'_>, _: &[u32], [c, _]: [u32; 2], v: Word) {
        ch.put(c, v);
    }
}

/// [`Arity::Two`]: both channels inline.
struct Two;

impl Fan for Two {
    #[inline(always)]
    fn space(ch: &Chans<'_>, _: &[u32], [c0, c1]: [u32; 2]) -> bool {
        ch.space(c0) & ch.space(c1)
    }

    #[inline(always)]
    fn put(ch: &mut Chans<'_>, _: &[u32], [c0, c1]: [u32; 2], v: Word) {
        ch.put(c0, v);
        ch.put(c1, v);
    }
}

/// [`Arity::Wide`]: `[start, len]` of the program's fan table.
struct Wide;

impl Fan for Wide {
    #[inline(always)]
    fn space(ch: &Chans<'_>, fan: &[u32], [start, n]: [u32; 2]) -> bool {
        fan[start as usize..][..n as usize]
            .iter()
            .all(|&c| ch.space(c))
    }

    #[inline(always)]
    fn put(ch: &mut Chans<'_>, fan: &[u32], [start, n]: [u32; 2], v: Word) {
        for &c in &fan[start as usize..][..n as usize] {
            ch.put(c, v);
        }
    }
}

/// What one run steps over: its ops with their fire counters, the
/// channels, the wide fan table and the stateful objects' states.
struct Cx<'a> {
    ops: &'a [Op],
    fires: &'a mut [u64],
    ch: Chans<'a>,
    fan: &'a [u32],
    states: &'a mut [ObjState],
}

impl Cx<'_> {
    /// Offers every op to `f`, which returns the op's fires; books them
    /// on the op's counter and returns the run's total.
    #[inline(always)]
    fn each(
        &mut self,
        mut f: impl FnMut(&Op, &mut Chans<'_>, &[u32], &mut [ObjState]) -> u64,
    ) -> u64 {
        let mut total = 0;
        for (op, count) in self.ops.iter().zip(self.fires.iter_mut()) {
            let n = f(op, &mut self.ch, self.fan, self.states);
            *count += n;
            total += n;
        }
        total
    }
}

/// A binary ALU run: `o0 = f(i0, i1)`, `f` also reading the op's
/// constants.
#[inline(always)]
fn binary<F: Fan>(cx: &mut Cx<'_>, f: impl Fn(Word, Word, &Op) -> Word) -> u64 {
    cx.each(|op, ch, fan, _| {
        let [a, b, _] = op.i;
        if !(ch.has(a) & ch.has(b) && F::space(ch, fan, op.o[0])) {
            return 0;
        }
        let v = f(ch.take(a), ch.take(b), op);
        F::put(ch, fan, op.o[0], v);
        1
    })
}

/// A unary run: `o0 = f(i0)`, `f` also reading the op's constants.
#[inline(always)]
fn unary<F: Fan>(cx: &mut Cx<'_>, f: impl Fn(Word, &Op) -> Word) -> u64 {
    cx.each(|op, ch, fan, _| {
        let a = op.i[0];
        if !(ch.has(a) && F::space(ch, fan, op.o[0])) {
            return 0;
        }
        let v = f(ch.take(a), op);
        F::put(ch, fan, op.o[0], v);
        1
    })
}

/// An event run: `o0 = f(i0, i1)` over event channels, one input (`i1`
/// is the null channel) or two.
#[inline(always)]
fn logic<F: Fan>(cx: &mut Cx<'_>, two: bool, f: impl Fn(bool, bool) -> bool) -> u64 {
    cx.each(|op, ch, fan, _| {
        let [a, b, _] = op.i;
        if !(ch.has(a) & (!two || ch.has(b)) && F::space(ch, fan, op.o[0])) {
            return 0;
        }
        let x = ch.take_ev(a).0;
        let y = two && ch.take_ev(b).0;
        F::put(ch, fan, op.o[0], ev(f(x, y)));
        1
    })
}

/// The event word of a boolean.
#[inline(always)]
fn ev(b: bool) -> Word {
    Word::new(i32::from(b))
}

/// Adds a run's fires to their class of [`ArrayStats`] and returns them.
#[inline(always)]
fn book(class: &mut u64, fires: u64) -> u64 {
    *class += fires;
    fires
}

/// Steps one run and books its fires in `stats`. Inlined into the pass, so
/// moving from one run to the next is a jump, not a call.
#[inline(always)]
fn step_run<F: Fan>(kind: Kind, cx: &mut Cx<'_>, stats: &mut ArrayStats) -> u64 {
    use {AluOp as A, Kind as K, UnaryOp as U};
    match kind {
        K::Mul | K::MulShr => book(
            &mut stats.mul_fires,
            match kind {
                K::Mul => binary::<F>(cx, |a, b, _| A::Mul.eval(a, b)),
                _ => binary::<F>(cx, |a, b, op| A::MulShr(op.s).eval(a, b)),
            },
        ),
        K::Add
        | K::Sub
        | K::And
        | K::Or
        | K::Xor
        | K::Min
        | K::Max
        | K::Lt
        | K::Eq
        | K::Shl
        | K::Shr => book(
            &mut stats.alu_fires,
            match kind {
                K::Add => binary::<F>(cx, |a, b, _| A::Add.eval(a, b)),
                K::Sub => binary::<F>(cx, |a, b, _| A::Sub.eval(a, b)),
                K::And => binary::<F>(cx, |a, b, _| A::And.eval(a, b)),
                K::Or => binary::<F>(cx, |a, b, _| A::Or.eval(a, b)),
                K::Xor => binary::<F>(cx, |a, b, _| A::Xor.eval(a, b)),
                K::Min => binary::<F>(cx, |a, b, _| A::Min.eval(a, b)),
                K::Max => binary::<F>(cx, |a, b, _| A::Max.eval(a, b)),
                K::Lt => binary::<F>(cx, |a, b, _| A::Lt.eval(a, b)),
                K::Eq => binary::<F>(cx, |a, b, _| A::Eq.eval(a, b)),
                K::Shl => binary::<F>(cx, |a, b, _| A::Shl.eval(a, b)),
                _ => binary::<F>(cx, |a, b, _| A::Shr.eval(a, b)),
            },
        ),
        K::MulKShr => book(
            &mut stats.mul_fires,
            unary::<F>(cx, |a, op| U::MulKShr(op.k, op.s).eval(a)),
        ),
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
        | K::GeK => book(
            &mut stats.reg_fires,
            match kind {
                K::Pass => unary::<F>(cx, |a, _| U::Pass.eval(a)),
                K::Neg => unary::<F>(cx, |a, _| U::Neg.eval(a)),
                K::Abs => unary::<F>(cx, |a, _| U::Abs.eval(a)),
                K::ShlK => unary::<F>(cx, |a, op| U::ShlK(op.s).eval(a)),
                K::ShrK => unary::<F>(cx, |a, op| U::ShrK(op.s).eval(a)),
                K::AddK => unary::<F>(cx, |a, op| U::AddK(op.k).eval(a)),
                K::AndK => unary::<F>(cx, |a, op| U::AndK(op.k).eval(a)),
                K::XorK => unary::<F>(cx, |a, op| U::XorK(op.k).eval(a)),
                K::EqK => unary::<F>(cx, |a, op| U::EqK(op.k).eval(a)),
                K::LtK => unary::<F>(cx, |a, op| U::LtK(op.k).eval(a)),
                _ => unary::<F>(cx, |a, op| U::GeK(op.k).eval(a)),
            },
        ),
        K::Const => book(
            &mut stats.reg_fires,
            cx.each(|op, ch, fan, _| {
                if !F::space(ch, fan, op.o[0]) {
                    return 0;
                }
                F::put(ch, fan, op.o[0], op.k);
                1
            }),
        ),
        K::Counter | K::GatedCounter => {
            let gated = kind == K::GatedCounter;
            let (mut values, mut gos) = (0, 0);
            let n = cx.each(|op, ch, fan, states| {
                let emits = op.s != 0;
                let ObjState::Counter {
                    cfg,
                    value,
                    remaining,
                } = &mut states[op.state as usize]
                else {
                    unreachable!("a counter's state")
                };
                let mut fires = 0;
                if *remaining == 0 {
                    if gated {
                        let go = op.i[0];
                        if !ch.has(go) {
                            return 0;
                        }
                        ch.take(go);
                        gos += 1;
                        fires += 1;
                    }
                    // An ungated reload moves no token and is no fire.
                    *remaining = cfg.period;
                    *value = cfg.start;
                }
                let last = *remaining == 1;
                if emits && F::space(ch, fan, op.o[0]) && (!last || F::space(ch, fan, op.o[1])) {
                    F::put(ch, fan, op.o[0], Word::from_i64(*value));
                    if last {
                        F::put(ch, fan, op.o[1], Word::ONE);
                    }
                    *value += cfg.step;
                    *remaining -= 1;
                    values += 1;
                    fires += 1;
                }
                fires
            });
            stats.reg_fires += values;
            stats.event_fires += gos;
            n
        }
        K::Select => book(
            &mut stats.reg_fires,
            cx.each(|op, ch, fan, _| {
                let [a, b, sel] = op.i;
                if !(ch.has(a) & ch.has(b) & ch.has(sel) && F::space(ch, fan, op.o[0])) {
                    return 0;
                }
                let s = ch.take_ev(sel).0;
                let (x, y) = (ch.take(a), ch.take(b));
                F::put(ch, fan, op.o[0], if s { y } else { x });
                1
            }),
        ),
        K::Merge => book(
            &mut stats.reg_fires,
            cx.each(|op, ch, fan, _| {
                let [a, b, sel] = op.i;
                if !ch.has(sel) {
                    return 0;
                }
                let port = if ch.peek_ev(sel).0 { b } else { a };
                if !(ch.has(port) && F::space(ch, fan, op.o[0])) {
                    return 0;
                }
                ch.take(sel);
                let v = ch.take(port);
                F::put(ch, fan, op.o[0], v);
                1
            }),
        ),
        K::Demux => book(
            &mut stats.reg_fires,
            cx.each(|op, ch, fan, _| {
                let [a, sel, _] = op.i;
                if !(ch.has(a) & ch.has(sel)) {
                    return 0;
                }
                let out = op.o[usize::from(ch.peek_ev(sel).0)];
                if !F::space(ch, fan, out) {
                    return 0;
                }
                ch.take(sel);
                let v = ch.take(a);
                F::put(ch, fan, out, v);
                1
            }),
        ),
        K::Swap => book(
            &mut stats.reg_fires,
            cx.each(|op, ch, fan, _| {
                let [a, b, sel] = op.i;
                if !(ch.has(a) & ch.has(b) & ch.has(sel)
                    && F::space(ch, fan, op.o[0])
                    && F::space(ch, fan, op.o[1]))
                {
                    return 0;
                }
                let s = ch.take_ev(sel).0;
                let (x, y) = (ch.take(a), ch.take(b));
                let (x, y) = if s { (y, x) } else { (x, y) };
                F::put(ch, fan, op.o[0], x);
                F::put(ch, fan, op.o[1], y);
                1
            }),
        ),
        K::Gate => book(
            &mut stats.reg_fires,
            cx.each(|op, ch, fan, _| {
                let [a, sel, _] = op.i;
                if !(ch.has(a) & ch.has(sel)) {
                    return 0;
                }
                let pass = ch.peek_ev(sel).0;
                if pass && !F::space(ch, fan, op.o[0]) {
                    return 0;
                }
                ch.take(sel);
                let v = ch.take(a);
                if pass {
                    F::put(ch, fan, op.o[0], v);
                }
                1
            }),
        ),
        K::AccumDump => book(
            &mut stats.alu_fires,
            cx.each(|op, ch, fan, states| {
                let [a, sel, _] = op.i;
                if !(ch.has(a) & ch.has(sel)) {
                    return 0;
                }
                let dump = ch.peek_ev(sel).0;
                if dump && !F::space(ch, fan, op.o[0]) {
                    return 0;
                }
                let ObjState::Accum(acc) = &mut states[op.state as usize] else {
                    unreachable!("an accumulator's state")
                };
                ch.take(sel);
                *acc = acc.wrapping_add(ch.take(a));
                if dump {
                    F::put(ch, fan, op.o[0], mem::replace(acc, Word::ZERO));
                }
                1
            }),
        ),
        K::ToEvent => book(
            &mut stats.event_fires,
            unary::<F>(cx, |v, _| ev(v.truthy())),
        ),
        // An event word is already the data word 0 or 1.
        K::ToData => book(&mut stats.reg_fires, unary::<F>(cx, |v, _| v)),
        K::EventNot => book(&mut stats.event_fires, logic::<F>(cx, false, |x, _| !x)),
        K::EventAnd => book(&mut stats.event_fires, logic::<F>(cx, true, |x, y| x && y)),
        K::EventOr => book(&mut stats.event_fires, logic::<F>(cx, true, |x, y| x || y)),
        K::Ram => {
            let (mut writes, mut reads) = (0, 0);
            let n = cx.each(|op, ch, fan, states| {
                let ObjState::Ram(mem) = &mut states[op.state as usize] else {
                    unreachable!("a RAM's state")
                };
                let [rd_addr, wr_addr, wr_data] = op.i;
                let mut fires = 0;
                // Write first: write-through within the cycle.
                if ch.has(wr_addr) & ch.has(wr_data) {
                    let at = ch.take(wr_addr).bits() as usize % RAM_WORDS;
                    mem[at] = ch.take(wr_data);
                    writes += 1;
                    fires += 1;
                }
                if ch.has(rd_addr) && F::space(ch, fan, op.o[0]) {
                    let at = ch.take(rd_addr).bits() as usize % RAM_WORDS;
                    F::put(ch, fan, op.o[0], mem[at]);
                    reads += 1;
                    fires += 1;
                }
                fires
            });
            stats.ram_writes += writes;
            stats.ram_reads += reads;
            n
        }
        K::FifoRing => book(
            &mut stats.fifo_fires,
            cx.each(|op, ch, fan, states| {
                let ObjState::Fifo(buf) = &mut states[op.state as usize] else {
                    unreachable!("a FIFO's state")
                };
                if !F::space(ch, fan, op.o[0]) {
                    return 0;
                }
                let Some(v) = buf.pop_front() else {
                    return 0;
                };
                F::put(ch, fan, op.o[0], v);
                buf.push_back(v);
                1
            }),
        ),
        K::Fifo => book(
            &mut stats.fifo_fires,
            cx.each(|op, ch, fan, states| {
                let depth = op.s as usize;
                let ObjState::Fifo(buf) = &mut states[op.state as usize] else {
                    unreachable!("a FIFO's state")
                };
                let a = op.i[0];
                // The popped word leaves the queue only after the push has
                // seen this cycle's occupancy.
                let popped = !buf.is_empty() && F::space(ch, fan, op.o[0]);
                if popped {
                    F::put(ch, fan, op.o[0], buf[0]);
                }
                let pushed = buf.len() - usize::from(popped) < depth && ch.has(a);
                if pushed {
                    buf.push_back(ch.take(a));
                }
                if popped {
                    buf.pop_front();
                }
                u64::from(popped) + u64::from(pushed)
            }),
        ),
        K::Input | K::InputEvent => {
            let n = cx.each(|op, ch, fan, states| {
                if !F::space(ch, fan, op.o[0]) {
                    return 0;
                }
                let v = match &mut states[op.state as usize] {
                    ObjState::ExtInData(q) => q.pop_front(),
                    ObjState::ExtInEv(q) => q.pop_front().map(ev),
                    _ => unreachable!("an input port's state"),
                };
                let Some(v) = v else {
                    return 0;
                };
                F::put(ch, fan, op.o[0], v);
                1
            });
            if kind == K::Input {
                stats.io_words += n;
            } else {
                stats.event_fires += n;
            }
            n
        }
        K::Output | K::OutputEvent => {
            let n = cx.each(|op, ch, _, states| {
                let a = op.i[0];
                if !ch.has(a) {
                    return 0;
                }
                match &mut states[op.state as usize] {
                    ObjState::ExtOutData(buf) => buf.push(ch.take(a)),
                    ObjState::ExtOutEv(buf) => buf.push(ch.take_ev(a).0),
                    _ => unreachable!("an output port's state"),
                }
                1
            });
            if kind == K::Output {
                stats.io_words += n;
            } else {
                stats.event_fires += n;
            }
            n
        }
    }
}

impl LoadedConfig {
    /// One dense pass: step every run of the compiled program, then commit
    /// every channel. Returns how many fires it made, and how many of them
    /// the objects not behind a dump made.
    fn step_dense(&mut self, stats: &mut ArrayStats) -> (u64, u64) {
        let program = &*self.program;
        let (mut fired, mut ahead) = (0, None);
        for (
            r,
            &Run {
                kind,
                arity,
                start,
                end,
            },
        ) in program.runs.iter().enumerate()
        {
            if r == program.split {
                ahead = Some(fired);
            }
            let ops = start as usize..end as usize;
            let mut cx = Cx {
                ops: &program.ops[ops.clone()],
                fires: &mut self.fires[ops],
                ch: self.slab.chans(),
                fan: &program.fan,
                states: &mut self.states,
            };
            fired += match arity {
                Arity::One => step_run::<One>(kind, &mut cx, stats),
                Arity::Two => step_run::<Two>(kind, &mut cx, stats),
                Arity::Wide => step_run::<Wide>(kind, &mut cx, stats),
            };
        }
        self.slab.chans().commit();
        (fired, ahead.unwrap_or(fired))
    }
}

impl Array {
    /// One cycle of every enabled, awake configuration. Returns `true` if
    /// any object fired, and the position of the configuration stepped if
    /// it was the only one and its pass was full rate (see `block`).
    ///
    /// A pass that fires nothing *is* the proof that no object is fireable,
    /// so it puts the configuration to sleep.
    pub(super) fn step_configs(&mut self) -> (bool, Option<usize>) {
        let Array {
            configs,
            stats,
            schedule,
            ..
        } = self;
        let mut active = false;
        let (mut stepped, mut full) = (0, None);
        for (at, cfg) in configs.iter_mut().enumerate() {
            if !(cfg.enabled && cfg.awake) {
                continue;
            }
            stepped += 1;
            let (fired, ahead) = cfg.step_dense(stats);
            if fired == 0 {
                cfg.awake = false;
                schedule.invalidations += 1;
            } else {
                active = true;
                // Full: every object did its full action but those behind
                // a dump, which did nothing.
                if cfg.program.full.as_ref().is_some_and(|f| f.fires == fired) && ahead == fired {
                    full = Some(at);
                }
            }
        }
        schedule.replay_cycles += u64::from(stepped > 0);
        (active, full.filter(|_| stepped == 1))
    }

    /// Wakes the configuration at position `at` of `configs`: the one way
    /// a sleeping configuration is stepped again.
    pub(super) fn wake(&mut self, at: usize) {
        let cfg = &mut self.configs[at];
        if !cfg.awake {
            cfg.awake = true;
            self.schedule.captured += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::array::{with_reference_stepper, Array};
    use crate::netlist::NetlistBuilder;
    use crate::object::{AluOp, CounterCfg, UnaryOp};
    use crate::schedule::ScheduleStats;
    use crate::word::Word;

    /// A free-running netlist that never idles: counter → scale → output
    /// plus a normally dry input branch.
    fn free_running_netlist() -> crate::netlist::Netlist {
        let mut nl = NetlistBuilder::new("free");
        let ctr = nl.counter(CounterCfg::modulo(8));
        let k = nl.constant(Word::new(3));
        let y = nl.alu(AluOp::Mul, ctr.value, k);
        nl.output("y", y);
        let a = nl.input("a");
        let k2 = nl.constant(Word::new(100));
        let z = nl.alu(AluOp::Add, a, k2);
        nl.output("z", z);
        nl.build().unwrap()
    }

    /// Runs `scenario` on a production and a reference array and requires
    /// identical results; returns the production array.
    fn on_both_steppers<T: PartialEq + std::fmt::Debug>(
        scenario: impl Fn(&mut Array) -> T,
    ) -> Array {
        let mut production = Array::xpp64a();
        let a = scenario(&mut production);
        let mut reference = with_reference_stepper(Array::xpp64a);
        assert_eq!(a, scenario(&mut reference), "reference stepper diverges");
        production
    }

    /// `(wakes, awake cycles, sleeps)`.
    fn counts(array: &Array) -> (u64, u64, u64) {
        let ScheduleStats {
            captured,
            replay_cycles,
            invalidations,
        } = array.schedule_stats();
        (captured, replay_cycles, invalidations)
    }

    #[test]
    fn a_free_running_configuration_never_sleeps() {
        let array = on_both_steppers(|array| {
            let cfg = array.configure(&free_running_netlist()).unwrap();
            array.run(5_000);
            (
                array.drain_output(cfg, "y").unwrap(),
                array.object_fire_counts(cfg).unwrap(),
                array.stats(),
            )
        });
        // Eight objects load in 24 bus cycles; the completing cycle wakes
        // the configuration and steps it, and every cycle after.
        assert_eq!(counts(&array), (1, 5_000 - 23, 0));
    }

    #[test]
    fn a_push_into_an_awake_configuration_is_not_a_wake() {
        let array = on_both_steppers(|array| {
            let cfg = array.configure(&free_running_netlist()).unwrap();
            array.run(3_000);
            array.push_input(cfg, "a", (0..4).map(Word::new)).unwrap();
            array.run(3_000);
            (
                array.drain_output(cfg, "y").unwrap(),
                array.drain_output(cfg, "z").unwrap(),
                array.stats(),
            )
        });
        let (wakes, _, sleeps) = counts(&array);
        assert_eq!((wakes, sleeps), (1, 0));
    }

    /// A ten-stage pipeline behind one input.
    fn pipeline_netlist() -> crate::netlist::Netlist {
        let mut nl = NetlistBuilder::new("pipe");
        let mut x = nl.input("x");
        for k in 0..10 {
            x = nl.unary(UnaryOp::AddK(Word::new(k)), x);
        }
        nl.output("y", x);
        nl.build().unwrap()
    }

    #[test]
    fn each_drained_burst_falls_asleep_and_the_next_push_wakes_it() {
        let array = on_both_steppers(|array| {
            let cfg = array.configure(&pipeline_netlist()).unwrap();
            let mut idle_after = Vec::new();
            for burst in [200, 3, 50] {
                array
                    .push_input(cfg, "x", (0..burst).map(Word::new))
                    .unwrap();
                idle_after.push(array.run_until_idle(1_000).unwrap());
            }
            (
                idle_after,
                array.drain_output(cfg, "y").unwrap(),
                array.stats(),
            )
        });
        // One wake and one sleep per burst (the first push lands while the
        // load is on the bus, so its completion finds the flag set), and
        // every cycle after the load an awake one: the last cycle of each
        // `run_until_idle` is the pass that fired nothing.
        let (wakes, awake, sleeps) = counts(&array);
        assert_eq!((wakes, sleeps), (3, 3));
        let load = 12 * crate::array::CONFIG_CYCLES_PER_OBJECT;
        assert_eq!(awake, array.stats().cycles - load + 1);
        assert!(!array.configs[0].awake);
    }

    #[test]
    fn a_stalled_configuration_sleeps_with_tokens_in_flight() {
        let mut nl = NetlistBuilder::new("stall");
        let x = nl.input("x");
        let e = nl.input_event("e");
        let g = nl.gate(e, x);
        nl.output("y", g);
        let netlist = nl.build().unwrap();
        let array = on_both_steppers(|array| {
            let cfg = array.configure(&netlist).unwrap();
            array.push_input(cfg, "x", (0..100).map(Word::new)).unwrap();
            array.push_input_events(cfg, "e", [true; 60]).unwrap();
            let first = array.run_until_idle(1_000).unwrap();
            let stalled = array.drain_output(cfg, "y").unwrap();
            // Asleep now, with 40 words queued behind the gate: only the
            // late events' wake lets them through.
            let asleep = array.step();
            array.push_input_events(cfg, "e", [true; 40]).unwrap();
            let second = array.run_until_idle(1_000).unwrap();
            let late = array.drain_output(cfg, "y").unwrap();
            assert_eq!((stalled.len(), stalled.len() + late.len()), (60, 100));
            (first, stalled, asleep, second, late)
        });
        // Awake from the load's completing cycle to the pass that fired
        // nothing, then again from the late events to the next such pass:
        // every cycle but the rest of the load and the one asleep step.
        let (wakes, awake, sleeps) = counts(&array);
        assert_eq!((wakes, sleeps), (2, 2));
        let load = 4 * crate::array::CONFIG_CYCLES_PER_OBJECT;
        assert_eq!(awake, array.stats().cycles - load);
    }

    #[test]
    fn a_board_route_wakes_its_sleeping_sink() {
        let array = on_both_steppers(|array| {
            let src = array.configure(&pipeline_netlist()).unwrap();
            let dst = array.configure(&pipeline_netlist()).unwrap();
            array.connect(src, "y", dst, "x").unwrap();
            array.run_until_idle(1_000).unwrap();
            array.push_input(src, "x", (0..20).map(Word::new)).unwrap();
            let n = array.run_until_idle(1_000).unwrap();
            (n, array.drain_output(dst, "y").unwrap(), array.stats())
        });
        // Both woke on load and fell asleep empty; the push woke the source
        // and its first routed word the sink, and both drained to sleep.
        let (wakes, _, sleeps) = counts(&array);
        assert_eq!((wakes, sleeps), (4, 4));
    }

    /// Ports driving more than two channels step in wide runs: a counter
    /// whose value and wrap event both fan out three ways, steering gates
    /// on a stream that also fans out three ways.
    #[test]
    fn wide_fan_out_agrees_with_the_reference() {
        let mut nl = NetlistBuilder::new("wide");
        let x = nl.input("x");
        let ctr = nl.counter(CounterCfg::modulo(3));
        for k in 0..3 {
            let pass = nl.unary(UnaryOp::GeK(Word::new(k)), ctr.value);
            let ev = nl.to_event(pass);
            let g = nl.gate(ev, x);
            nl.output(format!("y{k}"), g);
            let wrap = nl.to_data(ctr.wrap);
            nl.output(format!("w{k}"), wrap);
        }
        let netlist = nl.build().unwrap();
        on_both_steppers(|array| {
            let cfg = array.configure(&netlist).unwrap();
            array.push_input(cfg, "x", (0..60).map(Word::new)).unwrap();
            array.run(400);
            let drained: Vec<_> = ["y0", "y1", "y2", "w0", "w1", "w2"]
                .map(|port| array.drain_output(cfg, port).unwrap())
                .into();
            assert_eq!(drained[0].len(), 60, "y0 passes every word");
            (
                drained,
                array.object_fire_counts(cfg).unwrap(),
                array.stats(),
            )
        });
    }

    #[test]
    fn unload_counts_as_a_sleep() {
        let mut array = Array::xpp64a();
        let cfg = array.configure(&free_running_netlist()).unwrap();
        array.run(3_000);
        array.unload(cfg).unwrap();
        let (wakes, _, sleeps) = counts(&array);
        assert_eq!((wakes, sleeps), (1, 1));
        // The array is empty now: stepping settles to idle.
        assert_eq!(array.run_until_idle(100), Ok(1));
    }

    #[test]
    fn set_schedule_capture_is_inert() {
        let run = |capture: bool| {
            let mut array = Array::xpp64a();
            array.set_schedule_capture(capture);
            let cfg = array.configure(&free_running_netlist()).unwrap();
            array.run(1_000);
            array.set_schedule_capture(!capture);
            array.run(1_000);
            (
                array.drain_output(cfg, "y").unwrap(),
                array.stats(),
                array.schedule_stats(),
            )
        };
        assert_eq!(run(true), run(false));
    }
}
