//! The retained scan-the-world stepper: the semantics oracle the
//! golden-equivalence tests compare the production stepper against.
//! Compiled only in tests and under the `reference` feature.
//!
//! It is kept deliberately naive and apart from the production stepper,
//! which visits the same objects as rule-specialised runs: the oracle
//! steps every enabled configuration every cycle, hands every object in
//! node order to the general firing rule (`fire::fire`) and never sleeps,
//! so it stays the obvious loop whatever the production stepper grows
//! into.

use super::fire::{fire, Net};
use super::Array;
use super::ObjState;

thread_local! {
    static FORCE_REFERENCE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every [`Array`] constructed inside it fixed to the retained
/// scan-the-world reference stepper (the semantics oracle).
///
/// The stepping mode is latched at construction and never changes for the
/// lifetime of an array, so arrays built by nested helpers (e.g. the kernel
/// wrappers in the receiver crates) are covered too.
pub fn with_reference_stepper<T>(f: impl FnOnce() -> T) -> T {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCE_REFERENCE.with(|c| c.set(self.0));
        }
    }
    let _reset = Reset(FORCE_REFERENCE.with(|c| c.replace(true)));
    f()
}

/// True inside [`with_reference_stepper`].
pub(super) fn forced() -> bool {
    FORCE_REFERENCE.with(|c| c.get())
}

impl Array {
    /// One cycle of the scan stepper: offer every object of every enabled
    /// configuration, in node order, to the general firing rule, then
    /// commit every channel. Returns `true` if any object fired.
    pub(super) fn step_reference(&mut self) -> bool {
        let mut active = false;
        for cfg in self.configs.iter_mut().filter(|c| c.enabled) {
            let mut net = Net {
                ch: cfg.slab.chans(),
                stats: &mut self.stats,
            };
            for m in &cfg.program.micro {
                let mut stateless = ObjState::None;
                let state = match cfg.states.get_mut(m.state as usize) {
                    Some(state) => state,
                    None => &mut stateless,
                };
                let fires = fire(m, &cfg.program.micro_fan, state, &mut net);
                cfg.fires[m.op as usize] += u64::from(fires);
                active |= fires > 0;
            }
            net.ch.commit();
        }
        active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::CONFIG_CYCLES_PER_OBJECT;
    use crate::netlist::NetlistBuilder;
    use crate::object::{AluOp, CounterCfg, UnaryOp};
    use crate::word::Word;

    /// Runs the same scenario on a fresh production array and a fresh
    /// reference array, and requires identical observables and stats.
    fn check<T: PartialEq + std::fmt::Debug>(scenario: impl Fn(&mut Array) -> T) {
        let mut fast = Array::xpp64a();
        assert!(!fast.use_reference);
        let mut slow = with_reference_stepper(Array::xpp64a);
        assert!(slow.use_reference);
        let a = scenario(&mut fast);
        let b = scenario(&mut slow);
        assert_eq!(a, b, "observable outputs diverge between steppers");
        assert_eq!(fast.stats(), slow.stats(), "stats diverge between steppers");
    }

    #[test]
    fn steppers_agree_on_an_arithmetic_pipeline() {
        check(|array| {
            let mut nl = NetlistBuilder::new("arith");
            let a = nl.input("a");
            let b = nl.input("b");
            let s = nl.alu(AluOp::Add, a, b);
            let k = nl.constant(Word::new(3));
            let m = nl.alu(AluOp::Mul, s, k);
            let p = nl.unary(UnaryOp::ShrK(1), m);
            let f = nl.fifo(4, vec![]);
            nl.wire(p, f.input);
            nl.output("y", f.output);
            let cfg = array.configure(&nl.build().unwrap()).unwrap();
            array.push_input(cfg, "a", (0..40).map(Word::new)).unwrap();
            array
                .push_input(cfg, "b", (0..40).map(|i| Word::new(2 * i + 1)))
                .unwrap();
            let n = array.run_until_idle(10_000).unwrap();
            (
                n,
                array.drain_output(cfg, "y").unwrap(),
                array.config_fire_count(cfg),
            )
        });
    }

    #[test]
    fn steppers_agree_on_event_steering() {
        check(|array| {
            let mut nl = NetlistBuilder::new("steer");
            let d = nl.input("d");
            let sel = nl.input_event("sel");
            let (lo, hi) = nl.demux(sel, d);
            let gate_ev = nl.input_event("pass");
            let g = nl.gate(gate_ev, lo);
            let dump = nl.input_event("dump");
            let acc = nl.accum_dump(hi, dump);
            let swap_ev = nl.input_event("swap");
            let (x, y) = nl.swap(swap_ev, g, acc);
            let tog = nl.to_event(x);
            let not = nl.ev_not(tog);
            let both = nl.ev_and(tog, not);
            nl.output("y", y);
            let td = nl.to_data(both);
            nl.output("t", td);
            nl.output_event("e", not);
            let cfg = array.configure(&nl.build().unwrap()).unwrap();
            array.push_input(cfg, "d", (1..33).map(Word::new)).unwrap();
            array
                .push_input_events(cfg, "sel", (0..32).map(|i| i % 2 == 0))
                .unwrap();
            array
                .push_input_events(cfg, "pass", (0..16).map(|i| i % 4 != 0))
                .unwrap();
            array
                .push_input_events(cfg, "dump", (0..16).map(|i| i % 4 == 3))
                .unwrap();
            array
                .push_input_events(cfg, "swap", (0..8).map(|i| i % 2 == 0))
                .unwrap();
            let n = array.run_until_idle(10_000).unwrap();
            (
                n,
                array.drain_output(cfg, "y").unwrap(),
                array.drain_output(cfg, "t").unwrap(),
                array.drain_output_events(cfg, "e").unwrap(),
            )
        });
    }

    #[test]
    fn steppers_agree_on_select_and_merge() {
        check(|array| {
            let mut nl = NetlistBuilder::new("selmerge");
            let a = nl.input("a");
            let b = nl.input("b");
            let sel = nl.input_event("sel");
            let s = nl.select(sel, a, b);
            let c = nl.input("c");
            let msel = nl.input_event("msel");
            let m = nl.merge(msel, s, c);
            nl.output("y", m);
            let cfg = array.configure(&nl.build().unwrap()).unwrap();
            array.push_input(cfg, "a", (0..24).map(Word::new)).unwrap();
            array
                .push_input(cfg, "b", (100..124).map(Word::new))
                .unwrap();
            array
                .push_input(cfg, "c", (200..212).map(Word::new))
                .unwrap();
            array
                .push_input_events(cfg, "sel", (0..24).map(|i| i % 3 == 0))
                .unwrap();
            array
                .push_input_events(cfg, "msel", (0..36).map(|i| i % 3 == 2))
                .unwrap();
            let n = array.run_until_idle(10_000).unwrap();
            (n, array.drain_output(cfg, "y").unwrap())
        });
    }

    #[test]
    fn steppers_agree_on_counters_and_memory() {
        check(|array| {
            let mut nl = NetlistBuilder::new("mem");
            // Free-running address counter feeding a preloaded RAM read
            // port; the wrap event gates a burst counter whose values are
            // written back into the RAM.
            let ctr = nl.counter(CounterCfg::modulo(8));
            let ram = nl.ram((0..16).map(Word::new).collect());
            nl.wire(ctr.value, ram.rd_addr);
            let burst = nl.counter(CounterCfg::gated_burst(3));
            nl.wire_ev(ctr.wrap, burst.go.unwrap());
            let waddr = nl.counter(CounterCfg::modulo(5));
            nl.wire(waddr.value, ram.wr_addr);
            nl.wire(burst.value, ram.wr_data);
            let ring = nl.ring_fifo(vec![Word::new(9), Word::new(7)]);
            let sum = nl.alu(AluOp::Add, ram.rd_data, ring);
            nl.output("y", sum);
            let cfg = array.configure(&nl.build().unwrap()).unwrap();
            // Free-running counters never idle: run a fixed window.
            array.run(600);
            (
                array.drain_output(cfg, "y").unwrap(),
                array.config_fire_count(cfg),
                array.object_fire_counts(cfg).unwrap(),
            )
        });
    }

    #[test]
    fn steppers_agree_across_reconfiguration() {
        check(|array| {
            let pipeline = |name: &str, k: i32| {
                let mut nl = NetlistBuilder::new(name);
                let a = nl.input("a");
                let c = nl.constant(Word::new(k));
                let y = nl.alu(AluOp::Add, a, c);
                nl.output("y", y);
                nl.build().unwrap()
            };
            let c1 = array.configure(&pipeline("one", 10)).unwrap();
            let c2 = array.configure(&pipeline("two", 20)).unwrap();
            array.push_input(c1, "a", (0..10).map(Word::new)).unwrap();
            array.push_input(c2, "a", (0..10).map(Word::new)).unwrap();
            // Step through the middle of the load queue to cover firing
            // while a later configuration is still loading.
            array.run(CONFIG_CYCLES_PER_OBJECT * 3 + 2);
            let early = array.drain_output(c1, "y").unwrap();
            array.run_until_idle(10_000).unwrap();
            let one = array.drain_output(c1, "y").unwrap();
            let fires_one = array.config_fire_count(c1);
            array.unload(c1).unwrap();
            // Retired counts must remain queryable after unload.
            let retired = array.config_fire_count(c1);
            let c3 = array.configure(&pipeline("three", 30)).unwrap();
            array.push_input(c3, "a", (0..10).map(Word::new)).unwrap();
            array.run_until_idle(10_000).unwrap();
            (
                early,
                one,
                fires_one,
                retired,
                array.drain_output(c2, "y").unwrap(),
                array.drain_output(c3, "y").unwrap(),
                array.fires_by_config(),
            )
        });
    }

    #[test]
    fn steppers_agree_on_board_connections() {
        check(|array| {
            let mut src = NetlistBuilder::new("src");
            let a = src.input("a");
            let c = src.constant(Word::new(2));
            let y = src.alu(AluOp::Mul, a, c);
            src.output("y", y);
            let mut dst = NetlistBuilder::new("dst");
            let b = dst.input("b");
            let k = dst.constant(Word::new(1));
            let z = dst.alu(AluOp::Add, b, k);
            dst.output("z", z);
            let c1 = array.configure(&src.build().unwrap()).unwrap();
            let c2 = array.configure(&dst.build().unwrap()).unwrap();
            array.connect(c1, "y", c2, "b").unwrap();
            array.push_input(c1, "a", (0..20).map(Word::new)).unwrap();
            let n = array.run_until_idle(10_000).unwrap();
            (n, array.drain_output(c2, "z").unwrap())
        });
    }
}
