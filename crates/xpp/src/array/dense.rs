//! The stepper: every object of an awake configuration, every cycle.
//!
//! The XPP is a synchronous token-handshake array — every PAE of a running
//! configuration evaluates its handshake on every clock — and this is that
//! model executed as written: each cycle, an awake configuration hands
//! every object of its compiled visit list to the firing rules, then
//! sweep-commits every channel. There is no wake dedup, dirty-channel
//! worklist, commit transition or adjacency table to keep (see
//! [`crate::schedule`] for why the full pass is exact).
//!
//! What makes quiet cycles cheap is sleep: a pass that fires nothing
//! stages nothing, so the next one would fire nothing either, and the
//! configuration is skipped until one of exactly four events wakes it —
//! `push_input`, `push_input_events`, a board route moving tokens in, or
//! its load completing.

use super::fire::{fire, Lane, Net};
use super::load::LoadedConfig;
use super::Array;
use crate::stats::ArrayStats;

impl LoadedConfig {
    /// One dense pass: offer every object to the firing rules straight off
    /// the compiled visit list, then sweep-commit every channel. Returns
    /// whether any object fired.
    fn step_dense(&mut self, stats: &mut ArrayStats) -> bool {
        let program = &*self.program;
        let mut net = Net {
            d: Lane(&mut self.dchans),
            e: Lane(&mut self.echans),
            stats,
        };
        let mut fired = false;
        let objects = program.micro.iter().zip(&mut self.states);
        for ((m, state), count) in objects.zip(&mut self.fires) {
            let fires = fire(m, &program.fan, state, &mut net);
            *count += u64::from(fires);
            fired |= fires > 0;
        }
        for ch in &mut self.dchans {
            ch.commit();
        }
        for ch in &mut self.echans {
            ch.commit();
        }
        fired
    }
}

impl Array {
    /// One cycle of every enabled, awake configuration. Returns `true` if
    /// any object fired.
    ///
    /// A pass that fires nothing *is* the proof that no object is fireable,
    /// so it puts the configuration to sleep.
    pub(super) fn step_configs(&mut self) -> bool {
        let Array {
            configs,
            stats,
            schedule,
            ..
        } = self;
        let mut active = false;
        let mut stepped = false;
        for cfg in configs.iter_mut().filter(|c| c.enabled && c.awake) {
            stepped = true;
            if cfg.step_dense(stats) {
                active = true;
            } else {
                cfg.awake = false;
                schedule.invalidations += 1;
            }
        }
        schedule.replay_cycles += u64::from(stepped);
        active
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
