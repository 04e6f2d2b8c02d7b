//! The dense stepper and the rule that chooses, per configuration and per
//! cycle, between it and the ready-list stepper.
//!
//! While a burst streams through a pipelined configuration nearly every
//! object fires every cycle, and the ready list's bookkeeping — wake
//! dedup, dirty-channel lists, commit transitions, adjacency lookups — is
//! pure overhead: the list it maintains is "everything". The dense stepper
//! drops all of it and executes the configuration's schedule in its
//! always-sound form: *every object, every cycle* (see [`crate::schedule`]
//! for why that is exact).

use super::fire::{fire, Lane, Net, NoSink};
use super::load::LoadedConfig;
use super::Array;
use crate::stats::ArrayStats;

/// A configuration on the ready list turns dense after a cycle in which at
/// least one in `ENTER_DENSE_ONE_IN` of its objects fired…
const ENTER_DENSE_ONE_IN: usize = 2;
/// …and is handed back after a cycle in which fewer than one in
/// `LEAVE_DENSE_ONE_IN` did. Visiting an object that cannot fire costs a
/// fraction of what the ready list spends per object that can, so dense
/// stepping pays from roughly a quarter activity up; the gap between the
/// two constants keeps a configuration hovering near either from flapping.
const LEAVE_DENSE_ONE_IN: usize = 4;

impl LoadedConfig {
    /// One cycle of the dense stepper: offer every object to the firing
    /// rules straight off the compiled visit list, then sweep-commit every
    /// channel. No ready list, wake adjacency, dirty list or commit
    /// transition is computed. Returns how many objects fired.
    fn step_dense(&mut self, stats: &mut ArrayStats) -> usize {
        let program = &*self.program;
        let mut net = Net {
            d: Lane {
                chans: &mut self.dchans,
                staged: &mut NoSink,
            },
            e: Lane {
                chans: &mut self.echans,
                staged: &mut NoSink,
            },
            stats,
        };
        let mut fired = 0;
        let objects = program.micro.iter().zip(&mut self.states);
        for ((m, state), count) in objects.zip(&mut self.fires) {
            let fires = fire(m, &program.fan, state, &mut net);
            *count += u64::from(fires);
            fired += usize::from(fires > 0);
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
    /// One cycle of every enabled configuration, each under the stepper its
    /// own activity calls for: the share of its objects that fired last
    /// cycle, with hysteresis. Returns `true` if any object fired.
    ///
    /// Both steppers are exact on any cycle, so the rule is free to follow
    /// what it observes and nothing outside a configuration can force a
    /// switch: external input, a load in flight on the bus and the other
    /// resident configurations leave a dense configuration dense. A dense
    /// pass that fires nothing *is* the proof that no object is fireable,
    /// so the configuration goes to sleep with an empty ready list (wakes
    /// recorded while it was dense predate the pass); one that turns sparse
    /// is handed back with a flood wake, the conservative ready list.
    pub(super) fn step_configs(&mut self) -> bool {
        let Array {
            configs,
            stats,
            dirty_d,
            dirty_e,
            schedule,
            force_ready_list,
            ..
        } = self;
        let mut active = false;
        let mut any_dense = false;
        for cfg in configs.iter_mut().filter(|c| c.enabled) {
            let objects = cfg.program.micro.len();
            if cfg.dense {
                any_dense = true;
                let fired = cfg.step_dense(stats);
                active |= fired > 0;
                if fired * LEAVE_DENSE_ONE_IN < objects {
                    cfg.dense = false;
                    schedule.invalidations += 1;
                    if fired == 0 {
                        cfg.ready.clear();
                    } else {
                        cfg.ready.wake_all();
                    }
                }
            } else if !cfg.ready.is_empty() {
                let fired = cfg.step_ready(stats, dirty_d, dirty_e);
                active |= fired > 0;
                if fired * ENTER_DENSE_ONE_IN >= objects && !*force_ready_list {
                    cfg.dense = true;
                    schedule.captured += 1;
                }
            }
        }
        schedule.replay_cycles += u64::from(any_dense);
        active
    }

    /// Hands every dense configuration back to the ready-list stepper.
    pub(super) fn leave_dense(&mut self) {
        for cfg in self.configs.iter_mut().filter(|c| c.dense) {
            cfg.dense = false;
            cfg.ready.wake_all();
            self.schedule.invalidations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::array::{with_reference_stepper, with_schedule_capture, Array};
    use crate::netlist::NetlistBuilder;
    use crate::object::{AluOp, CounterCfg, UnaryOp};
    use crate::word::Word;

    /// A free-running netlist that never idles: counter → scale → output
    /// (four of its eight objects, enough to turn dense) plus a normally
    /// dry input branch.
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

    /// Runs `scenario` on an adaptive, a forced ready-list and a reference
    /// array and requires identical results; returns the adaptive array.
    fn on_all_steppers<T: PartialEq + std::fmt::Debug>(
        scenario: impl Fn(&mut Array) -> T,
    ) -> Array {
        let mut adaptive = Array::xpp64a();
        let a = scenario(&mut adaptive);
        let mut ready_list = with_schedule_capture(false, Array::xpp64a);
        assert_eq!(a, scenario(&mut ready_list), "dense stepping diverges");
        assert_eq!(ready_list.schedule_stats().captured, 0);
        let mut reference = with_reference_stepper(Array::xpp64a);
        assert_eq!(a, scenario(&mut reference), "reference stepper diverges");
        adaptive
    }

    #[test]
    fn dense_stepping_serves_a_free_running_steady_state() {
        let array = on_all_steppers(|array| {
            let cfg = array.configure(&free_running_netlist()).unwrap();
            array.run(5_000);
            (
                array.drain_output(cfg, "y").unwrap(),
                array.object_fire_counts(cfg).unwrap(),
                array.stats(),
            )
        });
        let s = array.schedule_stats();
        assert!(array.schedule_replay_active());
        assert_eq!((s.captured, s.invalidations), (1, 0));
        assert!(
            s.replay_cycles > 4_900,
            "dense from the first cycles: {s:?}"
        );
    }

    #[test]
    fn outside_input_leaves_a_dense_configuration_dense() {
        let array = on_all_steppers(|array| {
            let cfg = array.configure(&free_running_netlist()).unwrap();
            array.run(3_000);
            array.push_input(cfg, "a", (0..4).map(Word::new)).unwrap();
            let dense_through_the_push = array.schedule_replay_active();
            array.run(3_000);
            (
                dense_through_the_push == array.schedule_replay_active(),
                array.drain_output(cfg, "y").unwrap(),
                array.drain_output(cfg, "z").unwrap(),
                array.stats(),
            )
        });
        // One entry, no exit: the push perturbed nothing, and the four
        // words still came out the other end.
        let s = array.schedule_stats();
        assert_eq!((s.captured, s.invalidations), (1, 0));
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
    fn a_drained_burst_is_handed_back_and_falls_asleep() {
        let array = on_all_steppers(|array| {
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
        // The 200- and 50-word bursts turned dense; as each drained, its
        // activity fell through the exit threshold (sparse: flood wake back
        // to the ready list, which finished the job). Three words never
        // fill a quarter of a twelve-object pipeline.
        let s = array.schedule_stats();
        assert_eq!((s.captured, s.invalidations), (2, 2));
        assert!(!array.schedule_replay_active());
        assert!(array.configs[0].ready.is_empty(), "asleep");
    }

    #[test]
    fn a_stalled_dense_pass_is_the_proof_of_sleep() {
        // Four objects: too few for activity to pass below a quarter on
        // its way to nothing, so this configuration only ever leaves dense
        // stepping by falling asleep.
        let mut nl = NetlistBuilder::new("stall");
        let x = nl.input("x");
        let e = nl.input_event("e");
        let g = nl.gate(e, x);
        nl.output("y", g);
        let netlist = nl.build().unwrap();
        let scenario = |array: &mut Array| {
            let cfg = array.configure(&netlist).unwrap();
            array.push_input(cfg, "x", (0..100).map(Word::new)).unwrap();
            array.push_input_events(cfg, "e", [true; 60]).unwrap();
            let first = array.run_until_idle(1_000).unwrap();
            let stalled = array.drain_output(cfg, "y").unwrap();
            array.push_input_events(cfg, "e", [true; 40]).unwrap();
            let second = array.run_until_idle(1_000).unwrap();
            (
                first,
                stalled,
                second,
                array.drain_output(cfg, "y").unwrap(),
            )
        };
        on_all_steppers(scenario);

        // The same again, watching the stepper: the events run out with 40
        // words still queued behind the gate.
        let mut array = Array::xpp64a();
        let cfg = array.configure(&netlist).unwrap();
        array.push_input(cfg, "x", (0..100).map(Word::new)).unwrap();
        array.push_input_events(cfg, "e", [true; 60]).unwrap();
        array.run(30);
        assert!(array.schedule_replay_active());
        let mark = |a: &Array| (a.stats().cycles, a.schedule_stats().replay_cycles);
        let (cycles, dense) = mark(&array);
        array.run_until_idle(1_000).unwrap();
        let (cycles_after, dense_after) = mark(&array);
        assert_eq!(
            cycles_after - cycles,
            dense_after - dense,
            "dense to the last cycle: the pass that fired nothing ended it"
        );
        assert!(!array.schedule_replay_active());
        assert!(array.configs[0].ready.is_empty(), "asleep, nobody woken");
        // Late events reach the stalled gate through the one object
        // `push_input_events` wakes.
        array.push_input_events(cfg, "e", [true; 40]).unwrap();
        array.run_until_idle(1_000).unwrap();
        assert_eq!(array.drain_output(cfg, "y").unwrap().len(), 100);
        let s = array.schedule_stats();
        assert_eq!((s.captured, s.invalidations), (2, 2));
    }

    #[test]
    fn unload_counts_as_a_dense_exit() {
        let mut array = Array::xpp64a();
        let cfg = array.configure(&free_running_netlist()).unwrap();
        array.run(3_000);
        assert!(array.schedule_replay_active());
        array.unload(cfg).unwrap();
        assert!(!array.schedule_replay_active());
        assert_eq!(array.schedule_stats().invalidations, 1);
        // The array is empty now: stepping settles to idle.
        assert_eq!(array.run_until_idle(100), Ok(1));
    }

    #[test]
    fn set_schedule_capture_toggles_at_runtime() {
        let mut array = Array::xpp64a();
        array.set_schedule_capture(false);
        let cfg = array.configure(&free_running_netlist()).unwrap();
        array.run(3_000);
        assert!(!array.schedule_replay_active());
        assert_eq!(array.schedule_stats().captured, 0);
        // Lifting the force mid-run turns the steady state dense at once.
        array.set_schedule_capture(true);
        array.run(2);
        assert!(array.schedule_replay_active());
        let _ = array.drain_output(cfg, "y").unwrap();
        // Forcing the ready list while dense hands back immediately.
        array.set_schedule_capture(false);
        assert!(!array.schedule_replay_active());
        array.run(100);
        assert!(!array.schedule_replay_active());
        assert_eq!(array.schedule_stats().invalidations, 1);
    }
}
