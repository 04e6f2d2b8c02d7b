//! Schedule replay: the straight-line stepper, promotion of a captured
//! schedule into its compiled form, and invalidation back to the event
//! scheduler. The capture/verify state machine itself lives in
//! [`crate::schedule`].

use super::fire::{compile_micro_op, fire, Lane, MicroPorts, Net, StageCount, NO_CHAN};
use super::load::ConfigState;
use super::Array;
use crate::channel::Channel;
use crate::schedule::{op_fires, op_slot, pack_commit};

/// Channel-id bits of a packed commit micro-op (see `schedule::pack_commit`:
/// channel in the low 30 bits, freed/gained flags in the top two).
const COM_CHAN: u32 = (1 << 30) - 1;

/// One network's half of the promotion-time move into the dense replay
/// slabs: `map` translates an original channel id to its slab index
/// ([`NO_CHAN`] until the schedule first references the channel).
struct SlabMap<'a, T> {
    map: Vec<u32>,
    chans: &'a mut [Option<Channel<T>>],
    slab: &'a mut Vec<Channel<T>>,
    src: &'a mut Vec<u32>,
}

impl<'a, T> SlabMap<'a, T> {
    fn new(
        chans: &'a mut [Option<Channel<T>>],
        slab: &'a mut Vec<Channel<T>>,
        src: &'a mut Vec<u32>,
    ) -> Self {
        debug_assert!(slab.is_empty() && src.is_empty());
        SlabMap {
            map: vec![NO_CHAN; chans.len()],
            chans,
            slab,
            src,
        }
    }

    /// Slab index of channel `c`, moving it out of the sparse table on its
    /// first reference.
    fn index(&mut self, c: u32) -> u32 {
        let m = &mut self.map[c as usize];
        if *m == NO_CHAN {
            *m = self.slab.len() as u32;
            self.src.push(c);
            self.slab.push(
                self.chans[c as usize]
                    .take()
                    .expect("schedule references a live channel"),
            );
        }
        *m
    }

    /// A recorded commit op with its channel id swapped for the slab index
    /// (flags kept); `None` if no compiled fire op references the channel.
    fn commit(&self, com: u32) -> Option<u32> {
        let slab = self.map[(com & COM_CHAN) as usize];
        (slab != NO_CHAN).then_some((com & !COM_CHAN) | slab)
    }
}

impl Array {
    /// One cycle of straight-line schedule replay: fire exactly the
    /// recorded micro-ops (through the same [`fire`] rules every stepper
    /// uses) and commit exactly the recorded channels — no ready list, no
    /// wake adjacency traversal, no allocation.
    ///
    /// Two guards pin replay to the event stepper bit-for-bit: every
    /// micro-op must fire the recorded number of times, and the commit
    /// signature (the set of channels that staged movement, with the
    /// full/empty transitions each commit produced) must match the
    /// recording. Any mismatch means
    /// the array left its captured steady state; the deviating cycle itself
    /// is still exact (see the `schedule` module docs for the argument), so
    /// the schedule is invalidated at its end and the event scheduler takes
    /// over from the next cycle with a conservative flood wake.
    pub(super) fn step_replay(&mut self) -> bool {
        self.stats.cycles += 1;
        debug_assert!(self.load_queue.is_empty() && self.connections.is_empty());
        let mut ok = true;
        let mut active = false;
        {
            let Array {
                objects,
                stats,
                replay,
                replay_micro,
                replay_fan,
                replay_fires,
                replay_dslab,
                replay_eslab,
                replay_dcoms,
                replay_ecoms,
                replay_comspan,
                ..
            } = self;
            let schedule = replay.active().expect("replay mode holds a schedule");
            let phase = replay.phase();
            debug_assert_eq!(replay_micro.len(), schedule.ops_per_period());
            let mut staged_d = StageCount::default();
            let mut staged_e = StageCount::default();
            let mut net = Net {
                d: Lane {
                    chans: &mut replay_dslab[..],
                    staged: &mut staged_d,
                },
                e: Lane {
                    chans: &mut replay_eslab[..],
                    staged: &mut staged_e,
                },
                stats,
            };
            for m in &replay_micro[schedule.op_range(phase)] {
                let fires = fire(
                    m.rule,
                    &MicroPorts { m, fan: replay_fan },
                    || objects[m.slot as usize].as_mut().map(|o| &mut o.state),
                    &mut net,
                );
                replay_fires[m.slot as usize] += u64::from(fires);
                active |= fires > 0;
                ok &= fires == u32::from(m.fires);
            }
            // The commit loop streams the recorded signature (remapped to
            // slab indices at promotion) and commits exactly the listed
            // channels. Set equality with the actually-staged channels is
            // enforced by two facts: every listed channel must really have
            // moved, and the staged totals must match the list lengths —
            // so no staged channel can hide outside the list, and no
            // listed channel can have gone untouched.
            let k = phase as usize;
            let (dlo, elo) = if k == 0 {
                (0, 0)
            } else {
                replay_comspan[k - 1]
            };
            let (dhi, ehi) = replay_comspan[k];
            ok &= staged_d.0 == dhi - dlo && staged_e.0 == ehi - elo;
            for &com in &replay_dcoms[dlo as usize..dhi as usize] {
                let c = com & COM_CHAN;
                let (moved, freed, gained) = replay_dslab[c as usize].commit_wakes();
                ok &= moved && com == pack_commit(c as usize, freed, gained);
            }
            for &com in &replay_ecoms[elo as usize..ehi as usize] {
                let c = com & COM_CHAN;
                let (moved, freed, gained) = replay_eslab[c as usize].commit_wakes();
                ok &= moved && com == pack_commit(c as usize, freed, gained);
            }
            if !ok {
                // A deviating cycle may have staged channels the recorded
                // signature never commits; sweep the slabs so no staged
                // state leaks into the event scheduler's takeover cycle.
                for ch in replay_dslab.iter_mut() {
                    ch.commit_wakes();
                }
                for ch in replay_eslab.iter_mut() {
                    ch.commit_wakes();
                }
            }
        }
        if ok {
            self.replay.advance_phase();
        } else {
            // A guard trip: the behaviour deviated from the captured
            // period, so the detector's evidence floor escalates.
            self.invalidate_schedule(true);
        }
        active
    }

    /// Rate perturbation hook (external input, reconfiguration, board
    /// routing changes): a replaying schedule is invalidated, an in-flight
    /// capture is abandoned. Observation history is behavioural evidence
    /// and survives.
    #[inline]
    pub(super) fn perturb_schedule(&mut self) {
        if self.replay.is_replaying() {
            self.invalidate_schedule(false);
        } else {
            self.replay.abort_capture();
        }
    }

    /// Drops the active schedule and hands control back to the event
    /// scheduler. The ready list went stale while replay bypassed it, so
    /// every live object is woken — spurious wakes are harmless, and an
    /// over-full ready list is exactly the safe side to err on.
    pub(super) fn invalidate_schedule(&mut self, guard_trip: bool) {
        self.replay.invalidate(guard_trip);
        // Fold the replay loop's per-slot fire accumulator back into the
        // object table, so `RuntimeObject::fires` is exact outside replay.
        for (slot, acc) in self.replay_fires.iter_mut().enumerate() {
            if let Some(obj) = self.objects[slot].as_mut() {
                obj.fires += *acc;
            }
            *acc = 0;
        }
        // Return the slab channels to their sparse-table slots before the
        // event scheduler (or any channel-observing caller) runs again.
        for (ch, src) in self.replay_dslab.drain(..).zip(self.replay_dsrc.drain(..)) {
            self.dchans[src as usize] = Some(ch);
        }
        for (ch, src) in self.replay_eslab.drain(..).zip(self.replay_esrc.drain(..)) {
            self.echans[src as usize] = Some(ch);
        }
        self.replay_micro.clear();
        self.replay_fan.clear();
        self.replay_dcoms.clear();
        self.replay_ecoms.clear();
        self.replay_comspan.clear();
        for o in 0..self.objects.len() {
            if self.objects[o].is_some() {
                self.sched.wake(o);
            }
        }
    }

    /// Compiles the freshly promoted schedule into the form the replay loop
    /// executes: one [`Micro`](super::fire::Micro) per recorded fire op
    /// (parallel to the schedule's flat op vector), every channel those ops
    /// reference moved out of the sparse `dchans`/`echans` tables into the
    /// dense slabs, and the recorded commit signature remapped to slab
    /// indices (`replay_dcoms`/`replay_ecoms`, with per-phase spans). Runs
    /// once per promotion — never in the steady-state path — so its
    /// allocations fall under the capture transition budget;
    /// [`Array::invalidate_schedule`] undoes it before the event scheduler
    /// resumes.
    pub(super) fn compile_replay_micro(&mut self) {
        let Some(schedule) = self.replay.active_arc() else {
            return;
        };
        let Array {
            objects,
            dchans,
            echans,
            replay_micro,
            replay_fan,
            replay_fires,
            replay_dslab,
            replay_eslab,
            replay_dsrc,
            replay_esrc,
            replay_dcoms,
            replay_ecoms,
            replay_comspan,
            ..
        } = self;
        replay_micro.clear();
        replay_fan.clear();
        replay_fires.clear();
        replay_fires.resize(objects.len(), 0);
        replay_dcoms.clear();
        replay_ecoms.clear();
        replay_comspan.clear();
        let mut d = SlabMap::new(dchans, replay_dslab, replay_dsrc);
        let mut e = SlabMap::new(echans, replay_eslab, replay_esrc);
        let mut complete = true;
        for phase in 0..schedule.period() {
            let (ops, dcoms, ecoms) = schedule.cycle(phase);
            for &op in ops {
                let slot = op_slot(op);
                replay_micro.push(compile_micro_op(
                    objects[slot].as_ref(),
                    slot as u32,
                    op_fires(op) as u8,
                    replay_fan,
                    |c| d.index(c),
                    |c| e.index(c),
                ));
            }
            // Every channel a recorded commit names was staged by a fire
            // recorded in the same cycle, so it is already in the maps.
            for &com in dcoms {
                match d.commit(com) {
                    Some(c) => replay_dcoms.push(c),
                    None => complete = false,
                }
            }
            for &com in ecoms {
                match e.commit(com) {
                    Some(c) => replay_ecoms.push(c),
                    None => complete = false,
                }
            }
            replay_comspan.push((replay_dcoms.len() as u32, replay_ecoms.len() as u32));
        }
        if !complete {
            // A recorded commit references a channel no op touches — the
            // schedule is inconsistent with the object table (cannot
            // happen while the perturbation hooks hold). Fall straight
            // back to the event scheduler.
            self.invalidate_schedule(false);
        }
    }

    /// Publishes a freshly captured schedule into the shared cell of every
    /// running resident configuration, so gang members and prefetch targets
    /// holding the same `Arc<CompiledConfig>` can seed their detectors.
    pub(super) fn publish_schedule(&mut self) {
        if let Some(schedule) = self.replay.active_arc() {
            for cfg in self.configs.values() {
                if cfg.state == ConfigState::Running {
                    cfg.schedule_cell.publish(schedule.clone());
                }
            }
        }
    }

    /// Re-reads the period hint from the resident configurations' shared
    /// schedule cells (cheap, called on load completion — never in the
    /// steady-state step path).
    pub(super) fn refresh_schedule_hint(&mut self) {
        if !self.replay.enabled {
            return;
        }
        let hint = self
            .configs
            .values()
            .find_map(|c| c.schedule_cell.period_hint());
        self.replay.set_hint(hint);
    }
}

#[cfg(test)]
mod tests {
    use crate::array::{with_reference_stepper, with_schedule_capture, Array};
    use crate::netlist::NetlistBuilder;
    use crate::object::{AluOp, CounterCfg};
    use crate::word::Word;

    /// A free-running netlist that never idles: counter → scale → output
    /// plus a normally-dry input branch whose arrival perturbs the rhythm.
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

    #[test]
    fn replay_captures_a_free_running_steady_state() {
        let run = |array: &mut Array| {
            let cfg = array.configure(&free_running_netlist()).unwrap();
            array.run(5_000);
            (
                array.drain_output(cfg, "y").unwrap(),
                array.config_fire_count(cfg),
                array.stats(),
            )
        };
        let mut fast = Array::xpp64a();
        let a = run(&mut fast);
        let s = fast.schedule_stats();
        assert!(s.captured >= 1, "steady state must be captured: {s:?}");
        assert!(s.replay_cycles > 0, "replay must take over: {s:?}");
        assert!(fast.schedule_replay_active());
        // Bit-identical to a capture-off run and to the reference stepper.
        let mut off = with_schedule_capture(false, Array::xpp64a);
        let b = run(&mut off);
        assert_eq!(off.schedule_stats().captured, 0);
        let mut slow = with_reference_stepper(Array::xpp64a);
        let c = run(&mut slow);
        assert_eq!(a, b, "replay diverges from the event stepper");
        assert_eq!(a, c, "replay diverges from the reference stepper");
    }

    #[test]
    fn perturbation_invalidates_and_recaptures() {
        let run = |array: &mut Array| {
            let cfg = array.configure(&free_running_netlist()).unwrap();
            array.run(3_000);
            array.push_input(cfg, "a", (0..4).map(Word::new)).unwrap();
            array.run(3_000);
            (
                array.drain_output(cfg, "y").unwrap(),
                array.drain_output(cfg, "z").unwrap(),
                array.stats(),
            )
        };
        let mut fast = Array::xpp64a();
        let cfg = fast.configure(&free_running_netlist()).unwrap();
        fast.run(3_000);
        assert!(fast.schedule_replay_active());
        let before = fast.schedule_stats();
        // A rate perturbation while replaying must fall back to the event
        // scheduler, then re-capture once the burst drains.
        fast.push_input(cfg, "a", (0..4).map(Word::new)).unwrap();
        assert!(!fast.schedule_replay_active());
        assert_eq!(
            before.invalidations + 1,
            fast.schedule_stats().invalidations
        );
        fast.run(3_000);
        let after = fast.schedule_stats();
        assert!(fast.schedule_replay_active(), "must recapture: {after:?}");
        assert!(after.captured > before.captured);
        // The whole transition is bit-identical to both other steppers.
        let a = (
            fast.drain_output(cfg, "y").unwrap(),
            fast.drain_output(cfg, "z").unwrap(),
            fast.stats(),
        );
        let mut off = with_schedule_capture(false, Array::xpp64a);
        let b = run(&mut off);
        let mut slow = with_reference_stepper(Array::xpp64a);
        let c = run(&mut slow);
        assert_eq!(a, b, "transition diverges from the event stepper");
        assert_eq!(a, c, "transition diverges from the reference stepper");
    }

    #[test]
    fn captured_schedule_travels_with_the_compiled_config() {
        let compiled = crate::CompiledConfig::compile(&free_running_netlist());
        let mut first = Array::xpp64a();
        let c1 = first.configure_compiled(&compiled).unwrap();
        first.run(5_000);
        assert!(first.schedule_replay_active());
        let published = compiled
            .captured_schedule()
            .expect("promotion must publish into the compiled config");
        // A second array loading the same compiled configuration gets the
        // period hint and captures without a blind scan.
        let mut second = Array::xpp64a();
        let c2 = second.configure_compiled(&compiled).unwrap();
        second.run(5_000);
        let s = second.schedule_stats();
        assert!(s.captured >= 1);
        assert!(s.hinted_captures >= 1, "hint must seed the detector: {s:?}");
        assert_eq!(
            second.schedule_stats().captured,
            s.captured,
            "hint path must not double-count"
        );
        if let Some(other) = compiled.captured_schedule() {
            assert_eq!(other.period(), published.period());
        }
        assert_eq!(
            first.drain_output(c1, "y").unwrap(),
            second.drain_output(c2, "y").unwrap(),
        );
    }

    #[test]
    fn unload_invalidates_the_schedule() {
        let mut array = Array::xpp64a();
        let cfg = array.configure(&free_running_netlist()).unwrap();
        array.run(3_000);
        assert!(array.schedule_replay_active());
        let before = array.schedule_stats();
        array.unload(cfg).unwrap();
        assert!(!array.schedule_replay_active());
        assert_eq!(
            before.invalidations + 1,
            array.schedule_stats().invalidations
        );
        // The array is empty now: stepping must settle back to idle
        // without ever re-promoting the stale schedule.
        array.run(100);
        assert!(!array.schedule_replay_active());
    }

    #[test]
    fn set_schedule_capture_toggles_at_runtime() {
        let mut array = Array::xpp64a();
        array.set_schedule_capture(false);
        let cfg = array.configure(&free_running_netlist()).unwrap();
        array.run(3_000);
        assert!(!array.schedule_replay_active());
        assert_eq!(array.schedule_stats().captured, 0);
        // Re-enabling capture mid-run picks the steady state right up.
        array.set_schedule_capture(true);
        array.run(3_000);
        assert!(array.schedule_replay_active());
        let _ = array.drain_output(cfg, "y").unwrap();
        // Turning capture off while replaying drops back to the event
        // scheduler immediately.
        array.set_schedule_capture(false);
        assert!(!array.schedule_replay_active());
        array.run(100);
        assert!(!array.schedule_replay_active());
    }
}
