//! The event-driven stepper: a ready list decides which objects are offered
//! to the firing rules each cycle, and the commit phase walks only the
//! channels those fires staged.

use super::Array;

/// Ready-list bookkeeping for the event-driven stepper.
///
/// `ready` holds the object slots that may fire next cycle; `queued` dedups
/// wakes (one entry per slot per cycle); `fire_buf` is the double buffer the
/// fire phase drains so commits can refill `ready` without reallocating.
/// Spurious wakes are harmless — a woken object that cannot fire simply
/// drops off the list — so stale entries surviving an `unload` are safe.
#[derive(Debug, Default)]
pub(super) struct Scheduler {
    ready: Vec<usize>,
    fire_buf: Vec<usize>,
    pub(super) queued: Vec<bool>,
}

impl Scheduler {
    #[inline]
    pub(super) fn wake(&mut self, obj: usize) {
        if let Some(q) = self.queued.get_mut(obj) {
            if !*q {
                *q = true;
                self.ready.push(obj);
            }
        }
    }
}

impl Array {
    /// One cycle of the event-driven scheduler: drain the ready list, fire
    /// what can fire, commit only dirty channels and wake their endpoints.
    ///
    /// When schedule capture is enabled and the cycle is capturable (idle
    /// config bus, no board connections), the cycle's fire/commit sequence
    /// is also fed to the `ScheduleEngine`, which may promote a verified
    /// periodic schedule and switch subsequent `step`s to replay.
    pub(super) fn step_event(&mut self) -> bool {
        self.stats.cycles += 1;
        let track = self.replay.enabled
            && self
                .replay
                .begin_cycle(self.load_queue.is_empty() && self.connections.is_empty());
        let mut active = self.tick_config_bus();

        // Fire phase: visit only woken objects. Wakes recorded during the
        // commit/board phases below land in `ready` for the next cycle.
        {
            let Array {
                objects,
                dchans,
                echans,
                stats,
                sched,
                dirty_d,
                dirty_e,
                replay,
                ..
            } = self;
            std::mem::swap(&mut sched.ready, &mut sched.fire_buf);
            let Scheduler {
                fire_buf,
                queued,
                ready,
            } = sched;
            for &o in fire_buf.iter() {
                queued[o] = false;
                if let Some(obj) = objects[o].as_mut() {
                    if !obj.enabled {
                        continue;
                    }
                    let fires = obj.fire(dchans, echans, dirty_d, dirty_e, stats);
                    if fires > 0 {
                        active = true;
                        obj.fires += u64::from(fires);
                        if track {
                            replay.note_fire(o, fires);
                        }
                        // A fired object may be fireable again next cycle
                        // even with no channel transition (e.g. an Input
                        // draining its external queue): self-rewake.
                        if !queued[o] {
                            queued[o] = true;
                            ready.push(o);
                        }
                    }
                }
            }
            fire_buf.clear();
        }

        // Commit phase: only channels that staged a push or pop this cycle.
        // A non-fired object can become fireable only when a blocking
        // predicate on an adjacent channel transitions (full→not-full for
        // the producer, empty→non-empty for the consumer) — wake exactly
        // those endpoints. Steady-state token movement (pop+push keeping
        // the occupancy level) wakes nobody; the fired objects already
        // re-woke themselves above.
        {
            let Array {
                dchans,
                echans,
                d_adj,
                e_adj,
                sched,
                dirty_d,
                dirty_e,
                replay,
                ..
            } = self;
            for &c in dirty_d.iter() {
                if let Some(ch) = dchans[c].as_mut() {
                    let (_, freed, gained) = ch.commit_wakes();
                    if track {
                        replay.note_commit_d(c, freed, gained);
                    }
                    if freed {
                        sched.wake(d_adj[c].0);
                    }
                    if gained {
                        sched.wake(d_adj[c].1);
                    }
                }
            }
            dirty_d.clear();
            for &c in dirty_e.iter() {
                if let Some(ch) = echans[c].as_mut() {
                    let (_, freed, gained) = ch.commit_wakes();
                    if track {
                        replay.note_commit_e(c, freed, gained);
                    }
                    if freed {
                        sched.wake(e_adj[c].0);
                    }
                    if gained {
                        sched.wake(e_adj[c].1);
                    }
                }
            }
            dirty_e.clear();
        }

        if self.move_board_tokens() {
            active = true;
        }
        if track && self.replay.end_cycle() {
            self.compile_replay_micro();
            self.publish_schedule();
        }
        active
    }
}

#[cfg(test)]
mod tests {
    use crate::array::Array;
    use crate::netlist::NetlistBuilder;
    use crate::object::AluOp;
    use crate::word::Word;

    #[test]
    fn event_scheduler_sleeps_when_tokens_stall() {
        // A pipeline with no input tokens must go (and stay) fully idle:
        // the ready list drains and stepping reports no activity.
        let mut array = Array::xpp64a();
        let mut nl = NetlistBuilder::new("stall");
        let a = nl.input("a");
        let c = nl.constant(Word::new(1));
        let y = nl.alu(AluOp::Add, a, c);
        nl.output("y", y);
        let cfg = array.configure(&nl.build().unwrap()).unwrap();
        array.run_until_idle(10_000).unwrap();
        assert!(array.sched.ready.is_empty(), "ready list must drain");
        // Late input wakes it back up.
        array.push_input(cfg, "a", [Word::new(5)]).unwrap();
        array.run_until_idle(10_000).unwrap();
        let out = array.drain_output(cfg, "y").unwrap();
        assert_eq!(out, vec![Word::new(6)]);
    }
}
