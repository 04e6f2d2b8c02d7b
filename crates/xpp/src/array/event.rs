//! The ready-list stepper: a per-configuration ready list decides which
//! objects are offered to the firing rules each cycle, and the commit phase
//! walks only the channels those fires staged.

use super::fire::{fire, Lane, Net};
use super::load::LoadedConfig;
use crate::channel::Channel;
use crate::stats::ArrayStats;

/// Ready-list bookkeeping of one configuration, in its own object numbering.
///
/// `ready` holds the objects that may fire next cycle; `queued` dedups wakes
/// (one entry per object per cycle); `fire_buf` is the double buffer the
/// fire phase drains so commits can refill `ready`. All three are sized for
/// the whole configuration up front, so waking never allocates. Spurious
/// wakes are harmless — a woken object that cannot fire simply drops off
/// the list — so the wakes a dense stretch leaves behind are safe.
#[derive(Debug)]
pub(super) struct ReadyList {
    ready: Vec<u32>,
    fire_buf: Vec<u32>,
    queued: Vec<bool>,
}

impl ReadyList {
    pub(super) fn new(objects: usize) -> Self {
        ReadyList {
            ready: Vec::with_capacity(objects),
            fire_buf: Vec::with_capacity(objects),
            queued: vec![false; objects],
        }
    }

    #[inline]
    pub(super) fn wake(&mut self, obj: u32) {
        let q = &mut self.queued[obj as usize];
        if !*q {
            *q = true;
            self.ready.push(obj);
        }
    }

    /// Flood wake: the conservative ready list (every object), for when
    /// the configuration starts running or the dense stepper hands it back.
    pub(super) fn wake_all(&mut self) {
        for obj in 0..self.queued.len() as u32 {
            self.wake(obj);
        }
    }

    /// Forgets every pending wake.
    pub(super) fn clear(&mut self) {
        for obj in self.ready.drain(..) {
            self.queued[obj as usize] = false;
        }
    }

    #[inline]
    pub(super) fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }

    /// Commits the channels of one network that staged movement this cycle
    /// (draining `dirty`) and wakes the endpoints whose blocking predicate
    /// transitioned: the producer of a channel that went full→not-full,
    /// the consumer of one that went empty→non-empty. `adj` holds each
    /// channel's (producer, consumer).
    #[inline]
    fn commit_dirty<T: Copy + Default>(
        &mut self,
        chans: &mut [Channel<T>],
        dirty: &mut Vec<u32>,
        adj: &[(u32, u32)],
    ) {
        for c in dirty.drain(..) {
            let (_, freed, gained) = chans[c as usize].commit_wakes();
            let (producer, consumer) = adj[c as usize];
            if freed {
                self.wake(producer);
            }
            if gained {
                self.wake(consumer);
            }
        }
    }
}

impl LoadedConfig {
    /// One cycle of the ready-list stepper: drain the ready list, fire what
    /// can fire, commit only the channels that staged movement (collected
    /// in the caller's `dirty_*` worklists, left empty again) and wake their
    /// endpoints. Returns how many objects fired.
    ///
    /// Fire decisions depend solely on committed start-of-cycle channel
    /// state, so restricting the fire scan to woken objects is exact, not
    /// heuristic: an unwoken object could not have fired anyway.
    pub(super) fn step_ready(
        &mut self,
        stats: &mut ArrayStats,
        dirty_d: &mut Vec<u32>,
        dirty_e: &mut Vec<u32>,
    ) -> usize {
        let program = &*self.program;
        let ReadyList {
            ready,
            fire_buf,
            queued,
        } = &mut self.ready;
        let mut fired = 0;

        // Fire phase: visit only woken objects. Wakes recorded here and in
        // the commit phase below land in `ready` for the next cycle.
        std::mem::swap(ready, fire_buf);
        let mut net = Net {
            d: Lane {
                chans: &mut self.dchans,
                staged: dirty_d,
            },
            e: Lane {
                chans: &mut self.echans,
                staged: dirty_e,
            },
            stats,
        };
        for &o in fire_buf.iter() {
            let at = o as usize;
            queued[at] = false;
            let fires = fire(
                &program.micro[at],
                &program.fan,
                &mut self.states[at],
                &mut net,
            );
            if fires > 0 {
                fired += 1;
                self.fires[at] += u64::from(fires);
                // A fired object may be fireable again next cycle even
                // with no channel transition (e.g. an Input draining its
                // external queue): self-rewake.
                queued[at] = true;
                ready.push(o);
            }
        }
        fire_buf.clear();

        // Commit phase: only channels that staged a push or pop this cycle.
        // A non-fired object can become fireable only when a blocking
        // predicate on an adjacent channel transitions — wake exactly
        // those endpoints. Steady-state token movement (pop+push keeping
        // the occupancy level) wakes nobody; the fired objects already
        // re-woke themselves above.
        self.ready
            .commit_dirty(&mut self.dchans, dirty_d, &program.d_adj);
        self.ready
            .commit_dirty(&mut self.echans, dirty_e, &program.e_adj);
        fired
    }
}

#[cfg(test)]
mod tests {
    use crate::array::{with_schedule_capture, Array};
    use crate::netlist::NetlistBuilder;
    use crate::object::AluOp;
    use crate::word::Word;

    #[test]
    fn event_scheduler_sleeps_when_tokens_stall() {
        // A pipeline with no input tokens must go (and stay) fully idle:
        // the ready list drains and stepping reports no activity.
        let mut array = with_schedule_capture(false, Array::xpp64a);
        let mut nl = NetlistBuilder::new("stall");
        let a = nl.input("a");
        let c = nl.constant(Word::new(1));
        let y = nl.alu(AluOp::Add, a, c);
        nl.output("y", y);
        let cfg = array.configure(&nl.build().unwrap()).unwrap();
        array.run_until_idle(10_000).unwrap();
        assert!(array.configs[0].ready.is_empty(), "ready list must drain");
        // Late input wakes it back up.
        array.push_input(cfg, "a", [Word::new(5)]).unwrap();
        array.run_until_idle(10_000).unwrap();
        let out = array.drain_output(cfg, "y").unwrap();
        assert_eq!(out, vec![Word::new(6)]);
    }
}
