//! The schedule of a configuration, and why no stepper has to detect one.
//!
//! A pipelined token-handshake netlist has a steady-state firing pattern,
//! and earlier versions of this crate tried to *find* it: hash each cycle's
//! fire/commit signature, scan the history for a period, record two
//! periods, compare them, replay the recording under per-cycle guards. That
//! fails exactly where it matters — the Fig. 5 descrambler steers `±1`
//! constants through merges by the scrambling-code bits, so which objects
//! fire follows the data and there is no period to find — and it is not
//! needed. The schedule that is always sound is a compile artifact: the
//! configuration's visit list (one micro-op per object, built by
//! [`CompiledConfig::compile`](crate::CompiledConfig::compile)), executed as
//! *every object, every cycle*.
//!
//! # Exactness
//!
//! Why offering every object every cycle (the dense stepper), only the woken
//! ones (the ready-list stepper), or any mixture chosen cycle by cycle gives
//! bit-identical results: a fire decision reads only channel state committed
//! at the *start* of the cycle — productions and consumptions are staged,
//! channels are point-to-point, and an object's internal state is touched
//! by its own fire alone — so offering an object that cannot fire does
//! nothing, and a stepper is exact as soon as it offers a superset of the
//! fireable objects. The order of the offers does not matter for the same
//! reason, and neither does the order of the end-of-cycle commits, each of
//! which touches one channel. Finally, a pass over every object that fires
//! nothing stages nothing, so the next cycle starts from the same state and
//! would fire nothing again: that pass *is* the proof that the
//! configuration is asleep until something outside it (external input, a
//! board route, its own load completing) wakes an object — which always
//! goes through the ready list. No period, no guard, nothing to invalidate.
//!
//! What remains of "scheduling" is a cost decision, made per configuration
//! per cycle in `array::dense`; [`ScheduleStats`] records how it went.

/// Which stepper ran. Deliberately *not* part of
/// [`ArrayStats`](crate::ArrayStats): those are pinned bit-identical between
/// all steppers, while these describe the stepping itself. (Field names date
/// from the capture/replay design; the benchmark compiles against them.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Entries of a configuration into dense mode.
    pub captured: u64,
    /// Cycles in which the dense stepper served at least one configuration.
    pub replay_cycles: u64,
    /// Exits of a configuration from dense mode: went to sleep, turned
    /// sparse, was unloaded, or the ready-list stepper was forced.
    pub invalidations: u64,
}

impl ScheduleStats {
    /// Difference since an earlier snapshot.
    pub fn delta_since(&self, earlier: &ScheduleStats) -> ScheduleStats {
        ScheduleStats {
            captured: self.captured - earlier.captured,
            replay_cycles: self.replay_cycles - earlier.replay_cycles,
            invalidations: self.invalidations - earlier.invalidations,
        }
    }
}
