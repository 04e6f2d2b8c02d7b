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
//! configuration's runs (every object, grouped by firing rule, built by
//! [`CompiledConfig::compile`](crate::CompiledConfig::compile)), executed as
//! *every object, every cycle*.
//!
//! # Exactness
//!
//! Why offering every object every cycle gives bit-identical results to
//! any stepper that offers the fireable ones: a fire decision reads only
//! channel state committed at the *start* of the cycle — productions and
//! consumptions are staged, channels are point-to-point, and an object's
//! internal state is touched by its own fire alone — so offering an object
//! that cannot fire does nothing, and a stepper is exact as soon as it
//! offers a superset of the fireable objects.
//!
//! The order of the offers does not matter for the same reason. A staged
//! consumption or production changes nothing another object's decision
//! reads until the commit: the channel it touches has exactly one consumer
//! and one producer, each offered once a cycle, and a staged token waits in
//! a ring slot that no committed token occupies. So the production
//! stepper may visit objects grouped into runs by firing rule while the
//! reference visits them in node order, and both fire the same objects;
//! fire counts are kept per object, so `object_fire_counts` reports the
//! same numbers in node order. Neither does the order of the end-of-cycle
//! commits matter, each of which touches one channel.
//!
//! Finally, a pass over every object that fires nothing stages nothing, so
//! the next cycle starts from the same state and would fire nothing again:
//! that pass *is* the proof that the configuration is asleep until
//! something outside it — `push_input`, `push_input_events`, a board route
//! moving tokens in, or its own load completing — wakes it. No period, no
//! guard, nothing to invalidate; [`ScheduleStats`] counts the sleeps and
//! wakes.

/// How the stepper slept and woke. Deliberately *not* part of
/// [`ArrayStats`](crate::ArrayStats): those are pinned bit-identical between
/// the production and reference steppers, while these describe the
/// stepping itself. (Field names date from the capture/replay design; the
/// benchmark compiles against them.)
///
/// Every wake is matched by one sleep or is still awake, so `captured -
/// invalidations` is the number of resident configurations awake now.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Wake-ups: a sleeping configuration woken by input, a board route
    /// or its load completing.
    pub captured: u64,
    /// Cycles in which at least one configuration was awake and stepped.
    pub replay_cycles: u64,
    /// Fall-asleeps: a pass fired nothing, or the configuration was
    /// unloaded while awake.
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
