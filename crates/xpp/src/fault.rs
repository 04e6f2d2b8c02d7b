//! Deterministic, seeded fault injection for the configuration path.
//!
//! The simulator is bit-exact and deterministic, which makes it a poor
//! test bed for the *recovery* machinery a terminal needs in the field —
//! nothing ever goes wrong on its own. This module injects faults on a
//! seeded schedule so supervision layers can be driven through their
//! unhappy paths reproducibly:
//!
//! * [`FaultKind::CorruptConfig`] — the final configuration-bus words of a
//!   load arrive corrupted; the load ends in a faulted state and callers
//!   waiting on it see [`Error::ConfigCorrupted`](crate::Error::ConfigCorrupted).
//! * [`FaultKind::AbortLoad`] — the bus master drops the stream mid-load;
//!   surfaces as [`Error::LoadAborted`](crate::Error::LoadAborted).
//! * [`FaultKind::StallConfig`] — the load completes and reports running,
//!   but the objects are never enabled: the silent wrong state only a
//!   zero-fire watchdog can detect.
//! * [`FaultKind::WorkerPanic`] — the loader itself crashes (panics),
//!   exercising `catch_unwind` supervision above the array.
//!
//! Faults trigger by **load ordinal**: the injector counts every
//! [`configure_compiled`](crate::Array::configure_compiled) call across
//! all arrays it is attached to, and a [`FaultSpec`] fires (at most once)
//! when its `at_load` ordinal comes up. Sharing one injector across a
//! worker pool keeps the schedule stable even when a supervisor replaces
//! a crashed array mid-run — injector state lives outside the array.
//!
//! The hooks are compiled into every build, but an array without an
//! attached injector takes no fault path at all, so golden equivalence is
//! untouched unless a plan is attached.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use sdr_dsp::rng::Rng64;

/// The kinds of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The last configuration words of a load arrive corrupted; the
    /// configuration never passes its wake-up check and must be reloaded.
    CorruptConfig,
    /// The configuration-bus stream is dropped halfway through a load,
    /// leaving a half-configured, unusable shape behind.
    AbortLoad,
    /// The load completes and the array reports the configuration running,
    /// but its objects are never enabled — zero fires, no error.
    StallConfig,
    /// The loader panics, modelling a hard crash of the worker driving the
    /// array. Only a `catch_unwind` supervisor above the array survives it.
    WorkerPanic,
}

impl FaultKind {
    fn index(self) -> usize {
        match self {
            FaultKind::CorruptConfig => 0,
            FaultKind::AbortLoad => 1,
            FaultKind::StallConfig => 2,
            FaultKind::WorkerPanic => 3,
        }
    }
}

/// One scheduled fault: `kind` strikes the `at_load`-th configuration load
/// (0-based, counted across every array sharing the injector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Which load it hits (global ordinal).
    pub at_load: u64,
}

/// A deterministic schedule of faults. Install one via
/// [`FaultInjector::new`] and
/// [`Array::attach_fault_injector`](crate::Array::attach_fault_injector).
///
/// Two specs on the same ordinal shadow each other: the first in the list
/// fires, the rest never do (each load carries at most one fault).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The scheduled faults, in priority order for same-ordinal shadowing.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A seeded pseudo-random plan of `count` recoverable faults (corrupt /
    /// abort / stall — never panics) spread over the first `horizon` loads.
    ///
    /// The same seed always yields the same plan. Callers wanting crash
    /// coverage push an explicit [`FaultKind::WorkerPanic`] spec on top.
    pub fn seeded(seed: u64, count: usize, horizon: u64) -> Self {
        const KINDS: [FaultKind; 3] = [
            FaultKind::CorruptConfig,
            FaultKind::AbortLoad,
            FaultKind::StallConfig,
        ];
        let mut rng = Rng64::seed_from_u64(seed);
        let horizon = horizon.max(1);
        let faults = (0..count)
            .map(|_| FaultSpec {
                kind: KINDS[(rng.next_u64() % KINDS.len() as u64) as usize],
                at_load: rng.next_u64() % horizon,
            })
            .collect();
        FaultPlan { faults }
    }
}

/// Thread-safe fault scheduler shared by every array of a worker pool.
///
/// `on_load` is called by the array at each configuration load; all state
/// is atomic so a supervisor can hand the same injector to a replacement
/// array after a crash without disturbing the schedule or the counters.
#[derive(Debug)]
pub struct FaultInjector {
    specs: Vec<(FaultSpec, AtomicBool)>,
    next_load: AtomicU64,
    injected: [AtomicU64; 4],
}

impl FaultInjector {
    /// Builds an injector from a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            specs: plan
                .faults
                .into_iter()
                .map(|s| (s, AtomicBool::new(false)))
                .collect(),
            next_load: AtomicU64::new(0),
            injected: Default::default(),
        }
    }

    /// Consumes one load ordinal and returns the fault scheduled for it, if
    /// any. Each spec fires at most once; specs whose ordinal never comes
    /// up (or is shadowed by an earlier same-ordinal spec) never fire and
    /// are never counted as injected.
    pub(crate) fn on_load(&self) -> Option<FaultKind> {
        let ordinal = self.next_load.fetch_add(1, Ordering::Relaxed);
        for (spec, fired) in &self.specs {
            if spec.at_load == ordinal && !fired.swap(true, Ordering::Relaxed) {
                self.injected[spec.kind.index()].fetch_add(1, Ordering::Relaxed);
                return Some(spec.kind);
            }
        }
        None
    }

    /// Number of faults of one kind actually injected so far.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()].load(Ordering::Relaxed)
    }

    /// Total faults actually injected so far (all kinds).
    pub fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 8, 100);
        let b = FaultPlan::seeded(42, 8, 100);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 8);
        assert!(a.faults.iter().all(|f| f.at_load < 100));
        assert!(a.faults.iter().all(|f| f.kind != FaultKind::WorkerPanic));
        let c = FaultPlan::seeded(43, 8, 100);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn specs_fire_once_at_their_ordinal() {
        let plan = FaultPlan {
            faults: vec![
                FaultSpec {
                    kind: FaultKind::AbortLoad,
                    at_load: 1,
                },
                FaultSpec {
                    kind: FaultKind::StallConfig,
                    at_load: 1, // shadowed: same ordinal as above
                },
                FaultSpec {
                    kind: FaultKind::CorruptConfig,
                    at_load: 3,
                },
            ],
        };
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.on_load(), None); // load 0
        assert_eq!(inj.on_load(), Some(FaultKind::AbortLoad)); // load 1
        assert_eq!(inj.on_load(), None); // load 2 (shadowed spec stays dead)
        assert_eq!(inj.on_load(), Some(FaultKind::CorruptConfig)); // load 3
        assert_eq!(inj.on_load(), None); // load 4
        assert_eq!(inj.injected_total(), 2);
        assert_eq!(inj.injected(FaultKind::AbortLoad), 1);
        assert_eq!(inj.injected(FaultKind::StallConfig), 0);
        assert_eq!(inj.next_load.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::default());
        for _ in 0..64 {
            assert_eq!(inj.on_load(), None);
        }
        assert_eq!(inj.injected_total(), 0);
    }
}
