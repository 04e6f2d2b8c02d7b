//! The one runner of the pinning suites, and the table their lockstep
//! runs are checked against: `tests/pins/engine.tsv`.
//!
//! [`run`] drives records through a [`Frontend`] on either driver, after
//! an optional warm-up round. On lockstep every counter of a run repeats,
//! so a test gathers its lockstep runs as rows of a [`Pins`] —
//! [`Pins::both`] runs a scenario on both drivers and pins the lockstep
//! run — and [`Pins::check`] compares them with the test's whole section
//! of the table at once. On a mismatch it prints the changed cells as an
//! old → new table, ready for the change log, and then the test's fresh
//! section: re-pinning is pasting those rows over the old ones.
//!
//! The engine's suites and the bench crate's `workload_shapes` compile
//! this file as part of `common`.

use std::collections::BTreeMap;
use std::sync::Arc;

use sdr_engine::metrics::{KernelKind, KERNEL_KINDS};
use sdr_engine::{
    EngineConfig, Frontend, Metrics, ParkedSession, ScaleSummary, Session, SessionState, Snapshot,
    Standard,
};

/// One terminal's outcome as the completion hook saw it.
pub type Outcome = (u64, Standard, SessionState);

/// Who steps the arrays under the [`Frontend`]: the OS threads that ship,
/// or the calling thread in virtual-clock order (`Frontend::lockstep`),
/// where every counter of a run is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    Threads,
    Lockstep,
}

impl Driver {
    pub const BOTH: [Driver; 2] = [Driver::Threads, Driver::Lockstep];
}

/// Admits `records` to a front-end on `driver` and runs it until every
/// terminal has left, collecting each outcome through the completion
/// hook, in completion order.
///
/// The same front-end first runs the `warmup` records, if any, every one
/// of which must end `Done` (or, under a fault plan, `DeadLettered`); the
/// summary returned is the second round's alone: its outcome counts, and
/// its counters as their increase over the warm-up (a gauge that fell
/// reads 0).
///
/// The summary's `snapshot` is read after [`Frontend::shutdown`], not at
/// the end of `run`: a closing array sweeps the fault records still
/// pending on it into the ledger, so only then does every injected fault
/// show up as detected. Under a fault plan the whole run, warm-up
/// included, must keep the ledger ([`assert_ledger`]).
pub fn run(
    driver: Driver,
    config: EngineConfig,
    warmup: &[ParkedSession],
    records: &[ParkedSession],
) -> (Vec<Outcome>, ScaleSummary) {
    let planned = config.fault_plan.is_some();
    let metrics = Arc::new(Metrics::new());
    let mut frontend = match driver {
        Driver::Threads => Frontend::with_metrics(config, Arc::clone(&metrics)),
        Driver::Lockstep => Frontend::lockstep(config, Arc::clone(&metrics)),
    };
    warmup.iter().for_each(|&record| frontend.admit(record));
    let warm = frontend.run(&mut |_: &Session, _| None);
    // Under a plan a warm-up frame may be dead-lettered, but never failed.
    let settled = warm.done + if planned { warm.dead_lettered } else { 0 };
    assert_eq!(settled, warmup.len() as u64, "{driver:?}: the warm-up");
    records.iter().for_each(|&record| frontend.admit(record));
    let mut outcomes = Vec::new();
    let summary = frontend.run(&mut |session: &Session, _| {
        outcomes.push((session.id(), session.standard(), session.state().clone()));
        None
    });
    frontend.shutdown();
    if planned {
        assert_ledger(&metrics.snapshot(), &format!("{driver:?}, whole run"));
    }
    let summary = ScaleSummary {
        frames_completed: summary.frames_completed - warm.frames_completed,
        done: summary.done - warm.done,
        failed: summary.failed - warm.failed,
        dead_lettered: summary.dead_lettered - warm.dead_lettered,
        snapshot: since(&metrics.snapshot(), &warm.snapshot),
        ..summary
    };
    (outcomes, summary)
}

/// The fault ledger of a run under a plan: the plan fired, every fault
/// the injector fired was detected somewhere, and every detection was
/// answered by a recovery or a dead letter.
pub fn assert_ledger(snap: &Snapshot, label: &str) {
    assert!(snap.faults_injected > 0, "{label}: the plan never fired");
    assert_eq!(
        snap.faults_injected, snap.faults_detected,
        "{label}: injected faults went undetected (or double-counted): {snap}"
    );
    assert!(
        snap.faults_detected <= snap.recoveries + snap.dead_letters,
        "{label}: detections unanswered: {snap}"
    );
}

/// The table, from either package that reads it.
const TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/pins/engine.tsv");

/// The columns that key a row: the test that pins it (`binary::test`,
/// which is its section), its scenario, the pool shape
/// (`shards`x`arrays_per_shard`/`queue_depth`), the seed and the fault
/// plan ("-" where a run has none).
const KEY: [&str; 5] = ["suite", "scenario", "shape", "seed", "plan"];

/// The front-end summary's outcome counts, after the key.
const OUTCOMES: [&str; 4] = ["done", "failed", "dead_lettered", "shed"];

macro_rules! counters {
    ($($name:ident),* $(,)?) => {
        /// The plain `Snapshot` counters, in column order.
        const COUNTERS: &[&str] = &[$(stringify!($name)),*];

        /// Every counter of `s` in column order: the plain ones, then
        /// `kernel_jobs`, `kernel_cycles` and `kernel_fires` per kernel.
        /// The destructuring names every field, so a counter added to
        /// `Snapshot` does not compile here until it has a column.
        fn counters(s: &Snapshot) -> Vec<u64> {
            let Snapshot { $($name,)* kernel_jobs, kernel_cycles, kernel_fires } = *s;
            [&[$($name),*][..], &kernel_jobs, &kernel_cycles, &kernel_fires].concat()
        }

        /// `after`'s counters less `before`'s, a gauge that fell as 0.
        fn since(after: &Snapshot, before: &Snapshot) -> Snapshot {
            let less = |a: [u64; KERNEL_KINDS], b: [u64; KERNEL_KINDS]| {
                std::array::from_fn(|k| a[k].saturating_sub(b[k]))
            };
            Snapshot {
                $($name: after.$name.saturating_sub(before.$name),)*
                kernel_jobs: less(after.kernel_jobs, before.kernel_jobs),
                kernel_cycles: less(after.kernel_cycles, before.kernel_cycles),
                kernel_fires: less(after.kernel_fires, before.kernel_fires),
            }
        }
    };
}

counters! {
    sessions_started, sessions_completed, sessions_failed, jobs_run, jobs_rejected,
    cache_hits, cache_misses, cache_evictions, prefetches, prefetch_hits, queue_high_water,
    config_bus_cycles, config_words_demand, config_words_prefetched, faults_injected,
    faults_detected, recoveries, watchdog_kicks, session_retries, worker_restarts,
    dead_letters, sessions_shed, sessions_parked, peak_resident_sessions, rehydrations,
    backpressure_parks, batches_dispatched, batch_sessions, batch_warm_hits,
    delta_words_saved, array_cycles_run, config_words_streamed, array_makespan_cycles,
    schedules_captured, schedule_replay_cycles, schedule_invalidations,
    router_affinity_hits, router_fallbacks, steal_sessions, residency_view_refreshes,
}

fn cells(row: &str) -> Vec<&str> {
    row.split('\t').collect()
}

/// The table's header line.
fn header() -> String {
    let per_kernel = ["kernel_jobs", "kernel_cycles", "kernel_fires"]
        .into_iter()
        .flat_map(|field| KernelKind::ALL.map(|k| format!("{field}.{}", k.name())));
    let named = KEY.iter().chain(&OUTCOMES).chain(COUNTERS);
    let columns: Vec<String> = named.map(|c| c.to_string()).chain(per_kernel).collect();
    columns.join("\t")
}

/// A row's key besides its suite and pool shape: scenario, seed, plan.
pub type Key<'a> = [&'a str; 3];

/// One test's rows of `tests/pins/engine.tsv`, gathered as it runs and
/// compared with its section of the table by [`Pins::check`].
pub struct Pins {
    suite: String,
    rows: Vec<String>,
}

impl Pins {
    /// The section of the test named `test` in this test binary.
    pub fn new(test: &str) -> Pins {
        let binary = module_path!().split("::").next().expect("a crate name");
        let suite = format!("{binary}::{test}");
        Pins {
            suite,
            rows: vec![],
        }
    }

    /// Runs one scenario under both drivers, hands each run to `check`,
    /// asserts that the two agree on every session's outcome, pins the
    /// lockstep run as [`row`](Pins::row) does and returns the outcomes
    /// sorted by id.
    pub fn both(
        &mut self,
        config: &EngineConfig,
        key: Key,
        warmup: &[ParkedSession],
        records: &[ParkedSession],
        mut check: impl FnMut(Driver, &[Outcome], &ScaleSummary),
    ) -> Vec<Outcome> {
        let [(threads, _), (lockstep, summary)] = Driver::BOTH.map(|driver| {
            let (mut outcomes, summary) = run(driver, config.clone(), warmup, records);
            outcomes.sort_by_key(|(id, _, _)| *id);
            check(driver, &outcomes, &summary);
            (outcomes, summary)
        });
        assert_eq!(threads, lockstep, "the two drivers disagree on an outcome");
        self.row(config, key, &summary);
        lockstep
    }

    /// Records a front-end run's summary as the row keyed by `key` and
    /// `config`'s pool shape.
    pub fn row(&mut self, config: &EngineConfig, key: Key, summary: &ScaleSummary) {
        let shed = summary.shed.len() as u64;
        let outcomes = [summary.done, summary.failed, summary.dead_lettered, shed];
        self.push(
            config,
            key,
            outcomes.map(|n| n.to_string()),
            &summary.snapshot,
        );
    }

    /// Records a run that drove a pool without a front-end: its outcome
    /// columns read "-".
    pub fn pool_row(&mut self, config: &EngineConfig, key: Key, snapshot: &Snapshot) {
        self.push(config, key, ["-"; 4].map(String::from), snapshot);
    }

    fn push(&mut self, config: &EngineConfig, key: Key, outcomes: [String; 4], s: &Snapshot) {
        let (shards, arrays, depth) = (config.shards, config.arrays_per_shard, config.queue_depth);
        let shape = format!("{shards}x{arrays}/{depth}");
        let [scenario, seed, plan] = key.map(String::from);
        let counts = counters(s).iter().map(u64::to_string).collect();
        let cells = [
            vec![self.suite.clone(), scenario, shape, seed, plan],
            outcomes.into(),
            counts,
        ];
        self.rows.push(cells.concat().join("\t"));
    }

    /// Compares the rows gathered with this test's section of the table:
    /// a changed, missing or extra row fails, printing the old → new
    /// cells and the fresh section to paste over the old one.
    pub fn check(&self) {
        let text = std::fs::read_to_string(TABLE).unwrap_or_else(|e| panic!("{TABLE}: {e}"));
        let mut lines = text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        let (header, mut diff) = (header(), vec![]);
        if lines.next() != Some(header.as_str()) {
            diff.push(format!("| (header) | | | {header} |"));
        }
        let key = |row: &str| cells(row)[1..KEY.len()].join(" · ");
        let mut old = BTreeMap::new();
        for line in lines.filter(|l| cells(l)[0] == self.suite) {
            assert!(
                old.insert(key(line), line).is_none(),
                "a duplicate row: {line}"
            );
        }
        for new in &self.rows {
            let key = key(new);
            let Some(was) = old.remove(&key) else {
                diff.push(format!("| {key} | (row) | absent | added |"));
                continue;
            };
            let (was, now) = (cells(was), cells(new));
            if was.len() != now.len() {
                let (was, now) = (was.len(), now.len());
                diff.push(format!("| {key} | (cells) | {was} | {now} |"));
            }
            for ((column, was), now) in header.split('\t').zip(was).zip(now) {
                if was != now {
                    diff.push(format!("| {key} | {column} | {was} | {now} |"));
                }
            }
        }
        let missing = old
            .keys()
            .map(|key| format!("| {key} | (row) | pinned | not run |"));
        diff.extend(missing);
        assert!(
            diff.is_empty(),
            "tests/pins/engine.tsv: section `{suite}` differs from this run.\n\n\
             | `{suite}` row | column | old | new |\n|---|---|---|---|\n{diff}\n\n\
             This run's section; re-pin by pasting it over the rows whose suite is `{suite}`, \
             and record the table above in CHANGES.md:\n{fresh}\n",
            suite = self.suite,
            diff = diff.join("\n"),
            fresh = self.rows.join("\n"),
        );
    }
}
