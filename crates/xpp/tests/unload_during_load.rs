//! Regression test: `Array::unload` invoked while the configuration is
//! still streaming over the configuration bus (mid-load), plus the
//! differential-load arms built on the same abort-safety guarantees.
//!
//! The configuration manager may cancel a prefetch before it finishes
//! loading (e.g. a placement-pressure eviction), so an aborted load must
//! release every channel and object it allocated, drop out of the load
//! queue, and leave the array statistics consistent with never having run.

use xpp_array::power::EnergyModel;
use xpp_array::{
    AluOp, Array, ArrayStats, CompiledConfig, Error, Geometry, Netlist, NetlistBuilder, Word,
};

fn pipeline(name: &str, stages: usize) -> Netlist {
    pipeline_k(name, stages, 1)
}

/// Same shape as [`pipeline`] but adding `k` per stage: two `pipeline_k`
/// netlists of equal depth differ only in their constants' behaviour
/// words, so the word-level delta between them is exactly `stages` words.
fn pipeline_k(name: &str, stages: usize, k: i32) -> Netlist {
    let mut nl = NetlistBuilder::new(name);
    let mut x = nl.input("in");
    for _ in 0..stages {
        let inc = nl.constant(Word::new(k));
        x = nl.alu(AluOp::Add, x, inc);
    }
    nl.output("out", x);
    nl.build().unwrap()
}

#[test]
fn unload_mid_load_releases_everything() {
    let mut array = Array::xpp64a();
    let baseline = array.free_resources();
    let nl = pipeline("victim", 6);

    let cfg = array.configure(&nl).unwrap();
    // Step partway into the load window, strictly short of completion.
    for _ in 0..4 {
        array.step();
    }
    assert!(
        !array.is_running(cfg),
        "test must unload during the loading window"
    );

    array.unload(cfg).unwrap();

    assert_eq!(
        array.free_resources(),
        baseline,
        "mid-load unload leaked placement resources"
    );
    assert_eq!(array.config_fire_count(cfg), 0, "aborted load never fired");
    assert!(array.config_name(cfg).is_err(), "config still resident");

    // The freed slots must be reusable: a fresh configure + run behaves
    // exactly like on a pristine array.
    let cfg2 = array.configure(&pipeline("follow-on", 6)).unwrap();
    array.push_input(cfg2, "in", [Word::new(10)]).unwrap();
    array.run_until_idle(10_000).unwrap();
    assert_eq!(
        array.drain_output(cfg2, "out").unwrap(),
        vec![Word::new(16)]
    );
    array.unload(cfg2).unwrap();
    assert_eq!(array.free_resources(), baseline);
}

#[test]
fn unload_mid_load_removes_from_load_queue() {
    // Two queued configurations: aborting the one at the front of the
    // serial bus must let the second one finish loading normally.
    let mut array = Array::xpp64a();
    let first = array.configure(&pipeline("first", 6)).unwrap();
    let second = array.configure(&pipeline("second", 2)).unwrap();

    array.step();
    assert!(!array.is_running(first));
    array.unload(first).unwrap();

    // The bus must now serve the second configuration to completion.
    array.run_until_idle(10_000).unwrap();
    assert!(array.is_running(second), "bus stalled on aborted load");

    array.push_input(second, "in", [Word::new(5)]).unwrap();
    array.run_until_idle(10_000).unwrap();
    assert_eq!(
        array.drain_output(second, "out").unwrap(),
        vec![Word::new(7)]
    );
}

#[test]
fn unload_mid_load_matches_reference_stepper() {
    // The event-driven scheduler keeps stale ready-list entries after an
    // unload (documented as safe); prove the observable behaviour agrees
    // with the scan-the-world reference stepper bit for bit.
    let run = || {
        let mut array = Array::xpp64a();
        let doomed = array.configure(&pipeline("doomed", 5)).unwrap();
        for _ in 0..7 {
            array.step();
        }
        array.unload(doomed).unwrap();
        let cfg = array.configure(&pipeline("kept", 3)).unwrap();
        array.push_input(cfg, "in", (0..8).map(Word::new)).unwrap();
        array.run_until_idle(10_000).unwrap();
        let out = array.drain_output(cfg, "out").unwrap();
        (out, array.stats())
    };
    let event_driven = run();
    let reference = xpp_array::array::with_reference_stepper(run);
    assert_eq!(event_driven.0, reference.0, "outputs diverged");
    assert_eq!(event_driven.1, reference.1, "stats diverged");
}

fn config_energy_nj(stats: &ArrayStats) -> f64 {
    EnergyModel::hcmos9_130nm()
        .report(stats, Geometry::xpp64a(), 64e6)
        .config_nj
}

#[test]
fn delta_load_is_bit_identical_to_full_load_with_fewer_words() {
    // The full-load path is the oracle: unload the resident and stream the
    // whole target. The delta path must produce bit-identical outputs and
    // fire counts while streaming only the changed words.
    let from = pipeline_k("delta-from", 5, 1);
    let to = CompiledConfig::compile(&pipeline_k("delta-to", 5, 2));
    let expected_delta = to.delta_from(&CompiledConfig::compile(&from));
    assert_eq!(
        expected_delta.changed_words(),
        5,
        "only the five constants changed"
    );

    let oracle = {
        let mut array = Array::xpp64a();
        let a = array.configure(&from).unwrap();
        array.run_until_idle(10_000).unwrap();
        array.unload(a).unwrap();
        let b = array.configure_compiled(&to).unwrap();
        array.run_until_idle(10_000).unwrap();
        array.push_input(b, "in", (0..6).map(Word::new)).unwrap();
        array.run_until_idle(10_000).unwrap();
        (
            array.drain_output(b, "out").unwrap(),
            array.config_fire_count(b),
            array.stats(),
        )
    };

    let mut array = Array::xpp64a();
    let baseline = array.free_resources();
    let a = array.configure(&from).unwrap();
    array.run_until_idle(10_000).unwrap();
    let words_before = array.stats().config_words;
    let b = array.configure_delta(a, &to).unwrap();
    assert!(array.config_name(a).is_err(), "resident must be consumed");
    array.run_until_idle(10_000).unwrap();
    assert!(array.is_running(b), "delta load never completed");
    assert_eq!(
        array.stats().config_words - words_before,
        expected_delta.words(),
        "delta load streamed the wrong word count"
    );
    array.push_input(b, "in", (0..6).map(Word::new)).unwrap();
    array.run_until_idle(10_000).unwrap();

    assert_eq!(array.drain_output(b, "out").unwrap(), oracle.0);
    assert_eq!(array.config_fire_count(b), oracle.1, "fire counts diverged");
    assert!(
        array.stats().config_words < oracle.2.config_words,
        "delta load must stream strictly fewer words than the full load"
    );
    assert!(
        config_energy_nj(&array.stats()) < config_energy_nj(&oracle.2),
        "fewer streamed words must cost less config-bus energy"
    );
    array.unload(b).unwrap();
    assert_eq!(array.free_resources(), baseline, "delta swap leaked");
}

#[test]
fn fault_mid_delta_surfaces_as_faulted() {
    // The delta load consumes one fault ordinal exactly like a full load,
    // and an AbortLoad strikes at half the *delta* window: the target ends
    // `Faulted` and recovery unloads it, never touching the bus again.
    use std::sync::Arc;
    use xpp_array::fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec};

    let mut array = Array::xpp64a();
    array.attach_fault_injector(Arc::new(FaultInjector::new(FaultPlan {
        faults: vec![FaultSpec {
            kind: FaultKind::AbortLoad,
            at_load: 1, // ordinal 0 is the resident's own load
        }],
    })));
    let a = array.configure(&pipeline_k("delta-from", 5, 1)).unwrap();
    array.run_until_idle(10_000).unwrap();
    assert!(array.load_error(a).is_none(), "resident load must be clean");

    let to = CompiledConfig::compile(&pipeline_k("delta-to", 5, 2));
    let b = array.configure_delta(a, &to).unwrap();
    array.run_until_idle(10_000).unwrap();

    assert!(!array.is_running(b), "aborted delta load reported running");
    assert!(
        matches!(array.load_error(b), Some(Error::LoadAborted { .. })),
        "fault mid-delta did not surface as Faulted"
    );
    assert!(!array.is_load_in_flight(b), "faulted delta wedged the bus");
    assert!(array.clear_injected_fault(b));
    array.unload(b).unwrap();
}

#[test]
fn delta_misuse_is_rejected() {
    let to = CompiledConfig::compile(&pipeline_k("delta-to", 4, 2));
    // Delta against an unloaded (stale) resident: NoSuchConfig, and the
    // array is left exactly as it was.
    let mut array = Array::xpp64a();
    let baseline = array.free_resources();
    let a = array.configure(&pipeline_k("delta-from", 4, 1)).unwrap();
    array.run_until_idle(10_000).unwrap();
    array.unload(a).unwrap();
    assert!(matches!(
        array.configure_delta(a, &to),
        Err(Error::NoSuchConfig(_))
    ));
    assert_eq!(array.free_resources(), baseline);

    // Delta against a resident still streaming: the word diff is only
    // meaningful against a complete resident stream.
    let b = array.configure(&pipeline_k("delta-from", 4, 1)).unwrap();
    array.step();
    assert!(!array.is_running(b));
    assert!(matches!(
        array.configure_delta(b, &to),
        Err(Error::DeltaSourceNotRunning { .. })
    ));
    array.run_until_idle(10_000).unwrap();
    assert!(array.is_running(b), "rejected delta disturbed the load");

    // A swap that cannot fit fails cleanly with the resident untouched.
    let mut huge = NetlistBuilder::new("too-big");
    let x = huge.input("in");
    let mut y = x;
    for _ in 0..70 {
        let k = huge.constant(Word::ONE);
        y = huge.alu(AluOp::Add, y, k);
    }
    huge.output("out", y);
    let huge = CompiledConfig::compile(&huge.build().unwrap());
    assert!(matches!(
        array.configure_delta(b, &huge),
        Err(Error::PlacementFailed { .. })
    ));
    assert!(array.is_running(b), "failed swap destroyed the resident");
    array.push_input(b, "in", [Word::new(1)]).unwrap();
    array.run_until_idle(10_000).unwrap();
    assert_eq!(array.drain_output(b, "out").unwrap(), vec![Word::new(5)]);
}

#[test]
fn repeated_abort_has_no_drift() {
    // Abort the same load many times: free resources and stats counters
    // must not drift (no per-abort leak of channels, objects or cycles).
    let mut array = Array::xpp64a();
    let baseline = array.free_resources();
    let nl = pipeline("churn", 4);
    for _ in 0..50 {
        let cfg = array.configure(&nl).unwrap();
        array.step();
        array.unload(cfg).unwrap();
        assert_eq!(array.free_resources(), baseline);
    }
}
