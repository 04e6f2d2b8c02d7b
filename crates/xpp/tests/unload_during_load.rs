//! Regression test: `Array::unload` invoked while the configuration is
//! still streaming over the configuration bus (mid-load).
//!
//! A caller may unload a configuration before it finishes loading (the
//! configuration manager disposes of a faulted load that way), so an
//! aborted load must release every channel and object it allocated, drop
//! out of the load queue, and leave the array statistics consistent with
//! never having run.

use xpp_array::{AluOp, Array, Netlist, NetlistBuilder, Word};

fn pipeline(name: &str, stages: usize) -> Netlist {
    let mut nl = NetlistBuilder::new(name);
    let mut x = nl.input("in");
    for _ in 0..stages {
        let inc = nl.constant(Word::new(1));
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
    // Unloading a configuration mid-load drops it with its awake flag;
    // prove the observable behaviour agrees with the scan-the-world
    // reference stepper bit for bit.
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
    let production = run();
    let reference = xpp_array::array::with_reference_stepper(run);
    assert_eq!(production.0, reference.0, "outputs diverged");
    assert_eq!(production.1, reference.1, "stats diverged");
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
