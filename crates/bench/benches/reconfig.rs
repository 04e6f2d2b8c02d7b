//! Fig. 10 swap latency through the configuration manager: the wall time
//! a session waits between "preamble found" and "demodulator running",
//! measured at each tier that streams the demodulator.
//!
//! * `cold` — empty store: the swap pays netlist build + compile (place +
//!   port-map flattening) + the serial configuration-bus load.
//! * `cached` — the compiled config is in the process-wide store (some
//!   other worker or an earlier session compiled it): the swap pays only
//!   the bus load on this worker's array.
//!
//! The two tiers land in `BENCH_RECONFIG.json` next to the paper's
//! E-Fig.10 experiment in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sdr_engine::{ConfigStore, Metrics, WorkerArray};
use sdr_ofdm::xpp_map::OfdmKernel;
use std::sync::Arc;

/// Cycles the detector runs for, as the preamble search before the swap.
const DETECTOR_RUN_CYCLES: u64 = 1_000;

/// A worker with the detector active, as at the moment the preamble is
/// found. `warm_store` pre-compiles the demodulator into the shared
/// store.
fn worker_at_swap_point(warm_store: bool) -> WorkerArray {
    let store = Arc::new(ConfigStore::new(8));
    if warm_store {
        // Another worker on the same store compiled the demodulator.
        let mut other = WorkerArray::with_store(Arc::clone(&store), Arc::new(Metrics::new()));
        other.activate(OfdmKernel::Demodulator).unwrap();
    }
    let mut w = WorkerArray::with_store(store, Arc::new(Metrics::new()));
    w.activate(OfdmKernel::PreambleDetector).unwrap();
    for _ in 0..DETECTOR_RUN_CYCLES {
        w.array_mut().step();
    }
    w
}

fn bench_fig10_swap(c: &mut Criterion) {
    let mut g = c.benchmark_group("reconfig_fig10_swap");
    for (label, warm_store) in [("cold", false), ("cached", true)] {
        g.bench_function(label, |b| {
            b.iter_batched(
                || worker_at_swap_point(warm_store),
                |mut w| {
                    let id = w
                        .swap(OfdmKernel::PreambleDetector, OfdmKernel::Demodulator)
                        .unwrap();
                    assert!(w.array().is_running(id));
                    w
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group! {
    name = reconfig_benches;
    config = Criterion::default().sample_size(30);
    targets = bench_fig10_swap
}
criterion_main!(reconfig_benches);
