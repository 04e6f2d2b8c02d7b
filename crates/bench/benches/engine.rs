//! Activation-tier bench: the cost of a resident hit, a cached reload and
//! a cold build of one configuration (the three figures DESIGN §10 and
//! the README quote). Frames per second through the real driver is what
//! the `e2e` benchmark measures.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sdr_engine::{Metrics, WorkerArray};
use std::sync::Arc;

fn bench_activation_cache(c: &mut Criterion) {
    use sdr_wcdma::xpp_map::WcdmaKernel;
    let mut g = c.benchmark_group("engine_activation");
    g.bench_function("cold_build", |b| {
        b.iter_batched(
            || WorkerArray::new(8, Arc::new(Metrics::new())),
            |mut w| w.activate(WcdmaKernel::Descrambler).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("cached_reload", |b| {
        b.iter_batched(
            || {
                let mut w = WorkerArray::new(8, Arc::new(Metrics::new()));
                w.activate(WcdmaKernel::Descrambler).unwrap();
                w.deactivate(WcdmaKernel::Descrambler).unwrap();
                w
            },
            |mut w| w.activate(WcdmaKernel::Descrambler).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("resident_hit", |b| {
        let mut w = WorkerArray::new(8, Arc::new(Metrics::new()));
        w.activate(WcdmaKernel::Descrambler).unwrap();
        b.iter(|| w.activate(WcdmaKernel::Descrambler).unwrap())
    });
    g.finish();
}

criterion_group! {
    name = engine_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_activation_cache
}
criterion_main!(engine_benches);
