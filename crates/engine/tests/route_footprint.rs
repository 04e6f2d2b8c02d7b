//! Routing and the residency publish allocate nothing, enforced with a
//! counting global allocator (same pattern as `frontend_footprint.rs`).
//!
//! Every submit asks the router where a session's next kernel is
//! resident, and every dispatch round republishes its array's residency.
//! Both name a kernel by its dense id and read or store one atomic mask,
//! so in steady state — every kernel interned, every array warm — neither
//! touches the heap: not on an affinity hit, not on a fallback, and not on
//! the resident activation a routed step then makes.
//!
//! This file intentionally contains a single test: the allocation
//! counter is process-global, and a concurrently running test would make
//! the measurement window non-quiet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sdr_engine::{
    AffinityRouter, ConfigStore, KernelSpec, Metrics, Placement, ResidencyView, ShardStatus,
    WorkerArray,
};
use sdr_ofdm::xpp_map::OfdmKernel;
use sdr_wcdma::xpp_map::WcdmaKernel;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const DETECTOR: KernelSpec = KernelSpec::Ofdm(OfdmKernel::PreambleDetector);
const DEMODULATOR: KernelSpec = KernelSpec::Ofdm(OfdmKernel::Demodulator);

#[test]
fn routing_and_the_residency_publish_allocate_nothing() {
    let metrics = Arc::new(Metrics::new());
    let store = Arc::new(ConfigStore::new(8));
    let cells: Vec<Arc<ShardStatus>> = (0..2).map(|_| Arc::default()).collect();
    let view = Arc::new(ResidencyView::new(cells, 32, Arc::clone(&store)));
    let router = AffinityRouter::new(Arc::clone(&view), Arc::clone(&metrics));

    // Warm: array 0 holds both Fig. 10 configurations; the finger is
    // never requested, so the store never interns it.
    let mut worker = WorkerArray::with_store(Arc::clone(&store), Arc::clone(&metrics));
    worker.activate(DETECTOR).expect("2a loads");
    worker.activate(DEMODULATOR).expect("2b loads");
    view.status(0).publish(worker.resident_mask(), 0);
    let finger = KernelSpec::Wcdma(WcdmaKernel::Finger {
        sf: 128,
        code_index: 1,
    });

    const ROUNDS: u64 = 10_000;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for round in 0..ROUNDS {
        // A routed step: the hit, then the resident activation it makes,
        // then the round's publish.
        let array = router.place(Some(&DEMODULATOR), round);
        worker.activate(DEMODULATOR).expect("resident");
        view.status(array).publish(worker.resident_mask(), round);
        // Fallbacks: a host-only step and a kernel no array holds.
        black_box(router.place(None, round));
        black_box(router.place(Some(&finger), round));
    }
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocations, 0,
        "{ROUNDS} rounds of routing, resident activation and publish must not \
         allocate ({allocations} heap allocations observed)"
    );

    // The window ran the paths it claims to: every hit routed to the
    // holder, and nothing compiled.
    let snap = metrics.snapshot();
    assert_eq!(
        (snap.router_affinity_hits, snap.router_fallbacks),
        (ROUNDS, 2 * ROUNDS)
    );
    assert_eq!(store.misses(), 2, "only the warm-up compiled");
    assert_eq!(store.id_of(&finger), None);
}
