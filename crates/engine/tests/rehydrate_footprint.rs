//! What rehydration costs, enforced with a counting global allocator (same
//! pattern as `frontend_footprint.rs`):
//!
//! * the lazy-code contract of the W-CDMA terminal — rehydrating a *fresh*
//!   parked record builds no capture and no scrambling code;
//! * a backpressure bounce through the front-end allocates exactly what the
//!   `Session::rehydrate` inside it allocates, and nothing of its own.
//!
//! Every frame is rehydrated once, and once more for each time a full
//! shard queue refuses it and it re-parks, so anything generated or
//! allocated here is paid per refusal. The capture and its code appear only
//! when the session first steps.
//!
//! The bounce phase runs on a lockstep pool, which has no worker threads
//! and steps nothing inside `pump`, so only the driver can allocate in the
//! counted window. Only the measuring thread's allocations are counted,
//! which fences the test harness's own threads out of it, and the file
//! still holds a single test, so nothing else shares the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sdr_engine::{EngineConfig, Frontend, Metrics, ParkedSession, PlacementPolicy, Session};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates and stays valid through thread teardown.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the (allocations, bytes) this
/// thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (
        ALLOCATIONS.load(Ordering::SeqCst),
        ALLOCATED_BYTES.load(Ordering::SeqCst),
    );
    MEASURING.set(true);
    let out = f();
    MEASURING.set(false);
    (
        out,
        ALLOCATIONS.load(Ordering::SeqCst) - before.0,
        ALLOCATED_BYTES.load(Ordering::SeqCst) - before.1,
    )
}

/// The fresh W-CDMA terminal owns its 32 payload bits and nothing else; a
/// packed scrambling code alone is 9.6 KB and a slot capture 32 KB.
const FRESH_REHYDRATE_BYTE_BUDGET: u64 = 1024;

#[test]
fn rehydrating_a_fresh_wcdma_record_builds_no_capture_and_no_code() {
    let parked = ParkedSession::new_wcdma(7, 1234, 0);

    let (session, _, allocated) = counted(|| Session::rehydrate(&parked));

    assert!(
        allocated < FRESH_REHYDRATE_BYTE_BUDGET,
        "rehydrating a fresh W-CDMA record allocated {allocated} bytes \
         (budget {FRESH_REHYDRATE_BYTE_BUDGET}): code generation or capture \
         synthesis moved into the fresh-record path"
    );
    // The round trip back to the lot is the same fresh record.
    assert_eq!(session.park(), Some(parked));

    bounce_allocates_only_its_rehydration();
}

/// Second phase of the single test: a lockstep two-shard pool under static
/// placement, every id even, shard 0's two queue slots taken and never
/// drained, since only `recv` steps a lockstep pool. The window
/// (4) still has credit for shard 1's two slots, so every `pump` pops the
/// two waiting records, one of each standard, and bounces each once.
fn bounce_allocates_only_its_rehydration() {
    let mut fe = Frontend::lockstep(
        EngineConfig {
            shards: 2,
            arrays_per_shard: 1,
            queue_depth: 2,
            max_resident: 8,
            parking_capacity: 8,
            placement: PlacementPolicy::Static,
            ..EngineConfig::default()
        },
        Arc::new(Metrics::new()),
    );
    let mut open_loop = |_: &Session, _| None;
    for id in [0, 2u64] {
        fe.admit(ParkedSession::new_ofdm(id, id, 0));
    }
    fe.pump(&mut open_loop);
    assert_eq!((fe.materialised(), fe.parked()), (2, 0), "queue is full");

    let bouncers = [
        ParkedSession::new_wcdma(4, 104, 1_000),
        ParkedSession::new_ofdm(6, 206, 1_000),
    ];
    for record in &bouncers {
        fe.admit(*record);
    }
    // Warm-up: the front-end's scratch buffers reach their steady size.
    fe.pump(&mut open_loop);

    const PASSES: u64 = 200;
    let parks_before = fe.snapshot().backpressure_parks;
    let (_, allocations, bytes) = counted(|| {
        for _ in 0..PASSES {
            fe.pump(&mut open_loop);
        }
    });
    let bounces = fe.snapshot().backpressure_parks - parks_before;
    assert_eq!(bounces, PASSES * bouncers.len() as u64);
    assert_eq!((fe.materialised(), fe.parked()), (2, 2));

    // Only a record's seed, standard and stage decide what rehydrating it
    // allocates, and a bounce changes none of them.
    let (_, own_allocations, own_bytes) = counted(|| {
        for record in &bouncers {
            drop(Session::rehydrate(record));
        }
    });
    assert!(own_allocations > 0, "the comparison is not vacuous");
    assert_eq!(
        (allocations, bytes),
        (PASSES * own_allocations, PASSES * own_bytes),
        "{bounces} bounces allocated {allocations} times / {bytes} bytes; \
         their rehydrations alone account for {} / {}",
        PASSES * own_allocations,
        PASSES * own_bytes
    );
}
