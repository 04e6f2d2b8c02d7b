//! What rehydration costs, enforced with a counting global allocator (same
//! pattern as `frontend_footprint.rs`): the lazy-code contract of the
//! W-CDMA terminal — rehydrating a *fresh* parked record builds no capture
//! and no scrambling code. Every frame is rehydrated once, so anything
//! generated there is paid per frame; the capture and its code appear only
//! when the session first steps.
//!
//! Only the measuring thread's allocations are counted, which fences the
//! test harness's own threads out of the window, and the file holds a
//! single test, so nothing else shares the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use sdr_engine::{ParkedSession, Session};

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
}
