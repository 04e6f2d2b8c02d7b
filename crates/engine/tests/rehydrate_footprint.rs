//! The lazy-code contract of the W-CDMA terminal, enforced with a counting
//! global allocator (same pattern as `frontend_footprint.rs`): rehydrating a
//! *fresh* parked record builds no capture and no scrambling code.
//!
//! Under backpressure the front-end rehydrates a fresh record, bounces off
//! the full shard queue and re-parks it thousands of times per completed
//! frame, so anything generated here is paid that many times over. The
//! capture and its code appear only when the session first steps.
//!
//! This file intentionally contains a single test: the allocation counter
//! is process-global, and a concurrently running test would make the
//! measurement window non-quiet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sdr_engine::{ParkedSession, Session};

struct CountingAllocator;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The fresh W-CDMA terminal owns its 32 payload bits and nothing else; a
/// packed scrambling code alone is 9.6 KB and a slot capture 32 KB.
const FRESH_REHYDRATE_BYTE_BUDGET: u64 = 1024;

#[test]
fn rehydrating_a_fresh_wcdma_record_builds_no_capture_and_no_code() {
    let parked = ParkedSession::new_wcdma(7, 1234, 0);

    let before = ALLOCATED_BYTES.load(Ordering::SeqCst);
    let session = Session::rehydrate(&parked);
    let allocated = ALLOCATED_BYTES.load(Ordering::SeqCst) - before;

    assert!(
        allocated < FRESH_REHYDRATE_BYTE_BUDGET,
        "rehydrating a fresh W-CDMA record allocated {allocated} bytes \
         (budget {FRESH_REHYDRATE_BYTE_BUDGET}): code generation or capture \
         synthesis moved into the fresh-record path"
    );
    // The round trip back to the lot is the same fresh record.
    assert_eq!(session.park(), Some(parked));
}
