//! Parked-session footprint guarantees, enforced with a counting global
//! allocator that counts per thread:
//!
//! * a parked record stays under a pinned `size_of` budget (48 bytes —
//!   actual layout is 40);
//! * parking an idle session into a preallocated lot performs **zero**
//!   heap allocations — a million waiting terminals cost exactly the
//!   lot's preallocated slab, nothing per-park;
//! * the per-parked-session heap footprint at full occupancy stays
//!   under a 64-byte budget (`frontend_backpressure` pins the exact 40.0
//!   at a million records).
//!
//! The allocator counts per thread and the test reads only its own
//! thread's count: other threads of the test process allocate at times
//! of their own choosing, and a process-wide count saw a few of those
//! inside the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sdr_engine::frontend::parking::ParkingLot;
use sdr_engine::{ParkedSession, Session};

struct CountingAllocator;

thread_local! {
    /// Heap allocations made by this thread. A `const`-initialised `Cell`
    /// needs no allocation and no destructor, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// The calling thread's allocations so far.
fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Pinned budgets. A `ParkedSession` is "a few dozen bytes": id + seed +
/// deadline (3 x u64), the phase tag with its DSP state words, and two
/// backoff/attempt counters. The heap budget leaves headroom for the
/// `BinaryHeap` growth policy (capacity may exceed length by up to 2x).
const RECORD_SIZE_BUDGET: usize = 48;
const HEAP_BYTES_PER_PARKED_BUDGET: f64 = 64.0;

#[test]
fn parking_is_allocation_free_and_records_stay_compact() {
    // The record itself stays under the pinned budget.
    assert!(
        std::mem::size_of::<ParkedSession>() <= RECORD_SIZE_BUDGET,
        "ParkedSession grew past its {RECORD_SIZE_BUDGET}-byte budget \
         (now {} bytes)",
        std::mem::size_of::<ParkedSession>()
    );

    const N: usize = 100_000;
    // One up-front slab; every park below must reuse it.
    let mut lot = ParkingLot::with_capacity(N);

    // Park a full session's worth of state too: a mid-pipeline session
    // shrinks to the same compact record.
    let session = Session::wcdma(7, 1234);
    let parked_mid = session.park().expect("non-terminal sessions park");

    let before = thread_allocations();
    lot.park(parked_mid);
    for id in 0..(N as u64 - 1) {
        let rec = if id % 2 == 0 {
            ParkedSession::new_wcdma(id, id * 3, id * 100)
        } else {
            ParkedSession::new_ofdm(id, id * 5, id * 100)
        };
        lot.park(rec);
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "parking {N} sessions into a preallocated lot must not allocate \
         ({} heap allocations observed)",
        after - before
    );
    assert_eq!(lot.len(), N);

    // At full occupancy the heap footprint per parked terminal is under
    // the reporting budget.
    let per = lot.bytes_per_parked().expect("lot is non-empty");
    assert!(
        per <= HEAP_BYTES_PER_PARKED_BUDGET,
        "bytes/parked-session {per:.1} exceeds the {HEAP_BYTES_PER_PARKED_BUDGET} budget"
    );

    // Popping back out is allocation-free too.
    let before = thread_allocations();
    let mut drained = 0usize;
    while lot.pop_earliest().is_some() {
        drained += 1;
    }
    let after = thread_allocations();
    assert_eq!(drained, N);
    assert_eq!(after - before, 0, "draining the lot must not allocate");
}
