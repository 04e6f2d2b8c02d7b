//! Stepping must not touch the heap. A configuration's ready list and the
//! array's dirty-commit lists are sized when it loads, its channels and
//! object state live where they were built, and switching between the
//! dense and ready-list steppers moves nothing — so `Array::step`/`Array::run`
//! perform zero allocations in either mode *and across every switch
//! between them*. Enforced with a counting global allocator.
//!
//! This file intentionally contains a single test: the allocation counter
//! is process-global, and a concurrently running test would make the
//! steady-state window non-quiet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xpp_array::{Array, CounterCfg, NetlistBuilder, UnaryOp, Word};

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

/// A free-running netlist with no external outputs: counters drive a demux
/// whose data outputs are left unconnected, so tokens are produced,
/// steered, and discarded forever without any queue growing. Every object
/// class on the hot path fires each cycle (counter, unary compare,
/// to_event, demux), which exercises the ready list, the dirty-commit
/// lists, and the self-rewake path.
fn free_running_array() -> Array {
    let mut nl = NetlistBuilder::new("free-running");
    let data = nl.counter(CounterCfg::modulo(17));
    let sel_src = nl.counter(CounterCfg::modulo(3));
    let hi = nl.unary(UnaryOp::GeK(Word::new(1)), sel_src.value);
    let sel = nl.to_event(hi);
    let _ = nl.demux(sel, data.value);
    let mut array = Array::xpp64a();
    let cfg = array.configure(&nl.build().unwrap()).unwrap();
    while !array.is_running(cfg) {
        array.step();
    }
    array
}

/// Runs `f` and asserts it performed no heap allocation.
fn assert_quiet(label: &str, f: impl FnOnce()) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(allocations, 0, "{label}: {allocations} heap allocations");
}

/// Asserts a 10k-cycle window allocates nothing and was live (the array
/// did work, not idle spinning).
fn assert_quiet_window(array: &mut Array, label: &str) {
    let fires = array.stats().total_fires();
    assert_quiet(label, || array.run(10_000));
    assert!(array.stats().total_fires() > fires + 10_000);
}

#[test]
fn steady_state_stepping_does_not_allocate() {
    let mut array = free_running_array();
    // Warm-up: let the board buffers and anything else lazily sized reach
    // its high-water capacity, and the free-running pipeline turn dense.
    array.run(10_000);
    assert!(
        array.schedule_replay_active(),
        "warm-up must reach dense stepping: {:?}",
        array.schedule_stats()
    );

    // Phase 1: the dense stepper is zero-alloc, and the whole measured
    // window really ran through it.
    let dense_before = array.schedule_stats().replay_cycles;
    assert_quiet_window(&mut array, "dense");
    assert_eq!(
        array.schedule_stats().replay_cycles - dense_before,
        10_000,
        "the dense stepper must serve the entire measured window"
    );

    // Phase 2: so is the hand-back to the ready list (the flood wake
    // included), and the ready-list stepper after it.
    assert_quiet("dense -> ready list", || {
        array.set_schedule_capture(false);
        array.run(100);
    });
    assert!(!array.schedule_replay_active());
    assert_quiet_window(&mut array, "ready list");
    assert_eq!(array.schedule_stats().replay_cycles - dense_before, 10_000);

    // Phase 3: and so is turning dense again, however often.
    let entries_before = array.schedule_stats().captured;
    assert_quiet("ready list <-> dense, ten times", || {
        for _ in 0..10 {
            array.set_schedule_capture(true);
            array.run(100);
            array.set_schedule_capture(false);
            array.run(100);
        }
        array.set_schedule_capture(true);
        array.run(100);
    });
    assert!(
        array.schedule_replay_active(),
        "dense stepping must re-engage"
    );
    assert_eq!(array.schedule_stats().captured, entries_before + 11);
    assert_quiet_window(&mut array, "dense again");
}
