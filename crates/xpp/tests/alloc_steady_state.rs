//! Stepping must not touch the heap. A configuration's channels and
//! object state live where they were built — every channel's token ring,
//! however deep, is cut from one slab at load — and sleeping or waking
//! flips one flag, so `Array::step`/`Array::run` perform zero allocations
//! while a configuration streams *and across every sleep and wake*.
//! Enforced with a counting global allocator.
//!
//! This file intentionally contains a single test: the allocation counter
//! is process-global, and a concurrently running test would make the
//! steady-state window non-quiet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xpp_array::{AluOp, Array, ConfigId, CounterCfg, NetlistBuilder, UnaryOp, Word};

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

/// Words and events per burst into the sleeping configuration.
const BURST: i32 = 64;

/// Capacity of the deep loop channel, and the tokens circulating in it.
const DEEP: usize = 8;

/// An array holding three configurations with no external outputs, so no
/// queue grows however long they run:
///
/// * free-running: counters drive a demux whose data outputs are left
///   unconnected, so tokens are produced, steered and discarded forever
///   (counter, unary compare, to_event, demux all fire each cycle);
/// * deep: an adder whose output loops back into its own input through a
///   capacity-8 channel holding seven tokens — held full (each cycle one
///   token leaves and one arrives) while its ring wraps every 16 cycles;
/// * burst: an input stream steered by an input event stream into a demux
///   with unconnected outputs — it drains each burst and falls asleep.
///
/// Returns the array, the burst configuration and the deep one.
fn three_config_array() -> (Array, ConfigId, ConfigId) {
    let mut nl = NetlistBuilder::new("free-running");
    let data = nl.counter(CounterCfg::modulo(17));
    let sel_src = nl.counter(CounterCfg::modulo(3));
    let hi = nl.unary(UnaryOp::GeK(Word::new(1)), sel_src.value);
    let sel = nl.to_event(hi);
    let _ = nl.demux(sel, data.value);
    let mut array = Array::xpp64a();
    let free = array.configure(&nl.build().unwrap()).unwrap();

    let mut nl = NetlistBuilder::new("deep");
    let one = nl.constant(Word::ONE);
    let (step, acc_in, acc) = nl.alu_deferred(AluOp::Add);
    nl.wire(one, step);
    nl.wire_with(acc, acc_in, DEEP, vec![Word::ZERO; DEEP - 1]);
    let deep = array.configure(&nl.build().unwrap()).unwrap();

    let mut nl = NetlistBuilder::new("burst");
    let x = nl.input("x");
    let y = nl.unary(UnaryOp::AddK(Word::new(1)), x);
    let e = nl.input_event("e");
    let _ = nl.demux(e, y);
    let burst = array.configure(&nl.build().unwrap()).unwrap();
    while ![free, deep, burst].iter().all(|&cfg| array.is_running(cfg)) {
        array.step();
    }
    (array, burst, deep)
}

/// Fires of the deep configuration's adder so far.
fn deep_fires(array: &Array, deep: ConfigId) -> u64 {
    let fires = array.object_fire_counts(deep).unwrap();
    fires
        .iter()
        .find(|(label, _)| label.starts_with("alu"))
        .unwrap()
        .1
}

/// Queues one burst on the sleeping configuration (waking it).
fn push_burst(array: &mut Array, burst: ConfigId) {
    array
        .push_input(burst, "x", (0..BURST).map(Word::new))
        .unwrap();
    array
        .push_input_events(burst, "e", (0..BURST).map(|i| i % 2 == 0))
        .unwrap();
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
    let (mut array, burst, deep) = three_config_array();
    // Warm-up: let the input queues and anything else lazily sized reach
    // their high-water capacity, and the burst configuration fall asleep.
    push_burst(&mut array, burst);
    array.run(10_000);

    // Phase 1: the free-running and deep configurations are awake for the
    // whole measured window, the drained one asleep through all of it; the
    // deep loop moves a token through its held-full channel every cycle.
    let before = array.schedule_stats();
    let fired = deep_fires(&array, deep);
    assert_quiet_window(&mut array, "streaming");
    assert_eq!(deep_fires(&array, deep) - fired, 10_000);
    let s = array.schedule_stats().delta_since(&before);
    assert_eq!(
        (s.captured, s.replay_cycles, s.invalidations),
        (0, 10_000, 0),
        "one configuration awake every cycle, nothing woke or slept"
    );

    // Phase 2: ten bursts, each a push that wakes the sleeping
    // configuration and a drain that puts it back to sleep.
    let before = array.schedule_stats();
    assert_quiet("push to wake, drain to sleep, ten times", || {
        for _ in 0..10 {
            push_burst(&mut array, burst);
            array.run(200);
        }
    });
    let s = array.schedule_stats().delta_since(&before);
    assert_eq!((s.captured, s.invalidations), (10, 10));
    assert_quiet_window(&mut array, "streaming again");
}
