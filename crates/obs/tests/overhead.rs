//! Overhead guard: a *disabled* recorder must be a true no-op on the hot
//! path — zero heap allocations, no clock reads observable as time cost.
//!
//! The test installs a counting global allocator and drives every
//! recording method through a disabled [`pta_obs::Trace`]; the allocation
//! counter must not move. (The enabled path is exercised too, as a
//! sanity check that the counter actually counts.)
//!
//! The counter is per thread: the test harness runs the tests of this
//! binary concurrently, and a process-wide count would charge one test's
//! allocations to another's measured loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. A `const`-initialized
    /// `Cell` has no destructor and needs no lazy setup, so touching it
    /// from inside the allocator cannot allocate or recurse.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` fails only during thread teardown; those allocations
    // belong to no measured loop.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn disabled_recorder_allocates_nothing() {
    let trace = pta_obs::Trace::disabled();
    let mut scope = trace.scope(0);
    // Warm anything lazy before measuring.
    scope.complete("warmup", "test", 0, 0, &[]);

    let before = allocs();
    for i in 0..10_000u64 {
        let t0 = scope.now_ns();
        scope.complete("span", "hot", t0, 17, &[("i", i)]);
        scope.instant("tick", "hot", &[("i", i)]);
        scope.counter("depth", "hot", i);
        assert_eq!(trace.now_ns(), 0);
    }
    scope.flush();
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "disabled recorder must not allocate on the hot path"
    );
    assert!(trace.events().is_empty());
}

#[test]
fn disabled_metrics_and_event_log_allocate_nothing() {
    use pta_obs::{EventLog, Field, Metrics};

    let metrics = Metrics::disabled();
    let log = EventLog::disabled();
    // Disabled registration returns no-op handles without touching any
    // registry (there is none to touch).
    let counter = metrics.counter("req_total", &[("op", "points_to")]);
    let gauge = metrics.gauge("queue_depth", &[]);
    let hist = metrics.histogram("lat_us", &[], pta_obs::LATENCY_BUCKETS_US);
    let mut scope = metrics.scope();

    let before = allocs();
    for i in 0..10_000u64 {
        counter.inc();
        counter.add(i);
        gauge.set(i);
        gauge.add(1);
        gauge.sub(1);
        gauge.fetch_max(i);
        hist.observe(i);
        scope.inc(&counter);
        scope.observe(&hist, i);
        log.emit(
            "request",
            &[("op", Field::Str("points_to")), ("i", Field::U64(i))],
        );
        assert_eq!(counter.get(), 0);
        assert_eq!(hist.count(), 0);
    }
    scope.flush();
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "disabled metrics/event log must not allocate on the hot path"
    );
    // Even handle registration on the disabled path stays alloc-free.
    let before = allocs();
    let c2 = metrics.counter("other_total", &[("a", "b")]);
    c2.inc();
    let after = allocs();
    assert_eq!(after - before, 0, "disabled registration must not allocate");
}

#[test]
fn enabled_metrics_are_observed_by_the_counter() {
    // Sanity: enabled registration and exposition *do* allocate, proving
    // the zero above is meaningful.
    let metrics = pta_obs::Metrics::enabled();
    let before = allocs();
    let c = metrics.counter("req_total", &[("op", "stats")]);
    c.inc();
    let text = metrics.to_prometheus();
    let after = allocs();
    assert!(after > before, "enabled metrics should allocate");
    assert!(text.contains("req_total{op=\"stats\"} 1"));
}

#[test]
fn enabled_recorder_is_observed_by_the_counter() {
    // Sanity: the same loop with an enabled trace *does* allocate, proving
    // the counter is live and the zero above is meaningful.
    let trace = pta_obs::Trace::enabled();
    let before = allocs();
    {
        let mut scope = trace.scope(1);
        for i in 0..16u64 {
            scope.counter("depth", "hot", i);
        }
    }
    let after = allocs();
    assert!(after > before, "enabled recorder should allocate events");
    assert_eq!(trace.events().len(), 16);
}
