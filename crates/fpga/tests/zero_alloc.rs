//! `ValidationEngine::process` allocates nothing in steady state.
//!
//! The validator thread decides every ROCoCoTM commit in the system; an
//! allocation per verdict there is a lock and a cache miss on everyone's
//! critical path. This binary's own counting allocator (the library stays
//! `#![forbid(unsafe_code)]`) holds the engine to zero.

use rococo_fpga::{EngineConfig, FpgaVerdict, ValidateRequest, ValidationEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread so that the test harness's
/// other threads cannot disturb the count.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump, which neither allocates (`const`-initialised `Cell`, no
// destructor) nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligation is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Request `i` of a contended stream: 8 reads and 8 writes over 256
/// addresses.
fn request(i: u64) -> ValidateRequest {
    let addr = |j: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20).wrapping_add(j * 37) % 256;
    ValidateRequest {
        tx_id: i,
        valid_ts: 0,
        read_addrs: (0..8).map(addr).collect(),
        write_addrs: (8..16).map(addr).collect(),
    }
}

/// Validates `req` with a snapshot 12 commits behind the newest, so that
/// forward edges — and with them cycles — occur.
fn process(engine: &mut ValidationEngine, req: &mut ValidateRequest) -> FpgaVerdict {
    req.valid_ts = engine.next_seq().saturating_sub(12);
    engine.process(req)
}

#[test]
fn process_allocates_nothing_in_steady_state() {
    let mut engine = ValidationEngine::new(EngineConfig::default());
    // Warm up: fill the window and lap the ring, with 16-address requests
    // so the per-request scratch has reached its size.
    let mut i = 0;
    while engine.stats().commits < 200 {
        process(&mut engine, &mut request(i));
        i += 1;
    }

    // The requests are built beforehand: the caller's vectors are not the
    // engine's allocations.
    let mut requests: Vec<ValidateRequest> = (i..i + 10_000).map(request).collect();
    let before_stats = engine.stats();
    let before = allocations();
    let mut last = FpgaVerdict::ServiceStopped;
    for req in &mut requests {
        last = process(&mut engine, req);
    }
    let allocated = allocations() - before;
    let stats = engine.stats();

    assert_ne!(last, FpgaVerdict::ServiceStopped);
    assert_eq!(stats.requests - before_stats.requests, 10_000);
    assert!(
        stats.commits - before_stats.commits > 1_000,
        "commits must occur: {stats:?}"
    );
    assert!(
        stats.aborts_cycle - before_stats.aborts_cycle > 100,
        "cycle aborts must occur: {stats:?}"
    );
    assert_eq!(allocated, 0, "process allocated {allocated} times");
}

#[test]
fn the_counter_sees_an_allocation() {
    let before = allocations();
    std::hint::black_box(Vec::<u64>::with_capacity(4));
    assert_eq!(allocations() - before, 1);
}
