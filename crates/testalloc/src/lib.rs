//! # rococo-testalloc — the counting allocator of the allocation-bound tests
//!
//! The zero-allocation tests (`rococo-core`, `rococo-fpga`, `rococo-stm`
//! `tests/zero_alloc.rs`) and the service's `tests/alloc_per_request.rs`
//! each install this allocator in their own test binary:
//!
//! ```ignore
//! use rococo_testalloc::{allocations, Counting};
//!
//! #[global_allocator]
//! static ALLOCATOR: Counting = Counting;
//! ```
//!
//! and read the count around the code under test. The libraries they test
//! stay in safe Rust: the workspace forbids `unsafe_code`, and this crate,
//! a dev-dependency only, is the one crate under `crates/` that does not
//! opt into the workspace lints.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static THIS_THREAD: Cell<u64> = const { Cell::new(0) };
}

/// Allocations (and reallocations) made by any thread.
static ALL_THREADS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation both
/// per thread and process-wide.
pub struct Counting;

fn count() {
    THIS_THREAD.with(|n| n.set(n.get() + 1));
    ALL_THREADS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter bump
// (a `const`-initialised thread-local `Cell` without a destructor and a
// relaxed static atomic), which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligation is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations the calling thread has made so far, so that the test
/// harness's other threads cannot disturb a count.
pub fn allocations() -> u64 {
    THIS_THREAD.with(Cell::get)
}

/// Allocations every thread of the process has made so far, for a test
/// whose code under test allocates on threads of its own (hold such a
/// binary to one test).
pub fn allocations_on_all_threads() -> u64 {
    ALL_THREADS.load(Ordering::Relaxed)
}
