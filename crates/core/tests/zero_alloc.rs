//! `RococoValidator::validate_and_commit` allocates nothing in steady state.
//!
//! The sequence-number adapter is what `rococo-cc`'s ROCoCo policy and the
//! benchmark's `core.validate_ns` probe call once per transaction; it sets
//! ring positions in scratch the validator keeps. This binary's own counting
//! allocator (the library stays `#![forbid(unsafe_code)]`) holds it to zero.

use rococo_core::{RejectReason, RococoValidator, Seq, TxnDeps};
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

/// Candidate `i`, its dependencies as offsets back from the newest commit:
/// a snapshot up to 12 commits behind, forward edges to commits it did not
/// observe, backward edges anywhere in (and just beyond) a 64-commit window.
fn candidate(i: u64) -> (u64, [u64; 2], [u64; 3]) {
    let r = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let behind = (r >> 8) % 13;
    let forward = [(r >> 16) % (behind + 1), (r >> 24) % (behind + 1)];
    (
        behind,
        forward,
        [(r >> 32) % 70, (r >> 40) % 70, (r >> 48) % 24],
    )
}

/// Overwrites `deps` (its vectors already hold their capacity) with
/// candidate `i` against a validator whose next commit is `next`.
fn fill(deps: &mut TxnDeps, i: u64, next: Seq) {
    let (behind, forward, backward) = candidate(i);
    let back = |by: u64| next.checked_sub(1 + by);
    deps.snapshot = next.saturating_sub(behind);
    deps.forward.clear();
    deps.forward.extend(
        forward
            .iter()
            .take((i % 3) as usize)
            .filter_map(|&f| back(f)),
    );
    deps.backward.clear();
    deps.backward
        .extend(backward.iter().filter_map(|&b| back(b)));
}

#[test]
fn validate_and_commit_allocates_nothing_in_steady_state() {
    for window in [64usize, 130] {
        let mut v: RococoValidator<()> = RococoValidator::new(window);
        let mut deps = TxnDeps {
            snapshot: 0,
            forward: Vec::with_capacity(2),
            backward: Vec::with_capacity(3),
        };
        // Warm up: fill the window and lap the ring.
        let mut i = 0;
        while v.next_seq() < 3 * window as Seq {
            fill(&mut deps, i, v.next_seq());
            let _ = v.validate_and_commit(&deps, ());
            i += 1;
        }

        let (mut commits, mut cycles) = (0, 0);
        let before = allocations();
        for i in i..i + 10_000 {
            fill(&mut deps, i, v.next_seq());
            match v.validate_and_commit(&deps, ()) {
                Ok(_) => commits += 1,
                Err(RejectReason::Cycle) => cycles += 1,
                Err(RejectReason::WindowOverflow) => {}
            }
        }
        let allocated = allocations() - before;

        assert!(commits > 1_000, "W {window}: commits must occur: {commits}");
        assert!(cycles > 100, "W {window}: cycles must occur: {cycles}");
        assert_eq!(allocated, 0, "W {window}: allocated {allocated} times");
    }
}

#[test]
fn the_counter_sees_an_allocation() {
    let before = allocations();
    std::hint::black_box(Vec::<u64>::with_capacity(4));
    assert_eq!(allocations() - before, 1);
}
