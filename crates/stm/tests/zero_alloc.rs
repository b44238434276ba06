//! ROCoCoTM's transaction path allocates nothing in steady state.
//!
//! A TxKV shard worker runs this path for every request it commits: begin,
//! the reads (commit-queue drain, update-set and snapshot checks, read-set
//! insert), the writes, the validation request, the wait for the verdict —
//! which serves the validation engine on this very thread — the write-back
//! and the recycling of the buffers. This binary's own counting allocator
//! (the library stays `#![forbid(unsafe_code)]`) holds it to zero, through
//! `atomically` and through the worker's `try_atomically_seq`.

use rococo_stm::{
    atomically, try_atomically_seq, Abort, RococoTm, TmConfig, TmSystem, Transaction,
};
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

/// Words the transactions touch.
const ADDRS: usize = 4096;
/// A worker's batch.
const BATCH: usize = 16;

/// The `Add` shape: read a word, write it back incremented.
fn add<T: Transaction>(tx: &mut T, addr: usize) -> Result<(), Abort> {
    let v = tx.read(addr)?;
    tx.write(addr, v + 1)
}

/// The `Get` shape: one read.
fn get<T: Transaction>(tx: &mut T, addr: usize) -> Result<u64, Abort> {
    tx.read(addr)
}

/// Round `i`: an `Add` and a `Get` through `atomically`, then a batch of
/// `Add`s and a batch of `Get`s, each committed at once through
/// `try_atomically_seq`, as a shard worker does. Touches `2 * BATCH + 1`
/// distinct words.
fn round(tm: &RococoTm, i: usize) {
    let base = i * (2 * BATCH + 1);
    let addr = |j: usize| (base + j) % ADDRS;
    atomically(tm, 0, |tx| add(tx, addr(0)));
    atomically(tm, 0, |tx| get(tx, addr(0)));
    for j in 0..BATCH {
        try_atomically_seq(tm, 0, &mut |tx| add(tx, addr(1 + j)))
            .expect("an uncontended Add commits");
    }
    for j in 0..BATCH {
        try_atomically_seq(tm, 0, &mut |tx| get(tx, addr(1 + BATCH + j))).expect("a Get commits");
    }
}

#[test]
fn the_commit_path_allocates_nothing_in_steady_state() {
    let tm = RococoTm::with_config(TmConfig {
        heap_words: ADDRS + 64,
        max_threads: 1,
    });
    // Warm up: lap the validation window and the commit queue, and let
    // every pooled buffer reach its size.
    const WARM: usize = 200;
    const ROUNDS: usize = 1_000;
    for i in 0..WARM {
        round(&tm, i);
    }

    let before = allocations();
    for i in WARM..WARM + ROUNDS {
        round(&tm, i);
    }
    let allocated = allocations() - before;

    let stats = tm.stats().snapshot();
    let per_round = 2 + 2 * BATCH as u64;
    assert_eq!(stats.commits, (WARM + ROUNDS) as u64 * per_round);
    assert_eq!(stats.total_aborts(), 0, "{stats:?}");
    assert_eq!(
        tm.fpga_stats().commits,
        (WARM + ROUNDS) as u64 * (1 + BATCH as u64)
    );
    assert_eq!(allocated, 0, "{ROUNDS} rounds allocated {allocated} times");
}

#[test]
fn the_counter_sees_an_allocation() {
    let before = allocations();
    std::hint::black_box(Vec::<u64>::with_capacity(4));
    assert_eq!(allocations() - before, 1);
}
