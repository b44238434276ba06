//! The service adds one allocation to a `Get`: the reply cell the client
//! and the worker share. The queue slot is filled in place and the worker
//! reuses its lists, so beyond what the backend's own transaction allocates
//! (its read set) nothing on the request path may touch the allocator — on
//! any thread, which is why this binary counts globally and holds one test
//! only.

use rococo_server::{Request, Response, TxKv, TxKvConfig};
use rococo_stm::{atomically, TinyStm, TmConfig, TmSystem, Transaction};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocations (and reallocations) made by any thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed bump of
// a static counter, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligation is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn a_get_allocates_its_reply_cell_and_nothing_else() {
    const REQUESTS: u64 = 10_000;
    const WINDOW: usize = 64;
    let cfg = TxKvConfig {
        shards: 1,
        workers_per_shard: 1,
        keys: 64,
        ..TxKvConfig::default()
    };
    let tm_cfg = TmConfig {
        heap_words: cfg.heap_words(),
        max_threads: cfg.worker_threads(),
    };

    // What the same reads cost as bare transactions on this backend.
    let bare = TinyStm::with_config(tm_cfg);
    let table = bare.heap().alloc(64);
    let read_all = || {
        for i in 0..REQUESTS {
            let addr = table + (i % 64) as usize;
            assert_eq!(atomically(&bare, 0, |tx| tx.read(addr)), 0);
        }
    };
    read_all();
    let before = allocations();
    read_all();
    let backend = allocations() - before;

    let kv = TxKv::start(Arc::new(TinyStm::with_config(tm_cfg)), cfg).expect("start the service");
    let mut window = std::collections::VecDeque::with_capacity(WINDOW);
    let mut run = || {
        for i in 0..REQUESTS {
            if window.len() == WINDOW {
                let oldest: rococo_server::PendingReply = window.pop_front().expect("full");
                assert_eq!(oldest.wait(), Ok(Response::Value(0)));
            }
            window.push_back(kv.submit(Request::Get { key: i % 64 }).expect("admitted"));
        }
        for reply in window.drain(..) {
            assert_eq!(reply.wait(), Ok(Response::Value(0)));
        }
    };
    // Warm-up: every reused list reaches its working capacity, every
    // thread has parked once.
    run();
    let before = allocations();
    run();
    let service = allocations() - before;
    assert_eq!(
        service - backend,
        REQUESTS,
        "{service} allocations over {REQUESTS} Gets, {backend} of them the backend's"
    );
}
