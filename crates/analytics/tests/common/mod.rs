//! A counting global allocator for the allocation-ceiling tests
//! (`host_alloc.rs`, `device_alloc.rs`; each test binary compiles its own
//! copy). It counts per thread, so the tests of one binary (the harness
//! runs them on sibling threads) cannot disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread, and their bytes.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised `Cell` without a destructor,
// so touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` this thread requested while `f` ran.
pub fn allocated_during(f: impl FnOnce()) -> (u64, u64) {
    let (n0, b0) = ALLOCS.with(Cell::get);
    f();
    let (n1, b1) = ALLOCS.with(Cell::get);
    (n1 - n0, b1 - b0)
}
