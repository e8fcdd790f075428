//! Applying a deletion that splits nothing allocates only what it returns:
//! the `AppliedDelta` vectors, the removed edges' endpoint list and the
//! anchor map of the verify pass. The reconnection search — here a walk
//! round a 4 096-vertex ring, the longest detour a deletion can force — runs
//! in scratch the CC maintainer keeps between deltas, and the forward
//! adjacency is the image the caller hands in, not a copy.
//!
//! The allocator below counts per thread, so the other test of this binary
//! (the harness runs them on sibling threads) cannot disturb a count.

use gpma_core::delta::{apply_delta, SnapshotDelta};
use gpma_core::framework::GraphSnapshot;
use gpma_graph::{Edge, UpdateBatch};
use gpma_incremental::IncrementalEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Bytes this thread requested (a growing reallocation counts its growth).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
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
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bytes_during(f: impl FnOnce()) -> usize {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

const RING: u32 = 4_096;

/// The delta of `epoch` that toggles ring edge `(0, 1)`, and the image it
/// leads to from `prev`.
fn toggle(prev: &GraphSnapshot, epoch: u64, insert: bool) -> (SnapshotDelta, Arc<GraphSnapshot>) {
    let mut batch = UpdateBatch::default();
    match insert {
        true => batch.insertions.push(Edge::new(0, 1)),
        false => batch.deletions.push(Edge::new(0, 1)),
    }
    let delta = SnapshotDelta::from_batch(epoch, &batch);
    let next = Arc::new(apply_delta(prev, &delta));
    (delta, next)
}

#[test]
fn a_deletion_that_splits_nothing_allocates_only_its_result() {
    let ring = (0..RING).map(|v| Edge::new(v, (v + 1) % RING)).collect();
    let s0 = Arc::new(GraphSnapshot::from_edges(0, RING, ring));
    let mut engine = IncrementalEngine::new().with_cc();
    engine.rebase_shared(s0.clone());
    // The first deletion sizes the search scratch; the insertion restores
    // the ring for the measured one.
    let (d1, s1) = toggle(&s0, 1, false);
    let (d2, s2) = toggle(&s1, 2, true);
    let (d3, s3) = toggle(&s2, 3, false);
    engine.apply_at(&d1, s1);
    engine.apply_at(&d2, s2);
    let work = engine.stats().cc_work;
    let bytes = bytes_during(|| engine.apply_at(&d3, s3.clone()));
    let searched = engine.stats().cc_work - work;
    assert!(
        searched > u64::from(RING),
        "the search should have walked the ring, did {searched} units"
    );
    assert_eq!(engine.cc_mut().unwrap().component_count(), 1);
    assert!(Arc::ptr_eq(engine.graph().image(), &s3));
    assert!(
        bytes <= 512,
        "a {searched}-unit reconnection search requested {bytes} bytes"
    );
}

#[test]
fn the_counter_sees_an_allocation() {
    let bytes = bytes_during(|| {
        std::hint::black_box(Vec::<u64>::with_capacity(16));
    });
    assert_eq!(bytes, 128);
}
