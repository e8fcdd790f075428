//! Adopting a published deletion allocates nothing, whatever the CC
//! maintainer does with it: a non-tree deletion costs it O(1) work, a
//! tree-edge deletion that relinks searches in scratch kept between deltas,
//! and a bridge deletion splits off exactly the cut side in that same
//! scratch. The delta arrives classified and the forward adjacency is the
//! image the caller hands in, so the engine copies neither.
//!
//! The allocator below counts per thread, so the other tests of this binary
//! (the harness runs them on sibling threads) cannot disturb a count.

use gpma_core::delta::{apply_delta, NetDelta, SnapshotDelta};
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

const RING: u32 = 1_024;
const TAIL: u32 = 64;
/// Vertices per component: a ring `0 → 1 → … → RING-1 → 0` plus a tail path
/// `RING → … → RING+TAIL-1` hung from ring vertex 0 by the bridge
/// `(0, RING)`.
const COMPONENT: u32 = RING + TAIL;

/// Two identical components, the second shifted by `COMPONENT`: whatever a
/// deletion in the first makes the maintainer size, the same deletion in the
/// second finds sized.
fn twins() -> Arc<GraphSnapshot> {
    let mut edges = Vec::new();
    for at in [0, COMPONENT] {
        edges.extend((0..RING).map(|v| Edge::new(at + v, at + (v + 1) % RING)));
        edges.push(Edge::new(at, at + RING));
        edges.extend((RING..COMPONENT - 1).map(|v| Edge::new(at + v, at + v + 1)));
    }
    Arc::new(GraphSnapshot::from_edges(0, 2 * COMPONENT, edges))
}

/// The delta of `epoch` over `prev`, classified as its publisher would,
/// and the image it leads to.
fn delta(
    prev: &GraphSnapshot,
    epoch: u64,
    ins: &[(u32, u32)],
    del: &[(u32, u32)],
) -> (NetDelta, Arc<GraphSnapshot>) {
    let batch = UpdateBatch {
        insertions: ins.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
        deletions: del.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
    };
    let delta = SnapshotDelta::from_batch(epoch, &batch).classify(prev);
    let next = Arc::new(apply_delta(prev, delta.blind()));
    (delta, next)
}

fn cc_engine(s0: &Arc<GraphSnapshot>) -> IncrementalEngine {
    let mut engine = IncrementalEngine::new().with_cc();
    engine.rebase_shared(s0.clone());
    engine
}

/// Apply `(d, next)` to `engine`; the bytes it requested and the CC work it
/// did.
fn measured(
    engine: &mut IncrementalEngine,
    d: &NetDelta,
    next: Arc<GraphSnapshot>,
) -> (usize, u64) {
    let work = engine.stats().cc_work;
    let bytes = bytes_during(|| engine.apply_at(d, next));
    (bytes, engine.stats().cc_work - work)
}

#[test]
fn a_deletion_that_splits_nothing_allocates_only_its_result() {
    // A chord inserted inside the ring's component is a non-tree edge, so
    // deleting it again is one in-row removal and nothing else.
    let s0 = twins();
    let mut engine = cc_engine(&s0);
    let chord = [(0, RING / 2)];
    let (d1, s1) = delta(&s0, 1, &chord, &[]);
    let (d2, s2) = delta(&s1, 2, &[], &chord);
    engine.apply_at(&d1, s1);
    let (bytes, work) = measured(&mut engine, &d2, s2.clone());
    assert!(work <= 2, "a non-tree deletion did {work} units of work");
    assert_eq!(engine.cc().unwrap().component_count(), 2);
    assert!(Arc::ptr_eq(engine.graph().image(), &s2));
    assert_eq!(bytes, 0, "a non-tree deletion requested {bytes} bytes");
}

#[test]
fn a_tree_edge_deletion_relinks_in_scratch_kept_between_deltas() {
    // The rebase's BFS from 0 makes 1 → 2 a tree edge; cutting it leaves
    // the fragment 2, 3, … that must be searched until it meets the rest of
    // the ring, about half of it away.
    let s0 = twins();
    let mut engine = cc_engine(&s0);
    let (d1, s1) = delta(&s0, 1, &[], &[(1, 2)]);
    let (d2, s2) = delta(&s1, 2, &[], &[(COMPONENT + 1, COMPONENT + 2)]);
    engine.apply_at(&d1, s1);
    let (bytes, work) = measured(&mut engine, &d2, s2);
    assert!(
        work > u64::from(RING / 4),
        "the search should have walked round the ring, did {work} units"
    );
    assert_eq!(
        engine.cc().unwrap().component_count(),
        2,
        "the ring held together"
    );
    assert_eq!(bytes, 0, "a {work}-unit relinking search requested {bytes} bytes");
}

#[test]
fn a_bridge_deletion_splits_off_exactly_the_cut_side() {
    let s0 = twins();
    let mut engine = cc_engine(&s0);
    let (d1, s1) = delta(&s0, 1, &[], &[(0, RING)]);
    let (d2, s2) = delta(&s1, 2, &[], &[(COMPONENT, COMPONENT + RING)]);
    engine.apply_at(&d1, s1);
    let (bytes, _) = measured(&mut engine, &d2, s2);
    let cc = engine.cc().unwrap();
    assert_eq!(cc.component_count(), 4);
    let label_of = |v: u32| match v % COMPONENT {
        x if x < RING => v - x,
        x => v - x + RING,
    };
    let want: Vec<u32> = (0..2 * COMPONENT).map(label_of).collect();
    assert_eq!(
        cc.labels(),
        want,
        "each tail is its own component, labelled by its head"
    );
    assert_eq!(bytes, 0, "a {TAIL}-vertex split requested {bytes} bytes");
}

#[test]
fn the_counter_sees_an_allocation() {
    let bytes = bytes_during(|| {
        std::hint::black_box(Vec::<u64>::with_capacity(16));
    });
    assert_eq!(bytes, 128);
}
