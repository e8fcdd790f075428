//! A counting global allocator: the exact, noise-free side of the benchmark.
//!
//! Every heap request made by any thread of the process is counted while the
//! counter is not paused: `requested` only grows (bytes asked for), `live`
//! follows allocations minus frees, `peak` is the high-water mark of `live`.
//! The benchmark pauses the counter around its own work (speed probe,
//! oracle, input generation) so those bytes never show up in the program's
//! numbers. Pausing is process-wide, which is exact under the lock-step
//! driver: the program's worker threads are idle whenever the driver is
//! outside a timed section.
//!
//! A block must be freed in the same state (paused or not) it was allocated
//! in, or `live` drifts; the driver keeps to that by construction, and
//! `live` is signed so a stray cross-state free cannot wrap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The allocator type installed as `#[global_allocator]` in `lib.rs`.
pub struct Counting;

static PAUSED: AtomicBool = AtomicBool::new(false);
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

// All four are statistics that publish no other data, so `Relaxed` is
// enough; the lock-step driver reads them only while workers are idle.
#[inline]
fn on_alloc(bytes: usize, requested: usize) {
    if PAUSED.load(Ordering::Relaxed) {
        return;
    }
    REQUESTED.fetch_add(requested as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn on_free(bytes: usize) {
    if PAUSED.load(Ordering::Relaxed) {
        return;
    }
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size(), layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size(), layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow requests the whole new block (that is what a copy would
        // cost); a shrink requests nothing new.
        on_free(layout.size());
        on_alloc(
            new_size,
            if new_size > layout.size() {
                new_size
            } else {
                0
            },
        );
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes requested so far while not paused (monotonic).
pub fn requested_bytes() -> u64 {
    REQUESTED.load(Ordering::Relaxed)
}

/// Bytes currently live (allocated while not paused and not yet freed).
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since the last [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the high-water mark at the current live size (start of the
/// measured window).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Run `f` with the counter paused: nothing it allocates or frees is
/// counted. Nests (the previous state is restored).
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    let was = PAUSED.swap(true, Ordering::Relaxed);
    let r = f();
    PAUSED.store(was, Ordering::Relaxed);
    r
}
