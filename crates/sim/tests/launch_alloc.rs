//! A steady-state `Device::launch` performs no heap allocation: the trace of
//! a sampled warp lives in scratch the host thread keeps between launches,
//! unsampled lanes record nothing, an inline pool needs no range list, and
//! `KernelStats` carries the launch site's `&'static str`.
//!
//! The allocator below counts per thread, so the other tests of this binary
//! (the harness runs them on sibling threads) cannot disturb a count.

use gpma_sim::{Device, DeviceBuffer, DeviceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and growing reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised `Cell` without a destructor,
// so touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// One round of launches: a wide kernel with loads, stores and conflicting
/// atomics, a kernel whose sampled warps trace 4 096 accesses each (the most
/// the retained scratch holds), a ragged kernel whose lanes take turns on
/// three buffers out of step with each other (1 to 200 accesses; most of its
/// steps are recounted), one lane making 16 384 accesses (a warp of one,
/// never traced), and an empty grid.
fn launches(dev: &Device, data: &DeviceBuffer<u64>, counters: &DeviceBuffer<u32>) -> u64 {
    let wide = dev.launch("wide", 4_096, |lane| {
        let v = data.get(lane, lane.tid);
        data.set(lane, (lane.tid * 33) % data.len(), v + 1);
        counters.atomic_add(lane, lane.tid % 3, 1);
    });
    let deep = dev.launch("deep", 64, |lane| {
        for k in 0..128 {
            let _ = data.get(lane, lane.tid * 128 + k);
        }
    });
    let thirds = data.len() / 3;
    let ragged = dev.launch("ragged", 64, |lane| {
        // 1 to 200 accesses, about 3 300 per warp.
        for k in 0..=(lane.tid * 131) % 200 {
            // Lane `tid` starts on buffer `tid % 3`.
            let third = (lane.tid + k) % 3;
            let _ = data.get(lane, third * thirds + (lane.tid * 7 + k) % thirds);
        }
    });
    let lone = dev.launch("lone", 1, |lane| {
        for k in 0..16_384 {
            let _ = data.get(lane, k % data.len());
        }
    });
    let empty = dev.launch("empty", 0, |_| {});
    wide.cycles + deep.cycles + ragged.cycles + lone.cycles + empty.cycles
}

#[test]
fn steady_state_launches_do_not_allocate() {
    for coalescing_sample in [1, 16] {
        let dev = Device::new(DeviceConfig {
            host_parallelism: 1,
            coalescing_sample,
            ..DeviceConfig::default()
        });
        let data = DeviceBuffer::<u64>::new(8_192);
        let counters = DeviceBuffer::<u32>::new(4);
        // The first round sizes this thread's scratch.
        let warm = launches(&dev, &data, &counters);
        let mut cycles = 0;
        let allocs = allocations_during(|| {
            for _ in 0..10 {
                cycles += launches(&dev, &data, &counters);
            }
        });
        assert_eq!(allocs, 0, "sample {coalescing_sample}");
        assert_eq!(cycles, 10 * warm);
    }
}

#[test]
fn the_counter_sees_an_allocation() {
    let allocs = allocations_during(|| {
        std::hint::black_box(Vec::<u64>::with_capacity(16));
    });
    assert_eq!(allocs, 1);
}
