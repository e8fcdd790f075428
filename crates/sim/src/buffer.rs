//! Device global memory: typed buffers with lane-visible (cost-accounted)
//! access and host-visible (free) access.
//!
//! # Memory model
//!
//! A [`DeviceBuffer`] behaves like CUDA global memory. Kernel lanes access it
//! through `get`/`set`/atomics, which take `&self` — concurrent lanes may race
//! exactly like real device threads. The safety contract mirrors the CUDA
//! one: a launch must not issue non-atomic writes to a slot that any other
//! lane concurrently reads or writes. All racing access must go through the
//! atomic methods. Host access (`host_read`/`as_mut_slice`/...) is only legal
//! outside launches, which the borrow checker enforces for the mutating
//! variants.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::device::{Lane, LaneMode};

/// Marker for plain-old-data element types storable in device memory.
pub trait DevicePod: Copy + Send + Sync + Default + 'static {}

impl DevicePod for u8 {}
impl DevicePod for u16 {}
impl DevicePod for u32 {}
impl DevicePod for u64 {}
impl DevicePod for i32 {}
impl DevicePod for i64 {}
impl DevicePod for f32 {}
impl DevicePod for f64 {}
impl DevicePod for usize {}

#[repr(transparent)]
struct SyncCell<T>(UnsafeCell<T>);

// SAFETY: access discipline is delegated to kernels, exactly like CUDA global
// memory. Racing non-atomic access is a kernel bug, not a soundness hole in
// practice for `DevicePod` types (all bit patterns valid, no drop glue); the
// atomic entry points use real atomics.
unsafe impl<T: DevicePod> Sync for SyncCell<T> {}
unsafe impl<T: DevicePod> Send for SyncCell<T> {}

/// A typed allocation in simulated device global memory.
pub struct DeviceBuffer<T: DevicePod> {
    cells: Box<[SyncCell<T>]>,
    /// Deterministic virtual base address used by the coalescing analysis
    /// (real heap addresses would make simulated cycle counts depend on the
    /// allocator). Always transaction-aligned.
    vbase: u64,
}

/// Monotonic virtual address space for device allocations.
static NEXT_VBASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1 << 20);

fn alloc_vbase(bytes: usize) -> u64 {
    let span = (bytes as u64 + 511) & !511; // keep allocations line-disjoint
    NEXT_VBASE.fetch_add(span + 512, std::sync::atomic::Ordering::Relaxed)
}

impl<T: DevicePod> DeviceBuffer<T> {
    /// Allocate `len` elements initialized to `T::default()`.
    pub fn new(len: usize) -> Self {
        Self::filled(T::default(), len)
    }

    /// Allocate `len` elements initialized to `value`.
    pub fn filled(value: T, len: usize) -> Self {
        let cells: Vec<SyncCell<T>> = (0..len)
            .map(|_| SyncCell(UnsafeCell::new(value)))
            .collect();
        DeviceBuffer {
            cells: cells.into_boxed_slice(),
            vbase: alloc_vbase(len * std::mem::size_of::<T>()),
        }
    }

    /// Upload a host slice (cudaMemcpy H2D analogue; transfer *time* is
    /// modeled separately by [`crate::pcie`]).
    pub fn from_slice(data: &[T]) -> Self {
        let cells: Vec<SyncCell<T>> = data.iter().map(|&v| SyncCell(UnsafeCell::new(v))).collect();
        DeviceBuffer {
            cells: cells.into_boxed_slice(),
            vbase: alloc_vbase(std::mem::size_of_val(data)),
        }
    }

    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Base address used by the coalescing analysis (virtual, deterministic).
    pub(crate) fn base_addr(&self) -> u64 {
        self.vbase
    }

    #[inline]
    fn ptr(&self, i: usize) -> *mut T {
        match self.cells.get(i) {
            Some(cell) => cell.0.get(),
            None => panic!("device OOB: {} >= {}", i, self.cells.len()),
        }
    }

    // ------------------------------------------------------------------
    // Lane (device-side, cost-accounted) access
    // ------------------------------------------------------------------

    /// Global-memory load from a kernel lane.
    #[inline]
    pub fn get<M: LaneMode>(&self, lane: &mut Lane<'_, M>, i: usize) -> T {
        lane.record_mem(self.base_addr() + (i * std::mem::size_of::<T>()) as u64);
        // SAFETY: see module-level memory model. `ptr` bounds-checks.
        unsafe { *self.ptr(i) }
    }

    /// Global-memory store from a kernel lane.
    #[inline]
    pub fn set<M: LaneMode>(&self, lane: &mut Lane<'_, M>, i: usize, v: T) {
        lane.record_mem(self.base_addr() + (i * std::mem::size_of::<T>()) as u64);
        // SAFETY: see module-level memory model.
        unsafe { *self.ptr(i) = v }
    }

    // ------------------------------------------------------------------
    // Host (free) access — like reading mapped memory outside a launch.
    // ------------------------------------------------------------------

    /// Read element `i` from the host, outside any launch (free).
    pub fn host_read(&self, i: usize) -> T {
        // SAFETY: no launch is running when host code holds `&self` and
        // reads; races with an in-flight kernel would be a framework misuse.
        unsafe { *self.ptr(i) }
    }

    /// Write element `i` from the host, outside any launch (free).
    pub fn host_write(&mut self, i: usize, v: T) {
        // SAFETY: `&mut self` guarantees exclusivity.
        unsafe { *self.ptr(i) = v }
    }

    /// Copy the whole buffer into a host `Vec` (free host access).
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.host_read(i)).collect()
    }

    /// Exclusive host view of the raw contents.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: `&mut self` guarantees exclusivity; SyncCell is
        // repr(transparent) over UnsafeCell<T> which is repr(transparent)
        // over T.
        unsafe { std::slice::from_raw_parts_mut(self.cells.as_ptr() as *mut T, self.cells.len()) }
    }

    /// Shared host view. Caller must not race this with kernel writes.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: as above; read-only view.
        unsafe { std::slice::from_raw_parts(self.cells.as_ptr() as *const T, self.cells.len()) }
    }

    /// Overwrite the range starting at `offset` with `data` (host side).
    pub fn copy_from_slice(&mut self, offset: usize, data: &[T]) {
        assert!(offset + data.len() <= self.len());
        self.as_mut_slice()[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Make the buffer hold at least `n` slots — the one growth rule of
    /// every reusable device scratch. A buffer already that long is kept as
    /// it is; a shorter one is replaced by exactly `n` zeroed slots, and its
    /// old contents are not kept. No slack is added, so a steady stream of
    /// equally sized calls allocates once.
    pub fn grow_to(&mut self, n: usize) {
        if self.len() < n {
            *self = DeviceBuffer::new(n);
        }
    }
}

impl<T: DevicePod + std::fmt::Debug> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl<T: DevicePod> Clone for DeviceBuffer<T> {
    fn clone(&self) -> Self {
        DeviceBuffer::from_slice(self.as_slice())
    }
}

// ----------------------------------------------------------------------
// Atomics (device-wide, like CUDA atomic intrinsics on global memory)
// ----------------------------------------------------------------------

macro_rules! impl_atomics {
    ($t:ty, $atomic:ty) => {
        impl DeviceBuffer<$t> {
            #[inline]
            fn atomic_ref(&self, i: usize) -> &$atomic {
                // SAFETY: UnsafeCell<$t> has the layout and alignment of $t,
                // which matches $atomic; concurrent atomic access is sound.
                unsafe { &*(self.ptr(i) as *const $atomic) }
            }

            /// `atomicCAS`: returns the previous value.
            #[inline]
            pub fn atomic_cas<M: LaneMode>(
                &self,
                lane: &mut Lane<'_, M>,
                i: usize,
                current: $t,
                new: $t,
            ) -> $t {
                lane.record_atomic(self.base_addr() + (i * std::mem::size_of::<$t>()) as u64);
                match self
                    .atomic_ref(i)
                    .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(prev) => prev,
                    Err(prev) => prev,
                }
            }

            /// `atomicAdd`: returns the previous value.
            #[inline]
            pub fn atomic_add<M: LaneMode>(&self, lane: &mut Lane<'_, M>, i: usize, v: $t) -> $t {
                lane.record_atomic(self.base_addr() + (i * std::mem::size_of::<$t>()) as u64);
                self.atomic_ref(i).fetch_add(v, Ordering::AcqRel)
            }

            /// `atomicMin`: returns the previous value.
            #[inline]
            pub fn atomic_min<M: LaneMode>(&self, lane: &mut Lane<'_, M>, i: usize, v: $t) -> $t {
                lane.record_atomic(self.base_addr() + (i * std::mem::size_of::<$t>()) as u64);
                self.atomic_ref(i).fetch_min(v, Ordering::AcqRel)
            }

            /// Volatile-style load with acquire ordering (for spin loops on
            /// flags written by other lanes).
            #[inline]
            pub fn atomic_load<M: LaneMode>(&self, lane: &mut Lane<'_, M>, i: usize) -> $t {
                lane.record_mem(self.base_addr() + (i * std::mem::size_of::<$t>()) as u64);
                self.atomic_ref(i).load(Ordering::Acquire)
            }
        }
    };
}

impl_atomics!(u32, AtomicU32);
impl_atomics!(u64, AtomicU64);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Lane;

    fn lane() -> Lane<'static> {
        Lane::test_lane(0)
    }

    #[test]
    fn roundtrip_host_and_lane_access() {
        let buf = DeviceBuffer::<u64>::from_slice(&[1, 2, 3]);
        let mut l = lane();
        assert_eq!(buf.get(&mut l, 1), 2);
        buf.set(&mut l, 1, 42);
        assert_eq!(buf.host_read(1), 42);
        assert_eq!(buf.to_vec(), vec![1, 42, 3]);
    }

    #[test]
    fn filled_and_new() {
        let a = DeviceBuffer::<u32>::filled(7, 4);
        assert_eq!(a.to_vec(), vec![7; 4]);
        let b = DeviceBuffer::<u32>::new(3);
        assert_eq!(b.to_vec(), vec![0; 3]);
        assert!(DeviceBuffer::<u32>::new(0).is_empty());
    }

    #[test]
    fn host_mutation() {
        let mut buf = DeviceBuffer::<u32>::new(4);
        buf.host_write(0, 9);
        buf.copy_from_slice(1, &[5, 6]);
        buf.as_mut_slice()[3] = 1;
        assert_eq!(buf.to_vec(), vec![9, 5, 6, 1]);
    }

    #[test]
    fn grow_to_keeps_a_long_buffer_and_replaces_a_short_one() {
        let mut buf = DeviceBuffer::<u32>::from_slice(&[4, 5, 6]);
        let base = buf.base_addr();
        buf.grow_to(2);
        buf.grow_to(3);
        assert_eq!(buf.to_vec(), vec![4, 5, 6]);
        assert_eq!(buf.base_addr(), base, "a long-enough buffer is not reallocated");
        buf.grow_to(5);
        assert_eq!(buf.to_vec(), vec![0; 5], "exactly n zeroed slots, old contents dropped");
        assert_ne!(buf.base_addr(), base);
    }

    #[test]
    fn atomics_semantics() {
        let buf = DeviceBuffer::<u32>::from_slice(&[10]);
        let mut l = lane();
        assert_eq!(buf.atomic_cas(&mut l, 0, 10, 20), 10);
        assert_eq!(buf.atomic_cas(&mut l, 0, 10, 30), 20); // failed CAS
        assert_eq!(buf.host_read(0), 20);
        assert_eq!(buf.atomic_add(&mut l, 0, 5), 20);
        assert_eq!(buf.atomic_min(&mut l, 0, 3), 25);
        assert_eq!(buf.atomic_load(&mut l, 0), 3);
    }

    #[test]
    fn atomics_u64() {
        let buf = DeviceBuffer::<u64>::from_slice(&[0]);
        let mut l = lane();
        buf.atomic_add(&mut l, 0, u32::MAX as u64 + 10);
        assert_eq!(buf.host_read(0), u32::MAX as u64 + 10);
    }

    #[test]
    #[should_panic(expected = "device OOB")]
    fn out_of_bounds_panics() {
        let buf = DeviceBuffer::<u32>::new(2);
        buf.host_read(2);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = DeviceBuffer::<u32>::from_slice(&[1, 2]);
        let b = a.clone();
        a.host_write(0, 99);
        assert_eq!(b.to_vec(), vec![1, 2]);
    }
}
