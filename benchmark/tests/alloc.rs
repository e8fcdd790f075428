//! Allocator pause/resume accounting. One test function in its own test
//! binary: the counters are process-wide, so the scenarios must not run
//! beside other tests that allocate or pause. Every block goes through
//! `black_box`, or the optimiser removes the allocation being counted.

use std::hint::black_box;

use gpma_benchmark::alloc::{live_bytes, paused, peak_bytes, requested_bytes, reset_peak};

#[test]
fn counting_allocator_accounting() {
    // Requests are counted…
    let before = requested_bytes();
    let v: Vec<u8> = black_box(Vec::with_capacity(1 << 20));
    assert!(requested_bytes() - before >= 1 << 20);
    let live_with = live_bytes();
    drop(v);
    assert!(
        live_with - live_bytes() >= 1 << 20,
        "a free lowers the live size"
    );

    // …except inside a paused window, which nests and restores.
    paused(|| {
        paused(|| {});
        let r0 = requested_bytes();
        let l0 = live_bytes();
        let w: Vec<u8> = black_box(Vec::with_capacity(3 << 20));
        assert_eq!(requested_bytes(), r0, "still paused after the inner window");
        drop(w);
        assert_eq!(live_bytes(), l0, "paused frees are not counted either");
    });
    let r0 = requested_bytes();
    let x: Vec<u8> = black_box(Vec::with_capacity(1 << 16));
    assert!(
        requested_bytes() - r0 >= 1 << 16,
        "counting resumes after the window"
    );
    drop(x);

    // The peak follows the live size and restarts on request.
    reset_peak();
    let base = peak_bytes();
    let v: Vec<u8> = black_box(Vec::with_capacity(8 << 20));
    assert!(peak_bytes() - base >= 8 << 20);
    drop(v);
    assert!(
        peak_bytes() - base >= 8 << 20,
        "the peak outlives the block"
    );
    reset_peak();
    assert!(peak_bytes() - base < 1 << 20, "a new window forgets it");

    // A grow through realloc requests the new block.
    let r0 = requested_bytes();
    let mut g: Vec<u8> = black_box(Vec::with_capacity(1 << 10));
    g.reserve_exact(1 << 21);
    black_box(&g);
    assert!(requested_bytes() - r0 >= (1 << 10) + (1 << 21));
}
