//! `pagerank_device` and `cc_device` allocate their buffers once per call:
//! ten more PageRank iterations cost the reductions' few hundred bytes of
//! partials each and no `|V|`- or `|E|`-sized buffer, and a `cc_device` run
//! allocates the same number of times whatever its round count. PageRank's
//! in-edge index is built once per call, before the first iteration.

mod common;

use common::allocated_during;
use gpma_analytics::{cc_device, pagerank_device, GpmaView, DAMPING};
use gpma_core::GpmaPlus;
use gpma_graph::Edge;
use gpma_sim::{Device, DeviceConfig};

const NV: u32 = 20_000;

#[test]
fn the_counter_sees_an_allocation() {
    let (allocs, bytes) = allocated_during(|| drop(std::hint::black_box(vec![0u8; 4096])));
    assert!(allocs >= 1 && bytes >= 4096);
}

#[test]
fn pagerank_iterations_allocate_no_vertex_sized_buffer() {
    // Lanes on two pool threads: the trace a sampled warp of the blocked
    // reduction grows (and `launch` drops again, 8 192 entries) is allocated
    // there, and this thread's counter sees what `pagerank_device` itself
    // allocates plus the pool's per-launch job channel.
    let d = Device::new(DeviceConfig {
        host_parallelism: 2,
        ..Default::default()
    });
    // A ring with one chord per vertex; every third vertex keeps no
    // out-edge, so the dangling path runs too.
    let edges: Vec<Edge> = (0..NV)
        .filter(|v| v % 3 != 0)
        .flat_map(|v| [Edge::new(v, (v + 1) % NV), Edge::new(v, (v + 97) % NV)])
        .collect();
    let g = GpmaPlus::build(&d, NV, &edges);
    let view = GpmaView::build(&d, &g.storage);
    let bytes_at = |iters: usize| {
        let (_, bytes) = allocated_during(|| {
            let pr = pagerank_device(&d, &view, DAMPING, 0.0, iters);
            assert_eq!(pr.iterations, iters);
        });
        bytes
    };
    let (ten, twenty) = (bytes_at(10), bytes_at(20));
    // One `|V|`-sized f64 buffer is 160 000 bytes, the index's `|E|`-sized
    // source list 106 664.
    assert!(
        twenty - ten < 10 * 4096,
        "10 more iterations allocated {} bytes",
        twenty - ten
    );
}

#[test]
fn cc_allocations_do_not_grow_with_the_round_count() {
    // Inline lanes: a steady-state launch allocates nothing, so every
    // allocation counted is `cc_device`'s own.
    let d = Device::new(DeviceConfig::deterministic());
    // No edge: one round. A path through scattered vertex ids: several.
    let at = |i: u32| (i * 7_919) % NV;
    let path: Vec<Edge> = (0..999).map(|i| Edge::new(at(i), at(i + 1))).collect();
    let mut seen = Vec::new();
    for edges in [&[][..], &path[..]] {
        let g = GpmaPlus::build(&d, NV, edges);
        let view = GpmaView::build(&d, &g.storage);
        cc_device(&d, &view); // grow the thread's launch trace before measuring
        let before = d.metrics().launches;
        let (allocs, _) = allocated_during(|| {
            cc_device(&d, &view);
        });
        // cc_init, then one hook + one jump per round.
        let rounds = (d.metrics().launches - before - 1) / 2;
        seen.push((rounds, allocs));
    }
    assert!(seen[1].0 > seen[0].0 + 1, "(rounds, allocations) {seen:?}");
    assert_eq!(seen[0].1, seen[1].1, "(rounds, allocations) {seen:?}");
}
