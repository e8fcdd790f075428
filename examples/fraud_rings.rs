//! Fraud-ring detection on a dynamic profile graph — the motivating
//! application from the paper's introduction: an online insurance system
//! runs ring analysis on profile graphs built from active contracts, and an
//! outdated graph misses frauds.
//!
//! We maintain the contract graph in GPMA+ and, after every batch of
//! contract events, find suspicious rings = small connected components whose
//! internal edge density is high (every profile linked to most others —
//! collusion clusters), using the device CC kernel.
//!
//! ```sh
//! cargo run --release --example fraud_rings
//! ```

use gpma_analytics::{cc_device, GpmaView};
use gpma_core::GpmaPlus;
use gpma_graph::{Edge, UpdateBatch};
use gpma_sim::{Device, DeviceConfig};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::HashMap;

const PROFILES: u32 = 4000;

fn main() {
    let dev = Device::new(DeviceConfig::default());
    let mut rng = SmallRng::seed_from_u64(2026);

    // Legitimate background: sparse random links between profiles
    // (shared agents, brokers, addresses...) — sparse enough that honest
    // profiles form small, loose components.
    let mut initial = Vec::new();
    for _ in 0..PROFILES / 8 {
        let a = rng.gen_range(0..PROFILES);
        let b = rng.gen_range(0..PROFILES);
        if a != b {
            initial.push(Edge::new(a, b));
            initial.push(Edge::new(b, a));
        }
    }
    let mut graph = GpmaPlus::build(&dev, PROFILES, &initial);
    println!("profile graph: {} links", graph.storage.num_edges());

    // A fraud ring forms over several contract batches: profiles 100..108
    // progressively interlink through shared claims.
    let ring: Vec<u32> = (100..108).collect();
    for step in 0..4 {
        let mut batch = UpdateBatch::default();
        // Ring edges appear...
        for (i, &a) in ring.iter().enumerate() {
            let b = ring[(i + step + 1) % ring.len()];
            if a != b {
                batch.insertions.push(Edge::new(a, b));
                batch.insertions.push(Edge::new(b, a));
            }
        }
        // ...amid normal churn.
        for _ in 0..50 {
            let a = rng.gen_range(0..PROFILES);
            let b = rng.gen_range(0..PROFILES);
            if a != b {
                batch.insertions.push(Edge::new(a, b));
            }
        }
        let (_, t) = dev.timed(|d| {
            graph.update_batch_lazy(d, &batch);
        });

        // Real-time ring analysis on the up-to-date graph.
        let view = GpmaView::build(&dev, &graph.storage);
        let labels = cc_device(&dev, &view).to_vec();
        let degrees = view.csr.degrees.to_vec();

        let mut comp_sizes: HashMap<u32, (usize, usize)> = HashMap::new(); // label -> (members, internal degree)
        for v in 0..PROFILES as usize {
            let e = comp_sizes.entry(labels[v]).or_default();
            e.0 += 1;
            e.1 += degrees[v] as usize;
        }
        let suspicious: Vec<(u32, usize, f64)> = comp_sizes
            .iter()
            .filter(|(_, &(members, _))| (3..=20).contains(&members))
            .map(|(&l, &(members, deg))| (l, members, deg as f64 / members as f64))
            .filter(|&(_, _, density)| density >= 2.0)
            .collect();

        println!(
            "batch {step}: updated in {:.1}µs (sim); {} suspicious ring(s)",
            t.micros(),
            suspicious.len()
        );
        for (label, members, density) in suspicious {
            let sample: Vec<u32> = (0..PROFILES)
                .filter(|&v| labels[v as usize] == label)
                .take(8)
                .collect();
            println!("  ring @{label}: {members} profiles, avg internal degree {density:.1}, members {sample:?}");
        }
    }
}
