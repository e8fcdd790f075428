//! The speed probe: a frozen ~5 ms reference job that runs right before and
//! after every timed section, so a section's time can be expressed relative
//! to how fast the host was *at that moment*.
//!
//! Why: on the small shared sandboxes this benchmark runs on, host speed
//! moves between plateaus that last 1–5 s; the raw per-run median of
//! identical code differs by 6–17 % between runs. Two things move: how many
//! cycles a core really gets (pure in-cache compute varies by ~12 %) and
//! memory latency (~5 %). The probe therefore has one part for each — small
//! vector allocate + push + sort churn, and dependent loads over a table
//! larger than L2 — timed separately, and a section is divided by both,
//! each raised to a fitted weight (README, noise section). A streaming-copy
//! part was measured too and dropped: its fitted weight was 0.04.
//!
//! FROZEN: the probe's work, [`NOMINAL`] and the two weights define the unit
//! of every timing metric. Changing any of them changes every number; that
//! is a new benchmark issue, never part of a performance change.

use std::hint::black_box;
use std::time::Instant;

use crate::alloc;
use crate::pin;
use crate::stream::SplitMix;

/// One run of the probe: seconds its two parts took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Dependent loads through a table far larger than L2: follows memory
    /// latency (cache share, neighbours' traffic).
    pub chase: f64,
    /// Allocate, fill, sort and free small vectors: follows how many cycles
    /// the core really gets (steal, sibling threads, frequency).
    pub churn: f64,
}

impl Sample {
    /// Seconds the whole probe took.
    pub fn total(self) -> f64 {
        self.chase + self.churn
    }
}

/// One run of the probe on every CPU the measured program computes on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reading {
    /// The sample from the driver's own CPU: scales a section in which only
    /// the driver computes.
    pub home: Sample,
    /// The slowest sample of all the CPUs: scales a section that ends in a
    /// barrier, because that waits for its slowest thread. Equal to `home`
    /// unless [`Probe::also_on`] named further CPUs.
    pub slowest: Sample,
}

/// The probe's median on the reference machine class (2-vCPU sandbox), so
/// that a normalised time equals the raw time on a quiet run there.
pub const NOMINAL: Sample = Sample {
    chase: 2.7e-3,
    churn: 1.75e-3,
};

/// How strongly the measured sections follow each part, fitted once over
/// runs of all four workloads on the reference machine (README, noise
/// section): a section slows by `x^CHASE_WEIGHT · y^CHURN_WEIGHT` when the
/// parts slow by `x` and `y`. The weights add up to more than one because
/// the sections suffer more from a busy host than the probe itself does.
pub const CHASE_WEIGHT: f64 = 0.4;
/// See [`CHASE_WEIGHT`].
pub const CHURN_WEIGHT: f64 = 0.7;

const CHASE_SLOTS: usize = 1 << 22; // 16 MiB of u32, well past L2
const CHASE_STEPS: usize = 14_000;
const CHURN_ROUNDS: usize = 640;
const CHURN_LEN: usize = 192;

/// The probe's preallocated table. Build one per process (its allocations
/// are not counted) and call [`Probe::run`] around sections.
pub struct Probe {
    /// One random cycle through all slots: `chase[i]` is the next index.
    chase: Vec<u32>,
    cursor: u32,
    sink: u64,
    /// CPUs besides the home one that the measured program computes on.
    also_on: &'static [usize],
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

impl Probe {
    /// Allocate and initialise the probe's table (uncounted).
    pub fn new() -> Self {
        alloc::paused(|| {
            let mut rng = SplitMix(0x9E37_79B9_7F4A_7C15);
            // Sattolo's algorithm: a uniformly random single cycle, so the
            // chase never falls into a short loop that fits a cache.
            let mut chase: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
            for i in (1..CHASE_SLOTS).rev() {
                let j = rng.below(i as u64) as usize;
                chase.swap(i, j);
            }
            Probe {
                chase,
                cursor: 0,
                sink: 0,
                also_on: &[],
            }
        })
    }

    /// From now on probe these CPUs as well as the home one: the program
    /// about to be measured has threads of its own there (`pin::spread`).
    pub fn also_on(&mut self, cpus: &'static [usize]) {
        self.also_on = cpus;
    }

    /// Run the probe once on every CPU the measured program computes on.
    /// Nothing the probe allocates is counted.
    pub fn run(&mut self) -> Reading {
        let home = self.run_here();
        let mut slowest = home;
        for &cpu in self.also_on {
            let s = pin::on_cpu(cpu, || self.run_here());
            if slowdown(s, s) > slowdown(slowest, slowest) {
                slowest = s;
            }
        }
        Reading { home, slowest }
    }

    fn run_here(&mut self) -> Sample {
        alloc::paused(|| {
            let t0 = Instant::now();
            // 1. Dependent loads.
            let mut c = self.cursor;
            for _ in 0..CHASE_STEPS {
                c = self.chase[c as usize];
            }
            self.cursor = black_box(c);
            let chase = t0.elapsed().as_secs_f64();
            // 2. Small-vector churn: allocate, fill, sort, free.
            let mut rng = SplitMix(self.sink | 1);
            let mut acc = 0u64;
            for r in 0..CHURN_ROUNDS {
                let mut v: Vec<u64> = Vec::new();
                for _ in 0..CHURN_LEN + (r & 63) {
                    v.push(rng.next_u64());
                }
                v.sort_unstable();
                acc ^= v[v.len() / 2];
                black_box(&v);
            }
            self.sink = black_box(acc);
            Sample {
                chase,
                churn: t0.elapsed().as_secs_f64() - chase,
            }
        })
    }
}

/// How much slower than nominal the host was around a section, as the
/// factor its time is divided by: each part's mean over the two probes,
/// relative to [`NOMINAL`], raised to its weight.
pub fn slowdown(before: Sample, after: Sample) -> f64 {
    let chase = 0.5 * (before.chase + after.chase) / NOMINAL.chase;
    let churn = 0.5 * (before.churn + after.churn) / NOMINAL.churn;
    chase.powf(CHASE_WEIGHT) * churn.powf(CHURN_WEIGHT)
}

/// A section's time expressed at nominal host speed.
pub fn normalise(raw_secs: f64, before: Sample, after: Sample) -> f64 {
    raw_secs / slowdown(before, after)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaled(chase: f64, churn: f64) -> Sample {
        Sample {
            chase: NOMINAL.chase * chase,
            churn: NOMINAL.churn * churn,
        }
    }

    #[test]
    fn normalise_is_identity_at_nominal_speed() {
        assert_eq!(normalise(0.25, NOMINAL, NOMINAL), 0.25);
        assert_eq!(slowdown(NOMINAL, NOMINAL), 1.0);
    }

    #[test]
    fn each_part_counts_with_its_weight() {
        // Memory twice as slow on both sides, cores as usual.
        let s = slowdown(scaled(2.0, 1.0), scaled(2.0, 1.0));
        assert!((s - 2f64.powf(CHASE_WEIGHT)).abs() < 1e-12);
        // Cores twice as slow, memory as usual.
        let s = slowdown(scaled(1.0, 2.0), scaled(1.0, 2.0));
        assert!((s - 2f64.powf(CHURN_WEIGHT)).abs() < 1e-12);
        // Both: the factors multiply, and the section counts for less.
        let both = slowdown(scaled(2.0, 2.0), scaled(2.0, 2.0));
        assert!((both - 2f64.powf(CHASE_WEIGHT + CHURN_WEIGHT)).abs() < 1e-12);
        assert!((normalise(0.5, scaled(2.0, 2.0), scaled(2.0, 2.0)) - 0.5 / both).abs() < 1e-15);
    }

    #[test]
    fn a_change_inside_the_section_takes_the_mean_of_both_probes() {
        let s = slowdown(scaled(1.0, 1.0), scaled(3.0, 1.0));
        assert!((s - 2f64.powf(CHASE_WEIGHT)).abs() < 1e-12);
        // A faster host makes the section count for more.
        assert!(normalise(0.1, scaled(0.5, 0.5), scaled(0.5, 0.5)) > 0.1);
    }

    #[test]
    fn probe_runs_and_takes_time() {
        let mut p = Probe::new();
        let (a, b) = (p.run().home, p.run());
        assert!(a.chase > 0.0 && a.churn > 0.0 && b.home.total() > 0.0);
        assert!(a.total() < 5.0 && b.home.total() < 5.0);
        assert_eq!(b.home, b.slowest, "one CPU unless told otherwise");
    }
}
