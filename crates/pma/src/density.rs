//! Density threshold schedule for the PMA segment tree.
//!
//! The PMA assigns every tree level a lower bound `ρ` and upper bound `τ` on
//! segment density. The paper's running example (Figure 3) uses the classic
//! Bender/Hu schedule: leaves (ρ, τ) = (0.08, 0.92) interpolating linearly to
//! (0.40, 0.80) at the root, which guarantees `τ_h − ρ_h` stays positive and
//! yields the `O(log² N)` amortized update bound (Lemma 1).

/// Density threshold schedule, parameterized by tree height.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityConfig {
    /// Lower density bound at the leaves.
    pub rho_leaf: f64,
    /// Lower density bound at the root.
    pub rho_root: f64,
    /// Upper density bound at the leaves.
    pub tau_leaf: f64,
    /// Upper density bound at the root.
    pub tau_root: f64,
}

impl Default for DensityConfig {
    fn default() -> Self {
        // Exactly the Figure 3 schedule.
        DensityConfig {
            rho_leaf: 0.08,
            rho_root: 0.40,
            tau_leaf: 0.92,
            tau_root: 0.80,
        }
    }
}

impl DensityConfig {
    /// Lower density bound for a segment at `level` (0 = leaf) in a tree of
    /// `height` levels above the leaves.
    pub fn rho(&self, level: usize, height: usize) -> f64 {
        if height == 0 {
            return self.rho_leaf;
        }
        let t = level.min(height) as f64 / height as f64;
        self.rho_leaf + (self.rho_root - self.rho_leaf) * t
    }

    /// Upper density bound for a segment at `level` (0 = leaf).
    pub fn tau(&self, level: usize, height: usize) -> f64 {
        if height == 0 {
            return self.tau_leaf;
        }
        let t = level.min(height) as f64 / height as f64;
        self.tau_leaf + (self.tau_root - self.tau_leaf) * t
    }

    /// Check `count` entries in a `capacity`-slot window against the level's
    /// upper bound.
    pub fn within_tau(&self, count: usize, capacity: usize, level: usize, height: usize) -> bool {
        (count as f64) <= self.tau(level, height) * capacity as f64
    }

    /// Check `count` entries against the level's lower bound. The root is
    /// exempt while the structure is small (cannot shrink below minimum).
    pub fn within_rho(&self, count: usize, capacity: usize, level: usize, height: usize) -> bool {
        (count as f64) >= self.rho(level, height) * capacity as f64
    }
}

/// Geometry of the implicit segment tree over the slot array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Slots per leaf segment (power of two).
    pub seg_len: usize,
    /// Number of leaf segments (power of two).
    pub num_segs: usize,
}

impl Geometry {
    /// A geometry from explicit segment length and count (both powers of two).
    pub fn new(seg_len: usize, num_segs: usize) -> Self {
        assert!(seg_len.is_power_of_two(), "seg_len must be a power of two");
        assert!(num_segs.is_power_of_two(), "num_segs must be a power of two");
        Geometry { seg_len, num_segs }
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.seg_len * self.num_segs
    }

    /// Height of the segment tree (root level index; leaves are level 0).
    pub fn height(&self) -> usize {
        self.num_segs.trailing_zeros() as usize
    }

    /// Number of leaves covered by a window at `level`.
    pub fn window_segs(&self, level: usize) -> usize {
        1 << level
    }

    /// The window (slot range) at `level` containing leaf `leaf_idx`.
    pub fn window_of(&self, leaf_idx: usize, level: usize) -> std::ops::Range<usize> {
        let segs = self.window_segs(level);
        let first_leaf = (leaf_idx / segs) * segs;
        let start = first_leaf * self.seg_len;
        start..start + segs * self.seg_len
    }

    /// Pick geometry for at least `min_slots` slots: leaf length ~`log2(cap)`
    /// rounded to a power of two (the cache-oblivious choice), at least 8.
    pub fn for_capacity(min_slots: usize) -> Geometry {
        let cap = min_slots.next_power_of_two().max(8);
        let target_seg = (usize::BITS - 1 - cap.leading_zeros()) as usize; // log2(cap)
        let seg_len = target_seg.next_power_of_two().clamp(8, cap);
        Geometry::new(seg_len, cap / seg_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_threshold_table() {
        // Height-3 tree exactly as the Figure 3 table.
        let d = DensityConfig::default();
        let h = 3;
        let rho: Vec<f64> = (0..=h).map(|l| d.rho(l, h)).collect();
        let tau: Vec<f64> = (0..=h).map(|l| d.tau(l, h)).collect();
        let expect_rho = [0.08, 0.19, 0.29, 0.40];
        let expect_tau = [0.92, 0.88, 0.84, 0.80];
        for l in 0..=h {
            assert!((rho[l] - expect_rho[l]).abs() < 0.011, "rho level {l}: {}", rho[l]);
            assert!((tau[l] - expect_tau[l]).abs() < 0.011, "tau level {l}: {}", tau[l]);
        }
    }

    #[test]
    fn thresholds_nest_properly() {
        let d = DensityConfig::default();
        for h in 1..20 {
            for l in 0..h {
                assert!(d.rho(l, h) < d.rho(l + 1, h));
                assert!(d.tau(l, h) > d.tau(l + 1, h));
                assert!(d.rho(l, h) < d.tau(l, h));
            }
        }
    }

    #[test]
    fn zero_height_tree() {
        let d = DensityConfig::default();
        assert_eq!(d.rho(0, 0), d.rho_leaf);
        assert_eq!(d.tau(0, 0), d.tau_leaf);
    }

    #[test]
    fn geometry_windows() {
        let g = Geometry::new(4, 8); // Figure 3: 32 slots
        assert_eq!(g.capacity(), 32);
        assert_eq!(g.height(), 3);
        assert_eq!(g.window_of(5, 0), 20..24);
        assert_eq!(g.window_of(5, 1), 16..24);
        assert_eq!(g.window_of(5, 2), 16..32);
        assert_eq!(g.window_of(5, 3), 0..32);
    }

    #[test]
    fn geometry_for_capacity_is_sane() {
        for n in [1usize, 8, 100, 1 << 10, 1 << 20] {
            let g = Geometry::for_capacity(n);
            assert!(g.capacity() >= n.max(8));
            assert!(g.seg_len >= 8);
            assert!(g.seg_len.is_power_of_two());
            assert!(g.num_segs.is_power_of_two());
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_non_power_of_two() {
        Geometry::new(3, 8);
    }
}
