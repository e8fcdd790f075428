//! The sequential Packed Memory Array (Bender, Demaine, Farach-Colton;
//! Bender & Hu) — the CPU structure the paper parallelizes into GPMA.
//!
//! Entries are kept sorted in one slot array with gaps. Each leaf segment of
//! `seg_len` slots keeps its entries left-packed; an implicit binary tree of
//! windows over the leaves carries the density thresholds. An update that
//! pushes a window outside its density band triggers an even redistribution
//! of the nearest ancestor window that can absorb it (Figure 3's example),
//! growing or shrinking the array at the root.

use crate::density::{DensityConfig, Geometry};

/// Slot sentinel: an unoccupied gap.
pub const EMPTY: u64 = u64::MAX;

/// Maximum storable key (one below the [`EMPTY`] sentinel).
pub const MAX_KEY: u64 = u64::MAX - 1;

/// Counters describing the structural work performed, used by tests and the
/// benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmaStats {
    /// Rebalances performed.
    pub rebalances: u64,
    /// Total slots touched by redistributions (the amortized-cost quantity).
    pub slots_moved: u64,
    /// Capacity doublings.
    pub grows: u64,
    /// Capacity halvings.
    pub shrinks: u64,
}

/// A sorted key→value store over a packed memory array.
#[derive(Clone)]
pub struct Pma<V: Copy + Default = u64> {
    keys: Vec<u64>,
    vals: Vec<V>,
    geom: Geometry,
    density: DensityConfig,
    /// Entries per leaf segment (entries are left-packed in their leaf).
    leaf_counts: Vec<u32>,
    /// Max key in each leaf; empty leaves inherit the previous leaf's max so
    /// the sequence stays non-decreasing and binary-searchable.
    leaf_maxes: Vec<u64>,
    len: usize,
    stats: PmaStats,
    /// Window redistributed by the most recent rebalance (for tests).
    last_rebalance: Option<std::ops::Range<usize>>,
}

impl<V: Copy + Default> Default for Pma<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> Pma<V> {
    /// An empty PMA with minimal capacity.
    pub fn new() -> Self {
        Self::with_geometry(Geometry::for_capacity(8), DensityConfig::default())
    }

    /// An empty PMA with explicit geometry (tests and the worked examples).
    pub fn with_geometry(geom: Geometry, density: DensityConfig) -> Self {
        let cap = geom.capacity();
        Pma {
            keys: vec![EMPTY; cap],
            vals: vec![V::default(); cap],
            leaf_counts: vec![0; geom.num_segs],
            leaf_maxes: vec![0; geom.num_segs],
            geom,
            density,
            len: 0,
            stats: PmaStats::default(),
            last_rebalance: None,
        }
    }

    /// Bulk-load from strictly-increasing `(key, value)` pairs, sizing the
    /// array for ~60% root density (midpoint of the root band).
    pub fn from_sorted(pairs: &[(u64, V)]) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "keys must be strictly increasing");
        let min_slots = ((pairs.len() as f64 / 0.6).ceil() as usize).max(8);
        let mut pma = Self::with_geometry(Geometry::for_capacity(min_slots), DensityConfig::default());
        pma.redistribute_into(0..pma.capacity(), pairs.iter().copied());
        pma.len = pairs.len();
        pma
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots, including gaps.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Current segment geometry.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Lifetime rebalance/resize counters.
    pub fn stats(&self) -> PmaStats {
        self.stats
    }

    /// Slot range of the most recent rebalance, if any (test hook).
    pub fn last_rebalance(&self) -> Option<std::ops::Range<usize>> {
        self.last_rebalance.clone()
    }

    /// Raw slot view: `EMPTY` marks gaps (used by graph adapters that walk
    /// the array like the GPU kernels do).
    pub fn raw_keys(&self) -> &[u64] {
        &self.keys
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Index of the first leaf whose max key is `>= key` (empty leaves
    /// inherit their predecessor's max), or the last leaf.
    fn leaf_for(&self, key: u64) -> usize {
        let n = self.geom.num_segs;
        // partition_point: first index where max >= key.
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.leaf_maxes[mid] < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // Key larger than every max: goes in the last non-empty leaf (or 0).
        if lo == n {
            return self.last_nonempty_leaf().unwrap_or(0);
        }
        // Skip backwards over empty leaves that merely inherited this max —
        // the real entries live in the nearest non-empty leaf at or before.
        let mut leaf = lo;
        while leaf > 0 && self.leaf_counts[leaf] == 0 && self.leaf_maxes[leaf] >= key {
            // Only step back if the predecessor could actually host the key.
            if self.leaf_maxes[leaf - 1] >= key || self.leaf_counts[leaf - 1] > 0 {
                leaf -= 1;
            } else {
                break;
            }
        }
        leaf
    }

    fn last_nonempty_leaf(&self) -> Option<usize> {
        (0..self.geom.num_segs).rev().find(|&l| self.leaf_counts[l] > 0)
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let leaf = self.leaf_for(key);
        let start = leaf * self.geom.seg_len;
        let count = self.leaf_counts[leaf] as usize;
        for i in start..start + count {
            match self.keys[i].cmp(&key) {
                std::cmp::Ordering::Equal => return Some(self.vals[i]),
                std::cmp::Ordering::Greater => return None,
                std::cmp::Ordering::Less => {}
            }
        }
        None
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Slot index of the first entry with key `>= key` (for range scans).
    pub fn lower_bound(&self, key: u64) -> usize {
        if self.len == 0 {
            return self.capacity();
        }
        let leaf = self.leaf_for(key);
        let start = leaf * self.geom.seg_len;
        let count = self.leaf_counts[leaf] as usize;
        for i in start..start + count {
            if self.keys[i] >= key {
                return i;
            }
        }
        // Past this leaf's entries: first entry of the next non-empty leaf.
        for l in leaf + 1..self.geom.num_segs {
            if self.leaf_counts[l] > 0 {
                return l * self.geom.seg_len;
            }
        }
        self.capacity()
    }

    // ------------------------------------------------------------------
    // Update
    // ------------------------------------------------------------------

    /// Insert or overwrite. Returns `true` if the key was newly inserted,
    /// `false` if an existing value was replaced (a "modification").
    pub fn insert(&mut self, key: u64, val: V) -> bool {
        assert!(key <= MAX_KEY, "key {key:#x} collides with the EMPTY sentinel");
        let leaf = self.leaf_for(key);
        let start = leaf * self.geom.seg_len;
        let count = self.leaf_counts[leaf] as usize;

        // Modification fast path.
        for i in start..start + count {
            if self.keys[i] == key {
                self.vals[i] = val;
                return false;
            }
            if self.keys[i] > key {
                break;
            }
        }

        if self.density.within_tau(count + 1, self.geom.seg_len, 0, self.geom.height())
            && count < self.geom.seg_len
        {
            // In-leaf insert: shift the tail right by one.
            let mut pos = start;
            while pos < start + count && self.keys[pos] < key {
                pos += 1;
            }
            for i in (pos..start + count).rev() {
                self.keys[i + 1] = self.keys[i];
                self.vals[i + 1] = self.vals[i];
            }
            self.keys[pos] = key;
            self.vals[pos] = val;
            self.leaf_counts[leaf] += 1;
            if key > self.leaf_maxes[leaf] {
                self.set_leaf_max(leaf, key);
            }
            self.len += 1;
            return true;
        }

        // Leaf is too dense: find the nearest ancestor window that can
        // absorb the insertion, or grow at the root (Figure 3).
        self.insert_with_rebalance(leaf, key, val);
        self.len += 1;
        true
    }

    fn insert_with_rebalance(&mut self, leaf: usize, key: u64, val: V) {
        let height = self.geom.height();
        for level in 1..=height {
            let window = self.geom.window_of(leaf, level);
            let count: usize = self.window_count(&window);
            let cap = window.len();
            if self.density.within_tau(count + 1, cap, level, height) {
                let entries = self.collect_with_insert(window.clone(), key, val);
                self.redistribute_into(window, entries.into_iter());
                return;
            }
        }
        // Root cannot absorb it: double the capacity (possibly repeatedly —
        // a single doubling always suffices for one insertion unless the
        // array is tiny).
        self.grow_and_insert(key, val);
    }

    fn grow_and_insert(&mut self, key: u64, val: V) {
        let mut entries: Vec<(u64, V)> = self.iter().collect();
        let pos = entries.partition_point(|&(k, _)| k < key);
        entries.insert(pos, (key, val));
        let mut new_cap = self.capacity() * 2;
        loop {
            let geom = Geometry::for_capacity(new_cap);
            let height = geom.height();
            if self
                .density
                .within_tau(entries.len(), geom.capacity(), height, height)
            {
                self.stats.grows += 1;
                self.reshape(geom, &entries);
                return;
            }
            new_cap *= 2;
        }
    }

    /// Remove a key. Returns `true` if it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        if self.len == 0 {
            return false;
        }
        let leaf = self.leaf_for(key);
        let start = leaf * self.geom.seg_len;
        let count = self.leaf_counts[leaf] as usize;
        let mut found = None;
        for i in start..start + count {
            if self.keys[i] == key {
                found = Some(i);
                break;
            }
            if self.keys[i] > key {
                return false;
            }
        }
        let Some(pos) = found else { return false };

        // Shift left within the leaf.
        for i in pos..start + count - 1 {
            self.keys[i] = self.keys[i + 1];
            self.vals[i] = self.vals[i + 1];
        }
        self.keys[start + count - 1] = EMPTY;
        self.leaf_counts[leaf] -= 1;
        let new_count = count - 1;
        let new_max = if new_count > 0 {
            self.keys[start + new_count - 1]
        } else if leaf > 0 {
            self.leaf_maxes[leaf - 1]
        } else {
            0
        };
        self.set_leaf_max(leaf, new_max);
        self.len -= 1;

        let height = self.geom.height();
        if !self.density.within_rho(new_count, self.geom.seg_len, 0, height) {
            self.delete_rebalance(leaf);
        }
        true
    }

    fn delete_rebalance(&mut self, leaf: usize) {
        let height = self.geom.height();
        for level in 1..=height {
            let window = self.geom.window_of(leaf, level);
            let count = self.window_count(&window);
            let cap = window.len();
            if self.density.within_rho(count, cap, level, height) {
                let entries: Vec<(u64, V)> = self.collect_window(window.clone());
                self.redistribute_into(window, entries.into_iter());
                return;
            }
        }
        // Root underflow: shrink if we can.
        let min_cap = Geometry::for_capacity(8).capacity();
        if self.capacity() > min_cap {
            let entries: Vec<(u64, V)> = self.iter().collect();
            let geom = Geometry::for_capacity((self.capacity() / 2).max(min_cap));
            self.stats.shrinks += 1;
            self.reshape(geom, &entries);
        }
        // Else: a near-empty minimal array is allowed to be sparse.
    }

    // ------------------------------------------------------------------
    // Redistribution machinery
    // ------------------------------------------------------------------

    fn window_count(&self, window: &std::ops::Range<usize>) -> usize {
        let first_leaf = window.start / self.geom.seg_len;
        let leaves = window.len() / self.geom.seg_len;
        (first_leaf..first_leaf + leaves)
            .map(|l| self.leaf_counts[l] as usize)
            .sum()
    }

    fn collect_window(&self, window: std::ops::Range<usize>) -> Vec<(u64, V)> {
        let mut out = Vec::with_capacity(self.window_count(&window));
        let first_leaf = window.start / self.geom.seg_len;
        let leaves = window.len() / self.geom.seg_len;
        for l in first_leaf..first_leaf + leaves {
            let s = l * self.geom.seg_len;
            for i in s..s + self.leaf_counts[l] as usize {
                out.push((self.keys[i], self.vals[i]));
            }
        }
        out
    }

    fn collect_with_insert(
        &self,
        window: std::ops::Range<usize>,
        key: u64,
        val: V,
    ) -> Vec<(u64, V)> {
        let mut entries = self.collect_window(window);
        let pos = entries.partition_point(|&(k, _)| k < key);
        entries.insert(pos, (key, val));
        entries
    }

    /// Evenly distribute `entries` (sorted) over the leaves of `window`,
    /// left-packing each leaf. Updates counts and maxes.
    fn redistribute_into(
        &mut self,
        window: std::ops::Range<usize>,
        entries: impl Iterator<Item = (u64, V)>,
    ) {
        let entries: Vec<(u64, V)> = entries.collect();
        let first_leaf = window.start / self.geom.seg_len;
        let leaves = window.len() / self.geom.seg_len;
        debug_assert!(entries.len() <= window.len());

        self.stats.rebalances += 1;
        self.stats.slots_moved += window.len() as u64;
        self.last_rebalance = Some(window.clone());

        self.keys[window.clone()].fill(EMPTY);
        let base = entries.len() / leaves;
        let extra = entries.len() % leaves;
        let mut it = entries.into_iter();
        for j in 0..leaves {
            let leaf = first_leaf + j;
            let take = base + usize::from(j < extra);
            let start = leaf * self.geom.seg_len;
            let mut max = if leaf > 0 { self.leaf_maxes[leaf - 1] } else { 0 };
            for i in 0..take {
                let (k, v) = it.next().expect("entry count mismatch");
                self.keys[start + i] = k;
                self.vals[start + i] = v;
                max = k;
            }
            self.leaf_counts[leaf] = take as u32;
            self.leaf_maxes[leaf] = max;
        }
        // Propagate the final max through trailing empty leaves.
        self.fix_inherited_maxes(first_leaf + leaves);
    }

    fn set_leaf_max(&mut self, leaf: usize, max: u64) {
        self.leaf_maxes[leaf] = max;
        self.fix_inherited_maxes(leaf + 1);
    }

    /// Re-propagate inherited maxes for empty leaves starting at `from`.
    fn fix_inherited_maxes(&mut self, from: usize) {
        for l in from..self.geom.num_segs {
            if self.leaf_counts[l] > 0 {
                break;
            }
            let inherited = if l > 0 { self.leaf_maxes[l - 1] } else { 0 };
            if self.leaf_maxes[l] == inherited {
                break;
            }
            self.leaf_maxes[l] = inherited;
        }
    }

    fn reshape(&mut self, geom: Geometry, entries: &[(u64, V)]) {
        let cap = geom.capacity();
        self.keys = vec![EMPTY; cap];
        self.vals = vec![V::default(); cap];
        self.leaf_counts = vec![0; geom.num_segs];
        self.leaf_maxes = vec![0; geom.num_segs];
        self.geom = geom;
        self.redistribute_into(0..cap, entries.iter().copied());
    }

    // ------------------------------------------------------------------
    // Iteration
    // ------------------------------------------------------------------

    /// All entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(k, _)| **k != EMPTY)
            .map(|(k, v)| (*k, *v))
    }

    /// Entries with `lo <= key < hi`, in key order.
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, V)> + '_ {
        let start = self.lower_bound(lo);
        self.keys[start..]
            .iter()
            .zip(self.vals[start..].iter())
            .filter(|(k, _)| **k != EMPTY)
            .take_while(move |(k, _)| **k < hi)
            .map(|(k, v)| (*k, *v))
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests / debug builds)
    // ------------------------------------------------------------------

    /// Verify every structural invariant; panics with a description on
    /// violation. Used heavily by property tests.
    pub fn check_invariants(&self) {
        // Sortedness across non-empty slots.
        let mut prev: Option<u64> = None;
        for &k in &self.keys {
            if k == EMPTY {
                continue;
            }
            if let Some(p) = prev {
                assert!(p < k, "keys out of order: {p} !< {k}");
            }
            prev = Some(k);
        }
        // Left-packing and per-leaf counts.
        let mut total = 0usize;
        for l in 0..self.geom.num_segs {
            let s = l * self.geom.seg_len;
            let c = self.leaf_counts[l] as usize;
            total += c;
            for i in 0..self.geom.seg_len {
                let occupied = self.keys[s + i] != EMPTY;
                assert_eq!(occupied, i < c, "leaf {l} not left-packed at slot {i}");
            }
            if c > 0 {
                assert_eq!(
                    self.leaf_maxes[l],
                    self.keys[s + c - 1],
                    "leaf {l} max stale"
                );
            }
        }
        assert_eq!(total, self.len, "len out of sync");
        // leaf_maxes non-decreasing.
        for w in self.leaf_maxes.windows(2) {
            assert!(w[0] <= w[1], "leaf maxes not monotone");
        }
    }
}

impl<V: Copy + Default + std::fmt::Debug> std::fmt::Debug for Pma<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pma")
            .field("len", &self.len)
            .field("capacity", &self.capacity())
            .field("seg_len", &self.geom.seg_len)
            .finish()
    }
}
