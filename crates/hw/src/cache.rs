//! The Gaussian Reuse Cache (Sec. V-D).
//!
//! Input Gaussian features are read once per (tile, Gaussian) instance by
//! the tile engine. Because the D&B engine knows every tile a Gaussian
//! intersects *before* rendering starts, the access sequence — and hence
//! every feature's *reuse distance* (the number of tiles until its next
//! access) — can be precomputed. The cache exploits this with a
//! Belady-style replacement policy (Fig. 12): on a miss, evict the line
//! whose next use is farthest in the future; on a hit, update the line's
//! RD field to its next precomputed use.
//!
//! LRU and FIFO policies are provided for the ablation comparison; the
//! property tests check that reuse-distance replacement never does worse
//! than either on the same trace (it is the offline-optimal policy).
//!
//! The hardware picks a victim with a comparator array over every line's
//! RD field. The model keeps the lines in a binary heap on the same
//! order, so a miss costs O(log n) rather than a scan of all 1,365 lines
//! of the 32 KiB cache, and it picks the same victim, ties included: the
//! largest next use (the oldest stamp for LRU and FIFO), the lowest line
//! index among equals. `crates/hw/tests/cache_reference.rs` pins it to
//! the linear scan. Gaussian ids are splat indices, so the line of each
//! id and the next-use scan are dense vectors.

/// Replacement policy of the feature cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Precomputed reuse distance (the paper's policy; offline optimal).
    ReuseDistance,
    /// Least recently used.
    Lru,
    /// First in, first out.
    Fifo,
}

/// Access statistics of a cache simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses (= DRAM feature fetches).
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1] (0 for an empty trace).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.hits as f64 / self.accesses as f64
    }
}

/// `line_of` entry of a Gaussian that holds no line.
const NO_LINE: u32 = u32::MAX;

/// A set-less (fully associative) feature cache, as the paper's small
/// capacity and comparator-array replacement imply.
#[derive(Debug)]
pub struct GaussianReuseCache {
    policy: Policy,
    capacity: usize,
    /// Line of each Gaussian id, or [`NO_LINE`].
    line_of: Vec<u32>,
    /// Gaussian id held by each line.
    gaussian: Vec<u32>,
    /// Every line as (eviction key, line), a binary max-heap in eviction
    /// order with the victim at the root: the larger key first, the
    /// lower line among equal keys. The key is the next-use position
    /// (ReuseDistance) or `u64::MAX` minus the last-use stamp (LRU) or
    /// the insertion stamp (FIFO).
    heap: Vec<(u64, u32)>,
    /// Heap slot of each line.
    slot: Vec<u32>,
    stamp: u64,
    stats: CacheStats,
}

/// Whether heap entry `a` is evicted before `b`.
#[inline]
fn evicts_first(a: (u64, u32), b: (u64, u32)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl GaussianReuseCache {
    /// Creates a cache with space for `capacity` feature lines, for
    /// Gaussian ids below `ids` (the splat count).
    ///
    /// A zero capacity is allowed and models the "0 KB" point of Fig. 17
    /// (every access misses).
    pub fn new(capacity: usize, policy: Policy, ids: usize) -> Self {
        Self {
            policy,
            capacity,
            line_of: vec![NO_LINE; ids],
            gaussian: Vec::new(),
            heap: Vec::new(),
            slot: Vec::new(),
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Simulates one access to `gaussian`'s features.
    ///
    /// `next_use` is the precomputed position (global tile counter value)
    /// of this Gaussian's *next* access, or `u64::MAX` when it is never
    /// accessed again — only meaningful under [`Policy::ReuseDistance`].
    /// Returns `true` on a hit.
    ///
    /// # Panics
    ///
    /// When `gaussian` is not below the cache's `ids`.
    pub fn access(&mut self, gaussian: u32, next_use: u64) -> bool {
        self.stamp += 1;
        self.stats.accesses += 1;
        let key = match self.policy {
            Policy::ReuseDistance => next_use,
            Policy::Lru | Policy::Fifo => u64::MAX - self.stamp,
        };
        let line = self.line_of[gaussian as usize];
        if line != NO_LINE {
            self.stats.hits += 1;
            // Step 4 (Fig. 12): update the RD field on a hit (or the LRU
            // stamp); FIFO leaves the insertion stamp untouched.
            if self.policy != Policy::Fifo {
                self.rekey(line, key);
            }
            return true;
        }
        self.stats.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        if self.gaussian.len() < self.capacity {
            let line = self.gaussian.len() as u32;
            self.line_of[gaussian as usize] = line;
            self.gaussian.push(gaussian);
            self.slot.push(line);
            self.heap.push((key, line));
            self.sift_up(line as usize);
            return false;
        }
        // Steps 2-3 (Fig. 12): compare & select the victim, then load &
        // replace. ReuseDistance evicts the max next-use; LRU/FIFO evict
        // the min stamp.
        let (victim_key, victim) = self.heap[0];
        // Bypass optimisation for the optimal policy: if the incoming
        // line's next use is farther than every resident line's, caching
        // it cannot help — keep the resident set (Belady allows bypass).
        if self.policy == Policy::ReuseDistance && next_use > victim_key {
            return false;
        }
        let old = std::mem::replace(&mut self.gaussian[victim as usize], gaussian);
        self.line_of[old as usize] = NO_LINE;
        self.line_of[gaussian as usize] = victim;
        self.rekey(victim, key);
        false
    }

    /// Gives `line` eviction key `key` and restores the heap order.
    fn rekey(&mut self, line: u32, key: u64) {
        let i = self.slot[line as usize] as usize;
        let old = std::mem::replace(&mut self.heap[i].0, key);
        if key > old {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    fn place(&mut self, i: usize, entry: (u64, u32)) {
        self.heap[i] = entry;
        self.slot[entry.1 as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !evicts_first(entry, self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    fn sift_down(&mut self, mut i: usize) {
        let (entry, n) = (self.heap[i], self.heap.len());
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && evicts_first(self.heap[child + 1], self.heap[child]) {
                child += 1;
            }
            if !evicts_first(self.heap[child], entry) {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
    }
}

/// One past the largest Gaussian id of `trace` (0 when empty).
fn id_bound(trace: &[u32]) -> usize {
    trace.iter().max().map_or(0, |&g| g as usize + 1)
}

/// Precomputes, for an access trace, the position of each access's *next*
/// occurrence (`u64::MAX` when none) — the reuse-distance metadata the D&B
/// engine attaches to its per-tile Gaussian lists (Fig. 12(a)).
pub fn next_use_positions(trace: &[u32]) -> Vec<u64> {
    let mut next = vec![u64::MAX; id_bound(trace)];
    let mut out = vec![u64::MAX; trace.len()];
    for (i, &g) in trace.iter().enumerate().rev() {
        out[i] = std::mem::replace(&mut next[g as usize], i as u64);
    }
    out
}

/// Runs a full trace through a cache and returns the statistics.
pub fn simulate_trace(trace: &[u32], capacity: usize, policy: Policy) -> CacheStats {
    let next = next_use_positions(trace);
    let mut cache = GaussianReuseCache::new(capacity, policy, id_bound(trace));
    for (i, &g) in trace.iter().enumerate() {
        cache.access(g, next[i]);
    }
    cache.stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_use_positions_basic() {
        let trace = [1u32, 2, 1, 3, 2, 1];
        let next = next_use_positions(&trace);
        assert_eq!(next, vec![2, 4, 5, u64::MAX, u64::MAX, u64::MAX]);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let trace = [1u32, 1, 1, 1];
        let s = simulate_trace(&trace, 0, Policy::ReuseDistance);
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 4);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn repeated_access_hits() {
        let trace = [7u32; 10];
        for policy in [Policy::ReuseDistance, Policy::Lru, Policy::Fifo] {
            let s = simulate_trace(&trace, 1, policy);
            assert_eq!(s.hits, 9, "{policy:?}");
            assert_eq!(s.misses, 1);
        }
    }

    #[test]
    fn belady_beats_lru_on_cyclic_trace() {
        // The classic LRU-pathological cyclic trace over capacity+1 keys:
        // LRU gets zero hits; Belady keeps part of the working set.
        let trace: Vec<u32> = (0..60).map(|i| i % 4).collect();
        let lru = simulate_trace(&trace, 3, Policy::Lru);
        let opt = simulate_trace(&trace, 3, Policy::ReuseDistance);
        assert_eq!(lru.hits, 0, "LRU thrashes on a cyclic trace");
        assert!(opt.hits > 30, "optimal keeps most of the set: {} hits", opt.hits);
    }

    #[test]
    fn optimal_matches_brute_force_on_small_trace() {
        // Exhaustively verify against the textbook Belady count on a
        // hand-checked trace (capacity 3):
        // 1 2 3 4 1 2 5 1 2 3 4 5  -> OPT has 5 hits (7 misses).
        let trace = [1u32, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];
        let s = simulate_trace(&trace, 3, Policy::ReuseDistance);
        assert_eq!(s.misses, 7, "Belady's canonical example");
        assert_eq!(s.hits, 5);
    }

    #[test]
    fn fifo_ignores_recency() {
        // After filling, FIFO evicts the oldest insertion even if it was
        // just used.
        let trace = [1u32, 2, 3, 1, 4, 1];
        // cap 3: [1,2,3]; access 1 -> hit; 4 evicts 1 (oldest); 1 -> miss.
        let s = simulate_trace(&trace, 3, Policy::Fifo);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 5);
    }

    #[test]
    fn lru_respects_recency() {
        let trace = [1u32, 2, 3, 1, 4, 1];
        // cap 3: [1,2,3]; 1 hit; 4 evicts 2 (LRU); 1 -> hit.
        let s = simulate_trace(&trace, 3, Policy::Lru);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn hit_rate_monotone_in_capacity_for_optimal() {
        // Fig. 17's shape: larger caches never hurt under the optimal
        // policy (stack property of OPT).
        let trace: Vec<u32> = (0..500u32).map(|i| (i * 17 + i * i / 7) % 97).collect();
        let mut last = 0.0;
        for cap in [0usize, 8, 16, 32, 64, 97] {
            let r = simulate_trace(&trace, cap, Policy::ReuseDistance).hit_rate();
            assert!(r >= last - 1e-12, "hit rate dropped at capacity {cap}");
            last = r;
        }
        // Beyond the working set, the rate saturates at compulsory misses.
        let full = simulate_trace(&trace, 97, Policy::ReuseDistance);
        let bigger = simulate_trace(&trace, 200, Policy::ReuseDistance);
        assert_eq!(full.hits, bigger.hits);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = GaussianReuseCache::new(2, Policy::Lru, 2);
        assert!(!c.access(1, u64::MAX));
        assert!(c.access(1, u64::MAX));
        let s = c.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.hits, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }
}
