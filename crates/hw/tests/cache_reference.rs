//! The Gaussian Reuse Cache against references written the plain way: a
//! cache that scans every line for its victim, as Fig. 12's comparator
//! array does, and maps ids through a `HashMap`; and a next-use scan that
//! looks forward from each access. The heap-ordered cache must give the
//! same hit or miss on every access and the same final `CacheStats`, for
//! every policy and capacity, on `next_use_positions` sequences and on
//! arbitrary ones with ties and `u64::MAX`.

use gbu_hw::cache::{next_use_positions, CacheStats, GaussianReuseCache, Policy};
use proptest::prelude::*;
use std::collections::HashMap;

/// The comparator-array cache: a linear scan over every line picks the
/// victim, the first line among equal priorities.
struct LinearScanCache {
    policy: Policy,
    capacity: usize,
    map: HashMap<u32, usize>,
    /// (gaussian, priority) per line: next use (ReuseDistance), last-use
    /// stamp (LRU), insertion stamp (FIFO).
    lines: Vec<(u32, u64)>,
    stamp: u64,
    stats: CacheStats,
}

impl LinearScanCache {
    fn new(capacity: usize, policy: Policy) -> Self {
        Self {
            policy,
            capacity,
            map: HashMap::new(),
            lines: Vec::new(),
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, gaussian: u32, next_use: u64) -> bool {
        self.stamp += 1;
        self.stats.accesses += 1;
        let priority = match self.policy {
            Policy::ReuseDistance => next_use,
            Policy::Lru => self.stamp,
            Policy::Fifo => 0, // set on install only
        };
        if let Some(&line) = self.map.get(&gaussian) {
            self.stats.hits += 1;
            if self.policy != Policy::Fifo {
                self.lines[line].1 = priority;
            }
            return true;
        }
        self.stats.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        let install = if self.policy == Policy::Fifo { self.stamp } else { priority };
        if self.lines.len() < self.capacity {
            self.map.insert(gaussian, self.lines.len());
            self.lines.push((gaussian, install));
            return false;
        }
        let victim = match self.policy {
            Policy::ReuseDistance => {
                let mut best = 0usize;
                for (i, &(_, p)) in self.lines.iter().enumerate() {
                    if p > self.lines[best].1 {
                        best = i;
                    }
                }
                best
            }
            Policy::Lru | Policy::Fifo => {
                let mut best = 0usize;
                for (i, &(_, p)) in self.lines.iter().enumerate() {
                    if p < self.lines[best].1 {
                        best = i;
                    }
                }
                best
            }
        };
        if self.policy == Policy::ReuseDistance && next_use > self.lines[victim].1 {
            return false;
        }
        let (old, _) = self.lines[victim];
        self.map.remove(&old);
        self.map.insert(gaussian, victim);
        self.lines[victim] = (gaussian, install);
        false
    }
}

/// Each access's next occurrence, found by looking forward from it.
fn forward_scan_next_use(trace: &[u32]) -> Vec<u64> {
    (0..trace.len())
        .map(|i| {
            let later = trace[i + 1..].iter().position(|&g| g == trace[i]);
            later.map_or(u64::MAX, |d| (i + 1 + d) as u64)
        })
        .collect()
}

const POLICIES: [Policy; 3] = [Policy::ReuseDistance, Policy::Lru, Policy::Fifo];

/// Runs both caches over the same accesses, access by access.
fn assert_same(trace: &[u32], next_use: &[u64], ids: usize, capacity: usize, policy: Policy) {
    let mut cache = GaussianReuseCache::new(capacity, policy, ids);
    let mut reference = LinearScanCache::new(capacity, policy);
    for (i, (&g, &n)) in trace.iter().zip(next_use).enumerate() {
        let (got, want) = (cache.access(g, n), reference.access(g, n));
        assert_eq!(got, want, "access {i} ({g}, next {n}) at capacity {capacity}, {policy:?}");
    }
    assert_eq!(cache.stats(), reference.stats, "capacity {capacity}, {policy:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Renderer-shaped sequences: ids from a working set of `ids`, next
    /// uses from `next_use_positions`, capacities from 0 (the "0 KB"
    /// point) to past the working set (only compulsory misses).
    #[test]
    fn heap_cache_matches_the_linear_scan_on_next_use_sequences(
        ids in 1u32..48,
        raw in prop::collection::vec(0u32..1_000, 0..300),
        capacity in 0usize..56,
    ) {
        let trace: Vec<u32> = raw.iter().map(|g| g % ids).collect();
        let next = next_use_positions(&trace);
        for policy in POLICIES {
            assert_same(&trace, &next, ids as usize, capacity, policy);
        }
    }

    /// Arbitrary next uses drawn from a few values, so that many lines tie
    /// for eviction, with `u64::MAX` (never used again) among them.
    #[test]
    fn heap_cache_matches_the_linear_scan_on_arbitrary_next_uses(
        ids in 1u32..48,
        raw in prop::collection::vec((0u32..1_000, 0u64..10), 0..300),
        capacity in 0usize..56,
    ) {
        let trace: Vec<u32> = raw.iter().map(|&(g, _)| g % ids).collect();
        let next: Vec<u64> =
            raw.iter().map(|&(_, n)| if n >= 8 { u64::MAX } else { n }).collect();
        for policy in POLICIES {
            assert_same(&trace, &next, ids as usize, capacity, policy);
        }
    }

    /// The dense reverse scan finds every access's next occurrence.
    #[test]
    fn next_use_positions_matches_a_forward_scan(
        ids in 1u32..64,
        raw in prop::collection::vec(0u32..1_000, 0..300),
    ) {
        let trace: Vec<u32> = raw.iter().map(|g| g % ids).collect();
        prop_assert_eq!(next_use_positions(&trace), forward_scan_next_use(&trace));
    }
}

#[test]
fn next_use_positions_of_an_empty_trace_is_empty() {
    assert!(next_use_positions(&[]).is_empty());
}
