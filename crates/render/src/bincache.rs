//! View-coherence bin cache: incremental Step-❷ re-binning.
//!
//! Successive frames of one session differ by a small camera motion, so
//! most splats keep the exact tile footprint they had last frame — the
//! GBU paper's tile-engine reuse cache exploits the same coherence in
//! hardware. [`BinCache`] keeps per-tile membership lists from the
//! previous frame and, when the camera moved less than a configurable
//! threshold, diffs each splat's tile rectangle against the cached one
//! instead of re-emitting and radix-sorting every (splat, tile) pair.
//!
//! # Bit-identity
//!
//! The output is bit-identical to cold [`crate::binning::bin_splats`] —
//! not approximately, unconditionally. Cold binning radix-sorts pairs by
//! `(tile, depth_bits)` with a stable sort, and pairs are emitted in
//! increasing splat-index order with each splat appearing at most once
//! per tile; therefore a tile's cold entry list is exactly its member
//! set sorted by `(float_to_ordered_bits(depth), splat_index)`. The
//! incremental path maintains the member sets from footprint diffs and
//! re-sorts violated tiles by that same key, so it reproduces the cold
//! list for *any* camera delta. The `max_camera_delta` threshold is a
//! performance heuristic (large motion retiles too many splats for the
//! diff to win), never a correctness condition — the equivalence
//! proptests deliberately force the incremental path across large jumps.
//!
//! The only structural requirement is an unchanged splat count; a
//! mutated scene (dynamic/avatar updates) changes counts or must call
//! [`BinCache::invalidate`], both of which fall back to cold binning.

use crate::binning::{self, TileBins};
use crate::preprocess::ProjectedBounds;
use crate::scratch::BinScratch;
use crate::splat::Splat2D;
use crate::stats::BinningStats;
use gbu_math::sort;
use gbu_par::ThreadPool;
use gbu_scene::Camera;

/// Inclusive tile rectangle of one splat, `None` if off-grid.
type TileRange = Option<(u32, u32, u32, u32)>;

/// Tuning knobs for [`BinCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinCacheConfig {
    /// Maximum elementwise |Δ| of the camera's `world_to_camera` matrix
    /// for which the incremental path is attempted; larger motion falls
    /// back to cold binning. Purely a performance heuristic — see the
    /// module docs for why correctness never depends on it.
    pub max_camera_delta: f32,
}

impl Default for BinCacheConfig {
    fn default() -> Self {
        Self { max_camera_delta: 0.05 }
    }
}

/// Reuse counters, exposed via [`BinCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinCacheCounters {
    /// Calls served by the incremental path.
    pub hits: u64,
    /// Calls that fell back to cold binning (first frame, big motion,
    /// changed splat count / grid, or after [`BinCache::invalidate`]).
    pub misses: u64,
    /// Explicit invalidations (scene mutation).
    pub invalidations: u64,
    /// Tiles whose member list needed re-sorting on incremental calls.
    pub resorted_tiles: u64,
    /// (splat, tile) memberships added or removed by footprint diffs.
    pub retiled_instances: u64,
}

struct CacheState {
    camera: Camera,
    tile_size: u32,
    tiles_x: u32,
    tiles_y: u32,
    /// Last-frame tile rectangle per splat index.
    ranges: Vec<TileRange>,
    /// Per-tile member lists, each kept in cold-binning order.
    tiles: Vec<Vec<u32>>,
}

/// Incremental tile-binning cache for a single view stream.
#[derive(Default)]
pub struct BinCache {
    cfg: BinCacheConfig,
    state: Option<CacheState>,
    counters: BinCacheCounters,
}

impl std::fmt::Debug for BinCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinCache")
            .field("cfg", &self.cfg)
            .field("primed", &self.state.is_some())
            .field("counters", &self.counters)
            .finish()
    }
}

fn range_contains(r: TileRange, tx: u32, ty: u32) -> bool {
    matches!(r, Some((x0, y0, x1, y1)) if tx >= x0 && tx <= x1 && ty >= y0 && ty <= y1)
}

/// The per-tile ordering key cold binning induces: stable radix sort
/// over pairs emitted in splat-index order ⇒ `(depth_bits, index)`.
fn entry_key(splats: &[Splat2D], e: u32) -> u64 {
    (u64::from(sort::float_to_ordered_bits(splats[e as usize].depth)) << 32) | u64::from(e)
}

impl BinCache {
    /// A cache with the given tuning; starts cold.
    pub fn new(cfg: BinCacheConfig) -> Self {
        Self { cfg, state: None, counters: BinCacheCounters::default() }
    }

    /// Reuse counters so far.
    pub fn stats(&self) -> BinCacheCounters {
        self.counters
    }

    /// Drops the cached state — call on any scene mutation (dynamic or
    /// avatar updates). The next [`Self::bin_pooled`] runs cold and
    /// re-primes.
    pub fn invalidate(&mut self) {
        if self.state.take().is_some() {
            self.counters.invalidations += 1;
            let recorder = gbu_telemetry::global();
            if recorder.is_enabled() {
                recorder.counter("bin_cache.invalidations").add(1);
            }
        }
    }

    /// Bins `splats` exactly like [`binning::bin_splats`], incrementally
    /// when the cached previous frame is close enough to diff against,
    /// on `pool` and optionally reusing Step ❶'s carried
    /// [`ProjectedBounds`]: cold frames run the parallel bounds-aware
    /// [`binning::bin_into`], incremental frames diff footprints from the
    /// carried per-splat bounds and re-sort violated tiles across the
    /// pool. All four combinations (pool size × bounds presence) are
    /// bit-identical (pinned by `tests/binning_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is present but does not match `splats`.
    pub fn bin_pooled(
        &mut self,
        pool: &ThreadPool,
        splats: &[Splat2D],
        bounds: Option<&ProjectedBounds>,
        camera: &Camera,
        tile_size: u32,
    ) -> (TileBins, BinningStats) {
        if let Some(pb) = bounds {
            assert_eq!(pb.splats.len(), splats.len(), "bounds/splat list length mismatch");
        }
        let recorder = gbu_telemetry::global();
        let incremental = self.state.as_ref().is_some_and(|s| {
            s.tile_size == tile_size
                && s.ranges.len() == splats.len()
                && self.camera_close(&s.camera, camera)
        });
        let out = if incremental {
            self.counters.hits += 1;
            if recorder.is_enabled() {
                recorder.counter("bin_cache.hits").add(1);
            }
            let _span = recorder.wall_span("rebin_incremental", gbu_telemetry::Labels::default());
            self.rebin(pool, splats, bounds, camera, tile_size)
        } else {
            self.counters.misses += 1;
            if recorder.is_enabled() {
                recorder.counter("bin_cache.misses").add(1);
            }
            self.cold(pool, splats, bounds, camera, tile_size)
        };
        if recorder.is_enabled() {
            let total = (self.counters.hits + self.counters.misses).max(1);
            recorder.gauge("bin_cache.hit_rate_pct").set(self.counters.hits * 100 / total);
        }
        out
    }

    /// Whether the incremental path should even be attempted: same
    /// resolution/intrinsics (so the tile grid matches) and extrinsics
    /// within the configured motion threshold.
    fn camera_close(&self, prev: &Camera, next: &Camera) -> bool {
        if prev.width != next.width
            || prev.height != next.height
            || prev.fx != next.fx
            || prev.fy != next.fy
            || prev.cx != next.cx
            || prev.cy != next.cy
            || prev.near != next.near
        {
            return false;
        }
        let mut delta = 0.0f32;
        for (pr, nr) in prev.world_to_camera.rows.iter().zip(next.world_to_camera.rows.iter()) {
            for (p, n) in pr.iter().zip(nr.iter()) {
                delta = delta.max((p - n).abs());
            }
        }
        delta <= self.cfg.max_camera_delta
    }

    fn cold(
        &mut self,
        pool: &ThreadPool,
        splats: &[Splat2D],
        bounds: Option<&ProjectedBounds>,
        camera: &Camera,
        tile_size: u32,
    ) -> (TileBins, BinningStats) {
        let mut bins =
            TileBins { tile_size, tiles_x: 0, tiles_y: 0, offsets: vec![], entries: vec![] };
        let stats = binning::bin_into(
            pool,
            splats,
            bounds,
            camera,
            tile_size,
            &mut BinScratch::new(),
            &mut bins,
        );
        // Carried bounds give the same ranges the conic re-derivation
        // would (`from_conic` is pure), just without the per-splat math.
        let ranges = match bounds {
            Some(pb) => pb
                .splats
                .iter()
                .map(|b| b.tile_range(tile_size, bins.tiles_x, bins.tiles_y))
                .collect(),
            None => splats
                .iter()
                .map(|s| binning::splat_tile_range(s, tile_size, bins.tiles_x, bins.tiles_y))
                .collect(),
        };
        let tiles = (0..bins.tile_count()).map(|t| bins.entries_of(t).to_vec()).collect();
        self.state = Some(CacheState {
            camera: camera.clone(),
            tile_size,
            tiles_x: bins.tiles_x,
            tiles_y: bins.tiles_y,
            ranges,
            tiles,
        });
        (bins, stats)
    }

    fn rebin(
        &mut self,
        pool: &ThreadPool,
        splats: &[Splat2D],
        bounds: Option<&ProjectedBounds>,
        camera: &Camera,
        tile_size: u32,
    ) -> (TileBins, BinningStats) {
        let state = self.state.as_mut().expect("rebin requires primed state");
        let tiles_x = state.tiles_x;
        let tiles_y = state.tiles_y;

        // Phase 1: diff each splat's tile footprint; move memberships
        // only across the symmetric difference of old and new rects.
        let mut retiled = 0u64;
        for (i, s) in splats.iter().enumerate() {
            let next = match bounds {
                Some(pb) => pb.splats[i].tile_range(tile_size, tiles_x, tiles_y),
                None => binning::splat_tile_range(s, tile_size, tiles_x, tiles_y),
            };
            let prev = state.ranges[i];
            if next == prev {
                continue;
            }
            if let Some((x0, y0, x1, y1)) = prev {
                for ty in y0..=y1 {
                    for tx in x0..=x1 {
                        if !range_contains(next, tx, ty) {
                            let t = (ty * tiles_x + tx) as usize;
                            state.tiles[t].retain(|&e| e != i as u32);
                            retiled += 1;
                        }
                    }
                }
            }
            if let Some((x0, y0, x1, y1)) = next {
                for ty in y0..=y1 {
                    for tx in x0..=x1 {
                        if !range_contains(prev, tx, ty) {
                            let t = (ty * tiles_x + tx) as usize;
                            state.tiles[t].push(i as u32);
                            retiled += 1;
                        }
                    }
                }
            }
            state.ranges[i] = next;
        }

        // Phase 2: depths changed for every splat, so verify each tile's
        // (depth_bits, index) order and re-sort only the violated ones —
        // under small motion relative order rarely flips. Tiles are
        // independent, so the checks/re-sorts fan out over the pool
        // (each tile's sort is deterministic: the keys are unique), with
        // per-worker violation counts summed after the barrier.
        let mut resort_counts = vec![0u64; pool.threads().max(1)];
        pool.for_each_mut_with(&mut resort_counts, &mut state.tiles, |count, _t, list| {
            let sorted = list
                .iter()
                .zip(list.iter().skip(1))
                .all(|(a, b)| entry_key(splats, *a) <= entry_key(splats, *b));
            if !sorted {
                list.sort_unstable_by_key(|&e| entry_key(splats, e));
                *count += 1;
            }
        });
        let resorted: u64 = resort_counts.iter().sum();
        let mut total_entries = 0usize;
        let mut occupied = 0u64;
        for list in &state.tiles {
            total_entries += list.len();
            occupied += u64::from(!list.is_empty());
        }
        self.counters.retiled_instances += retiled;
        self.counters.resorted_tiles += resorted;
        state.camera = camera.clone();

        // Flatten the member lists back into CSR form.
        let tile_count = state.tiles.len();
        let mut offsets = vec![0usize; tile_count + 1];
        let mut entries = Vec::with_capacity(total_entries);
        for (t, list) in state.tiles.iter().enumerate() {
            entries.extend_from_slice(list);
            offsets[t + 1] = entries.len();
        }
        let stats = BinningStats {
            instances: total_entries as u64,
            sort_passes: 0,
            occupied_tiles: occupied,
            total_tiles: tile_count as u64,
        };
        (TileBins { tile_size, tiles_x, tiles_y, offsets, entries }, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::project_scene;
    use gbu_math::Vec3;
    use gbu_par::global;
    use gbu_scene::{Gaussian3D, GaussianScene};

    fn scene(n: usize) -> GaussianScene {
        (0..n)
            .map(|i| {
                let a = i as f32 * 0.61;
                Gaussian3D::isotropic(
                    Vec3::new(a.cos() * 0.6, a.sin() * 0.5, 0.2 * (i % 5) as f32 - 0.4),
                    0.05 + 0.01 * (i % 3) as f32,
                    Vec3::splat(0.7),
                    0.8,
                )
            })
            .collect()
    }

    fn cam(yaw: f32) -> Camera {
        Camera::orbit(128, 96, 0.9, Vec3::ZERO, 3.0, yaw, 0.12)
    }

    fn assert_same(a: &(TileBins, BinningStats), b: &(TileBins, BinningStats)) {
        assert_eq!(a.0.offsets, b.0.offsets);
        assert_eq!(a.0.entries, b.0.entries);
        assert_eq!(a.1.instances, b.1.instances);
        assert_eq!(a.1.occupied_tiles, b.1.occupied_tiles);
        assert_eq!(a.1.total_tiles, b.1.total_tiles);
    }

    #[test]
    fn first_call_is_cold_then_hits() {
        let s = scene(40);
        let mut cache = BinCache::default();
        for (step, yaw) in [0.0f32, 0.004, 0.008, 0.012].into_iter().enumerate() {
            let camera = cam(yaw);
            let (splats, _) = project_scene(&s, &camera);
            let cached = cache.bin_pooled(global(), &splats, None, &camera, 16);
            let cold = binning::bin_splats(&splats, &camera, 16);
            assert_same(&cached, &cold);
            let st = cache.stats();
            assert_eq!(st.misses, 1, "only the first call should miss");
            assert_eq!(st.hits, step as u64);
        }
    }

    #[test]
    fn incremental_matches_cold_even_on_large_jump() {
        // Force the incremental path across a huge camera jump: output
        // must still be bit-identical (the threshold is perf-only).
        let s = scene(60);
        let mut cache = BinCache::new(BinCacheConfig { max_camera_delta: f32::INFINITY });
        let c0 = cam(0.0);
        let (sp0, _) = project_scene(&s, &c0);
        cache.bin_pooled(global(), &sp0, None, &c0, 16);
        let c1 = cam(1.7);
        let (sp1, _) = project_scene(&s, &c1);
        let cached = cache.bin_pooled(global(), &sp1, None, &c1, 16);
        let cold = binning::bin_splats(&sp1, &c1, 16);
        assert_same(&cached, &cold);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn large_motion_falls_back_to_cold_by_default() {
        let s = scene(30);
        let mut cache = BinCache::default();
        let c0 = cam(0.0);
        let (sp0, _) = project_scene(&s, &c0);
        cache.bin_pooled(global(), &sp0, None, &c0, 16);
        let c1 = cam(2.0);
        let (sp1, _) = project_scene(&s, &c1);
        cache.bin_pooled(global(), &sp1, None, &c1, 16);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn splat_count_change_falls_back_to_cold() {
        let mut cache = BinCache::new(BinCacheConfig { max_camera_delta: f32::INFINITY });
        let c = cam(0.0);
        let (sp, _) = project_scene(&scene(30), &c);
        cache.bin_pooled(global(), &sp, None, &c, 16);
        let (sp2, _) = project_scene(&scene(31), &c);
        let cached = cache.bin_pooled(global(), &sp2, None, &c, 16);
        let cold = binning::bin_splats(&sp2, &c, 16);
        assert_same(&cached, &cold);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn invalidate_forces_cold_and_counts() {
        let s = scene(30);
        let mut cache = BinCache::default();
        let c = cam(0.0);
        let (sp, _) = project_scene(&s, &c);
        cache.bin_pooled(global(), &sp, None, &c, 16);
        cache.invalidate();
        cache.invalidate(); // second is a no-op: already cold
        let cached = cache.bin_pooled(global(), &sp, None, &c, 16);
        let cold = binning::bin_splats(&sp, &c, 16);
        assert_same(&cached, &cold);
        let st = cache.stats();
        assert_eq!(st.invalidations, 1);
        assert_eq!(st.misses, 2);
    }

    #[test]
    fn tile_size_change_falls_back_to_cold() {
        let s = scene(30);
        let mut cache = BinCache::new(BinCacheConfig { max_camera_delta: f32::INFINITY });
        let c = cam(0.0);
        let (sp, _) = project_scene(&s, &c);
        cache.bin_pooled(global(), &sp, None, &c, 16);
        let cached = cache.bin_pooled(global(), &sp, None, &c, 8);
        let cold = binning::bin_splats(&sp, &c, 8);
        assert_same(&cached, &cold);
        assert_eq!(cache.stats().misses, 2);
    }
}
