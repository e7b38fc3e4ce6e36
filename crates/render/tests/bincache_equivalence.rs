//! The bin cache's central guarantee, in property form: binning through
//! a [`BinCache`] is **bit-identical** to cold [`binning::bin_splats`]
//! along arbitrary camera walks — small coherent steps that stay on the
//! incremental path, large jumps forced through it (the motion threshold
//! is a performance heuristic, not a correctness condition), and scene
//! mutations that must invalidate — all the way down to the blended
//! image.

use gbu_math::Vec3;
use gbu_par::global;
use gbu_render::{binning, pipeline, BinCache, BinCacheConfig, Dataflow, RenderConfig};
use gbu_scene::{Camera, Gaussian3D, GaussianScene};
use proptest::prelude::*;

fn scene_strategy() -> impl Strategy<Value = GaussianScene> {
    proptest::collection::vec(
        (
            -0.8f32..0.8,
            -0.6f32..0.6,
            -0.8f32..0.8,
            0.02f32..0.3,
            0.0f32..1.0,
            0.0f32..1.0,
            0.0f32..1.0,
            0.05f32..0.99,
        ),
        1..40,
    )
    .prop_map(|gs| {
        gs.into_iter()
            .map(|(x, y, z, sigma, r, g, b, o)| {
                Gaussian3D::isotropic(Vec3::new(x, y, z), sigma, Vec3::new(r, g, b), o)
            })
            .collect()
    })
}

/// A random camera walk: per-step (yaw delta, pitch delta). Half the
/// steps are small coherent motion (typical head tracking) that keeps
/// the default cache on the incremental path; the rest are
/// teleport-scale jumps exercising the cold fallback (and, with an
/// infinite threshold, the incremental path under violent motion).
fn walk_strategy() -> impl Strategy<Value = Vec<(f32, f32)>> {
    proptest::collection::vec((0u32..2, -1.0f32..1.0, -1.0f32..1.0), 1..6).prop_map(|steps| {
        steps
            .into_iter()
            .map(|(kind, y, p)| if kind == 0 { (y * 0.01, p * 0.005) } else { (y * 1.5, p * 0.3) })
            .collect()
    })
}

fn orbit(yaw: f32, pitch: f32) -> Camera {
    Camera::orbit(128, 96, 0.9, Vec3::ZERO, 3.0, yaw, pitch)
}

fn assert_bins_equal(
    cached: &(binning::TileBins, gbu_render::stats::BinningStats),
    cold: &(binning::TileBins, gbu_render::stats::BinningStats),
) {
    assert_eq!(cached.0.offsets, cold.0.offsets);
    assert_eq!(cached.0.entries, cold.0.entries);
    assert_eq!(cached.1.instances, cold.1.instances);
    assert_eq!(cached.1.occupied_tiles, cold.1.occupied_tiles);
    assert_eq!(cached.1.total_tiles, cold.1.total_tiles);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cache-on equals cache-off bit-for-bit along random camera walks
    /// mixing small and large deltas — with the default threshold (cold
    /// fallback on jumps) and with the incremental path forced always —
    /// including the final blended image of both dataflows.
    #[test]
    fn cached_binning_is_bit_identical_along_walks(
        scene in scene_strategy(),
        walk in walk_strategy(),
    ) {
        let cfg = RenderConfig::default();
        for max_delta in [BinCacheConfig::default().max_camera_delta, f32::INFINITY] {
            let mut cache = BinCache::new(BinCacheConfig { max_camera_delta: max_delta });
            let (mut yaw, mut pitch) = (0.3f32, 0.1f32);
            for &(dy, dp) in std::iter::once(&(0.0, 0.0)).chain(walk.iter()) {
                yaw += dy;
                pitch += dp;
                let cam = orbit(yaw, pitch);
                let projected = pipeline::project(&scene, &cam);
                let cached = cache.bin_pooled(global(), &projected.splats, None, &cam, cfg.tile_size);
                let cold = binning::bin_splats(&projected.splats, &cam, cfg.tile_size);
                assert_bins_equal(&cached, &cold);

                let cached_frame =
                    pipeline::BinnedFrame { bins: cached.0, stats: cached.1 };
                let cold_frame = pipeline::bin(&projected, cfg.tile_size);
                for dataflow in Dataflow::all() {
                    let (img_cached, _) =
                        pipeline::blend(&projected, &cached_frame, dataflow, &cfg);
                    let (img_cold, _) =
                        pipeline::blend(&projected, &cold_frame, dataflow, &cfg);
                    prop_assert_eq!(img_cached.pixels(), img_cold.pixels());
                }
            }
        }
    }

    /// Scene mutation: after `invalidate()` the next call runs cold and
    /// matches uncached binning of the mutated scene; forgetting to
    /// invalidate is also safe whenever the splat count changes (the
    /// cache detects the mismatch and colds itself).
    #[test]
    fn mutation_invalidates_and_stays_identical(
        scene in scene_strategy(),
        extra_sigma in 0.05f32..0.25,
    ) {
        let cam = orbit(0.4, 0.1);
        let mut cache = BinCache::new(BinCacheConfig { max_camera_delta: f32::INFINITY });
        let projected = pipeline::project(&scene, &cam);
        cache.bin_pooled(global(), &projected.splats, None, &cam, 16);

        // Dynamic-scene mutation: a Gaussian is added (avatar update).
        let mutated: GaussianScene = scene
            .gaussians
            .iter()
            .cloned()
            .chain(std::iter::once(Gaussian3D::isotropic(
                Vec3::new(0.1, -0.1, 0.2),
                extra_sigma,
                Vec3::ONE,
                0.9,
            )))
            .collect();
        let projected2 = pipeline::project(&mutated, &cam);

        // Path 1: explicit invalidation.
        cache.invalidate();
        let cached = cache.bin_pooled(global(), &projected2.splats, None, &cam, 16);
        let cold = binning::bin_splats(&projected2.splats, &cam, 16);
        assert_bins_equal(&cached, &cold);
        prop_assert!(cache.stats().invalidations >= 1);

        // Path 2: no invalidation, count mismatch → automatic cold.
        let mut cache2 = BinCache::new(BinCacheConfig { max_camera_delta: f32::INFINITY });
        cache2.bin_pooled(global(), &projected.splats, None, &cam, 16);
        let cached2 = cache2.bin_pooled(global(), &projected2.splats, None, &cam, 16);
        assert_bins_equal(&cached2, &cold);
    }
}

/// Small-step walks actually hit the incremental path with the default
/// threshold — the reuse the cache exists for is exercised, not skipped.
#[test]
fn small_steps_hit_incremental_path() {
    let scene: GaussianScene = (0..50)
        .map(|i| {
            let a = i as f32 * 0.37;
            Gaussian3D::isotropic(
                Vec3::new(a.cos() * 0.6, a.sin() * 0.5, 0.1 * (i % 7) as f32 - 0.3),
                0.06,
                Vec3::splat(0.8),
                0.85,
            )
        })
        .collect();
    let mut cache = BinCache::default();
    for step in 0..5 {
        let cam = orbit(0.3 + step as f32 * 0.003, 0.1);
        let projected = pipeline::project(&scene, &cam);
        let cached = cache.bin_pooled(global(), &projected.splats, None, &cam, 16);
        let cold = binning::bin_splats(&projected.splats, &cam, 16);
        assert_eq!(cached.0.entries, cold.0.entries);
        assert_eq!(cached.0.offsets, cold.0.offsets);
    }
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().hits, 4);
}
