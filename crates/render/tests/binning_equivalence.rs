//! Step ❷'s parallel guarantee, in property form: batch-structured
//! emission + the chunk-parallel stable radix sort produce `TileBins`
//! **byte-identical** to the serial `bin_splats` at every thread count,
//! with or without Step ❶'s carried bounds, through the allocating
//! `pipeline::bin_pooled` and the `bin_into` reuse kernel, and through
//! the `BinCache` incremental path riding on the same primitives.

use gbu_math::Vec3;
use gbu_par::ThreadPool;
use gbu_render::stats::BinningStats;
use gbu_render::{binning, pipeline, preprocess, BinCache, BinCacheConfig, BinScratch};
use gbu_scene::{Camera, Gaussian3D, GaussianScene};
use proptest::prelude::*;

/// Thread counts the acceptance criteria pin.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

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
        1..60,
    )
    .prop_map(|gs| {
        gs.into_iter()
            .map(|(x, y, z, sigma, r, g, b, o)| {
                Gaussian3D::isotropic(Vec3::new(x, y, z), sigma, Vec3::new(r, g, b), o)
            })
            .collect()
    })
}

fn assert_bins_eq(
    a: &(binning::TileBins, BinningStats),
    b: &(binning::TileBins, BinningStats),
    what: &str,
) {
    assert_eq!(a.0.offsets, b.0.offsets, "{what}: offsets differ");
    assert_eq!(a.0.entries, b.0.entries, "{what}: entries differ");
    assert_eq!(a.1, b.1, "{what}: stats differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel binning — the allocating `pipeline::bin_pooled` and
    /// twice-reused `bin_into` with and without carried bounds — is
    /// byte-identical to serial `bin_splats` at thread counts
    /// {1, 2, 4, 8}, camera included in the randomization so tile grids
    /// and cull patterns vary.
    #[test]
    fn parallel_binning_is_byte_identical(
        scene in scene_strategy(),
        yaw in -0.6f32..0.6,
        pitch in -0.3f32..0.3,
    ) {
        let cam = Camera::orbit(160, 96, 1.0, Vec3::ZERO, 3.0, yaw, pitch);
        let serial = ThreadPool::new(1);
        let frame = pipeline::project_pooled(&serial, &scene, &cam);
        let (splats, bounds) = (&frame.splats, &frame.bounds);
        let reference = binning::bin_splats(splats, &cam, 16);

        for threads in THREAD_COUNTS {
            let pool = ThreadPool::new(threads);

            // Carried bounds are identical at every thread count.
            let (_, bounds_t, _) = preprocess::project_scene_bounded(&pool, &scene, &cam);
            prop_assert_eq!(&bounds_t, bounds, "bounds differ at {} threads", threads);

            let pooled = pipeline::bin_pooled(&pool, &frame, 16);
            let pooled = (pooled.bins, pooled.stats);
            assert_bins_eq(&pooled, &reference, &format!("pooled, {threads} threads"));

            // The reuse kernel with and without carried bounds, run twice
            // so the second frame rides entirely on recycled buffers.
            for carried in [None, Some(bounds)] {
                let mut scratch = BinScratch::new();
                let mut bins = pooled.0.clone();
                let mut stats = pooled.1.clone();
                for _ in 0..2 {
                    stats = binning::bin_into(
                        &pool, splats, carried, &cam, 16, &mut scratch, &mut bins,
                    );
                }
                let what = format!("bin_into (bounds: {}), {threads} threads", carried.is_some());
                assert_bins_eq(&(bins, stats), &reference, &what);
            }
        }
    }

    /// The `BinCache` incremental path, running its violated-tile
    /// re-sorts on the pool and its footprint diffs on carried bounds,
    /// stays bit-identical to cold binning along a forced-incremental
    /// camera walk at every thread count.
    #[test]
    fn bincache_on_parallel_primitives_matches_cold(
        scene in scene_strategy(),
        steps in proptest::collection::vec((-0.5f32..0.5, -0.25f32..0.25), 1..4),
    ) {
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::new(threads);
            let mut cache = BinCache::new(BinCacheConfig { max_camera_delta: f32::INFINITY });
            let mut walk = vec![(0.0f32, 0.1f32)];
            walk.extend(steps.iter().copied());
            for (step, (yaw, pitch)) in walk.iter().enumerate() {
                let cam = Camera::orbit(160, 96, 1.0, Vec3::ZERO, 3.0, *yaw, *pitch);
                let (splats, bounds, _) =
                    preprocess::project_scene_bounded(&pool, &scene, &cam);
                let cached = cache.bin_pooled(&pool, &splats, Some(&bounds), &cam, 16);
                let cold = binning::bin_splats(&splats, &cam, 16);
                prop_assert_eq!(&cached.0.offsets, &cold.0.offsets,
                    "offsets differ at {} threads, step {}", threads, step);
                prop_assert_eq!(&cached.0.entries, &cold.0.entries,
                    "entries differ at {} threads, step {}", threads, step);
                prop_assert_eq!(cached.1.instances, cold.1.instances);
                prop_assert_eq!(cached.1.occupied_tiles, cold.1.occupied_tiles);
                prop_assert_eq!(cached.1.total_tiles, cold.1.total_tiles);
            }
            // Only the first frame misses; every walk step hits.
            prop_assert_eq!(cache.stats().misses, 1);
            prop_assert_eq!(cache.stats().hits, walk.len() as u64 - 1);
        }
    }
}

/// A scene large enough to span several expansion batches exercises the
/// multi-batch concatenation order (its job spans are checked in
/// `telemetry_noop.rs`, the binary that owns the global recorder).
#[test]
fn multi_batch_scene_matches_serial() {
    let scene: GaussianScene = (0..900)
        .map(|i| {
            let a = i as f32 * 0.37;
            Gaussian3D::isotropic(
                Vec3::new(a.cos() * 0.7, (a * 1.3).sin() * 0.5, (a * 0.9).cos() * 0.6),
                0.02 + 0.002 * (i % 9) as f32,
                Vec3::splat(0.6),
                0.8,
            )
        })
        .collect();
    let cam = Camera::orbit(320, 192, 0.9, Vec3::ZERO, 3.4, 0.4, 0.2);
    let pool = ThreadPool::new(4);
    let (splats, bounds, _) = preprocess::project_scene_bounded(&pool, &scene, &cam);
    assert!(splats.len() > preprocess::BATCH_SPLATS, "scene must span multiple batches");
    assert_eq!(bounds.batches.len(), splats.len().div_ceil(preprocess::BATCH_SPLATS));

    let reference = binning::bin_splats(&splats, &cam, 16);
    let mut scratch = BinScratch::new();
    let mut bins = reference.0.clone();
    let stats = binning::bin_into(&pool, &splats, Some(&bounds), &cam, 16, &mut scratch, &mut bins);
    assert_eq!(bins.offsets, reference.0.offsets);
    assert_eq!(bins.entries, reference.0.entries);
    assert_eq!(stats, reference.1);
}

/// Degenerate inputs: an empty splat list and a splat list whose bounds
/// all miss the grid behave exactly like the serial path.
#[test]
fn empty_and_fully_culled_inputs() {
    let cam = Camera::orbit(128, 96, 1.0, Vec3::ZERO, 4.0, 0.0, 0.0);
    let pool = ThreadPool::new(4);
    let reference = binning::bin_splats(&[], &cam, 16);
    let mut bins = binning::TileBins {
        tile_size: 16,
        tiles_x: 0,
        tiles_y: 0,
        offsets: vec![],
        entries: vec![],
    };
    let stats = binning::bin_into(&pool, &[], None, &cam, 16, &mut BinScratch::new(), &mut bins);
    assert_eq!(bins.offsets, reference.0.offsets);
    assert_eq!(bins.entries, reference.0.entries);
    assert_eq!(stats, reference.1);
    assert_eq!(stats.instances, 0);
}
