//! The parallel hot path's central guarantee, in property form: PFS and
//! IRSS blending (and Step-❶ projection) produce **bit-identical**
//! images and statistics at every thread count, because tile rows are
//! independent work merged in tile order and every per-tile operation is
//! the same sequential code the serial path runs.

use gbu_math::Vec3;
use gbu_par::ThreadPool;
use gbu_render::{binning, irss, pfs, preprocess, RenderConfig};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// PFS and IRSS blends are bit-identical to serial across thread
    /// counts {1, 2, 4, 8} on randomized synthetic scenes — images
    /// compared exactly (no tolerance), statistics compared structurally
    /// (including the per-tile instance and row-workload tables).
    #[test]
    fn parallel_blends_are_bit_identical(scene in scene_strategy()) {
        let cam = Camera::orbit(160, 96, 1.0, Vec3::ZERO, 3.0, 0.4, 0.2);
        let cfg = RenderConfig { record_row_workload: true, ..RenderConfig::default() };
        let serial = ThreadPool::new(1);
        let (splats, pre_ref) = preprocess::project_scene_pooled(&serial, &scene, &cam);
        let (bins, _) = binning::bin_splats(&splats, &cam, cfg.tile_size);
        let isplats_ref = irss::precompute_pooled(&serial, &splats);
        let (pfs_ref, pfs_stats_ref) = pfs::blend_pooled(&serial, &splats, &bins, &cam, &cfg);
        let (irss_ref, irss_stats_ref) = {
            let mut image = gbu_render::FrameBuffer::new(cam.width, cam.height, cfg.background);
            let mut stats = gbu_render::stats::BlendStats::default();
            let mut scratch = gbu_render::BlendScratch::new();
            irss::blend_precomputed_into(
                &serial, &splats, &isplats_ref, &bins, &cam, &cfg,
                &mut scratch, &mut image, &mut stats,
            );
            (image, stats)
        };

        for threads in THREAD_COUNTS {
            let pool = ThreadPool::new(threads);

            let (splats_t, pre_t) = preprocess::project_scene_pooled(&pool, &scene, &cam);
            prop_assert_eq!(&splats_t, &splats, "Step-1 splats differ at {} threads", threads);
            prop_assert_eq!(&pre_t, &pre_ref, "Step-1 stats differ at {} threads", threads);

            let isplats_t = irss::precompute_pooled(&pool, &splats);
            prop_assert_eq!(
                &isplats_t, &isplats_ref,
                "IRSS transforms differ at {} threads", threads
            );

            let (img, stats) = pfs::blend_pooled(&pool, &splats, &bins, &cam, &cfg);
            prop_assert_eq!(
                img.pixels(), pfs_ref.pixels(),
                "PFS image differs at {} threads", threads
            );
            prop_assert_eq!(&stats, &pfs_stats_ref, "PFS stats differ at {} threads", threads);

            let mut img = gbu_render::FrameBuffer::new(cam.width, cam.height, cfg.background);
            let mut stats = gbu_render::stats::BlendStats::default();
            let mut scratch = gbu_render::BlendScratch::new();
            // Blend twice through the reuse path: the second frame rides
            // entirely on recycled buffers and must match too.
            for _ in 0..2 {
                irss::blend_precomputed_into(
                    &pool, &splats, &isplats_t, &bins, &cam, &cfg,
                    &mut scratch, &mut img, &mut stats,
                );
            }
            prop_assert_eq!(
                img.pixels(), irss_ref.pixels(),
                "IRSS image differs at {} threads", threads
            );
            prop_assert_eq!(&stats, &irss_stats_ref, "IRSS stats differ at {} threads", threads);
        }
    }
}

/// The legacy entry points (global pool + fresh buffers) agree with the
/// explicit-pool reuse path on a fixed scene.
#[test]
fn public_entry_points_match_reuse_path() {
    let scene: GaussianScene = (0..25)
        .map(|i| {
            let a = i as f32 * 0.53;
            Gaussian3D::isotropic(
                Vec3::new(a.cos() * 0.6, a.sin() * 0.4, (a * 1.9).sin() * 0.5),
                0.05 + 0.01 * (i % 4) as f32,
                Vec3::new(0.8, 0.5, 0.3),
                0.7,
            )
        })
        .collect();
    let cam = Camera::orbit(128, 96, 1.0, Vec3::ZERO, 3.0, 0.1, 0.3);
    let cfg = RenderConfig::default();
    let (splats, _) = preprocess::project_scene(&scene, &cam);
    let (bins, _) = binning::bin_splats(&splats, &cam, cfg.tile_size);

    let (img_global, stats_global) = pfs::blend(&splats, &bins, &cam, &cfg);
    let pool = ThreadPool::new(3);
    let mut img = gbu_render::FrameBuffer::new(cam.width, cam.height, cfg.background);
    let mut stats = gbu_render::stats::BlendStats::default();
    let mut scratch = gbu_render::BlendScratch::new();
    pfs::blend_into(&pool, &splats, &bins, &cam, &cfg, &mut scratch, &mut img, &mut stats);
    assert_eq!(img.pixels(), img_global.pixels());
    assert_eq!(stats, stats_global);
}
