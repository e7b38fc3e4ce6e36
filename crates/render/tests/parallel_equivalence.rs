//! The parallel hot path's central guarantee, in property form: PFS and
//! IRSS blending (and Step-❶ projection) produce **bit-identical**
//! images and statistics at every thread count, because tile rows are
//! independent work merged in tile order and every per-tile operation is
//! the same sequential code the serial path runs — through both the
//! allocating `pipeline` stages and the `_into` kernels they wrap.

use gbu_math::Vec3;
use gbu_par::ThreadPool;
use gbu_render::pipeline::{self, BinnedFrame, Dataflow};
use gbu_render::{binning, irss, pfs, RenderConfig};
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
        let frame = pipeline::project_pooled(&serial, &scene, &cam);
        let splats = &frame.splats;
        let (bins, stats) = binning::bin_splats(splats, &cam, cfg.tile_size);
        let binned = BinnedFrame { bins, stats };
        let bins = &binned.bins;
        let isplats_ref = irss::precompute_pooled(&serial, splats);
        let (pfs_ref, pfs_stats_ref) =
            pipeline::blend_pooled(&serial, &frame, &binned, Dataflow::Pfs, &cfg);
        let (irss_ref, irss_stats_ref) =
            pipeline::blend_pooled(&serial, &frame, &binned, Dataflow::Irss, &cfg);
        prop_assert!(pfs_stats_ref.row_workload.is_empty(), "PFS records no row workload");

        for threads in THREAD_COUNTS {
            let pool = ThreadPool::new(threads);

            let frame_t = pipeline::project_pooled(&pool, &scene, &cam);
            prop_assert_eq!(&frame_t.splats, splats, "Step-1 splats differ at {} threads", threads);
            prop_assert_eq!(
                &frame_t.stats, &frame.stats,
                "Step-1 stats differ at {} threads", threads
            );

            let isplats_t = irss::precompute_pooled(&pool, splats);
            prop_assert_eq!(
                &isplats_t, &isplats_ref,
                "IRSS transforms differ at {} threads", threads
            );

            for (dataflow, reference, reference_stats) in [
                (Dataflow::Pfs, &pfs_ref, &pfs_stats_ref),
                (Dataflow::Irss, &irss_ref, &irss_stats_ref),
            ] {
                let (img, stats) = pipeline::blend_pooled(&pool, &frame, &binned, dataflow, &cfg);
                prop_assert_eq!(
                    img.pixels(), reference.pixels(),
                    "{:?} image differs at {} threads", dataflow, threads
                );
                prop_assert_eq!(
                    &stats, reference_stats,
                    "{:?} stats differ at {} threads", dataflow, threads
                );

                // Blend twice through the reuse kernel: the second frame
                // rides entirely on recycled buffers and must match too.
                let mut img = gbu_render::FrameBuffer::new(cam.width, cam.height, cfg.background);
                let mut stats = gbu_render::stats::BlendStats::default();
                let mut scratch = gbu_render::BlendScratch::new();
                for _ in 0..2 {
                    let (scratch, img, stats) = (&mut scratch, &mut img, &mut stats);
                    match dataflow {
                        Dataflow::Pfs => {
                            pfs::blend_into(&pool, splats, bins, &cam, &cfg, scratch, img, stats)
                        }
                        Dataflow::Irss => irss::blend_precomputed_into::<irss::Fp32>(
                            &pool, &isplats_t, bins, &cam, &cfg, scratch, Some(img), stats, &mut (),
                        ),
                    }
                }
                prop_assert_eq!(
                    img.pixels(), reference.pixels(),
                    "{:?} reused image differs at {} threads", dataflow, threads
                );
                prop_assert_eq!(
                    &stats, reference_stats,
                    "{:?} reused stats differ at {} threads", dataflow, threads
                );
            }
        }
    }
}
