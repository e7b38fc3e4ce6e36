//! Contribution-aware degraded rendering, in property form. Two
//! guarantees ride on [`gbu_render::pipeline::blend_with_quality_pooled`]:
//!
//! 1. `QualityLevel::Exact` is a true no-op — it takes the ordinary
//!    blend path, so images and statistics are **bit-identical** to
//!    [`gbu_render::pipeline::blend_pooled`] for both dataflows at
//!    every pinned thread count.
//! 2. Degraded modes are **deterministic across thread counts**: the
//!    contribution scoring pass is serial and the compacted frame goes
//!    through the same order-independent tile blend, so TopK/Culled
//!    images at 8 threads match the single-threaded render exactly.

use gbu_math::Vec3;
use gbu_par::ThreadPool;
use gbu_render::{pipeline, QualityLevel, RenderConfig};
use gbu_scene::{Camera, Gaussian3D, GaussianScene};
use proptest::prelude::*;

/// Thread counts the acceptance criteria pin.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Degraded rungs exercised against the serial reference.
const DEGRADED: [QualityLevel; 4] = [
    QualityLevel::TopK { fraction: 0.75 },
    QualityLevel::TopK { fraction: 0.25 },
    QualityLevel::Culled { min_contribution: 0.01 },
    QualityLevel::Culled { min_contribution: 0.2 },
];

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

    /// `Exact` delegates to the ordinary blend: images and stats are
    /// bit-identical for PFS and IRSS at thread counts {1, 2, 4, 8}.
    #[test]
    fn exact_level_is_bit_identical_to_plain_blend(scene in scene_strategy()) {
        let cam = Camera::orbit(160, 96, 1.0, Vec3::ZERO, 3.0, 0.4, 0.2);
        let cfg = RenderConfig::default();
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::new(threads);
            let frame = pipeline::project_pooled(&pool, &scene, &cam);
            let binned = pipeline::bin_pooled(&pool, &frame, cfg.tile_size);
            for dataflow in [pipeline::Dataflow::Pfs, pipeline::Dataflow::Irss] {
                let (plain, plain_stats) =
                    pipeline::blend_pooled(&pool, &frame, &binned, dataflow, &cfg);
                let (exact, exact_stats) = pipeline::blend_with_quality_pooled(
                    &pool, &frame, &binned, dataflow, &cfg, QualityLevel::Exact,
                );
                prop_assert_eq!(
                    exact.pixels(), plain.pixels(),
                    "Exact {:?} image differs at {} threads", dataflow, threads
                );
                prop_assert_eq!(
                    &exact_stats, &plain_stats,
                    "Exact {:?} stats differ at {} threads", dataflow, threads
                );
            }
        }
    }

    /// Degraded renders are deterministic across thread counts: every
    /// rung at every thread count is bit-identical to the 1-thread
    /// render of the same rung, for both dataflows. (PFS and IRSS are
    /// *not* compared to each other — IRSS preserves the quadratic form
    /// only up to floating-point rounding, degraded or not.)
    #[test]
    fn degraded_levels_are_thread_count_deterministic(scene in scene_strategy()) {
        let cam = Camera::orbit(160, 96, 1.0, Vec3::ZERO, 3.0, 0.4, 0.2);
        let cfg = RenderConfig::default();
        let serial = ThreadPool::new(1);
        let frame = pipeline::project_pooled(&serial, &scene, &cam);
        let binned = pipeline::bin_pooled(&serial, &frame, cfg.tile_size);
        for level in DEGRADED {
            let (pfs_ref, _) = pipeline::blend_with_quality_pooled(
                &serial, &frame, &binned, pipeline::Dataflow::Pfs, &cfg, level,
            );
            let (irss_ref, _) = pipeline::blend_with_quality_pooled(
                &serial, &frame, &binned, pipeline::Dataflow::Irss, &cfg, level,
            );
            for threads in THREAD_COUNTS {
                let pool = ThreadPool::new(threads);
                let (pfs_t, _) = pipeline::blend_with_quality_pooled(
                    &pool, &frame, &binned, pipeline::Dataflow::Pfs, &cfg, level,
                );
                prop_assert_eq!(
                    pfs_t.pixels(), pfs_ref.pixels(),
                    "PFS {:?} differs at {} threads", level, threads
                );
                let (irss_t, _) = pipeline::blend_with_quality_pooled(
                    &pool, &frame, &binned, pipeline::Dataflow::Irss, &cfg, level,
                );
                prop_assert_eq!(
                    irss_t.pixels(), irss_ref.pixels(),
                    "IRSS {:?} differs at {} threads", level, threads
                );
            }
        }
    }
}

/// Degraded rungs monotonically approach the exact image: a deeper TopK
/// keep-fraction can only lower (or hold) the PSNR against the exact
/// render, and `TopK { fraction: 1.0 }` — keep everything — reproduces
/// it bit-exactly on a fixed scene.
#[test]
fn topk_full_fraction_matches_exact_and_psnr_degrades_monotonically() {
    let scene: GaussianScene = (0..30)
        .map(|i| {
            let a = i as f32 * 0.47;
            Gaussian3D::isotropic(
                Vec3::new(a.cos() * 0.6, (a * 1.3).sin() * 0.4, a.sin() * 0.5),
                0.04 + 0.012 * (i % 5) as f32,
                Vec3::new(0.2 + 0.1 * (i % 7) as f32, 0.6, 0.9 - 0.1 * (i % 4) as f32),
                0.35 + 0.08 * (i % 8) as f32,
            )
        })
        .collect();
    let cam = Camera::orbit(128, 96, 1.0, Vec3::ZERO, 3.0, 0.1, 0.3);
    let cfg = RenderConfig::default();
    let frame = pipeline::project(&scene, &cam);
    let binned = pipeline::bin(&frame, cfg.tile_size);
    let (exact, _) =
        pipeline::blend_pooled(gbu_par::global(), &frame, &binned, pipeline::Dataflow::Pfs, &cfg);

    let (full, _) = pipeline::blend_with_quality_pooled(
        gbu_par::global(),
        &frame,
        &binned,
        pipeline::Dataflow::Pfs,
        &cfg,
        QualityLevel::TopK { fraction: 1.0 },
    );
    assert_eq!(full.pixels(), exact.pixels(), "keep-everything TopK must match exact");

    let mut last = f64::INFINITY;
    for fraction in [0.75, 0.5, 0.25] {
        let (img, _) = pipeline::blend_with_quality_pooled(
            gbu_par::global(),
            &frame,
            &binned,
            pipeline::Dataflow::Pfs,
            &cfg,
            QualityLevel::TopK { fraction },
        );
        let psnr = gbu_render::metrics::psnr(&img, &exact);
        assert!(
            psnr <= last,
            "PSNR must not improve as the keep-fraction shrinks: {psnr} after {last}"
        );
        last = psnr;
    }
}
