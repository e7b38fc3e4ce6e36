//! Parallel Fragment Shading — the reference blending dataflow.
//!
//! Mirrors the 3DGS CUDA rasteriser (Sec. II-B "Practical
//! Implementation"): each 16×16 tile walks its depth-sorted instance list;
//! for every instance, *all* pixels of the tile evaluate Eq. 7 in lockstep
//! (11 FLOPs per fragment), discard fragments beyond the truncation
//! threshold, and α-blend the rest front-to-back. A pixel stops once its
//! transmittance drops below `1e-4`; the tile stops once every pixel has
//! stopped.
//!
//! This dataflow's per-fragment redundancy (most lockstep evaluations land
//! outside the truncated ellipse) is the paper's Challenge 2 and the
//! motivation for IRSS.

use crate::binning::TileBins;
use crate::preprocess::pixel_center;
use crate::scratch::{blend_tile_rows, BlendScratch, TileScratch};
use crate::splat::{alpha_from_q, Splat2D};
use crate::stats::{BlendStats, FLOPS_BLEND, FLOPS_Q_FULL};
use crate::{FrameBuffer, RenderConfig};
use gbu_math::Vec3;
use gbu_par::ThreadPool;
use gbu_scene::Camera;

/// Transmittance below which a pixel is considered saturated (the
/// reference's `T < 0.0001` early exit).
pub const T_SATURATED: f32 = 1e-4;

/// The PFS blend: blends into a caller-owned frame buffer, stats record
/// and scratch, all of which are reset here and reused across frames.
/// Tile rows are dispatched across `pool` and merged in tile order, so
/// the output is bit-identical to a serial run at any thread count
/// (pinned by `tests/parallel_equivalence.rs`); each tile-row job opens
/// a `blend_row` span at `GBU_TRACE=2`. PFS records no row workload:
/// `stats.row_workload` stays empty even when
/// [`RenderConfig::record_row_workload`] is set.
///
/// # Panics
///
/// Panics if `image` does not match the camera's dimensions.
#[allow(clippy::too_many_arguments)] // the reuse surface *is* the point
pub fn blend_into(
    pool: &ThreadPool,
    splats: &[Splat2D],
    bins: &TileBins,
    camera: &Camera,
    config: &RenderConfig,
    scratch: &mut BlendScratch,
    image: &mut FrameBuffer,
    stats: &mut BlendStats,
) {
    blend_tile_rows(
        pool,
        bins,
        camera,
        config,
        false,
        scratch,
        image,
        stats,
        |ts, ty, px, _, st| {
            blend_tile_row(splats, bins, camera, config, ts, ty, px, st);
        },
    );
}

/// Blends every tile of tile row `ty` into `pixels` (the image rows this
/// tile row covers, full width) — the sequential per-tile dataflow,
/// untouched by the parallel dispatch so serial and parallel runs share
/// every floating-point operation.
#[allow(clippy::too_many_arguments)]
fn blend_tile_row(
    splats: &[Splat2D],
    bins: &TileBins,
    camera: &Camera,
    config: &RenderConfig,
    tile_scratch: &mut TileScratch,
    ty: u32,
    pixels: &mut [Vec3],
    stats: &mut BlendStats,
) {
    let width = camera.width as usize;
    for tx in 0..bins.tiles_x {
        let tile = (ty * bins.tiles_x + tx) as usize;
        let entries = bins.entries_of(tile);
        if entries.is_empty() {
            continue;
        }
        let (x0, y0, x1, y1) = bins.tile_pixel_rect(tile, camera.width, camera.height);
        let w = (x1 - x0) as usize;
        let h = (y1 - y0) as usize;
        let active_px = w * h;
        let (color, trans) = tile_scratch.tile(active_px);
        let mut alive = active_px;

        for (ei, &entry) in entries.iter().enumerate() {
            if alive == 0 {
                stats.instances_skipped_saturated += (entries.len() - ei) as u64;
                break;
            }
            stats.instances += 1;
            let s = &splats[entry as usize];
            for py in y0..y1 {
                for px in x0..x1 {
                    let idx = (py - y0) as usize * w + (px - x0) as usize;
                    if trans[idx] < T_SATURATED {
                        continue; // lane exited
                    }
                    stats.fragments_evaluated += 1;
                    stats.q_flops += FLOPS_Q_FULL;
                    let q = s.q_at(pixel_center(px, py));
                    if q > s.threshold {
                        continue;
                    }
                    stats.fragments_significant += 1;
                    let alpha = alpha_from_q(s.opacity, q);
                    stats.fragments_blended += 1;
                    stats.blend_flops += FLOPS_BLEND;
                    color[idx] += s.color * (alpha * trans[idx]);
                    trans[idx] *= 1.0 - alpha;
                    if trans[idx] < T_SATURATED {
                        alive -= 1;
                    }
                }
            }
        }

        // Composite over the background and write back. `pixels` starts
        // at image row `y0` (the tile row's first row), full width.
        for py in y0..y1 {
            for px in x0..x1 {
                let idx = (py - y0) as usize * w + (px - x0) as usize;
                pixels[(py - y0) as usize * width + px as usize] =
                    color[idx] + config.background * trans[idx];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render_pfs;
    use gbu_math::approx_eq;
    use gbu_scene::{Gaussian3D, GaussianScene};

    fn camera() -> Camera {
        Camera::orbit(64, 64, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0)
    }

    fn render_one(scene: &GaussianScene) -> (FrameBuffer, BlendStats) {
        let out = render_pfs(scene, &camera(), &RenderConfig::default());
        (out.image, out.blend)
    }

    #[test]
    fn single_gaussian_peaks_at_center() {
        let scene: GaussianScene =
            std::iter::once(Gaussian3D::isotropic(Vec3::ZERO, 0.15, Vec3::new(1.0, 0.0, 0.0), 0.9))
                .collect();
        let (img, stats) = render_one(&scene);
        // The image centre must be strongly red; corners black.
        let c = img.get(32, 32);
        assert!(c.x > 0.5, "centre {c}");
        assert!(img.get(1, 1).x < 0.05);
        assert!(stats.fragments_blended > 0);
        assert!(stats.fragments_significant <= stats.fragments_evaluated);
    }

    #[test]
    fn empty_scene_is_background() {
        let scene = GaussianScene::new();
        let cam = camera();
        let cfg = RenderConfig { background: Vec3::new(0.2, 0.3, 0.4), ..Default::default() };
        let out = render_pfs(&scene, &cam, &cfg);
        assert_eq!(out.image.get(10, 10), Vec3::new(0.2, 0.3, 0.4));
        assert_eq!(out.blend.fragments_evaluated, 0);
    }

    #[test]
    fn front_gaussian_occludes_back() {
        let cam = camera();
        let dir = (Vec3::ZERO - cam.position()).normalized();
        let front =
            Gaussian3D::isotropic(cam.position() + dir * 2.0, 0.2, Vec3::new(1.0, 0.0, 0.0), 0.99);
        let back =
            Gaussian3D::isotropic(cam.position() + dir * 4.0, 0.4, Vec3::new(0.0, 1.0, 0.0), 0.99);
        // Insert back first to prove sorting handles order.
        let scene: GaussianScene = vec![back, front].into_iter().collect();
        let (img, _) = render_one(&scene);
        let c = img.get(32, 32);
        assert!(c.x > 3.0 * c.y, "front red must dominate: {c}");
    }

    #[test]
    fn blending_order_is_depth_not_insertion() {
        let cam = camera();
        let dir = (Vec3::ZERO - cam.position()).normalized();
        let a =
            Gaussian3D::isotropic(cam.position() + dir * 2.0, 0.2, Vec3::new(1.0, 0.0, 0.0), 0.99);
        let b =
            Gaussian3D::isotropic(cam.position() + dir * 4.0, 0.4, Vec3::new(0.0, 1.0, 0.0), 0.99);
        let s1: GaussianScene = vec![a.clone(), b.clone()].into_iter().collect();
        let s2: GaussianScene = vec![b, a].into_iter().collect();
        let (i1, _) = render_one(&s1);
        let (i2, _) = render_one(&s2);
        assert!(i1.max_abs_diff(&i2) < 1e-6, "insertion order must not matter");
    }

    #[test]
    fn opaque_wall_saturates_pixels() {
        let cam = camera();
        let dir = (Vec3::ZERO - cam.position()).normalized();
        // Many broad opaque Gaussians at the same spot: transmittance
        // collapses across whole tiles and later instances are skipped.
        let scene: GaussianScene = (0..100)
            .map(|i| {
                Gaussian3D::isotropic(
                    cam.position() + dir * (2.0 + i as f32 * 0.005),
                    1.0,
                    Vec3::ONE,
                    0.99,
                )
            })
            .collect();
        let (img, stats) = render_one(&scene);
        assert!(stats.instances_skipped_saturated > 0, "saturation early-out must trigger");
        let c = img.get(32, 32);
        assert!(approx_eq(c.x, 1.0, 1e-2));
    }

    #[test]
    fn flop_accounting_matches_fragments() {
        let scene: GaussianScene =
            std::iter::once(Gaussian3D::isotropic(Vec3::ZERO, 0.15, Vec3::ONE, 0.9)).collect();
        let (_, stats) = render_one(&scene);
        assert_eq!(stats.q_flops, stats.fragments_evaluated * FLOPS_Q_FULL);
        assert_eq!(stats.blend_flops, stats.fragments_blended * FLOPS_BLEND);
        assert!((stats.q_flops_per_fragment() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn transmittance_never_negative() {
        let scene: GaussianScene = (0..20)
            .map(|i| {
                Gaussian3D::isotropic(
                    Vec3::new(0.02 * i as f32, 0.0, 0.0),
                    0.2,
                    Vec3::new(0.5, 0.5, 0.5),
                    0.99,
                )
            })
            .collect();
        let (img, _) = render_one(&scene);
        // Energy conservation: no pixel exceeds the (white) source color.
        for p in img.pixels() {
            assert!(p.x <= 1.0 + 1e-4 && p.y <= 1.0 + 1e-4 && p.z <= 1.0 + 1e-4);
            assert!(p.x >= 0.0);
        }
    }

    #[test]
    fn tile_instances_recorded() {
        let scene: GaussianScene =
            std::iter::once(Gaussian3D::isotropic(Vec3::ZERO, 0.3, Vec3::ONE, 0.9)).collect();
        let (_, stats) = render_one(&scene);
        let total: u32 = stats.tile_instances.iter().sum();
        assert!(total > 0);
        assert_eq!(stats.tile_instances.len(), 16); // 64/16 x 64/16 tiles
    }
}
