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
//!
//! # What the counters model
//!
//! The statistics, including the 11-FLOP charge per evaluated fragment,
//! model the GPU's lockstep lanes, not the host loop. On the GPU every
//! pixel of a tile that has not saturated evaluates Eq. 7 for each
//! processed instance. So [`BlendStats::fragments_evaluated`] is the
//! sum, over processed instances, of the tile's pixels not yet saturated
//! when the instance starts. Edge tiles have fewer than 256 pixels, and
//! saturation is per pixel. A pixel's transmittance changes only when
//! that pixel blends, so the live set at an instance's start is exactly
//! the set of lanes that evaluate it.
//!
//! The host loop is shaped for the CPU instead. Per instance, one
//! branch-free, vectorizable pass evaluates `q` for every pixel of the
//! tile, saturated or not; a second pass blends only the significant
//! fragments of live pixels. The counters are folded once per tile.

use crate::binning::TileBins;
use crate::preprocess::pixel_center;
use crate::scratch::{blend_tile_rows, BlendScratch, TileScratch};
use crate::splat::{alpha_from_q, Splat2D};
use crate::stats::{BlendStats, FLOPS_BLEND, FLOPS_Q_FULL};
use crate::{FrameBuffer, RenderConfig};
use gbu_math::{Sym2, Vec3};
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
        Some(image),
        stats,
        &mut (),
        |ts, ty, px, _, st, _| {
            blend_tile_row(splats, bins, camera, config, ts, ty, px, st);
        },
    );
}

/// Blends every tile of tile row `ty` into `pixels` (the image rows this
/// tile row covers, full width) — the sequential per-tile dataflow,
/// untouched by the parallel dispatch so serial and parallel runs share
/// every floating-point operation. The module docs describe its two
/// passes per instance and why its per-tile counters are exact.
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
        let (w, h) = ((x1 - x0) as usize, (y1 - y0) as usize);
        let buf = tile_scratch.tile(w, h);
        for (col, cx) in buf.centers_x.iter_mut().enumerate() {
            *cx = pixel_center(x0 + col as u32, y0).x;
        }
        let mut alive = w * h;
        let (mut evaluated, mut blended) = (0u64, 0u64);

        for (ei, &entry) in entries.iter().enumerate() {
            if alive == 0 {
                stats.instances_skipped_saturated += (entries.len() - ei) as u64;
                break;
            }
            stats.instances += 1;
            // Every live pixel evaluates this instance, and a pixel's
            // transmittance changes only when that pixel blends, so the
            // live count at the instance's start is its evaluated count.
            evaluated += alive as u64;
            let s = &splats[entry as usize];
            quadratic_forms(s, buf.centers_x, y0, buf.q);
            for (idx, &q) in buf.q.iter().enumerate() {
                if q > s.threshold || buf.trans[idx] < T_SATURATED {
                    continue;
                }
                let alpha = alpha_from_q(s.opacity, q);
                blended += 1;
                buf.color[idx] += s.color * (alpha * buf.trans[idx]);
                buf.trans[idx] *= 1.0 - alpha;
                if buf.trans[idx] < T_SATURATED {
                    alive -= 1;
                }
            }
        }

        // Every significant fragment of a live pixel blends under PFS.
        stats.fragments_evaluated += evaluated;
        stats.q_flops += evaluated * FLOPS_Q_FULL;
        stats.fragments_significant += blended;
        stats.fragments_blended += blended;
        stats.blend_flops += blended * FLOPS_BLEND;
        tile_scratch.composite(pixels, width, x0 as usize, config.background);
    }
}

/// Writes Eq. 7's `q` for every pixel of a tile into `q` (row-major,
/// `centers_x.len()` wide, first row at image row `y0`). The pass is
/// branch-free, so it vectorizes, and performs [`Splat2D::q_at`]'s
/// operations in the same order at each pixel centre, so every `q` is
/// bit-identical to it.
fn quadratic_forms(s: &Splat2D, centers_x: &[f32], y0: u32, q: &mut [f32]) {
    let Sym2 { a, b, c } = s.conic;
    let b2 = 2.0 * b;
    for (row, q_row) in q.chunks_exact_mut(centers_x.len()).enumerate() {
        let dy = pixel_center(0, y0 + row as u32).y - s.mean.y;
        let cyy = c * dy * dy;
        for (qv, &cx) in q_row.iter_mut().zip(centers_x) {
            let dx = cx - s.mean.x;
            *qv = a * dx * dx + b2 * dx * dy + cyy;
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
