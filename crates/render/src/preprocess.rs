//! Rendering Step ❶: preprocessing.
//!
//! Projects every 3D Gaussian to a 2D splat (Eq. 3): the camera transform
//! `W` takes the kernel to view space, the local-affine Jacobian `J` of the
//! perspective projection maps its covariance to the screen
//! (`Σ* = J W Σ Wᵀ Jᵀ`, the EWA splatting approximation of Zwicker et al.),
//! the spherical harmonics are evaluated in the view direction, and the
//! depth is the view-space z. Culling removes Gaussians behind the near
//! plane, fully off screen, or too transparent to ever clear the `1/255`
//! opacity cutoff.

use crate::splat::Splat2D;
use crate::stats::PreprocessStats;
use gbu_math::ellipse::{self, EllipseBounds, ALPHA_MIN};
use gbu_math::{Mat3, Sym2, Vec2};
use gbu_scene::{Camera, Gaussian3D, GaussianScene};

/// Low-pass filter added to the projected covariance diagonal, ensuring a
/// splat covers at least ~one pixel (same constant as the 3DGS reference).
pub const COV_LOW_PASS: f32 = 0.3;

/// Approximate FLOPs for projecting one Gaussian (covariance assembly,
/// `J W Σ Wᵀ Jᵀ`, inversion, mean projection) — used by the GPU Step-❶
/// cost model; SH evaluation is charged separately per degree.
pub const PROJECT_FLOPS: u64 = 220;

/// Projects a single Gaussian. Returns `None` (with a culling reason) when
/// the Gaussian does not produce a visible splat.
pub fn project_gaussian(
    g: &Gaussian3D,
    camera: &Camera,
    source: u32,
) -> Result<Splat2D, CullReason> {
    project_gaussian_bounded(g, camera, source).map(|(splat, _)| splat)
}

/// [`project_gaussian`] that also returns the truncated ellipse's exact
/// screen bounds — already computed here for the off-screen cull, and
/// carried forward so Step ❷ never re-derives them from the conic.
///
/// `EllipseBounds::from_conic` is a pure function of the stored splat
/// fields, so the carried bounds are bit-equal to what binning would
/// recompute; using either path yields byte-identical tile bins.
pub fn project_gaussian_bounded(
    g: &Gaussian3D,
    camera: &Camera,
    source: u32,
) -> Result<(Splat2D, EllipseBounds), CullReason> {
    // View-space mean; near-plane cull.
    let t = camera.to_camera(g.position);
    if t.z <= camera.near {
        return Err(CullReason::Frustum);
    }

    // Peak-opacity cull and truncation threshold.
    let threshold = match ellipse::truncation_threshold(g.opacity, ALPHA_MIN) {
        Some(th) => th,
        None => return Err(CullReason::Opacity),
    };

    // EWA: clamp the view-space tangent so the local-affine approximation
    // stays bounded at the frame edge (the 1.3× guard of the reference).
    let lim_x = 1.3 * (camera.width as f32 * 0.5) / camera.fx;
    let lim_y = 1.3 * (camera.height as f32 * 0.5) / camera.fy;
    let txz = (t.x / t.z).clamp(-lim_x, lim_x);
    let tyz = (t.y / t.z).clamp(-lim_y, lim_y);

    // Jacobian of the projection at t (rows of a 2×3 matrix, embedded in a
    // Mat3 with a zero third row as the reference implementation does).
    let j = Mat3::new(
        camera.fx / t.z,
        0.0,
        -camera.fx * txz / t.z,
        0.0,
        camera.fy / t.z,
        -camera.fy * tyz / t.z,
        0.0,
        0.0,
        0.0,
    );
    let w = camera.world_to_camera.linear();
    let cov3 = g.covariance();
    let full = j * (w * cov3 * w.transpose()) * j.transpose();
    let cov2 = Sym2::from_mat2_symmetrized(full.upper_left2()).add_diagonal(COV_LOW_PASS);

    let conic = match cov2.inverse() {
        Some(c) if c.is_positive_definite() => c,
        _ => return Err(CullReason::Degenerate),
    };

    let mean = camera.project_cam(t);

    // Off-screen cull: the truncated ellipse must intersect the image.
    let bounds = EllipseBounds::from_conic(mean, conic, threshold).ok_or(CullReason::Degenerate)?;
    let min = bounds.min();
    let max = bounds.max();
    if max.x < 0.0 || max.y < 0.0 || min.x >= camera.width as f32 || min.y >= camera.height as f32 {
        return Err(CullReason::Frustum);
    }

    let color = g.sh.eval(camera.view_dir(g.position));
    let splat = Splat2D {
        mean,
        conic,
        cov: cov2,
        color,
        opacity: g.opacity,
        depth: t.z,
        threshold,
        source,
    };
    Ok((splat, bounds))
}

/// Why a Gaussian was culled during preprocessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CullReason {
    /// Behind the near plane or fully off screen.
    Frustum,
    /// Peak opacity below the blending cutoff.
    Opacity,
    /// Degenerate projected covariance.
    Degenerate,
}

/// Aggregate screen-space bounds of one batch of [`BATCH_SPLATS`]
/// consecutive surviving splats — the union AABB of their truncated
/// ellipses. Step ❷'s batch-parallel expansion uses these to skip whole
/// batches whose footprint misses the tile grid before touching any
/// per-splat state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchBounds {
    /// First splat index of the batch (inclusive).
    pub start: u32,
    /// One past the last splat index of the batch.
    pub end: u32,
    /// Minimum corner of the union AABB, in pixels.
    pub min: Vec2,
    /// Maximum corner of the union AABB, in pixels.
    pub max: Vec2,
}

impl BatchBounds {
    /// Inclusive tile rectangle the batch AABB overlaps, clamped to the
    /// grid, or `None` when the whole batch misses it — the same clipping
    /// rule as [`EllipseBounds::tile_range`], so a `None` here proves every
    /// member splat's own range is `None` (each member AABB is contained in
    /// the union).
    pub fn tile_range(
        &self,
        tile: u32,
        tiles_x: u32,
        tiles_y: u32,
    ) -> Option<(u32, u32, u32, u32)> {
        let t = tile as f32;
        if self.max.x < 0.0 || self.max.y < 0.0 {
            return None;
        }
        let x0 = (self.min.x / t).floor().max(0.0) as u32;
        let y0 = (self.min.y / t).floor().max(0.0) as u32;
        if x0 >= tiles_x || y0 >= tiles_y {
            return None;
        }
        let x1 = ((self.max.x / t).floor() as u32).min(tiles_x - 1);
        let y1 = ((self.max.y / t).floor() as u32).min(tiles_y - 1);
        Some((x0, y0, x1, y1))
    }
}

/// Number of consecutive splats per expansion batch. Projection aggregates
/// one [`BatchBounds`] per this many survivors, and Step ❷ emits `(key,
/// splat)` pairs in units of the same batches — fixed (independent of the
/// thread count) so the batch decomposition, and therefore the
/// concatenated emission order, never changes with `GBU_THREADS`.
pub const BATCH_SPLATS: usize = 256;

/// Per-splat and per-batch screen bounds carried out of Step ❶ for the
/// binning frontend.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProjectedBounds {
    /// Exact truncated-ellipse bounds of each surviving splat, parallel to
    /// the splat list.
    pub splats: Vec<EllipseBounds>,
    /// Union AABB per batch of [`BATCH_SPLATS`] consecutive splats.
    pub batches: Vec<BatchBounds>,
}

impl ProjectedBounds {
    fn push(&mut self, bounds: EllipseBounds) {
        let i = self.splats.len() as u32;
        self.splats.push(bounds);
        let (bmin, bmax) = (bounds.min(), bounds.max());
        match self.batches.last_mut() {
            Some(batch) if (batch.end - batch.start) < BATCH_SPLATS as u32 => {
                batch.end = i + 1;
                batch.min = Vec2::new(batch.min.x.min(bmin.x), batch.min.y.min(bmin.y));
                batch.max = Vec2::new(batch.max.x.max(bmax.x), batch.max.y.max(bmax.y));
            }
            _ => self.batches.push(BatchBounds { start: i, end: i + 1, min: bmin, max: bmax }),
        }
    }
}

/// Projects an entire scene, producing splats and Step-❶ statistics, on
/// the global thread pool — [`project_scene_bounded`] without the carried
/// bounds.
pub fn project_scene(scene: &GaussianScene, camera: &Camera) -> (Vec<Splat2D>, PreprocessStats) {
    let (splats, _, stats) = project_scene_bounded(gbu_par::global(), scene, camera);
    (splats, stats)
}

/// Projects an entire scene on `pool` and carries the per-splat and
/// per-batch screen bounds forward for the bounds-aware binning frontend
/// ([`crate::binning::bin_into`]). Each Gaussian projects independently;
/// the survivors are folded back in index order, so the splat list (and
/// every statistic) is identical at any thread count. The bounds are a
/// pure by-product of the off-screen cull each projection already
/// performs.
pub fn project_scene_bounded(
    pool: &gbu_par::ThreadPool,
    scene: &GaussianScene,
    camera: &Camera,
) -> (Vec<Splat2D>, ProjectedBounds, PreprocessStats) {
    let projected = pool.map_indexed(&scene.gaussians, |i, g| {
        (project_gaussian_bounded(g, camera, i as u32), PROJECT_FLOPS + g.sh.eval_flops())
    });
    let mut splats = Vec::with_capacity(scene.len());
    let mut bounds = ProjectedBounds::default();
    let mut stats = PreprocessStats { input_gaussians: scene.len() as u64, ..Default::default() };
    for (result, flops) in projected {
        stats.flops += flops;
        match result {
            Ok((splat, splat_bounds)) => {
                splats.push(splat);
                bounds.push(splat_bounds);
            }
            Err(CullReason::Frustum) => stats.culled_frustum += 1,
            Err(CullReason::Opacity) => stats.culled_opacity += 1,
            Err(CullReason::Degenerate) => stats.culled_frustum += 1,
        }
    }
    stats.output_splats = splats.len() as u64;
    (splats, bounds, stats)
}

/// The screen-space mean of a pixel's centre (both dataflows sample
/// Gaussians at pixel centres).
#[inline]
pub fn pixel_center(x: u32, y: u32) -> Vec2 {
    Vec2::new(x as f32 + 0.5, y as f32 + 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbu_math::{approx_eq, Vec3};
    use gbu_scene::Gaussian3D;

    fn camera() -> Camera {
        Camera::orbit(128, 96, 1.0, Vec3::ZERO, 4.0, 0.3, 0.2)
    }

    #[test]
    fn centered_gaussian_projects_near_image_center() {
        let cam = camera();
        let g = Gaussian3D::isotropic(Vec3::ZERO, 0.05, Vec3::ONE, 0.9);
        let s = project_gaussian(&g, &cam, 0).unwrap();
        assert!(approx_eq(s.mean.x, 64.0, 1e-2));
        assert!(approx_eq(s.mean.y, 48.0, 1e-2));
        assert!(approx_eq(s.depth, 4.0, 1e-3));
    }

    #[test]
    fn behind_camera_is_frustum_culled() {
        let cam = camera();
        // Opposite side of the orbit: behind the camera.
        let behind = cam.position() * 2.0;
        let g = Gaussian3D::isotropic(behind, 0.05, Vec3::ONE, 0.9);
        assert_eq!(project_gaussian(&g, &cam, 0), Err(CullReason::Frustum));
    }

    #[test]
    fn transparent_gaussian_is_opacity_culled() {
        let cam = camera();
        let g = Gaussian3D::isotropic(Vec3::ZERO, 0.05, Vec3::ONE, 1.0 / 255.0);
        assert_eq!(project_gaussian(&g, &cam, 0), Err(CullReason::Opacity));
    }

    #[test]
    fn off_screen_gaussian_is_culled() {
        let cam = camera();
        // Far to the side, in front of the camera but outside the frustum.
        let side = Vec3::new(0.0, 100.0, 0.0);
        let g = Gaussian3D::isotropic(side, 0.05, Vec3::ONE, 0.9);
        assert_eq!(project_gaussian(&g, &cam, 0), Err(CullReason::Frustum));
    }

    #[test]
    fn conic_is_positive_definite() {
        let cam = camera();
        let g = Gaussian3D {
            position: Vec3::new(0.3, -0.2, 0.1),
            scale: Vec3::new(0.08, 0.02, 0.15),
            rotation: gbu_math::Quat::from_axis_angle(Vec3::new(1.0, 1.0, 0.2), 0.9),
            opacity: 0.7,
            sh: gbu_scene::ShCoeffs::constant(Vec3::ONE),
        };
        let s = project_gaussian(&g, &cam, 0).unwrap();
        assert!(s.conic.is_positive_definite());
        // conic * cov = I within tolerance.
        let prod = s.conic.to_mat2() * s.cov.to_mat2();
        assert!(approx_eq(prod.rows[0][0], 1.0, 1e-3));
        assert!(approx_eq(prod.rows[1][1], 1.0, 1e-3));
    }

    #[test]
    fn low_pass_guarantees_minimum_size() {
        let cam = camera();
        // A tiny Gaussian still has cov >= 0.3 px² on the diagonal.
        let g = Gaussian3D::isotropic(Vec3::ZERO, 1e-5, Vec3::ONE, 0.9);
        let s = project_gaussian(&g, &cam, 0).unwrap();
        assert!(s.cov.a >= COV_LOW_PASS - 1e-5);
        assert!(s.cov.c >= COV_LOW_PASS - 1e-5);
    }

    #[test]
    fn larger_world_scale_means_larger_splat() {
        let cam = camera();
        let small =
            project_gaussian(&Gaussian3D::isotropic(Vec3::ZERO, 0.02, Vec3::ONE, 0.9), &cam, 0)
                .unwrap();
        let large =
            project_gaussian(&Gaussian3D::isotropic(Vec3::ZERO, 0.2, Vec3::ONE, 0.9), &cam, 0)
                .unwrap();
        assert!(large.cov.a > small.cov.a);
        assert!(large.cov.c > small.cov.c);
    }

    #[test]
    fn project_scene_counts_add_up() {
        let cam = camera();
        let scene: GaussianScene = vec![
            Gaussian3D::isotropic(Vec3::ZERO, 0.05, Vec3::ONE, 0.9),
            Gaussian3D::isotropic(cam.position() * 2.0, 0.05, Vec3::ONE, 0.9), // behind
            Gaussian3D::isotropic(Vec3::ZERO, 0.05, Vec3::ONE, 0.001),         // transparent
        ]
        .into_iter()
        .collect();
        let (splats, stats) = project_scene(&scene, &cam);
        assert_eq!(splats.len(), 1);
        assert_eq!(stats.input_gaussians, 3);
        assert_eq!(stats.culled_frustum, 1);
        assert_eq!(stats.culled_opacity, 1);
        assert_eq!(stats.output_splats, 1);
        assert!(stats.flops > 0);
    }

    #[test]
    fn depth_orders_along_view_ray() {
        let cam = camera();
        let dir = (Vec3::ZERO - cam.position()).normalized();
        let near = Gaussian3D::isotropic(cam.position() + dir * 2.0, 0.05, Vec3::ONE, 0.9);
        let far = Gaussian3D::isotropic(cam.position() + dir * 6.0, 0.05, Vec3::ONE, 0.9);
        let sn = project_gaussian(&near, &cam, 0).unwrap();
        let sf = project_gaussian(&far, &cam, 1).unwrap();
        assert!(sn.depth < sf.depth);
    }
}
