//! Procedural Gaussian scene generators.
//!
//! These generators stand in for the trained checkpoints the paper renders
//! (README.md, *Substitutions and paper-scale extrapolation*). They
//! synthesise Gaussian clouds with controlled footprint statistics:
//! world-space scales are log-normal around a median, orientations are
//! random, opacities span the range observed in trained models, and SH
//! coefficients carry a configurable amount of view dependence. Composed shapes (clouds, planes, shells, capsules) build up
//! the static scenes, dynamic scenes and avatars of the dataset registry.

use crate::avatar::{AvatarModel, Skeleton, SkinnedGaussian};
use crate::dynamic::{DynamicScene, Gaussian4D};
use crate::sh::ShCoeffs;
use crate::{Gaussian3D, GaussianScene};
use gbu_math::{Quat, Vec3};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Statistical knobs for generated Gaussians.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthParams {
    /// Median world-space standard deviation of a Gaussian.
    pub scale_median: f32,
    /// Log-normal spread of scales (0 = all identical).
    pub scale_spread: f32,
    /// Maximum per-axis anisotropy ratio (1 = isotropic).
    pub anisotropy: f32,
    /// Uniform opacity range.
    pub opacity_range: (f32, f32),
    /// SH degree for generated colors (0..=3).
    pub sh_degree: u8,
    /// Magnitude of random higher-band SH coefficients.
    pub sh_view_dependence: f32,
}

impl Default for SynthParams {
    fn default() -> Self {
        Self {
            scale_median: 0.02,
            scale_spread: 0.55,
            anisotropy: 4.0,
            opacity_range: (0.15, 0.99),
            sh_degree: 1,
            sh_view_dependence: 0.08,
        }
    }
}

/// Incremental builder for synthetic Gaussian scenes.
///
/// # Example
///
/// ```
/// use gbu_scene::synth::SceneBuilder;
/// use gbu_math::Vec3;
///
/// let scene = SceneBuilder::new(42)
///     .ellipsoid_cloud(Vec3::ZERO, Vec3::splat(1.0), 500, Vec3::new(0.8, 0.3, 0.2), 0.1)
///     .ground_plane(-1.0, 3.0, 300, Vec3::new(0.3, 0.5, 0.2))
///     .build();
/// assert_eq!(scene.len(), 800);
/// ```
#[derive(Debug)]
pub struct SceneBuilder {
    rng: SmallRng,
    params: SynthParams,
    scene: GaussianScene,
}

impl SceneBuilder {
    /// Creates a builder with default parameters and a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            params: SynthParams::default(),
            scene: GaussianScene::new(),
        }
    }

    /// Replaces the generation parameters.
    pub fn params(mut self, params: SynthParams) -> Self {
        self.params = params;
        self
    }

    /// Approximately standard-normal sample (Irwin–Hall 12-sum; exact
    /// moments, light tails — adequate for scale jitter).
    fn normalish(&mut self) -> f32 {
        let s: f32 = (0..12).map(|_| self.rng.gen_range(0.0f32..1.0)).sum();
        s - 6.0
    }

    fn random_unit_quat(&mut self) -> Quat {
        // Shoemake's uniform quaternion sampling.
        let u1: f32 = self.rng.gen_range(0.0..1.0);
        let u2: f32 = self.rng.gen_range(0.0..std::f32::consts::TAU);
        let u3: f32 = self.rng.gen_range(0.0..std::f32::consts::TAU);
        let a = (1.0 - u1).sqrt();
        let b = u1.sqrt();
        Quat::new(a * u2.sin(), a * u2.cos(), b * u3.sin(), b * u3.cos()).normalized()
    }

    fn random_gaussian(
        &mut self,
        position: Vec3,
        base_color: Vec3,
        color_jitter: f32,
    ) -> Gaussian3D {
        let p = self.params.clone();
        let base_sigma = p.scale_median * (p.scale_spread * self.normalish()).exp();
        // Random anisotropy: each axis scaled by a factor in [1/a, 1].
        let aniso = |rng: &mut SmallRng| rng.gen_range(1.0 / p.anisotropy..=1.0);
        let scale = Vec3::new(
            base_sigma * aniso(&mut self.rng),
            base_sigma * aniso(&mut self.rng),
            base_sigma * aniso(&mut self.rng),
        );
        let opacity = self.rng.gen_range(p.opacity_range.0..=p.opacity_range.1);
        let jit = |rng: &mut SmallRng| rng.gen_range(-color_jitter..=color_jitter);
        let color = (base_color
            + Vec3::new(jit(&mut self.rng), jit(&mut self.rng), jit(&mut self.rng)))
        .max(Vec3::ZERO)
        .min(Vec3::ONE);
        let mut sh = if p.sh_degree == 0 {
            ShCoeffs::constant(color)
        } else {
            let n = ((p.sh_degree as usize) + 1).pow(2);
            let mut coeffs = vec![Vec3::ZERO; n];
            coeffs[0] = (color - Vec3::splat(0.5)) / 0.282_094_79;
            for c in coeffs.iter_mut().skip(1) {
                *c = Vec3::new(
                    self.rng.gen_range(-1.0f32..1.0),
                    self.rng.gen_range(-1.0f32..1.0),
                    self.rng.gen_range(-1.0f32..1.0),
                ) * p.sh_view_dependence;
            }
            ShCoeffs::from_coeffs(p.sh_degree, &coeffs)
        };
        let _ = &mut sh;
        Gaussian3D { position, scale, rotation: self.random_unit_quat(), opacity, sh }
    }

    /// Adds `count` Gaussians filling an ellipsoid (normally distributed
    /// around `center` with per-axis radii).
    pub fn ellipsoid_cloud(
        mut self,
        center: Vec3,
        radii: Vec3,
        count: usize,
        base_color: Vec3,
        color_jitter: f32,
    ) -> Self {
        for _ in 0..count {
            let offset = Vec3::new(
                self.normalish() * radii.x / 2.0,
                self.normalish() * radii.y / 2.0,
                self.normalish() * radii.z / 2.0,
            );
            let g = self.random_gaussian(center + offset, base_color, color_jitter);
            self.scene.gaussians.push(g);
        }
        self
    }

    /// Adds `count` Gaussians scattered on the plane `y = height` within
    /// `±half_extent` (a ground plane; Gaussians are flattened vertically).
    pub fn ground_plane(
        mut self,
        height: f32,
        half_extent: f32,
        count: usize,
        base_color: Vec3,
    ) -> Self {
        for _ in 0..count {
            let pos = Vec3::new(
                self.rng.gen_range(-half_extent..half_extent),
                height + self.rng.gen_range(-0.01..0.01f32),
                self.rng.gen_range(-half_extent..half_extent),
            );
            let mut g = self.random_gaussian(pos, base_color, 0.12);
            g.scale.y *= 0.2; // flatten onto the plane
            self.scene.gaussians.push(g);
        }
        self
    }

    /// Adds `count` Gaussians on the surface of a sphere shell (walls,
    /// backgrounds, bonsai-pot style surfaces).
    pub fn sphere_shell(
        mut self,
        center: Vec3,
        radius: f32,
        count: usize,
        base_color: Vec3,
    ) -> Self {
        for i in 0..count {
            // Fibonacci sphere with jitter for even coverage.
            let t = (i as f32 + 0.5) / count as f32;
            let phi = 2.399_963 * i as f32;
            let z = 1.0 - 2.0 * t;
            let r = (1.0 - z * z).sqrt();
            let jitter = self.rng.gen_range(0.97..1.03f32);
            let pos = center + Vec3::new(r * phi.cos(), z, r * phi.sin()) * (radius * jitter);
            let g = self.random_gaussian(pos, base_color, 0.15);
            self.scene.gaussians.push(g);
        }
        self
    }

    /// Adds `count` Gaussians filling a capsule from `a` to `b` with the
    /// given radius (used for avatar limbs).
    pub fn capsule(
        mut self,
        a: Vec3,
        b: Vec3,
        radius: f32,
        count: usize,
        base_color: Vec3,
    ) -> Self {
        for _ in 0..count {
            let t: f32 = self.rng.gen_range(0.0..1.0);
            let radial = Vec3::new(
                self.normalish() * radius / 2.0,
                self.normalish() * radius / 2.0,
                self.normalish() * radius / 2.0,
            );
            let g = self.random_gaussian(a.lerp(b, t) + radial, base_color, 0.08);
            self.scene.gaussians.push(g);
        }
        self
    }

    /// Finishes the build.
    pub fn build(self) -> GaussianScene {
        self.scene
    }

    /// Current number of generated Gaussians.
    pub fn len(&self) -> usize {
        self.scene.len()
    }

    /// `true` when nothing has been generated yet.
    pub fn is_empty(&self) -> bool {
        self.scene.is_empty()
    }
}

/// Builds a dynamic scene: a static backdrop plus a volume of moving,
/// time-windowed kernels (flame/steam-like), in the spirit of the
/// Neural-3D-Video kitchen captures.
pub fn dynamic_scene(
    seed: u64,
    params: SynthParams,
    static_count: usize,
    dynamic_count: usize,
    duration: f32,
) -> DynamicScene {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9);
    let backdrop = SceneBuilder::new(seed)
        .params(params.clone())
        .ellipsoid_cloud(
            Vec3::new(0.0, 0.3, 0.0),
            Vec3::new(1.1, 0.7, 1.1),
            static_count * 7 / 10,
            Vec3::new(0.55, 0.45, 0.40),
            0.2,
        )
        .ground_plane(-0.6, 1.6, static_count * 3 / 10, Vec3::new(0.35, 0.32, 0.3))
        .build();
    let mut kernels: Vec<Gaussian4D> =
        backdrop.gaussians.into_iter().map(Gaussian4D::from_static).collect();

    // Dynamic kernels: short temporal support, upward drift + waving.
    let flames = SceneBuilder::new(seed.wrapping_add(1))
        .params(params)
        .ellipsoid_cloud(
            Vec3::new(0.0, 0.6, 0.0),
            Vec3::new(0.5, 0.8, 0.5),
            dynamic_count,
            Vec3::new(0.95, 0.55, 0.15),
            0.2,
        )
        .build();
    for g in flames.gaussians {
        kernels.push(Gaussian4D {
            spatial: g,
            t_mean: rng.gen_range(0.0..duration),
            t_sigma: rng.gen_range(0.08f32..0.35) * duration,
            velocity: Vec3::new(
                rng.gen_range(-0.1..0.1),
                rng.gen_range(0.05..0.4),
                rng.gen_range(-0.1..0.1),
            ),
            wave_amp: Vec3::new(rng.gen_range(0.0..0.06), 0.0, rng.gen_range(0.0..0.06)),
            wave_freq: rng.gen_range(3.0..12.0),
            wave_phase: rng.gen_range(0.0..std::f32::consts::TAU),
        });
    }
    DynamicScene { kernels, duration }
}

/// Builds a humanoid avatar: Gaussian capsules along every bone, bound to
/// the skeleton with distance-based two-bone LBS weights.
pub fn humanoid_avatar(seed: u64, params: SynthParams, count: usize) -> AvatarModel {
    let skeleton = Skeleton::humanoid();
    let rest = skeleton.rest_transforms();

    // Bones: (joint, parent) pairs plus a radius per body part.
    let mut bones: Vec<(usize, usize, f32, Vec3)> = Vec::new();
    for (i, joint) in skeleton.joints().iter().enumerate() {
        if let Some(p) = joint.parent {
            let thickness = match joint.name {
                "spine" | "chest" => 0.14,
                "neck" => 0.05,
                "head" => 0.10,
                n if n.ends_with("shoulder") => 0.06,
                n if n.ends_with("elbow") || n.ends_with("wrist") => 0.045,
                n if n.ends_with("hip") => 0.09,
                n if n.ends_with("knee") || n.ends_with("ankle") => 0.07,
                _ => 0.08,
            };
            let color = match joint.name {
                "head" | "neck" => Vec3::new(0.85, 0.65, 0.55),
                n if n.ends_with("wrist") => Vec3::new(0.85, 0.65, 0.55),
                n if n.ends_with("knee") || n.ends_with("ankle") => Vec3::new(0.25, 0.3, 0.55),
                _ => Vec3::new(0.55, 0.25, 0.25),
            };
            bones.push((i, p, thickness, color));
        }
    }

    // Distribute the Gaussian budget over bones proportionally to length.
    let lengths: Vec<f32> = bones
        .iter()
        .map(|&(j, p, _, _)| (rest[j].translation() - rest[p].translation()).length().max(0.05))
        .collect();
    let total_len: f32 = lengths.iter().sum();

    let mut gaussians = Vec::with_capacity(count);
    let mut rng = SmallRng::seed_from_u64(seed);
    for (bi, &(j, p, radius, color)) in bones.iter().enumerate() {
        let share = ((lengths[bi] / total_len) * count as f32).round() as usize;
        let a = rest[p].translation();
        let b = rest[j].translation();
        let part = SceneBuilder::new(seed.wrapping_add(1000 + bi as u64))
            .params(params.clone())
            .capsule(a, b, radius, share.max(1), color)
            .build();
        for g in part.gaussians {
            // Two-bone weights by normalised position along the bone.
            let ab = b - a;
            let t = ((g.position - a).dot(ab) / ab.length_squared()).clamp(0.0, 1.0);
            let w_child = 0.25 + 0.5 * t + rng.gen_range(-0.05..0.05f32);
            let w_child = w_child.clamp(0.0, 1.0);
            gaussians
                .push(SkinnedGaussian { rest: g, influences: [(j, w_child), (p, 1.0 - w_child)] });
        }
    }
    AvatarModel { skeleton, gaussians }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_is_deterministic() {
        let make = || {
            SceneBuilder::new(7)
                .ellipsoid_cloud(Vec3::ZERO, Vec3::ONE, 100, Vec3::splat(0.5), 0.1)
                .build()
        };
        let a = make();
        let b = make();
        assert_eq!(a.len(), b.len());
        for (ga, gb) in a.gaussians.iter().zip(&b.gaussians) {
            assert_eq!(ga.position, gb.position);
            assert_eq!(ga.scale, gb.scale);
            assert_eq!(ga.opacity, gb.opacity);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SceneBuilder::new(1)
            .ellipsoid_cloud(Vec3::ZERO, Vec3::ONE, 10, Vec3::splat(0.5), 0.1)
            .build();
        let b = SceneBuilder::new(2)
            .ellipsoid_cloud(Vec3::ZERO, Vec3::ONE, 10, Vec3::splat(0.5), 0.1)
            .build();
        assert_ne!(a.gaussians[0].position, b.gaussians[0].position);
    }

    #[test]
    fn cloud_respects_center_and_extent() {
        let center = Vec3::new(5.0, 1.0, -2.0);
        let scene = SceneBuilder::new(3)
            .ellipsoid_cloud(center, Vec3::splat(0.5), 500, Vec3::splat(0.5), 0.0)
            .build();
        let centroid = scene.centroid().unwrap();
        assert!((centroid - center).length() < 0.2);
        let (min, max) = scene.bounds().unwrap();
        // Normal-ish tails: everything within ~4 radii.
        assert!((max - min).max_component() < 4.0);
    }

    #[test]
    fn opacity_and_scale_in_range() {
        let params = SynthParams {
            opacity_range: (0.4, 0.6),
            scale_spread: 0.0,
            scale_median: 0.05,
            anisotropy: 1.0,
            ..SynthParams::default()
        };
        let scene = SceneBuilder::new(9)
            .params(params)
            .ellipsoid_cloud(Vec3::ZERO, Vec3::ONE, 200, Vec3::splat(0.5), 0.0)
            .build();
        for g in &scene.gaussians {
            assert!(g.opacity >= 0.4 && g.opacity <= 0.6);
            // With zero spread and no anisotropy, every sigma is exactly
            // the median.
            assert!((g.scale.x - 0.05).abs() < 1e-6);
            assert!((g.scale.y - 0.05).abs() < 1e-6);
        }
    }

    #[test]
    fn ground_plane_is_flat() {
        let scene = SceneBuilder::new(4).ground_plane(-1.0, 2.0, 300, Vec3::splat(0.5)).build();
        for g in &scene.gaussians {
            assert!((g.position.y - -1.0).abs() < 0.02);
            assert!(g.scale.y < g.scale.x.max(g.scale.z) + 1e-6);
        }
    }

    #[test]
    fn sphere_shell_on_surface() {
        let scene =
            SceneBuilder::new(5).sphere_shell(Vec3::ZERO, 2.0, 400, Vec3::splat(0.5)).build();
        for g in &scene.gaussians {
            let r = g.position.length();
            assert!(r > 1.9 && r < 2.1, "radius {r}");
        }
    }

    #[test]
    fn dynamic_scene_population_varies_with_time() {
        let scene = dynamic_scene(11, SynthParams::default(), 500, 500, 1.0);
        assert_eq!(scene.len(), 1000);
        let at_0 = scene.sample(0.0, 1.0 / 255.0).len();
        let at_mid = scene.sample(0.5, 1.0 / 255.0).len();
        // The static backdrop is always alive; the dynamic part fluctuates.
        assert!(at_0 >= 500 && at_mid >= 500);
        assert!(at_0 < 1000 || at_mid < 1000, "some kernels must be time-windowed");
    }

    #[test]
    fn avatar_has_requested_budget() {
        let avatar = humanoid_avatar(21, SynthParams::default(), 2000);
        let n = avatar.len() as f32;
        assert!((n - 2000.0).abs() / 2000.0 < 0.05, "got {n} Gaussians");
    }

    #[test]
    fn avatar_weights_are_convex() {
        let avatar = humanoid_avatar(22, SynthParams::default(), 500);
        for sg in &avatar.gaussians {
            let w = sg.influences[0].1 + sg.influences[1].1;
            assert!((w - 1.0).abs() < 1e-5);
            assert!(sg.influences[0].1 >= 0.0 && sg.influences[1].1 >= 0.0);
        }
    }

    #[test]
    fn avatar_occupies_humanoid_extent() {
        let avatar = humanoid_avatar(23, SynthParams::default(), 3000);
        let scene = avatar.pose(&crate::avatar::Pose::rest(avatar.skeleton.len()));
        let (min, max) = scene.bounds().unwrap();
        let height = max.y - min.y;
        assert!(height > 1.2 && height < 2.6, "avatar height {height}");
    }
}
