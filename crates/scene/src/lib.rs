//! Gaussian scene representations, cameras and synthetic datasets.
//!
//! This crate provides everything *upstream* of the rendering pipeline:
//!
//! - [`Gaussian3D`]: the 3D Gaussian kernel of 3D Gaussian Splatting
//!   (mean, rotation, scale, opacity, spherical-harmonics coefficients),
//! - [`sh`]: the spherical-harmonics color model `c = f(v; sh)` (Sec. II-A),
//! - [`Camera`]: a pinhole camera with view transform `W` (Sec. II-B),
//! - [`Gaussian4D`]: time-conditioned Gaussians for dynamic scenes in the
//!   style of 4D Gaussian Splatting (Sec. II-C),
//! - [`avatar`]: a skeleton-driven, linear-blend-skinned Gaussian avatar in
//!   the style of SplattingAvatar (Sec. II-C),
//! - [`synth`]: procedural scene generators, and
//! - [`dataset`]: the 12-scene registry mirroring the paper's Tab. I
//!   (6 static scenes, 3 dynamic scenes, 3 human avatars).
//!
//! The paper evaluates on captured datasets (MipNeRF-360, Neural 3D Video,
//! PeopleSnapshot) with trained checkpoints that we cannot redistribute;
//! the generators here synthesise scenes whose *workload statistics*
//! (fragment-to-Gaussian ratio, significant-fragment rate, footprint
//! distribution) match the paper's profiling, which is what every
//! architectural result depends on. README.md's *Substitutions and
//! paper-scale extrapolation* lists this substitution with the others.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod avatar;
mod camera;
pub mod dataset;
mod dynamic;
mod gaussian;
pub mod sh;
pub mod synth;

pub use camera::Camera;
pub use dataset::{DatasetScene, ScaleProfile, SceneKind};
pub use dynamic::Gaussian4D;
pub use gaussian::{Gaussian3D, GaussianScene};
pub use sh::ShCoeffs;
