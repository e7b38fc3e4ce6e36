//! Linear algebra, numerics and geometry substrate for the GBU reproduction.
//!
//! This crate provides the small, dependency-free math kernel shared by every
//! other crate in the workspace:
//!
//! - fixed-size vectors ([`Vec2`], [`Vec3`], [`Vec4`]) and matrices
//!   ([`Mat2`], [`Mat3`], [`Mat4`]),
//! - symmetric 2×2 matrices with a closed-form eigendecomposition
//!   ([`Sym2`], [`Evd2`]) — the core of the paper's two-step IRSS coordinate
//!   transformation (Sec. IV-B),
//! - quaternions for Gaussian orientations ([`Quat`]),
//! - a software half-precision float ([`F16`]) used to model the GBU Row PE's
//!   FP-16 datapath (Sec. VI-B), and [`round_to_f16`], the same rounding on
//!   `f32` storage for hot loops,
//! - truncated-ellipse geometry helpers ([`ellipse`]),
//! - an LSD radix sort for (tile, depth) keys, both serial and
//!   chunk-parallel through a caller-supplied executor so this crate stays
//!   dependency-free ([`sort`]).
//!
//! # Example
//!
//! ```
//! use gbu_math::{Sym2, Vec2};
//!
//! // The conic (inverse covariance) of a 2D Gaussian.
//! let conic = Sym2::new(0.5, 0.1, 0.25);
//! let evd = conic.evd();
//! // Reconstructing Q D Q^T recovers the conic.
//! let back = evd.reconstruct();
//! assert!((back.a - conic.a).abs() < 1e-6);
//! # let _ = Vec2::new(0.0, 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ellipse;
pub mod half;
mod mat;
mod quat;
pub mod sort;
mod sym2;
mod vec;

pub use ellipse::EllipseBounds;
pub use half::{round_to_f16, F16};
pub use mat::{Mat2, Mat3, Mat4};
pub use quat::Quat;
pub use sym2::{Evd2, Sym2};
pub use vec::{Vec2, Vec3, Vec4};

/// Machine-epsilon-scale tolerance used by approximate comparisons in tests.
pub const EPS: f32 = 1e-5;

/// Returns `true` if `a` and `b` differ by at most `tol` absolutely or
/// relatively (whichever is larger).
///
/// This is the comparison used throughout the workspace's tests; it behaves
/// sensibly for values spanning many orders of magnitude.
///
/// # Example
///
/// ```
/// assert!(gbu_math::approx_eq(1.0, 1.0 + 1e-7, 1e-5));
/// assert!(!gbu_math::approx_eq(1.0, 1.1, 1e-5));
/// ```
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(0.0, 1e-6, 1e-5));
        assert!(!approx_eq(0.0, 1e-3, 1e-5));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e6, 1e6 * (1.0 + 1e-6), 1e-5));
        assert!(!approx_eq(1e6, 1.1e6, 1e-5));
    }
}
