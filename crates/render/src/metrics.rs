//! Image quality metrics.
//!
//! The paper reports PSNR and LPIPS (Tab. IV). PSNR is implemented exactly.
//! LPIPS is a learned perceptual metric whose network we cannot ship; we
//! substitute a gradient-structure proxy ([`lpips_proxy`]) that, like
//! LPIPS, is 0 for identical images and grows with perceptual differences
//! (edges appearing/disappearing), plus SSIM as a second standard metric.
//! README.md's *Substitutions and paper-scale extrapolation* lists this
//! substitution with the others.

use crate::FrameBuffer;
use gbu_math::Vec3;

/// Mean squared error over all pixels and channels.
///
/// # Panics
///
/// Panics if the buffers have different sizes.
pub fn mse(a: &FrameBuffer, b: &FrameBuffer) -> f64 {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()), "image size mismatch");
    let mut acc = 0.0f64;
    for (pa, pb) in a.pixels().iter().zip(b.pixels()) {
        let d = *pa - *pb;
        acc += (d.x as f64).powi(2) + (d.y as f64).powi(2) + (d.z as f64).powi(2);
    }
    acc / (a.pixels().len() as f64 * 3.0)
}

/// Peak signal-to-noise ratio in dB for unit-range images. Identical
/// images return `f64::INFINITY`.
pub fn psnr(a: &FrameBuffer, b: &FrameBuffer) -> f64 {
    let e = mse(a, b);
    if e == 0.0 {
        return f64::INFINITY;
    }
    10.0 * (1.0 / e).log10()
}

/// Converts to per-pixel luma (Rec. 601).
fn luma(p: Vec3) -> f64 {
    0.299 * p.x as f64 + 0.587 * p.y as f64 + 0.114 * p.z as f64
}

/// Structural similarity (SSIM) on luma with 8×8 windows, stride 4,
/// standard constants `k1 = 0.01`, `k2 = 0.03`. Returns a value in
/// `[-1, 1]`; 1 means identical.
///
/// # Panics
///
/// Panics if the buffers have different sizes or are smaller than 8×8.
pub fn ssim(a: &FrameBuffer, b: &FrameBuffer) -> f64 {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()), "image size mismatch");
    assert!(a.width() >= 8 && a.height() >= 8, "image too small for SSIM");
    const C1: f64 = 0.01 * 0.01;
    const C2: f64 = 0.03 * 0.03;
    let mut total = 0.0f64;
    let mut windows = 0u64;
    let (w, h) = (a.width(), a.height());
    let mut y = 0;
    while y + 8 <= h {
        let mut x = 0;
        while x + 8 <= w {
            let (mut ma, mut mb) = (0.0f64, 0.0f64);
            for dy in 0..8 {
                for dx in 0..8 {
                    ma += luma(a.get(x + dx, y + dy));
                    mb += luma(b.get(x + dx, y + dy));
                }
            }
            ma /= 64.0;
            mb /= 64.0;
            let (mut va, mut vb, mut cov) = (0.0f64, 0.0f64, 0.0f64);
            for dy in 0..8 {
                for dx in 0..8 {
                    let da = luma(a.get(x + dx, y + dy)) - ma;
                    let db = luma(b.get(x + dx, y + dy)) - mb;
                    va += da * da;
                    vb += db * db;
                    cov += da * db;
                }
            }
            va /= 63.0;
            vb /= 63.0;
            cov /= 63.0;
            let s = ((2.0 * ma * mb + C1) * (2.0 * cov + C2))
                / ((ma * ma + mb * mb + C1) * (va + vb + C2));
            total += s;
            windows += 1;
            x += 4;
        }
        y += 4;
    }
    total / windows as f64
}

/// Gradient-structure perceptual proxy standing in for LPIPS.
///
/// Computes per-pixel forward-difference gradients of the luma channel in
/// both images and returns the mean absolute difference of gradient
/// magnitudes plus a small luminance term. 0 for identical images; larger
/// values indicate structural (edge) differences, which is the perceptual
/// axis LPIPS captures. *Not* numerically comparable to published LPIPS
/// values — used only for relative comparisons like Tab. IV's
/// FP32-vs-FP16 delta.
///
/// # Panics
///
/// Panics if the buffers have different sizes.
pub fn lpips_proxy(a: &FrameBuffer, b: &FrameBuffer) -> f64 {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()), "image size mismatch");
    let (w, h) = (a.width(), a.height());
    let grad_mag = |img: &FrameBuffer, x: u32, y: u32| -> f64 {
        let c = luma(img.get(x, y));
        let gx = if x + 1 < w { luma(img.get(x + 1, y)) - c } else { 0.0 };
        let gy = if y + 1 < h { luma(img.get(x, y + 1)) - c } else { 0.0 };
        (gx * gx + gy * gy).sqrt()
    };
    let mut acc = 0.0f64;
    for y in 0..h {
        for x in 0..w {
            let dg = (grad_mag(a, x, y) - grad_mag(b, x, y)).abs();
            let dl = (luma(a.get(x, y)) - luma(b.get(x, y))).abs();
            acc += 0.8 * dg + 0.2 * dl;
        }
    }
    acc / (w as f64 * h as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_image(w: u32, h: u32, phase: f32) -> FrameBuffer {
        let mut fb = FrameBuffer::new(w, h, Vec3::ZERO);
        for y in 0..h {
            for x in 0..w {
                let v = ((x as f32 * 0.2 + phase).sin() * 0.5 + 0.5) * (y as f32 / h as f32);
                fb.set(x, y, Vec3::new(v, v * 0.8, v * 0.6));
            }
        }
        fb
    }

    #[test]
    fn identical_images_are_perfect() {
        let a = gradient_image(32, 32, 0.0);
        assert_eq!(mse(&a, &a), 0.0);
        assert_eq!(psnr(&a, &a), f64::INFINITY);
        assert!((ssim(&a, &a) - 1.0).abs() < 1e-9);
        assert_eq!(lpips_proxy(&a, &a), 0.0);
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let a = gradient_image(32, 32, 0.0);
        let mut small = a.clone();
        let mut big = a.clone();
        for y in 0..32 {
            for x in 0..32 {
                let p = a.get(x, y);
                small.set(x, y, p + Vec3::splat(0.01));
                big.set(x, y, p + Vec3::splat(0.1));
            }
        }
        let p_small = psnr(&a, &small);
        let p_big = psnr(&a, &big);
        assert!(p_small > p_big);
        assert!((p_small - 40.0).abs() < 0.5, "uniform 0.01 error ⇒ 40 dB, got {p_small}");
        assert!((p_big - 20.0).abs() < 0.5);
    }

    #[test]
    fn ssim_penalizes_structure_loss() {
        let a = gradient_image(32, 32, 0.0);
        let flat = FrameBuffer::new(32, 32, Vec3::splat(0.5));
        assert!(ssim(&a, &flat) < 0.7);
        let near = gradient_image(32, 32, 0.02);
        assert!(ssim(&a, &near) > ssim(&a, &flat));
    }

    #[test]
    fn lpips_proxy_tracks_structural_change() {
        let a = gradient_image(32, 32, 0.0);
        let near = gradient_image(32, 32, 0.05);
        let far = gradient_image(32, 32, 1.5);
        assert!(lpips_proxy(&a, &near) < lpips_proxy(&a, &far));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mse_size_mismatch_panics() {
        let a = FrameBuffer::new(8, 8, Vec3::ZERO);
        let b = FrameBuffer::new(9, 8, Vec3::ZERO);
        let _ = mse(&a, &b);
    }

    #[test]
    fn ssim_in_valid_range() {
        let a = gradient_image(40, 24, 0.3);
        let b = gradient_image(40, 24, 2.0);
        let s = ssim(&a, &b);
        assert!((-1.0..=1.0).contains(&s));
    }
}
