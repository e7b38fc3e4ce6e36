//! Intra-Row Sequential Shading — the paper's proposed dataflow (Sec. IV).
//!
//! IRSS shades each pixel row left to right, enabled by a two-step
//! coordinate transformation (Fig. 7):
//!
//! 1. **`P → P'` (whitening).** The eigendecomposition
//!    `Σ*⁻¹ = Q D Qᵀ` gives `P' = D^{1/2} Qᵀ (P - µ*)`, turning the
//!    anisotropic quadratic form of Eq. 7 into a squared distance:
//!    `q = ‖P'‖²` (Eq. 8-10).
//! 2. **`P' → P''` (rotation).** A rotation `Θ` aligns the image of the
//!    screen-x step with the x''-axis, so stepping one pixel right changes
//!    only `x''` (`ΔP'' = (Δx'', 0)`, Eq. 13). Along a row `y''` is
//!    constant: `q = x''² + y''²` costs 2 FLOPs per fragment.
//!
//! Redundancy skipping (Sec. IV-C) exploits the convexity of the truncated
//! ellipse: a row is skipped outright when `y''² > Th`; otherwise the first
//! fragment is located by the paper's 3-step procedure (leftmost test, sign
//! test, binary search) and marching stops at the first fragment with
//! `q > Th`.
//!
//! Neither transformation approximates Eq. 7 — [`IrssSplat::transform_point`]
//! preserves the quadratic form exactly (up to floating-point rounding),
//! which the property tests assert.
//!
//! The tile-row kernel is generic over the blend arithmetic
//! ([`Datapath`]): [`Fp32`] is the software renderer, [`Fp16`] the GBU
//! Row PE's binary16 datapath. It is also generic over a Row-PE timing
//! model ([`RowPes`]) that it tells of every instance, row span and tile
//! it walks: `()` for the software renderers, the Row Generation Engine
//! and Row-PE queues for the GBU tile engine, which times and blends its
//! frames in this one walk (or only times them, with no frame buffer).
//! So Step ❸'s walk exists once.

use crate::binning::TileBins;
use crate::pfs::T_SATURATED;
use crate::preprocess::pixel_center;
use crate::scratch::{blend_tile_rows, BlendScratch, TileScratch};
use crate::splat::{alpha_from_q, Splat2D};
use crate::stats::{BlendStats, FLOPS_BLEND, FLOPS_Q_FULL, FLOPS_Q_T2};
use crate::{FrameBuffer, RenderConfig};
use gbu_math::{round_to_f16, Mat2, Vec2, Vec3};
use gbu_par::ThreadPool;
use gbu_scene::Camera;

/// FLOPs charged per considered row for the incremental `y''` update and
/// the `y''² > Th` test (Step-1 of Sec. IV-C).
pub const FLOPS_ROW_TEST: u64 = 2;
/// FLOPs charged per binary-search iteration (one affine step + compare).
pub const FLOPS_SEARCH_ITER: u64 = 2;

/// A splat with its precomputed IRSS transform.
///
/// In the paper's system the Decomposition & Binning engine computes these
/// parameters once per Gaussian per frame (Sec. V-D); on the GPU mapping
/// they are produced by Rendering Step ❶.
#[derive(Debug, Clone, PartialEq)]
pub struct IrssSplat {
    /// Screen-space mean `µ*`.
    pub mean: Vec2,
    /// Combined transform `Θ D^{1/2} Qᵀ`: maps `P - µ*` to `P''`.
    pub m: Mat2,
    /// `Δx''`: change of `x''` per one-pixel step right (always > 0).
    pub dx: f32,
    /// Truncation threshold `Th`.
    pub th: f32,
    /// Opacity factor `o`.
    pub opacity: f32,
    /// RGB color.
    pub color: Vec3,
    /// Depth (kept for the hardware model's feature records).
    pub depth: f32,
    /// Source Gaussian index.
    pub source: u32,
}

/// Outcome of the first-fragment procedure for one row.
#[derive(Debug, Clone, PartialEq)]
pub enum RowOutcome {
    /// `y''² > Th`: the row cannot intersect the truncated Gaussian
    /// (the blue box of Fig. 8(b)).
    SkippedY,
    /// The row's span does not intersect the truncated Gaussian within the
    /// tile; `search_iters` binary-search iterations were spent discovering
    /// this (0 when the sign test resolved it).
    Miss {
        /// Binary-search iterations performed before concluding the miss.
        search_iters: u32,
    },
    /// A first fragment was located.
    Span(RowSpan),
}

/// A located row span: where shading starts and the shared row state.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSpan {
    /// Pixel x of the first fragment inside the truncated Gaussian.
    pub first_x: u32,
    /// `x''` at the first fragment.
    pub x_pp: f32,
    /// The row's constant `y''²`.
    pub y2: f32,
    /// Binary-search iterations spent locating the first fragment.
    pub search_iters: u32,
}

/// Cost of marching one row span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MarchCost {
    /// Fragments evaluated (including the terminating out-of-threshold
    /// fragment, if the march did not hit the tile edge first).
    pub evaluated: u32,
    /// Fragments inside the truncated Gaussian (passed to the callback).
    pub inside: u32,
}

impl IrssSplat {
    /// Precomputes the two-step transform for a splat.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the conic is not positive definite (the
    /// preprocessing stage guarantees it is).
    pub fn new(s: &Splat2D) -> Self {
        let evd = s.conic.evd();
        // Whitening W = D^{1/2} Q^T.
        let w = evd.whitening();
        // Image of a one-pixel step right in P'-space.
        let dp = w.mul_vec(Vec2::new(1.0, 0.0));
        let len = dp.length();
        debug_assert!(len > 0.0, "whitening of a PD conic cannot collapse the x step");
        // Rotation aligning dp with the x''-axis (Eq. 13).
        let theta = Mat2::new(dp.x / len, dp.y / len, -dp.y / len, dp.x / len);
        Self {
            mean: s.mean,
            m: theta * w,
            dx: len,
            th: s.threshold,
            opacity: s.opacity,
            color: s.color,
            depth: s.depth,
            source: s.source,
        }
    }

    /// Maps a screen point to `P''`. `‖P''‖²` equals Eq. 7's quadratic
    /// form exactly (the transformations are not approximations).
    #[inline]
    pub fn transform_point(&self, p: Vec2) -> Vec2 {
        self.m.mul_vec(p - self.mean)
    }

    /// Runs the paper's 3-step first-fragment procedure for the row of
    /// pixels `y` spanning `[x0, x1)`.
    pub fn row_outcome(&self, y: u32, x0: u32, x1: u32) -> RowOutcome {
        debug_assert!(x0 < x1, "empty row span");
        let p0 = self.transform_point(pixel_center(x0, y));
        let y2 = p0.y * p0.y;
        // Step-1: the row-level test. y'' is constant along the row.
        if y2 > self.th {
            return RowOutcome::SkippedY;
        }
        // Step-2: is the leftmost fragment already inside?
        let q0 = p0.x * p0.x + y2;
        if q0 <= self.th {
            return RowOutcome::Span(RowSpan { first_x: x0, x_pp: p0.x, y2, search_iters: 0 });
        }
        // Step-3: sign test. dx > 0, so if x''(x0) > 0 the Gaussian lies
        // entirely to the left — marching right only increases q.
        if p0.x > 0.0 {
            return RowOutcome::Miss { search_iters: 0 };
        }
        // Binary search for the smallest step n with x''(x0+n) >= -x_lim,
        // where x_lim = sqrt(Th - y''²) bounds the ellipse slice.
        let x_lim = (self.th - y2).sqrt();
        let span = x1 - x0;
        let (mut lo, mut hi) = (1u32, span - 1);
        if span == 1 || p0.x + (span - 1) as f32 * self.dx < -x_lim {
            // Even the rightmost pixel is left of the ellipse.
            return RowOutcome::Miss { search_iters: 0 };
        }
        let mut iters = 0u32;
        while lo < hi {
            iters += 1;
            let mid = (lo + hi) / 2;
            if p0.x + mid as f32 * self.dx >= -x_lim {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let x_pp = p0.x + lo as f32 * self.dx;
        if x_pp > x_lim {
            // The ellipse slice fell between two pixel centres.
            return RowOutcome::Miss { search_iters: iters };
        }
        RowOutcome::Span(RowSpan { first_x: x0 + lo, x_pp, y2, search_iters: iters })
    }

    /// Marches a row span left to right, invoking `shade(x, q)` for every
    /// fragment inside the truncated Gaussian, stopping at the first
    /// fragment outside (convexity guarantees nothing follows) or at the
    /// tile edge `x1`.
    pub fn march<F: FnMut(u32, f32)>(&self, span: &RowSpan, x1: u32, mut shade: F) -> MarchCost {
        let mut cost = MarchCost::default();
        let mut x_pp = span.x_pp;
        for x in span.first_x..x1 {
            cost.evaluated += 1;
            let q = x_pp * x_pp + span.y2;
            if q > self.th {
                break; // last fragment passed (red box of Fig. 8(e))
            }
            cost.inside += 1;
            shade(x, q);
            x_pp += self.dx;
        }
        cost
    }
}

/// The arithmetic of one blend step, Eq. 3's front-to-back update: a
/// fragment of opacity `alpha` and color `rgb` into a pixel's accumulated
/// `color` and transmittance `trans`.
pub trait Datapath {
    /// An instance's color as the datapath holds it, taken once per
    /// instance and passed to every [`Datapath::blend`] of its fragments.
    /// The identity unless the datapath is narrower than `f32`.
    #[inline]
    fn color(rgb: Vec3) -> Vec3 {
        rgb
    }

    /// Blends one fragment of color `rgb` (from [`Datapath::color`]) into
    /// a pixel.
    fn blend(color: &mut Vec3, trans: &mut f32, alpha: f32, rgb: Vec3);
}

/// IEEE binary32 throughout: the software renderer's datapath.
#[derive(Debug)]
pub enum Fp32 {}

impl Datapath for Fp32 {
    #[inline]
    fn blend(color: &mut Vec3, trans: &mut f32, alpha: f32, rgb: Vec3) {
        *color += rgb * (alpha * *trans);
        *trans *= 1.0 - alpha;
    }
}

/// The GBU Row PE's FP-16 datapath (Sec. VI-B), the source of Tab. IV's
/// small PSNR loss: α, the blend weight, each color channel (once per
/// instance) and the transmittance are rounded to binary16 after every
/// operation ([`round_to_f16`]). Each color update is
/// [`F16::mul_add`](gbu_math::F16::mul_add)'s arithmetic: the multiply-add
/// is evaluated in `f32` and then rounded to binary16, which is two
/// roundings, not one, whenever the `f32` result is inexact. The pixel
/// state stays in `f32` storage holding binary16 values exactly, so the
/// saturation test and compositing read it unchanged.
#[derive(Debug)]
pub enum Fp16 {}

impl Datapath for Fp16 {
    #[inline]
    fn color(rgb: Vec3) -> Vec3 {
        Vec3::new(round_to_f16(rgb.x), round_to_f16(rgb.y), round_to_f16(rgb.z))
    }

    #[inline]
    fn blend(color: &mut Vec3, trans: &mut f32, alpha: f32, rgb: Vec3) {
        let a = round_to_f16(alpha);
        let w = round_to_f16(a * *trans);
        let mul_add = |c: f32, acc: f32| round_to_f16(c * w + acc);
        *color =
            Vec3::new(mul_add(rgb.x, color.x), mul_add(rgb.y, color.y), mul_add(rgb.z, color.z));
        *trans = round_to_f16(*trans * round_to_f16(1.0 - a));
    }
}

/// A Row-PE timing model fed by the tile-row kernel's walk (Sec. V-C,
/// Fig. 11): the GBU tile engine's queues, or `()` for the software
/// renderers. Each tile-row job feeds its own [`RowPes::fork`], and the
/// jobs are joined in tile-row order.
pub trait RowPes: Send {
    /// Whether the walk goes on through a tile whose pixels have all
    /// saturated, shading off, instead of stopping there: the hardware's
    /// threshold units evaluate every instance.
    const WALKS_SATURATED: bool = false;
    /// An empty model for one tile row.
    fn fork(&self) -> Self;
    /// Adds a later tile row's model.
    fn join(&mut self, row: Self);
    /// The next instance of the tile enters the walk.
    fn instance(&mut self) {}
    /// Row `row` of the tile has a span of `evaluated` fragments.
    fn span(&mut self, _row: usize, _evaluated: u32) {}
    /// The instance is done, with `spans` row spans.
    fn instance_end(&mut self, _spans: u32) {}
    /// The tile is done.
    fn tile_end(&mut self) {}
}

impl RowPes for () {
    fn fork(&self) {}
    fn join(&mut self, _row: ()) {}
}

/// Precomputes IRSS transforms for every splat on `pool` (one EVD +
/// rotation per splat — Rendering Step ❶ work, embarrassingly parallel).
/// Output ordering is index-stable, so the transform list is identical
/// at any thread count.
pub fn precompute_pooled(pool: &ThreadPool, splats: &[Splat2D]) -> Vec<IrssSplat> {
    pool.map_indexed(splats, |_, s| IrssSplat::new(s))
}

/// The IRSS blend over caller-precomputed transforms (one per splat,
/// indexed by the bins' entries) on datapath `D`, feeding the Row-PE
/// model `pes`: blends into caller-owned buffers, tile rows dispatched
/// across `pool` and merged in tile order, on the same tile-row driver
/// as [`crate::pfs::blend_into`] — bit-identical to a serial run at any
/// thread count, with a `blend_row` span per job at `GBU_TRACE=2`. At
/// [`Fp32`] it produces the same image as the PFS blend up to
/// floating-point tolerance. Fills `stats.row_workload` when
/// [`RenderConfig::record_row_workload`] is set. Without an `image` no
/// pixel is shaded, and only a model that [`RowPes::WALKS_SATURATED`]
/// sees the walk; software callers pass `Some(image)` and `&mut ()`.
///
/// # Panics
///
/// Panics if `image` does not match the camera's dimensions.
#[allow(clippy::too_many_arguments)] // the reuse surface *is* the point
pub fn blend_precomputed_into<D: Datapath>(
    pool: &ThreadPool,
    isplats: &[IrssSplat],
    bins: &TileBins,
    camera: &Camera,
    config: &RenderConfig,
    scratch: &mut BlendScratch,
    image: Option<&mut FrameBuffer>,
    stats: &mut BlendStats,
    pes: &mut impl RowPes,
) {
    blend_tile_rows(
        pool,
        bins,
        camera,
        config,
        config.record_row_workload,
        scratch,
        image,
        stats,
        pes,
        |ts, ty, px, wl, st, pes| {
            blend_tile_row::<D, _>(isplats, bins, camera, config, ts, ty, px, wl, st, pes);
        },
    );
}

/// Blends every tile of tile row `ty` into `pixels` with the IRSS
/// dataflow on datapath `D`, telling `pes` of every instance, row span
/// and tile it walks — the sequential per-tile loop, shared verbatim
/// between the serial and parallel paths. Shading is decided per row: a
/// model that walks saturated tiles gets their rows marched for the
/// count alone, and an empty `pixels` (no frame buffer) saturates every
/// tile from its first instance.
#[allow(clippy::too_many_arguments)]
fn blend_tile_row<D: Datapath, M: RowPes>(
    isplats: &[IrssSplat],
    bins: &TileBins,
    camera: &Camera,
    config: &RenderConfig,
    tile_scratch: &mut TileScratch,
    ty: u32,
    pixels: &mut [Vec3],
    workload: &mut [Vec<u32>],
    stats: &mut BlendStats,
    pes: &mut M,
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
        let buf = tile_scratch.tile(w, (y1 - y0) as usize);
        let (color, trans) = (buf.color, buf.trans);
        let mut alive = if pixels.is_empty() { 0 } else { trans.len() };

        for (ei, &entry) in entries.iter().enumerate() {
            if alive == 0 && !M::WALKS_SATURATED {
                stats.instances_skipped_saturated += (entries.len() - ei) as u64;
                break;
            }
            stats.instances += 1;
            pes.instance();
            let isp = &isplats[entry as usize];
            let rgb = D::color(isp.color);
            let (mut instance_row_max, mut spans) = (0u32, 0u32);
            for py in y0..y1 {
                stats.rows_considered += 1;
                stats.setup_flops += FLOPS_ROW_TEST;
                match isp.row_outcome(py, x0, x1) {
                    RowOutcome::SkippedY => {
                        stats.rows_skipped += 1;
                    }
                    RowOutcome::Miss { search_iters } => {
                        if search_iters > 0 {
                            stats.binary_searches += 1;
                            stats.setup_flops += u64::from(search_iters) * FLOPS_SEARCH_ITER;
                        }
                    }
                    RowOutcome::Span(span) => {
                        if span.search_iters > 0 {
                            stats.binary_searches += 1;
                            stats.setup_flops += u64::from(span.search_iters) * FLOPS_SEARCH_ITER;
                        }
                        // First fragment of a row costs a full Eq. 7
                        // evaluation (Sec. IV-B); interior fragments cost 2.
                        stats.setup_flops += FLOPS_Q_FULL;
                        let row_idx = (py - y0) as usize;
                        let mut blended = 0u64;
                        let cost = if M::WALKS_SATURATED && alive == 0 {
                            isp.march(&span, x1, |_, _| {})
                        } else {
                            isp.march(&span, x1, |px, q| {
                                let idx = row_idx * w + (px - x0) as usize;
                                if trans[idx] < T_SATURATED {
                                    return;
                                }
                                let alpha = alpha_from_q(isp.opacity, q);
                                blended += 1;
                                D::blend(&mut color[idx], &mut trans[idx], alpha, rgb);
                                if trans[idx] < T_SATURATED {
                                    alive -= 1;
                                }
                            })
                        };
                        stats.fragments_significant += u64::from(cost.inside);
                        stats.fragments_blended += blended;
                        stats.blend_flops += blended * FLOPS_BLEND;
                        stats.fragments_evaluated += u64::from(cost.evaluated);
                        stats.q_flops += u64::from(cost.evaluated.saturating_sub(1)) * FLOPS_Q_T2;
                        instance_row_max = instance_row_max.max(cost.evaluated);
                        if config.record_row_workload {
                            workload[tx as usize][row_idx] += cost.inside;
                        }
                        spans += 1;
                        pes.span(row_idx, cost.evaluated);
                    }
                }
            }
            pes.instance_end(spans);
            stats.instance_row_max_sum += u64::from(instance_row_max);
        }
        pes.tile_end();

        tile_scratch.composite(pixels, width, x0 as usize, config.background);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{render_irss, render_pfs};
    use gbu_math::{approx_eq, Sym2};
    use gbu_scene::{Gaussian3D, GaussianScene};

    fn splat_at(mean: Vec2, conic: Sym2, opacity: f32) -> Splat2D {
        Splat2D {
            mean,
            conic,
            cov: conic.inverse().unwrap(),
            color: Vec3::ONE,
            opacity,
            depth: 1.0,
            threshold: 2.0 * (opacity * 255.0).ln(),
            source: 0,
        }
    }

    #[test]
    fn transform_preserves_quadratic_form() {
        let s = splat_at(Vec2::new(20.0, 12.0), Sym2::new(0.4, 0.15, 0.2), 0.9);
        let isp = IrssSplat::new(&s);
        for &(x, y) in &[(20.0, 12.0), (25.0, 9.0), (0.0, 0.0), (31.0, 15.0)] {
            let p = Vec2::new(x, y);
            let q_direct = s.q_at(p);
            let q_irss = isp.transform_point(p).length_squared();
            assert!(
                approx_eq(q_direct, q_irss, 1e-3),
                "q mismatch at ({x},{y}): {q_direct} vs {q_irss}"
            );
        }
    }

    #[test]
    fn x_step_is_axis_aligned_after_transform() {
        let s = splat_at(Vec2::new(5.0, 5.0), Sym2::new(0.7, -0.3, 0.5), 0.8);
        let isp = IrssSplat::new(&s);
        let a = isp.transform_point(Vec2::new(3.0, 7.0));
        let b = isp.transform_point(Vec2::new(4.0, 7.0));
        let delta = b - a;
        assert!(approx_eq(delta.x, isp.dx, 1e-5));
        assert!(delta.y.abs() < 1e-5, "Δy'' must vanish, got {}", delta.y);
        assert!(isp.dx > 0.0);
    }

    #[test]
    fn y_constant_along_row() {
        let s = splat_at(Vec2::new(8.0, 8.0), Sym2::new(0.3, 0.1, 0.6), 0.9);
        let isp = IrssSplat::new(&s);
        let y0 = isp.transform_point(pixel_center(0, 4)).y;
        for x in 1..16 {
            let y = isp.transform_point(pixel_center(x, 4)).y;
            assert!(approx_eq(y, y0, 1e-4));
        }
    }

    /// Brute-force oracle: the set of in-threshold pixels of a row.
    fn brute_force_row(s: &Splat2D, y: u32, x0: u32, x1: u32) -> Vec<u32> {
        (x0..x1).filter(|&x| s.q_at(pixel_center(x, y)) <= s.threshold).collect()
    }

    #[test]
    fn row_outcome_matches_brute_force() {
        // A Gaussian near the middle of a 32-wide strip; check every row.
        let s = splat_at(Vec2::new(16.0, 8.0), Sym2::new(0.15, 0.05, 0.3), 0.9);
        let isp = IrssSplat::new(&s);
        for y in 0..16 {
            let expected = brute_force_row(&s, y, 0, 32);
            match isp.row_outcome(y, 0, 32) {
                RowOutcome::SkippedY | RowOutcome::Miss { .. } => {
                    assert!(
                        expected.is_empty(),
                        "row {y}: IRSS skipped but brute force found {expected:?}"
                    );
                }
                RowOutcome::Span(span) => {
                    assert!(!expected.is_empty(), "row {y}: IRSS found a span, oracle empty");
                    assert_eq!(span.first_x, expected[0], "row {y} first fragment");
                    // March and compare the full set.
                    let mut got = Vec::new();
                    isp.march(&span, 32, |x, _| got.push(x));
                    assert_eq!(got, expected, "row {y} fragment set");
                }
            }
        }
    }

    #[test]
    fn binary_search_used_when_row_starts_outside() {
        // Gaussian centred right of the tile start: x''(x0) << 0.
        let s = splat_at(Vec2::new(24.0, 4.0), Sym2::new(0.5, 0.0, 0.5), 0.9);
        let isp = IrssSplat::new(&s);
        match isp.row_outcome(4, 0, 32) {
            RowOutcome::Span(span) => {
                assert!(span.search_iters > 0, "must binary-search to skip the left gap");
                assert!(span.first_x > 0);
            }
            other => panic!("expected a span, got {other:?}"),
        }
    }

    #[test]
    fn gaussian_left_of_tile_is_sign_tested() {
        // Gaussian fully left of the span: x''(x0) > 0, no search needed.
        let s = splat_at(Vec2::new(-10.0, 4.0), Sym2::new(0.5, 0.0, 0.5), 0.9);
        let isp = IrssSplat::new(&s);
        assert_eq!(isp.row_outcome(4, 0, 32), RowOutcome::Miss { search_iters: 0 });
    }

    #[test]
    fn far_row_skipped_by_y_test() {
        let s = splat_at(Vec2::new(16.0, 0.0), Sym2::new(0.5, 0.0, 0.5), 0.9);
        let isp = IrssSplat::new(&s);
        assert_eq!(isp.row_outcome(15, 0, 32), RowOutcome::SkippedY);
    }

    #[test]
    fn march_q_matches_direct_evaluation() {
        let s = splat_at(Vec2::new(10.0, 6.0), Sym2::new(0.2, 0.08, 0.35), 0.85);
        let isp = IrssSplat::new(&s);
        if let RowOutcome::Span(span) = isp.row_outcome(6, 0, 32) {
            isp.march(&span, 32, |x, q| {
                let q_direct = s.q_at(pixel_center(x, 6));
                assert!(approx_eq(q, q_direct, 1e-3), "x={x}: {q} vs {q_direct}");
            });
        } else {
            panic!("expected a span through the Gaussian centre row");
        }
    }

    fn render_both(scene: &GaussianScene) -> (FrameBuffer, FrameBuffer, BlendStats, BlendStats) {
        let cam = Camera::orbit(96, 64, 1.0, Vec3::ZERO, 3.0, 0.2, 0.1);
        let cfg = RenderConfig::default();
        let (pfs, irss) = (render_pfs(scene, &cam, &cfg), render_irss(scene, &cam, &cfg));
        (pfs.image, irss.image, pfs.blend, irss.blend)
    }

    #[test]
    fn irss_image_equals_pfs_image() {
        let scene: GaussianScene = (0..40)
            .map(|i| {
                let a = i as f32 * 0.61;
                Gaussian3D::isotropic(
                    Vec3::new(a.cos() * 0.5, a.sin() * 0.4, (i as f32 * 0.13).sin() * 0.5),
                    0.05 + 0.01 * (i % 5) as f32,
                    Vec3::new(0.2 + 0.02 * i as f32, 0.8 - 0.015 * i as f32, 0.5),
                    0.3 + 0.015 * i as f32,
                )
            })
            .collect();
        let (img_pfs, img_irss, _, _) = render_both(&scene);
        let diff = img_pfs.max_abs_diff(&img_irss);
        assert!(diff < 5e-3, "IRSS must reproduce PFS, max diff {diff}");
    }

    #[test]
    fn irss_evaluates_far_fewer_fragments() {
        let scene: GaussianScene = (0..60)
            .map(|i| {
                let a = i as f32 * 0.37;
                Gaussian3D::isotropic(
                    Vec3::new(a.cos() * 0.6, a.sin() * 0.5, 0.0),
                    0.03,
                    Vec3::splat(0.6),
                    0.5,
                )
            })
            .collect();
        let (_, _, st_pfs, st_irss) = render_both(&scene);
        assert!(
            (st_irss.fragments_evaluated as f64) < 0.55 * st_pfs.fragments_evaluated as f64,
            "IRSS {} vs PFS {}",
            st_irss.fragments_evaluated,
            st_pfs.fragments_evaluated
        );
        // Same significant fragments get blended by both dataflows.
        assert_eq!(st_pfs.fragments_blended, st_irss.fragments_blended);
    }

    #[test]
    fn irss_flops_per_fragment_approach_two() {
        // One big Gaussian covering long rows: the amortised Eq.-7 cost per
        // evaluated fragment approaches the 2-FLOP floor (Fig. 6).
        let scene: GaussianScene =
            std::iter::once(Gaussian3D::isotropic(Vec3::ZERO, 0.6, Vec3::ONE, 0.95)).collect();
        let (_, _, st_pfs, st_irss) = render_both(&scene);
        assert!((st_pfs.q_flops_per_fragment() - 11.0).abs() < 1e-9);
        let irss_cost = st_irss.q_flops_per_fragment();
        assert!(irss_cost < 3.0, "amortised IRSS cost {irss_cost} should be near 2");
    }

    #[test]
    fn row_workload_recorded_when_requested() {
        let cam = Camera::orbit(64, 64, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0);
        let cfg = RenderConfig { record_row_workload: true, ..Default::default() };
        let scene: GaussianScene =
            std::iter::once(Gaussian3D::isotropic(Vec3::ZERO, 0.2, Vec3::ONE, 0.9)).collect();
        let out = render_irss(&scene, &cam, &cfg);
        let stats = out.blend;
        assert_eq!(stats.row_workload.len() as u64, out.binning.total_tiles);
        let total: u32 = stats.row_workload.iter().flat_map(|r| r.iter()).sum();
        assert_eq!(u64::from(total), stats.fragments_significant);
        // Utilization of the row-to-lane mapping is below 1 for an
        // elliptical footprint (the workload imbalance of Fig. 9).
        assert!(stats.row_lane_utilization() < 1.0);
    }
}
