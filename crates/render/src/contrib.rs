//! Contribution-aware quality degradation: per-Gaussian scoring and
//! degraded render modes.
//!
//! FLICKER-style profiling shows most Gaussians contribute almost
//! nothing to the final pixels of a 3DGS frame: their footprint is tiny,
//! their opacity low, or they sit behind heavy foreground coverage. This
//! module turns that observation into an explicit quality/latency dial:
//!
//! 1. [`contribution_scores`] ranks every projected splat by a cheap
//!    screen-space estimate (footprint area × peak alpha × a
//!    transmittance-weighted occlusion term), reusing the
//!    [`ProjectedBounds`] that Step ❶ already carries so scoring adds no
//!    new ellipse math.
//! 2. [`QualityLevel`] names the degradation ladder: `Exact` (the
//!    untouched pipeline), `TopK` (keep the best fraction), `Culled`
//!    (drop everything below a normalized contribution floor).
//! 3. [`select`] + [`compact`] realize a level as a *smaller frame*: a
//!    compacted splat list plus re-indexed [`TileBins`] that preserve
//!    per-tile depth order. Because the result is an ordinary
//!    `(splats, bins)` artifact, every downstream consumer — both blend
//!    dataflows, the GBU device timing model, the serving layer — prices
//!    and renders exactly the splats that survive, so degraded-mode cost
//!    accounting falls out for free.
//!
//! [`crate::pipeline::blend_with_quality_pooled`] runs the three steps
//! on a projected frame, and [`crate::metrics::psnr`] quantifies the
//! image cost of a degraded render against the exact one.
//!
//! Scoring and selection are serial, closed-form, and independent of the
//! thread pool, so degraded frames are deterministic across thread
//! counts (pinned by `tests/quality_equivalence.rs`).

use crate::binning::TileBins;
use crate::preprocess::ProjectedBounds;
use crate::Splat2D;
use gbu_math::EllipseBounds;
use gbu_scene::Camera;

/// How much quality Step ❸ is allowed to give up for latency.
///
/// `Exact` is the full pipeline, bit-identical to [`crate::pipeline::blend`].
/// The degraded levels drop low-contribution splats *before* blending, so
/// both dataflows, the blend statistics, and the hardware timing model see
/// only the surviving work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QualityLevel {
    /// Blend every binned splat — the unmodified pipeline.
    Exact,
    /// Keep only the top `fraction` of splats by contribution score
    /// (`0 < fraction <= 1`; at least one splat always survives).
    TopK {
        /// Fraction of splats to keep, by descending contribution.
        fraction: f32,
    },
    /// Drop splats whose max-normalized contribution score falls below
    /// `min_contribution` (`0 <= min_contribution <= 1`; the
    /// highest-scoring splat always survives).
    Culled {
        /// Normalized contribution floor in `[0, 1]`.
        min_contribution: f32,
    },
}

impl QualityLevel {
    /// `true` for [`QualityLevel::Exact`].
    pub fn is_exact(self) -> bool {
        matches!(self, QualityLevel::Exact)
    }

    /// Stable name for reports and JSON (e.g. `exact`, `topk_0.50`,
    /// `cull_0.0100`).
    pub fn label(self) -> String {
        match self {
            QualityLevel::Exact => "exact".to_string(),
            QualityLevel::TopK { fraction } => format!("topk_{fraction:.2}"),
            QualityLevel::Culled { min_contribution } => format!("cull_{min_contribution:.4}"),
        }
    }

    /// Panics unless the level's parameter is in range.
    pub fn validate(self) {
        match self {
            QualityLevel::Exact => {}
            QualityLevel::TopK { fraction } => {
                assert!(
                    fraction > 0.0 && fraction <= 1.0,
                    "TopK fraction must be in (0, 1], got {fraction}"
                );
            }
            QualityLevel::Culled { min_contribution } => {
                assert!(
                    (0.0..=1.0).contains(&min_contribution),
                    "Culled min_contribution must be in [0, 1], got {min_contribution}"
                );
            }
        }
    }
}

/// Scores every splat's expected contribution to the final image,
/// normalized so the highest-contributing splat scores `1.0`.
///
/// The estimate is `clipped footprint area × peak alpha × T̂`, where `T̂`
/// is a coarse front-to-back transmittance term: walking splats in depth
/// order, each one is discounted by the opacity-weighted screen coverage
/// of everything in front of it. Pass the frame's carried
/// [`ProjectedBounds`] when available (Step ❶ already derived the ellipse
/// AABBs); without bounds the footprint is re-derived from the conic.
///
/// The computation is serial and closed-form: identical output at every
/// thread count.
pub fn contribution_scores(
    splats: &[Splat2D],
    bounds: Option<&ProjectedBounds>,
    camera: &Camera,
) -> Vec<f32> {
    let n = splats.len();
    if n == 0 {
        return Vec::new();
    }
    let (w, h) = (camera.width as f32, camera.height as f32);
    let screen_area = (w * h).max(1.0);

    // Clipped footprint area and peak alpha per splat.
    let mut area = vec![0.0f32; n];
    let mut alpha = vec![0.0f32; n];
    for (i, s) in splats.iter().enumerate() {
        let eb = match bounds {
            Some(b) if b.splats.len() == n => Some(b.splats[i]),
            _ => EllipseBounds::from_conic(s.mean, s.conic, s.threshold),
        };
        area[i] = eb.map_or(0.0, |eb| {
            let (min, max) = (eb.min(), eb.max());
            let wpx = (max.x.min(w) - min.x.max(0.0)).max(0.0);
            let hpx = (max.y.min(h) - min.y.max(0.0)).max(0.0);
            wpx * hpx
        });
        alpha[i] = s.opacity.clamp(0.0, 0.99);
    }

    // Front-to-back pass: discount each splat by the opacity-weighted
    // coverage of everything in front of it.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| splats[a].depth.total_cmp(&splats[b].depth).then(a.cmp(&b)));
    let mut scores = vec![0.0f32; n];
    let mut occlusion = 0.0f32;
    for &i in &order {
        let transmittance = (-occlusion).exp();
        scores[i] = area[i] * alpha[i] * transmittance;
        occlusion += alpha[i] * (area[i] / screen_area);
    }

    // Normalize so level thresholds are scene-scale invariant.
    let peak = scores.iter().fold(0.0f32, |m, &s| m.max(s));
    if peak > 0.0 {
        for s in &mut scores {
            *s /= peak;
        }
    }
    scores
}

/// Chooses which splats survive `level` given their normalized
/// [`contribution_scores`]. Returns `None` for [`QualityLevel::Exact`]
/// (nothing to do); otherwise a keep-mask parallel to `scores` with at
/// least one surviving splat (when `scores` is non-empty).
pub fn select(scores: &[f32], level: QualityLevel) -> Option<Vec<bool>> {
    level.validate();
    let n = scores.len();
    match level {
        QualityLevel::Exact => None,
        QualityLevel::TopK { fraction } => {
            if n == 0 {
                return Some(Vec::new());
            }
            let k = ((fraction as f64 * n as f64).ceil() as usize).clamp(1, n);
            let mut order: Vec<usize> = (0..n).collect();
            // Descending score, index-tiebroken: deterministic for equal scores.
            order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
            let mut keep = vec![false; n];
            for &i in &order[..k] {
                keep[i] = true;
            }
            Some(keep)
        }
        QualityLevel::Culled { min_contribution } => {
            let mut keep: Vec<bool> = scores.iter().map(|&s| s >= min_contribution).collect();
            if n > 0 && !keep.iter().any(|&k| k) {
                // Degenerate all-zero scores: always ship the best splat.
                let best = (0..n).max_by(|&a, &b| scores[a].total_cmp(&scores[b])).unwrap();
                keep[best] = true;
            }
            Some(keep)
        }
    }
}

/// Realizes a keep-mask as a smaller frame: the surviving splats in
/// their original order plus [`TileBins`] re-indexed against the
/// compacted list. Per-tile depth order is preserved (the filter is
/// stable), so blending the result is exactly "the same frame minus the
/// dropped splats" — and every cycle model downstream automatically
/// charges only the surviving work.
pub fn compact(splats: &[Splat2D], bins: &TileBins, keep: &[bool]) -> (Vec<Splat2D>, TileBins) {
    assert_eq!(splats.len(), keep.len(), "keep mask must be parallel to the splat list");
    let mut remap = vec![u32::MAX; splats.len()];
    let mut kept = Vec::with_capacity(keep.iter().filter(|&&k| k).count());
    for (i, s) in splats.iter().enumerate() {
        if keep[i] {
            remap[i] = kept.len() as u32;
            kept.push(s.clone());
        }
    }
    let tile_count = bins.tile_count();
    let mut offsets = Vec::with_capacity(tile_count + 1);
    let mut entries = Vec::with_capacity(bins.entries.len());
    offsets.push(0usize);
    for tile in 0..tile_count {
        for &e in bins.entries_of(tile) {
            let new = remap[e as usize];
            if new != u32::MAX {
                entries.push(new);
            }
        }
        offsets.push(entries.len());
    }
    let bins = TileBins {
        tile_size: bins.tile_size,
        tiles_x: bins.tiles_x,
        tiles_y: bins.tiles_y,
        offsets,
        entries,
    };
    (kept, bins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::psnr;
    use crate::pipeline::{self, Dataflow};
    use crate::RenderConfig;
    use gbu_math::Vec3;
    use gbu_scene::{Gaussian3D, GaussianScene};

    fn scene_and_camera() -> (GaussianScene, Camera) {
        let scene: GaussianScene = (0..24)
            .map(|i| {
                let a = i as f32 * 0.61;
                Gaussian3D::isotropic(
                    Vec3::new(a.cos() * 0.6, a.sin() * 0.5, 0.12 * (i % 4) as f32),
                    0.02 + 0.05 * ((i % 5) as f32 / 4.0),
                    Vec3::new(0.3 + 0.1 * (i % 3) as f32, 0.5, 0.7),
                    0.25 + 0.7 * ((i % 7) as f32 / 6.0),
                )
            })
            .collect();
        (scene, Camera::orbit(128, 96, 1.0, Vec3::ZERO, 3.0, 0.4, 0.2))
    }

    #[test]
    fn scores_are_normalized_and_parallel() {
        let (scene, cam) = scene_and_camera();
        let frame = pipeline::project(&scene, &cam);
        let scores = contribution_scores(&frame.splats, Some(&frame.bounds), &cam);
        assert_eq!(scores.len(), frame.splats.len());
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
        assert!(scores.contains(&1.0), "peak normalizes to exactly 1.0");
    }

    #[test]
    fn scores_without_bounds_match_bounds_path() {
        let (scene, cam) = scene_and_camera();
        let frame = pipeline::project(&scene, &cam);
        let with = contribution_scores(&frame.splats, Some(&frame.bounds), &cam);
        let without = contribution_scores(&frame.splats, None, &cam);
        for (a, b) in with.iter().zip(&without) {
            assert!((a - b).abs() < 1e-4, "bounds reuse must not change scoring: {a} vs {b}");
        }
    }

    #[test]
    fn topk_keeps_exactly_ceil_fraction() {
        let scores = [0.1, 0.9, 0.5, 0.3, 1.0];
        let keep = select(&scores, QualityLevel::TopK { fraction: 0.5 }).unwrap();
        assert_eq!(keep.iter().filter(|&&k| k).count(), 3); // ceil(0.5 * 5)
        assert!(keep[4] && keep[1] && keep[2]);
    }

    #[test]
    fn culled_always_keeps_the_best_splat() {
        let keep =
            select(&[0.0, 0.0, 0.0], QualityLevel::Culled { min_contribution: 0.5 }).unwrap();
        assert_eq!(keep.iter().filter(|&&k| k).count(), 1);
        let keep =
            select(&[0.2, 0.9, 0.4], QualityLevel::Culled { min_contribution: 0.5 }).unwrap();
        assert_eq!(keep, vec![false, true, false]);
    }

    #[test]
    fn exact_selects_nothing() {
        assert!(select(&[0.5, 1.0], QualityLevel::Exact).is_none());
    }

    #[test]
    #[should_panic(expected = "TopK fraction")]
    fn topk_zero_fraction_panics() {
        select(&[1.0], QualityLevel::TopK { fraction: 0.0 });
    }

    #[test]
    fn compact_preserves_tile_order_and_csr_invariants() {
        let (scene, cam) = scene_and_camera();
        let cfg = RenderConfig::default();
        let frame = pipeline::project(&scene, &cam);
        let binned = pipeline::bin(&frame, cfg.tile_size);
        let scores = contribution_scores(&frame.splats, Some(&frame.bounds), &cam);
        let keep = select(&scores, QualityLevel::TopK { fraction: 0.5 }).unwrap();
        let (splats, bins) = compact(&frame.splats, &binned.bins, &keep);
        assert!(splats.len() < frame.splats.len());
        assert_eq!(bins.offsets.len(), binned.bins.offsets.len());
        assert_eq!(*bins.offsets.last().unwrap(), bins.entries.len());
        assert!(bins.entries.iter().all(|&e| (e as usize) < splats.len()));
        // Surviving entries keep their relative (depth) order per tile.
        for tile in 0..bins.tile_count() {
            let old: Vec<u32> = binned
                .bins
                .entries_of(tile)
                .iter()
                .copied()
                .filter(|&e| keep[e as usize])
                .collect();
            let new = bins.entries_of(tile);
            assert_eq!(old.len(), new.len());
            for (o, n) in old.iter().zip(new) {
                assert_eq!(splats[*n as usize].source, frame.splats[*o as usize].source);
            }
        }
    }

    #[test]
    fn full_keep_mask_is_bit_identical() {
        let (scene, cam) = scene_and_camera();
        let cfg = RenderConfig::default();
        let frame = pipeline::project(&scene, &cam);
        let binned = pipeline::bin(&frame, cfg.tile_size);
        let keep = vec![true; frame.splats.len()];
        let (splats, bins) = compact(&frame.splats, &binned.bins, &keep);
        assert_eq!(splats.len(), frame.splats.len());
        assert_eq!(bins.entries, binned.bins.entries);
        assert_eq!(bins.offsets, binned.bins.offsets);
    }

    #[test]
    fn psnr_identical_is_infinite_and_degraded_is_finite() {
        let (scene, cam) = scene_and_camera();
        let cfg = RenderConfig::default();
        let frame = pipeline::project(&scene, &cam);
        let binned = pipeline::bin(&frame, cfg.tile_size);
        let (exact, _) = pipeline::blend(&frame, &binned, Dataflow::Pfs, &cfg);
        assert_eq!(psnr(&exact, &exact), f64::INFINITY);
        let (degraded, _) = pipeline::blend_with_quality_pooled(
            gbu_par::global(),
            &frame,
            &binned,
            Dataflow::Pfs,
            &cfg,
            QualityLevel::TopK { fraction: 0.25 },
        );
        let db = psnr(&degraded, &exact);
        assert!(db.is_finite() && db > 0.0, "quarter-splat render should differ: {db}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(QualityLevel::Exact.label(), "exact");
        assert_eq!(QualityLevel::TopK { fraction: 0.5 }.label(), "topk_0.50");
        assert_eq!(QualityLevel::Culled { min_contribution: 0.01 }.label(), "cull_0.0100");
    }
}
