//! The staged frame pipeline: project (Step ❶) → bin (Step ❷) → blend
//! (Step ❸), with first-class intermediate artifacts.
//!
//! This module is the renderer's allocating front door: every stage
//! returns freshly allocated artifacts, on the global pool or (`_pooled`)
//! an explicit one. Below it sit one kernel entry per job —
//! [`crate::binning::bin_into`], [`crate::pfs::blend_into`] and
//! [`crate::irss::blend_precomputed_into`] — which reuse caller-owned
//! buffers, plus the serial [`crate::binning::bin_splats`] oracle. The
//! monolithic [`crate::render_pfs`] / [`crate::render_irss`] entry
//! points are thin compositions over these stages. Naming the
//! intermediates matters to everything that re-enters the pipeline
//! midway:
//!
//! - the serving layer runs [`project`] + [`bin`] once per viewpoint and
//!   replays Step ❸ per served frame;
//! - device sharding ([`crate::shard`]) splits a [`BinnedFrame`]'s tile
//!   rows across devices;
//! - the hardware model consumes the same artifacts (`Splat2D` lists and
//!   `TileBins`) as `GBU_render_image` inputs.
//!
//! Each stage is pure with respect to its inputs: re-running a stage on
//! the same artifact reproduces it bit-for-bit, which is what lets the
//! sharded and unsharded paths share intermediates without re-verifying
//! them.

use crate::binning::{self, TileBins};
use crate::contrib::{self, QualityLevel};
use crate::preprocess::{self, ProjectedBounds};
use crate::stats::{BinningStats, BlendStats, PreprocessStats};
use crate::{
    irss, pfs, BinScratch, BlendScratch, FrameBuffer, RenderConfig, RenderOutput, Splat2D,
};
use gbu_par::ThreadPool;
use gbu_scene::{Camera, GaussianScene};

/// Step-❶ artifact: the projected, culled, color-evaluated splat list of
/// one viewpoint, with the camera that produced it.
#[derive(Debug, Clone)]
pub struct ProjectedFrame {
    /// The viewpoint the scene was projected through.
    pub camera: Camera,
    /// Projected 2D splats (depth-unsorted; Step ❷ orders them).
    pub splats: Vec<Splat2D>,
    /// Per-splat and per-batch screen bounds carried forward so Step ❷
    /// visits only plausible tiles without re-deriving ellipse AABBs.
    pub bounds: ProjectedBounds,
    /// Preprocessing statistics.
    pub stats: PreprocessStats,
}

/// Step-❷ artifact: depth-sorted per-tile instance lists over the
/// camera's tile grid.
#[derive(Debug, Clone)]
pub struct BinnedFrame {
    /// Sorted per-tile instance lists.
    pub bins: TileBins,
    /// Binning/sorting statistics.
    pub stats: BinningStats,
}

/// Which Step-❸ dataflow blends the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Parallel Fragment Shading — the 3DGS reference rasteriser.
    Pfs,
    /// Intra-Row Sequential Shading — the paper's dataflow.
    Irss,
}

impl Dataflow {
    /// Both dataflows.
    pub fn all() -> [Dataflow; 2] {
        [Dataflow::Pfs, Dataflow::Irss]
    }

    /// Stable name for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Dataflow::Pfs => "pfs",
            Dataflow::Irss => "irss",
        }
    }
}

/// Step ❶ on the global pool: projects every Gaussian of `scene` through
/// `camera` (EWA local-affine approximation, SH color, culling).
pub fn project(scene: &GaussianScene, camera: &Camera) -> ProjectedFrame {
    project_pooled(gbu_par::global(), scene, camera)
}

/// [`project`] on an explicit pool.
pub fn project_pooled(pool: &ThreadPool, scene: &GaussianScene, camera: &Camera) -> ProjectedFrame {
    let recorder = gbu_telemetry::global();
    let _span = recorder.wall_span("project", gbu_telemetry::Labels::default());
    let (splats, bounds, stats) = preprocess::project_scene_bounded(pool, scene, camera);
    ProjectedFrame { camera: camera.clone(), splats, bounds, stats }
}

/// Step ❷ on the global pool: duplicates splats per overlapped tile and
/// radix-sorts by `(tile, depth)`, reusing the frame's carried bounds.
/// Byte-identical to the serial [`binning::bin_splats`] at every thread
/// count (pinned by `tests/binning_equivalence.rs`).
pub fn bin(frame: &ProjectedFrame, tile_size: u32) -> BinnedFrame {
    bin_pooled(gbu_par::global(), frame, tile_size)
}

/// [`bin`] on an explicit pool.
pub fn bin_pooled(pool: &ThreadPool, frame: &ProjectedFrame, tile_size: u32) -> BinnedFrame {
    let recorder = gbu_telemetry::global();
    let _span = recorder.wall_span("bin", gbu_telemetry::Labels::default());
    let mut bins = TileBins { tile_size, tiles_x: 0, tiles_y: 0, offsets: vec![], entries: vec![] };
    let stats = binning::bin_into(
        pool,
        &frame.splats,
        Some(&frame.bounds),
        &frame.camera,
        tile_size,
        &mut BinScratch::new(),
        &mut bins,
    );
    BinnedFrame { bins, stats }
}

/// Step ❷ through a [`crate::bincache::BinCache`]: bit-identical to
/// [`bin`], but frames whose camera moved only slightly since the
/// cache's last frame are re-binned incrementally. Cold frames and
/// violated-tile re-sorts both run on the global pool.
pub fn bin_cached(
    cache: &mut crate::bincache::BinCache,
    frame: &ProjectedFrame,
    tile_size: u32,
) -> BinnedFrame {
    let recorder = gbu_telemetry::global();
    let _span = recorder.wall_span("bin", gbu_telemetry::Labels::default());
    let (bins, stats) = cache.bin_pooled(
        gbu_par::global(),
        &frame.splats,
        Some(&frame.bounds),
        &frame.camera,
        tile_size,
    );
    BinnedFrame { bins, stats }
}

/// Step ❸ on the global pool: blends the binned frame with the chosen
/// dataflow into a freshly allocated frame buffer.
pub fn blend(
    frame: &ProjectedFrame,
    binned: &BinnedFrame,
    dataflow: Dataflow,
    config: &RenderConfig,
) -> (FrameBuffer, BlendStats) {
    blend_pooled(gbu_par::global(), frame, binned, dataflow, config)
}

/// [`blend`] on an explicit pool.
pub fn blend_pooled(
    pool: &ThreadPool,
    frame: &ProjectedFrame,
    binned: &BinnedFrame,
    dataflow: Dataflow,
    config: &RenderConfig,
) -> (FrameBuffer, BlendStats) {
    blend_splats(pool, &frame.splats, &binned.bins, &frame.camera, dataflow, config)
}

/// The one Step-❸ body behind [`blend_pooled`] and
/// [`blend_with_quality_pooled`]: blends `splats` over `bins` with the
/// chosen dataflow inside a `blend` wall span.
fn blend_splats(
    pool: &ThreadPool,
    splats: &[Splat2D],
    bins: &TileBins,
    camera: &Camera,
    dataflow: Dataflow,
    config: &RenderConfig,
) -> (FrameBuffer, BlendStats) {
    let recorder = gbu_telemetry::global();
    let _span = recorder.wall_span("blend", gbu_telemetry::Labels::default());
    let mut image = FrameBuffer::new(camera.width, camera.height, config.background);
    let mut stats = BlendStats::default();
    let (scratch, out, st) = (&mut BlendScratch::new(), &mut image, &mut stats);
    match dataflow {
        Dataflow::Pfs => pfs::blend_into(pool, splats, bins, camera, config, scratch, out, st),
        Dataflow::Irss => {
            let isplats = irss::precompute_pooled(pool, splats);
            irss::blend_precomputed_into::<irss::Fp32>(
                pool,
                &isplats,
                bins,
                camera,
                config,
                scratch,
                Some(out),
                st,
                &mut (),
            )
        }
    }
    (image, stats)
}

/// Step ❸ at a chosen [`QualityLevel`] on an explicit pool.
///
/// [`QualityLevel::Exact`] delegates verbatim to [`blend_pooled`] —
/// bit-identical output, pinned by `tests/quality_equivalence.rs`.
/// Degraded levels score the frame's splats
/// ([`contrib::contribution_scores`], reusing the carried
/// [`ProjectedBounds`]), compact the low-contribution ones away, and
/// blend the smaller frame with the same dataflow; the returned
/// [`BlendStats`] therefore count only the splats actually blended,
/// which is what the GPU timing model charges.
pub fn blend_with_quality_pooled(
    pool: &ThreadPool,
    frame: &ProjectedFrame,
    binned: &BinnedFrame,
    dataflow: Dataflow,
    config: &RenderConfig,
    level: QualityLevel,
) -> (FrameBuffer, BlendStats) {
    let scores = match level {
        QualityLevel::Exact => return blend_pooled(pool, frame, binned, dataflow, config),
        _ => contrib::contribution_scores(&frame.splats, Some(&frame.bounds), &frame.camera),
    };
    let keep = contrib::select(&scores, level).expect("non-Exact level always selects");
    let (splats, bins) = contrib::compact(&frame.splats, &binned.bins, &keep);
    blend_splats(pool, &splats, &bins, &frame.camera, dataflow, config)
}

/// The full pipeline: ❶ → ❷ → ❸ with the chosen dataflow — what
/// [`crate::render_pfs`] and [`crate::render_irss`] delegate to.
pub fn render(
    scene: &GaussianScene,
    camera: &Camera,
    dataflow: Dataflow,
    config: &RenderConfig,
) -> RenderOutput {
    let recorder = gbu_telemetry::global();
    let _span = recorder.wall_span("render", gbu_telemetry::Labels::default());
    let projected = project(scene, camera);
    let binned = bin(&projected, config.tile_size);
    let (image, blend) = blend(&projected, &binned, dataflow, config);
    RenderOutput { image, preprocess: projected.stats, binning: binned.stats, blend }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbu_math::Vec3;
    use gbu_scene::{Gaussian3D, GaussianScene};

    fn scene_and_camera() -> (GaussianScene, Camera) {
        let scene: GaussianScene = (0..15)
            .map(|i| {
                let a = i as f32 * 0.7;
                Gaussian3D::isotropic(
                    Vec3::new(a.cos() * 0.5, a.sin() * 0.4, 0.1 * (i % 3) as f32),
                    0.08,
                    Vec3::splat(0.6),
                    0.8,
                )
            })
            .collect();
        (scene, Camera::orbit(96, 64, 1.0, Vec3::ZERO, 3.0, 0.3, 0.1))
    }

    #[test]
    fn staged_run_equals_monolithic_entry_points() {
        let (scene, camera) = scene_and_camera();
        let cfg = RenderConfig::default();
        for dataflow in Dataflow::all() {
            let staged = render(&scene, &camera, dataflow, &cfg);
            let monolithic = match dataflow {
                Dataflow::Pfs => crate::render_pfs(&scene, &camera, &cfg),
                Dataflow::Irss => crate::render_irss(&scene, &camera, &cfg),
            };
            assert_eq!(staged.image.pixels(), monolithic.image.pixels());
            assert_eq!(staged.blend, monolithic.blend);
            assert_eq!(staged.preprocess, monolithic.preprocess);
            assert_eq!(staged.binning, monolithic.binning);
        }
    }

    #[test]
    fn artifacts_are_reentrant() {
        let (scene, camera) = scene_and_camera();
        let cfg = RenderConfig::default();
        let projected = project(&scene, &camera);
        let binned = bin(&projected, cfg.tile_size);
        // Re-running a stage on the same artifact is bit-identical.
        let binned2 = bin(&projected, cfg.tile_size);
        assert_eq!(binned.bins.entries, binned2.bins.entries);
        assert_eq!(binned.bins.offsets, binned2.bins.offsets);
        let (img1, st1) = blend(&projected, &binned, Dataflow::Irss, &cfg);
        let (img2, st2) = blend(&projected, &binned2, Dataflow::Irss, &cfg);
        assert_eq!(img1.pixels(), img2.pixels());
        assert_eq!(st1, st2);
    }

    #[test]
    fn dataflow_labels_are_stable() {
        assert_eq!(Dataflow::Pfs.label(), "pfs");
        assert_eq!(Dataflow::Irss.label(), "irss");
        assert_eq!(Dataflow::all().len(), 2);
    }
}
