//! The 3D Gaussian Splatting rendering pipeline, with both blending
//! dataflows studied by the paper.
//!
//! The pipeline follows Sec. II-B's three rendering steps:
//!
//! 1. **Preprocessing** ([`preprocess`]): project every 3D Gaussian to a 2D
//!    splat via the EWA local-affine approximation (`Σ* = J W Σ Wᵀ Jᵀ`),
//!    evaluate the spherical-harmonics color, compute depth, cull.
//! 2. **Binning + depth sorting** ([`binning`]): duplicate splats per
//!    overlapped 16×16 tile and radix-sort by (tile, depth) key.
//! 3. **Gaussian Blending** — the paper's bottleneck — in two dataflows:
//!    - [`pfs`]: the reference *Parallel Fragment Shading* dataflow of the
//!      3DGS CUDA rasteriser (every pixel of every covered tile evaluates
//!      Eq. 7 at 11 FLOPs per fragment);
//!    - [`irss`]: the paper's *Intra-Row Sequential Shading* dataflow
//!      (two-step coordinate transformation, compute sharing at 2 FLOPs
//!      per fragment, row-wise redundancy skipping — Sec. IV).
//!
//! Both dataflows are mathematically identical (no approximation, per the
//! paper's claim in Sec. IV-B); the integration tests and property tests
//! assert image equality within floating-point tolerance.
//!
//! [`pipeline`] exposes the three steps as an explicit staged pipeline
//! with first-class intermediate artifacts ([`ProjectedFrame`],
//! [`BinnedFrame`]) and is the only allocating entry point;
//! `render_pfs` / `render_irss` are thin compositions over it. [`shard`]
//! plans scene sharding on those stages: a [`ShardPlan`] splits a
//! frame's tile rows over N devices (contiguous / interleaved /
//! cost-balanced), whose partial images `gbu_serve`'s cluster merges
//! bit-identically to the unsharded render.
//!
//! [`contrib`] adds a quality/latency dial on top of the staged
//! pipeline: per-Gaussian contribution scoring (reusing Step ❶'s carried
//! bounds), a [`QualityLevel`] degradation ladder
//! (`Exact`/`TopK`/`Culled`), and
//! [`pipeline::blend_with_quality_pooled`], which blends a compacted
//! frame so degraded renders are cheaper in both blend statistics and
//! modeled device cycles.
//!
//! [`stats`] instruments everything the architecture simulators need:
//! fragment counts, FLOP counts at the paper's accounting granularity,
//! per-row workloads (Fig. 9) and per-tile instance lists.
//!
//! # Parallelism
//!
//! Tiles are independent units of blending work, so both dataflows run
//! on one tile-row driver that dispatches tile rows across the
//! `gbu_par` thread pool and merges the per-row results in tile order —
//! output is **bit-identical** to a serial run at every thread count
//! (`tests/parallel_equivalence.rs` pins this). Step ❷ parallelizes the
//! same way: batch-structured pair emission plus a chunk-parallel stable
//! radix sort produce `TileBins` byte-identical to serial at every
//! thread count (`tests/binning_equivalence.rs`), with Step ❶ carrying
//! each splat's ellipse bounds forward ([`preprocess::ProjectedBounds`])
//! so binning never re-derives footprints. The [`pipeline`] stages use
//! the global pool (`GBU_THREADS` env override, defaulting to the
//! machine's parallelism) and their `*_pooled` variants an explicit
//! one. Below them sits one kernel entry per job — [`pfs::blend_into`],
//! [`irss::blend_precomputed_into`] and [`binning::bin_into`] — which
//! reuses caller-owned buffers ([`BlendScratch`], [`BinScratch`],
//! [`FrameBuffer`], [`stats::BlendStats`]) so repeated-render loops are
//! allocation-lean; the serial [`binning::bin_splats`] stays as the
//! test oracle.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bincache;
pub mod binning;
pub mod contrib;
mod framebuffer;
pub mod irss;
pub mod metrics;
pub mod pfs;
pub mod pipeline;
pub mod preprocess;
mod scratch;
pub mod shard;
mod splat;
pub mod stats;

pub use bincache::{BinCache, BinCacheConfig, BinCacheCounters};
pub use contrib::QualityLevel;
pub use framebuffer::FrameBuffer;
pub use pipeline::{BinnedFrame, Dataflow, ProjectedFrame};
pub use preprocess::{BatchBounds, ProjectedBounds};
pub use scratch::{BinScratch, BlendScratch};
pub use shard::{ShardPlan, ShardStrategy};
pub use splat::{alpha_from_q, Splat2D, GBU_FEATURE_BYTES, SPLAT_FEATURE_BYTES};

use gbu_math::Vec3;
use gbu_scene::{Camera, GaussianScene};

/// Shared configuration for the rendering pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderConfig {
    /// Square tile edge in pixels (the paper and 3DGS use 16).
    pub tile_size: u32,
    /// Background color composited behind the splats.
    pub background: Vec3,
    /// Record per-row fragment workloads (needed by Fig. 9 and the GPU
    /// utilization model; costs memory proportional to tile count).
    pub record_row_workload: bool,
}

impl Default for RenderConfig {
    fn default() -> Self {
        Self { tile_size: 16, background: Vec3::ZERO, record_row_workload: false }
    }
}

/// Output of a full pipeline run.
#[derive(Debug, Clone)]
pub struct RenderOutput {
    /// The rendered image.
    pub image: FrameBuffer,
    /// Preprocessing statistics (Step ❶).
    pub preprocess: stats::PreprocessStats,
    /// Binning/sorting statistics (Step ❷).
    pub binning: stats::BinningStats,
    /// Blending statistics (Step ❸).
    pub blend: stats::BlendStats,
}

/// Renders a scene end-to-end with the reference PFS blending dataflow.
///
/// # Example
///
/// ```
/// use gbu_render::{render_pfs, RenderConfig};
/// use gbu_scene::{Camera, Gaussian3D, GaussianScene};
/// use gbu_math::Vec3;
///
/// let scene: GaussianScene =
///     std::iter::once(Gaussian3D::isotropic(Vec3::ZERO, 0.2, Vec3::ONE, 0.9)).collect();
/// let cam = Camera::orbit(64, 64, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0);
/// let out = render_pfs(&scene, &cam, &RenderConfig::default());
/// assert!(out.blend.fragments_blended > 0);
/// ```
pub fn render_pfs(scene: &GaussianScene, camera: &Camera, config: &RenderConfig) -> RenderOutput {
    pipeline::render(scene, camera, Dataflow::Pfs, config)
}

/// Renders a scene end-to-end with the paper's IRSS blending dataflow.
pub fn render_irss(scene: &GaussianScene, camera: &Camera, config: &RenderConfig) -> RenderOutput {
    pipeline::render(scene, camera, Dataflow::Irss, config)
}
