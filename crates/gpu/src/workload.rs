//! Frame workload descriptors: the bridge between the functional renderer
//! and the timing models.

use gbu_render::stats::{irss_gpu_lane_utilization, BinningStats, BlendStats, PreprocessStats};

/// Event counts of one rendered frame, in the units the timing models
/// consume. Produced from functional-render statistics and optionally
/// extrapolated to paper scale with [`WorkloadScale`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameWorkload {
    /// Gaussians processed by Step ❶.
    pub gaussians: f64,
    /// Splats surviving culling.
    pub splats: f64,
    /// (splat, tile) instances sorted and blended.
    pub instances: f64,
    /// Radix passes executed by Step ❷.
    pub sort_passes: f64,
    /// Fragments evaluated under the PFS dataflow.
    pub fragments_pfs: f64,
    /// Fragments blended (significant and unsaturated).
    pub fragments_blended: f64,
    /// Fragments evaluated under the IRSS dataflow.
    pub fragments_irss: f64,
    /// Rows considered by IRSS.
    pub rows_irss: f64,
    /// Sum over instances of max-per-row IRSS fragments (warp-latency
    /// driver of the IRSS-on-GPU mapping).
    pub instance_row_max_sum: f64,
    /// Lane utilization of the IRSS-on-GPU mapping (0..1].
    pub irss_lane_utilization: f64,
    /// Output pixels.
    pub pixels: f64,
}

impl FrameWorkload {
    /// Assembles a workload from PFS and IRSS runs of the same frame,
    /// blended at `tile_size`-px tiles.
    ///
    /// Both runs are needed because the PFS fragment count sizes the
    /// baseline (Fig. 4) while the IRSS counts size the proposed dataflow
    /// (Tab. V) — the paper compares them on identical frames.
    pub fn from_stats(
        pre: &PreprocessStats,
        bins: &BinningStats,
        pfs: &BlendStats,
        irss: &BlendStats,
        tile_size: u32,
        pixels: u64,
    ) -> Self {
        Self {
            gaussians: pre.input_gaussians as f64,
            splats: pre.output_splats as f64,
            instances: bins.instances as f64,
            sort_passes: f64::from(bins.sort_passes),
            fragments_pfs: pfs.fragments_evaluated as f64,
            fragments_blended: pfs.fragments_blended as f64,
            fragments_irss: irss.fragments_evaluated as f64,
            rows_irss: irss.rows_considered as f64,
            instance_row_max_sum: irss.instance_row_max_sum as f64,
            irss_lane_utilization: irss_gpu_lane_utilization(irss, tile_size),
            pixels: pixels as f64,
        }
    }

    /// Applies a scale, multiplying Gaussian-proportional counts by
    /// `scale.gaussians` and pixel counts by `scale.pixels`.
    ///
    /// Instance/fragment/row counts scale with the *Gaussian* ratio only:
    /// the synthetic scenes are generated so that their *per-Gaussian*
    /// footprint statistics (fragment-to-Gaussian ratio, rows per
    /// instance) already match the paper's full-resolution profiling
    /// (Sec. III). Extrapolating to the checkpoint's Gaussian count
    /// therefore reconstructs the paper's per-frame totals directly; the
    /// pixel ratio applies only to pixel-proportional work. Resolution
    /// sweeps (Fig. 16) apply an *additional* explicit pixel factor to
    /// fragment counts, which is where footprint growth belongs.
    /// Relative quantities (lane utilization) are scale-invariant; sort
    /// passes gain at most a couple of tile-index bits and are kept as
    /// measured.
    pub fn scaled(&self, scale: WorkloadScale) -> Self {
        let g = scale.gaussians;
        let p = scale.pixels;
        Self {
            gaussians: self.gaussians * g,
            splats: self.splats * g,
            instances: self.instances * g,
            sort_passes: self.sort_passes,
            fragments_pfs: self.fragments_pfs * g,
            fragments_blended: self.fragments_blended * g,
            fragments_irss: self.fragments_irss * g,
            rows_irss: self.rows_irss * g,
            instance_row_max_sum: self.instance_row_max_sum * g,
            irss_lane_utilization: self.irss_lane_utilization,
            pixels: self.pixels * p,
        }
    }

    /// Scales the workload to a different *rendering resolution* at fixed
    /// scene and camera pose: pixel-proportional counts and per-Gaussian
    /// footprints (hence instances, fragments and rows) all grow with the
    /// pixel factor — the effect the paper measures directly in Fig. 16.
    pub fn scaled_resolution(&self, pixel_factor: f64) -> Self {
        let p = pixel_factor;
        Self {
            gaussians: self.gaussians,
            splats: self.splats,
            instances: self.instances * p,
            sort_passes: self.sort_passes,
            fragments_pfs: self.fragments_pfs * p,
            fragments_blended: self.fragments_blended * p,
            fragments_irss: self.fragments_irss * p,
            rows_irss: self.rows_irss * p,
            instance_row_max_sum: self.instance_row_max_sum * p,
            irss_lane_utilization: self.irss_lane_utilization,
            pixels: self.pixels * p,
        }
    }
}

/// Extrapolation factors from a reduced benchmark workload to the paper's
/// full-scale workload.
///
/// # Derivation
///
/// Software rendering is orders of magnitude slower than the paper's GPU,
/// so experiments render reduced scenes and count events
/// (`gbu_scene::ScaleProfile`: the test and bench profiles render a
/// quarter and a half of Tab. I's resolution, with 1.5k and 24k Gaussians
/// times the scene's complexity). The timing models consume counts, not
/// images, so a reduced frame's counts extrapolate:
///
/// - `gaussians` is the checkpoint's effective in-view Gaussian count
///   (`gbu_scene::DatasetScene::paper_gaussians_k`) over the rendered
///   count, and `pixels` is Tab. I's pixel count over the rendered one.
/// - [`FrameWorkload::scaled`] multiplies the Gaussian-proportional counts
///   (Gaussians, splats, instances, fragments, rows and the IRSS row-max
///   sum) by `gaussians`, and the pixel count by `pixels`. Fragments
///   follow the Gaussian ratio alone: the synthetic scenes are generated
///   with per-Gaussian footprint statistics (fragment-to-Gaussian ratio,
///   rows per instance) already at the paper's full-resolution values
///   (Sec. III-B), so applying the pixel ratio as well would count the
///   footprint growth twice. Sort passes and lane utilization are kept as
///   measured.
/// - Tile-engine cycles are instance- and fragment-proportional, so
///   `gbu_core::apps::measure_frame` scales them by `gaussians` too.
/// - Resolution sweeps (Fig. 16) use [`FrameWorkload::scaled_resolution`]
///   instead: at a fixed scene and pose every footprint grows with the
///   pixel count.
///
/// How close each scene kind lands to the Sec. III-B statistics is what
/// `repro calib` prints.
///
/// # Calibration anchors
///
/// - `paper_gaussians_k` is set per scene so that the GPU baseline
///   reproduces Fig. 4's per-scene times (7–17 FPS on the static scenes).
/// - The static "counter" scene is the reference workload: 1.25M in-view
///   Gaussians, 1.13M visible splats, 3.13M tile instances (about 2.8
///   tiles per splat) and about 554 PFS fragments per visible splat.
///   `gbu_gpu`'s timing tests and `gbu_core::system`'s tests build it by
///   hand.
/// - [`crate::GpuConfig::orin_nx`] holds the GPU-side anchors: 1.1 TFLOPS
///   is 58% of its peak, the IRSS-on-GPU per-fragment cost reproduces the
///   paper's 1.71–1.72x IRSS speedup, and Step ❸'s per-instance traffic
///   reproduces its 62.1% of DRAM bandwidth at 60 FPS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadScale {
    /// Ratio of paper Gaussian count to rendered Gaussian count.
    pub gaussians: f64,
    /// Ratio of paper pixel count to rendered pixel count.
    pub pixels: f64,
}

impl WorkloadScale {
    /// No scaling (report the rendered workload as-is).
    pub const IDENTITY: Self = Self { gaussians: 1.0, pixels: 1.0 };

    /// Builds a scale from counts.
    pub fn new(
        rendered_gaussians: f64,
        paper_gaussians: f64,
        rendered_px: f64,
        paper_px: f64,
    ) -> Self {
        assert!(rendered_gaussians > 0.0 && rendered_px > 0.0, "degenerate rendered workload");
        Self { gaussians: paper_gaussians / rendered_gaussians, pixels: paper_px / rendered_px }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> FrameWorkload {
        FrameWorkload {
            gaussians: 1000.0,
            splats: 800.0,
            instances: 2000.0,
            sort_passes: 4.0,
            fragments_pfs: 512_000.0,
            fragments_blended: 30_000.0,
            fragments_irss: 60_000.0,
            rows_irss: 32_000.0,
            instance_row_max_sum: 12_000.0,
            irss_lane_utilization: 0.2,
            pixels: 65_536.0,
        }
    }

    #[test]
    fn identity_scale_is_noop_on_key_counts() {
        let w = workload();
        let s = w.scaled(WorkloadScale::IDENTITY);
        assert_eq!(s.gaussians, w.gaussians);
        assert_eq!(s.fragments_pfs, w.fragments_pfs);
        assert_eq!(s.pixels, w.pixels);
    }

    #[test]
    fn fragments_scale_with_gaussians_only() {
        let w = workload();
        let s = w.scaled(WorkloadScale { gaussians: 10.0, pixels: 4.0 });
        assert_eq!(s.fragments_pfs, w.fragments_pfs * 10.0);
        assert_eq!(s.instances, w.instances * 10.0);
        assert_eq!(s.gaussians, w.gaussians * 10.0);
        assert_eq!(s.pixels, w.pixels * 4.0);
    }

    #[test]
    fn resolution_scaling_grows_fragments() {
        let w = workload();
        let hi = w.scaled_resolution(4.0);
        assert_eq!(hi.fragments_pfs, w.fragments_pfs * 4.0);
        assert_eq!(hi.gaussians, w.gaussians);
        assert_eq!(hi.pixels, w.pixels * 4.0);
    }

    #[test]
    fn utilization_is_scale_invariant() {
        let w = workload();
        let s = w.scaled(WorkloadScale { gaussians: 100.0, pixels: 4.0 });
        assert_eq!(s.irss_lane_utilization, w.irss_lane_utilization);
    }

    #[test]
    fn scale_from_counts() {
        let s = WorkloadScale::new(25_000.0, 3_000_000.0, 250_000.0, 1_000_000.0);
        assert!((s.gaussians - 120.0).abs() < 1e-9);
        assert!((s.pixels - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_rendered_panics() {
        let _ = WorkloadScale::new(0.0, 1.0, 1.0, 1.0);
    }
}
