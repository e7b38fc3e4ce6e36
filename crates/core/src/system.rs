//! The integrated edge system: Orin-NX-class GPU + GBU.
//!
//! Implements the workload assignment and two-level pipeline of Sec. V-E:
//! Rendering Steps ❶/❷ stay on the GPU (keeping application-specific
//! preprocessing programmable), Step ❸ runs on the GBU, and the frame-
//! level pipeline overlaps the GPU's Steps ❶/❷ for frame *n+1* with the
//! GBU's Step ❸ for frame *n* through a double buffer in DRAM. At steady
//! state the frame time is the pipeline's slowest stage — including the
//! shared-DRAM bandwidth "stage", which is how the Gaussian Reuse Cache's
//! traffic reduction turns into the paper's 1.14× end-to-end speedup.
//!
//! The five [`Design`] points reproduce Tab. V's ablation ladder.

use gbu_gpu::{power, timing, FrameWorkload, GpuConfig, Step3Mapping};
use gbu_hw::area::GbuAreaModel;
use gbu_hw::GbuConfig;

/// FLOPs per Gaussian the GPU must additionally spend in Step ❶ when the
/// D&B engine is absent: eigendecomposition, the two-step transform
/// parameters and the Gaussian-tile intersection tests (offloaded to the
/// GBU by the "+GBU D&B Engine" ablation step).
pub const TRANSFORM_FLOPS_ON_GPU: f64 = 130.0;

/// An ablation design point (the rows of Tab. V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Baseline: the reference PFS rasteriser on the GPU alone.
    GpuPfs,
    /// The IRSS dataflow as a customised CUDA kernel (Sec. IV-D).
    GpuIrss,
    /// GBU with only the Row-Centric Tile Engine (transforms and binning
    /// still on the GPU; no reuse cache).
    GbuTileEngine,
    /// Plus the Decomposition & Binning engine (chunk-pipelined with the
    /// Tile PE; GPU Step ❶ lightened).
    GbuWithDnb,
    /// Plus the Gaussian Reuse Cache — the full system.
    GbuFull,
}

impl Design {
    /// All designs in the ablation ladder's order.
    pub fn ladder() -> [Design; 5] {
        [
            Design::GpuPfs,
            Design::GpuIrss,
            Design::GbuTileEngine,
            Design::GbuWithDnb,
            Design::GbuFull,
        ]
    }

    /// Row label matching Tab. V.
    pub fn label(self) -> &'static str {
        match self {
            Design::GpuPfs => "Jetson Orin NX",
            Design::GpuIrss => "+ IRSS Dataflow",
            Design::GbuTileEngine => "+ GBU Tile Engine",
            Design::GbuWithDnb => "+ GBU D&B Engine",
            Design::GbuFull => "+ GBU Reuse Cache",
        }
    }

    /// Whether this design uses the GBU hardware.
    pub fn uses_gbu(self) -> bool {
        !matches!(self, Design::GpuPfs | Design::GpuIrss)
    }
}

/// System under evaluation.
#[derive(Debug, Clone, Default)]
pub struct SystemConfig {
    /// The edge GPU.
    pub gpu: GpuConfig,
    /// The GBU.
    pub gbu: GbuConfig,
}

/// One frame's measured (and scale-extrapolated) inputs to the system
/// model. Produced by [`crate::apps::measure_frame`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrameMeasurement {
    /// Event counts (already extrapolated to the reporting scale).
    pub workload: FrameWorkload,
    /// Tile-engine cycles at the reporting scale.
    pub gbu_tile_cycles: f64,
    /// Row-PE utilization measured on the tile engine (scale-invariant).
    pub gbu_pe_utilization: f64,
    /// Gaussian Reuse Cache hit rate measured on the frame.
    pub cache_hit_rate: f64,
    /// SH degree of the scene's color model (Step ❶ cost).
    pub sh_degree: u8,
    /// Application-specific extra Step-❶ FLOPs per Gaussian (4D slicing
    /// for dynamic scenes, LBS skinning for avatars — Sec. II-C).
    pub step1_extra_flops: f64,
}

/// Evaluation of one design on one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemEvaluation {
    /// The design evaluated.
    pub design: Design,
    /// Steady-state frame time in seconds.
    pub frame_seconds: f64,
    /// Steady-state frames per second.
    pub fps: f64,
    /// GPU Step ❶ time (s).
    pub step1: f64,
    /// GPU Step ❷ time (s).
    pub step2: f64,
    /// Step ❸ time (s) — on the GPU or the GBU depending on the design.
    pub step3: f64,
    /// Utilization of the compute resource executing Step ❸.
    pub step3_utilization: f64,
    /// DRAM bytes for Step ❸ feature traffic per frame.
    pub step3_dram_bytes: f64,
    /// Energy per frame in joules.
    pub energy_j: f64,
}

impl SystemEvaluation {
    /// Per-step shares of the (unpipelined) step times — the Fig. 5
    /// breakdown. For GBU designs the steps overlap, so shares describe
    /// work distribution rather than wall-clock.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let t = self.step1 + self.step2 + self.step3;
        (self.step1 / t, self.step2 / t, self.step3 / t)
    }
}

/// Evaluates a design on a measured frame.
pub fn evaluate(cfg: &SystemConfig, m: &FrameMeasurement, design: Design) -> SystemEvaluation {
    match design {
        Design::GpuPfs => evaluate_gpu(cfg, m, Step3Mapping::Pfs, design),
        Design::GpuIrss => evaluate_gpu(cfg, m, Step3Mapping::IrssGpu, design),
        _ => evaluate_gbu(cfg, m, design),
    }
}

/// Evaluates every design of the ablation ladder.
pub fn evaluate_ladder(cfg: &SystemConfig, m: &FrameMeasurement) -> Vec<SystemEvaluation> {
    Design::ladder().into_iter().map(|d| evaluate(cfg, m, d)).collect()
}

fn step1_extra_seconds(cfg: &SystemConfig, m: &FrameMeasurement) -> f64 {
    m.workload.gaussians * m.step1_extra_flops / (cfg.gpu.peak_flops() * cfg.gpu.efficiency_step1)
}

fn evaluate_gpu(
    cfg: &SystemConfig,
    m: &FrameMeasurement,
    mapping: Step3Mapping,
    design: Design,
) -> SystemEvaluation {
    let mut t = timing::frame_time(&m.workload, &cfg.gpu, mapping, m.sh_degree);
    t.step1 += step1_extra_seconds(cfg, m);
    let e = power::frame_energy(&cfg.gpu, &t);
    SystemEvaluation {
        design,
        frame_seconds: t.total(),
        fps: t.fps(),
        step1: t.step1,
        step2: t.step2,
        step3: t.step3,
        step3_utilization: t.step3_utilization,
        step3_dram_bytes: t.step3_bytes,
        energy_j: e.total(),
    }
}

fn evaluate_gbu(cfg: &SystemConfig, m: &FrameMeasurement, design: Design) -> SystemEvaluation {
    let gpu = &cfg.gpu;
    let gbu = &cfg.gbu;
    let w = &m.workload;

    let has_dnb = matches!(design, Design::GbuWithDnb | Design::GbuFull);

    // --- GPU side (Steps 1-2, next frame, overlapped). ---
    // Any GBU integration consumes Gaussians in global depth order and
    // bins them tile-by-tile on chip, so the GPU's Step ❷ is always the
    // cheap depth-only sort over visible splats rather than the
    // instance-duplication radix sort of the software rasteriser.
    let mut step1 = timing::step1_time(w, gpu, m.sh_degree) + step1_extra_seconds(cfg, m);
    let mut list_bytes = 0.0;
    if !has_dnb {
        // Without the D&B engine the GPU also computes the IRSS transform
        // parameters and the Gaussian-tile intersection tests, and streams
        // the resulting per-tile work lists (24 B per instance) to DRAM
        // for the tile engine to consume.
        step1 += w.splats * TRANSFORM_FLOPS_ON_GPU / (gpu.peak_flops() * gpu.efficiency_step1);
        list_bytes = w.instances * 24.0;
    }
    let depth_sort_bytes = w.splats * gpu.depth_sort_bytes_per_splat_pass * gpu.depth_sort_passes;
    let step2 = depth_sort_bytes / (gpu.dram_bytes_per_s() * gpu.efficiency_step2_bw);
    let t_gpu = step1 + step2;

    // --- GBU side (Step 3, current frame). ---
    let tile_s = m.gbu_tile_cycles / (gbu.clock_ghz * 1e9);
    let dnb_cycles =
        w.splats * gbu.dnb_evd_cycles as f64 + w.instances * gbu.dnb_intersect_cycles as f64;
    let dnb_s = dnb_cycles / (gbu.clock_ghz * 1e9);
    let t_gbu = if has_dnb {
        // Chunk-level pipeline: D&B overlaps the Tile PE.
        tile_s.max(dnb_s)
    } else {
        tile_s
    };

    // --- Step-3 feature traffic. ---
    let nocache_bytes = w.instances * gbu.bytes_per_miss as f64;
    let gbu_bytes = if design == Design::GbuFull {
        nocache_bytes * (1.0 - m.cache_hit_rate)
    } else {
        nocache_bytes
    };

    // --- Shared-DRAM contention (Limitation 2). ---
    // During the overlapped window the GPU's Step-1/2 streams and the
    // GBU's feature fetches share LPDDR bandwidth.
    let gpu_bytes = w.gaussians * gpu.step1_bytes_per_gaussian + depth_sort_bytes + list_bytes;
    // Two concurrent streams (GPU sequential kernels + GBU scattered
    // gathers) achieve roughly half the peak LPDDR bandwidth.
    let t_mem = (gpu_bytes + gbu_bytes) / (gpu.dram_bytes_per_s() * 0.50);

    let frame = t_gpu.max(t_gbu).max(t_mem);

    // --- Energy. ---
    // GPU: busy for its steps at high occupancy, idles the rest of the
    // frame. GBU: its synthesised typical power while active.
    let gbu_power = GbuAreaModel::paper().total_power_w();
    let e_gpu = t_gpu * power::power_at(gpu, 0.8) + (frame - t_gpu).max(0.0) * gpu.idle_power_w;
    let e_gbu = t_gbu * gbu_power;
    SystemEvaluation {
        design,
        frame_seconds: frame,
        fps: 1.0 / frame,
        step1,
        step2,
        step3: t_gbu,
        step3_utilization: m.gbu_pe_utilization,
        step3_dram_bytes: gbu_bytes,
        energy_j: e_gpu + e_gbu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A paper-scale static-scene measurement mirroring what
    /// `apps::measure_frame` produces for the "counter" scene after
    /// extrapolation (the calibration anchor; see
    /// `gbu_gpu::workload::WorkloadScale`).
    fn paper_measurement() -> FrameMeasurement {
        let visible = 1.13e6;
        let instances = 3.13e6;
        let fragments_pfs = visible * 554.0;
        let fragments_irss = fragments_pfs * 0.19;
        let utilization = 0.40;
        FrameMeasurement {
            workload: FrameWorkload {
                gaussians: 1.25e6,
                splats: visible,
                instances,
                sort_passes: 6.0,
                fragments_pfs,
                fragments_blended: fragments_pfs * 0.12,
                fragments_irss,
                rows_irss: instances * 15.9,
                instance_row_max_sum: fragments_irss / (16.0 * utilization),
                irss_lane_utilization: utilization,
                pixels: 7.2e5,
            },
            gbu_tile_cycles: 1.21e7,
            gbu_pe_utilization: 0.72,
            cache_hit_rate: 0.59,
            sh_degree: 1,
            step1_extra_flops: 0.0,
        }
    }

    #[test]
    fn ladder_is_monotonically_faster() {
        let cfg = SystemConfig::default();
        let m = paper_measurement();
        let evals = evaluate_ladder(&cfg, &m);
        for pair in evals.windows(2) {
            assert!(
                pair[1].fps >= pair[0].fps * 0.999,
                "{} ({:.1} FPS) should not be slower than {} ({:.1} FPS)",
                pair[1].design.label(),
                pair[1].fps,
                pair[0].design.label(),
                pair[0].fps
            );
        }
    }

    #[test]
    fn full_system_reaches_realtime_baseline_does_not() {
        let cfg = SystemConfig::default();
        let m = paper_measurement();
        let base = evaluate(&cfg, &m, Design::GpuPfs);
        let full = evaluate(&cfg, &m, Design::GbuFull);
        assert!(base.fps < 25.0, "baseline {base:?}");
        assert!(full.fps >= 60.0, "full system must be real-time, got {:.1}", full.fps);
    }

    #[test]
    fn ablation_factors_are_in_papers_ballpark() {
        // Tab. V: 12.8 -> 22.0 -> 66.1 -> 80.6 -> 91.5 FPS. Accept wide
        // bands around each *ratio* (the shape, not the absolute point).
        let cfg = SystemConfig::default();
        let m = paper_measurement();
        let e = evaluate_ladder(&cfg, &m);
        let r_irss = e[1].fps / e[0].fps; // paper 1.72
        let r_tile = e[2].fps / e[1].fps; // paper 3.0
        let r_dnb = e[3].fps / e[2].fps; // paper 1.22
        let r_cache = e[4].fps / e[3].fps; // paper 1.14
        assert!((1.3..2.6).contains(&r_irss), "IRSS ratio {r_irss}");
        assert!((1.8..5.0).contains(&r_tile), "tile-engine ratio {r_tile}");
        assert!((1.0..1.6).contains(&r_dnb), "D&B ratio {r_dnb}");
        assert!((1.0..1.5).contains(&r_cache), "cache ratio {r_cache}");
    }

    #[test]
    fn cache_cuts_step3_traffic() {
        let cfg = SystemConfig::default();
        let m = paper_measurement();
        let no_cache = evaluate(&cfg, &m, Design::GbuWithDnb);
        let cache = evaluate(&cfg, &m, Design::GbuFull);
        let reduction = 1.0 - cache.step3_dram_bytes / no_cache.step3_dram_bytes;
        assert!((reduction - m.cache_hit_rate).abs() < 1e-9);
    }

    #[test]
    fn gbu_energy_is_far_lower() {
        let cfg = SystemConfig::default();
        let m = paper_measurement();
        let base = evaluate(&cfg, &m, Design::GpuPfs);
        let full = evaluate(&cfg, &m, Design::GbuFull);
        let improvement = (base.energy_j / base.fps.recip()) / (full.energy_j / full.fps.recip());
        let _ = improvement;
        let ratio = base.energy_j / full.energy_j;
        // Paper: 10.8x on static scenes. Accept a generous band.
        assert!(ratio > 4.0, "energy-efficiency ratio {ratio}");
    }

    #[test]
    fn breakdown_sums_to_one() {
        let cfg = SystemConfig::default();
        let m = paper_measurement();
        for e in evaluate_ladder(&cfg, &m) {
            let (a, b, c) = e.breakdown();
            assert!((a + b + c - 1.0).abs() < 1e-9, "{:?}", e.design);
        }
    }

    #[test]
    fn pipelining_beats_serial_execution() {
        // Fig. 13: the GPU's Steps ❶/❷ for frame n+1 overlap the GBU's
        // Step ❸ for frame n, so a GBU design's steady-state frame time is
        // its slowest stage (DRAM included), and the full design's is
        // below the steps run back to back.
        let cfg = SystemConfig::default();
        let m = paper_measurement();
        for design in Design::ladder().into_iter().filter(|d| d.uses_gbu()) {
            let e = evaluate(&cfg, &m, design);
            assert!(e.frame_seconds >= (e.step1 + e.step2).max(e.step3), "{design:?}");
        }
        let e = evaluate(&cfg, &m, Design::GbuFull);
        assert!(e.frame_seconds < e.step1 + e.step2 + e.step3, "{e:?}");
    }

    #[test]
    fn dnb_offload_lightens_gpu_step1() {
        let cfg = SystemConfig::default();
        let m = paper_measurement();
        let tile_only = evaluate(&cfg, &m, Design::GbuTileEngine);
        let with_dnb = evaluate(&cfg, &m, Design::GbuWithDnb);
        assert!(with_dnb.step1 < tile_only.step1);
    }
}
