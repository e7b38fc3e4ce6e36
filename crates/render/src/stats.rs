//! Instrumentation shared by the blending dataflows and consumed by the
//! architecture simulators.
//!
//! The paper's key profiling quantities (Sec. III) are all derived from
//! these counters:
//!
//! - the *fragment-to-Gaussian ratio* (541:1 / 161:1 / 688:1),
//! - the *significant fragment rate* (7.6% / 13.7% / 9.9%),
//! - the per-fragment FLOP counts (11 for PFS; 2 for IRSS interior
//!   fragments, Fig. 6),
//! - the per-row workload imbalance behind the 18.9% GPU lane utilization
//!   (Fig. 9 / Sec. V-A).

/// FLOPs charged for one full Eq. 7 evaluation (the paper's count).
pub const FLOPS_Q_FULL: u64 = 11;
/// FLOPs per interior fragment after the first IRSS transform only
/// (recompute `x'²` and `y'²`, one add — Sec. IV-B).
pub const FLOPS_Q_T1: u64 = 3;
/// FLOPs per interior fragment after both IRSS transforms (recompute
/// `x''²`, one add — Sec. IV-B).
pub const FLOPS_Q_T2: u64 = 2;
/// FLOPs charged for the α-blend of one significant fragment
/// (`exp`, clamp, 3× color MAC, transmittance update).
pub const FLOPS_BLEND: u64 = 9;

/// Statistics from Rendering Step ❶ (preprocessing).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreprocessStats {
    /// Gaussians submitted.
    pub input_gaussians: u64,
    /// Gaussians culled by the near plane / frustum.
    pub culled_frustum: u64,
    /// Gaussians culled for peak opacity below `1/255`.
    pub culled_opacity: u64,
    /// Splats produced.
    pub output_splats: u64,
    /// Total preprocessing FLOPs (projection + SH evaluation).
    pub flops: u64,
}

/// Statistics from Rendering Step ❷ (binning + sort).
///
/// Invariant under the parallel binning path: every field — including
/// `sort_passes`, which the GPU timing model converts into sorting-kernel
/// cost — is identical whether Step ❷ ran serially or on a pool of any
/// size (the chunk-parallel sort skips passes by the same aggregate-
/// histogram rule the serial sort applies).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BinningStats {
    /// (splat, tile) instances emitted.
    pub instances: u64,
    /// Radix-sort passes executed.
    pub sort_passes: u32,
    /// Tiles with at least one instance.
    pub occupied_tiles: u64,
    /// Total tiles in the grid.
    pub total_tiles: u64,
}

/// Statistics from Rendering Step ❸ (Gaussian blending), for either
/// dataflow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlendStats {
    /// (splat, tile) instances processed.
    pub instances: u64,
    /// Fragments on which Eq. 7 (or its shared-computation equivalent) was
    /// evaluated. Under PFS this is the sum, over processed instances, of
    /// the tile's pixels not yet saturated when the instance starts (edge
    /// tiles have fewer than 256 pixels, and saturation is per pixel);
    /// under IRSS only fragments inside / at the boundary of row spans
    /// are counted.
    pub fragments_evaluated: u64,
    /// Fragments whose opacity cleared the `1/255` cutoff (the paper's
    /// "significant" fragments).
    pub fragments_significant: u64,
    /// Fragments actually blended (significant *and* the pixel had not yet
    /// saturated its transmittance).
    pub fragments_blended: u64,
    /// FLOPs spent evaluating quadratic forms (paper accounting).
    pub q_flops: u64,
    /// FLOPs spent in α-blending.
    pub blend_flops: u64,
    /// FLOPs spent on per-(splat,row) setup (IRSS first fragments and
    /// transform applications; zero for PFS).
    pub setup_flops: u64,
    /// Rows considered by IRSS across all (instance, row) pairs.
    pub rows_considered: u64,
    /// Rows skipped outright by the `y''² > Th` test (Step-1 of
    /// Sec. IV-C).
    pub rows_skipped: u64,
    /// Binary searches performed to locate first fragments (Step-3).
    pub binary_searches: u64,
    /// Instances skipped because every pixel of the tile had saturated.
    pub instances_skipped_saturated: u64,
    /// Sum over instances of the *maximum* per-row shaded-fragment count.
    /// When rows map to SIMT lanes, a warp's latency is set by its slowest
    /// lane, so `16 × instance_row_max_sum` is the total lane-slot count of
    /// the IRSS-on-GPU mapping (Sec. V-A, Limitation 1).
    pub instance_row_max_sum: u64,
    /// Per-tile instance counts (index = tile id), for the GPU PFS timing
    /// model.
    pub tile_instances: Vec<u32>,
    /// Per-tile, per-row shaded-fragment counts (only recorded when
    /// `RenderConfig::record_row_workload` is set). Index = tile id; the
    /// inner array is one counter per pixel row of the tile.
    pub row_workload: Vec<[u32; 16]>,
}

impl BlendStats {
    /// Zeroes every counter and empties the per-tile vectors while
    /// keeping their allocations — the buffer-reuse entry points
    /// (`pfs::blend_into` / `irss::blend_precomputed_into`) call this so
    /// repeated-render loops rebuild no `Vec` per frame.
    pub fn reset(&mut self) {
        let mut tile_instances = std::mem::take(&mut self.tile_instances);
        let mut row_workload = std::mem::take(&mut self.row_workload);
        tile_instances.clear();
        row_workload.clear();
        *self = BlendStats { tile_instances, row_workload, ..BlendStats::default() };
    }

    /// Total FLOPs of the blending stage.
    pub fn total_flops(&self) -> u64 {
        self.q_flops + self.blend_flops + self.setup_flops
    }

    /// Fraction of evaluated fragments that were significant — the paper
    /// reports 7.6%/13.7%/9.9% under PFS for the three application types.
    pub fn significant_fraction(&self) -> f64 {
        if self.fragments_evaluated == 0 {
            return 0.0;
        }
        self.fragments_significant as f64 / self.fragments_evaluated as f64
    }

    /// Average Eq.-7 FLOPs per evaluated fragment (11 for PFS, →2 for IRSS
    /// on long rows — Fig. 6).
    pub fn q_flops_per_fragment(&self) -> f64 {
        if self.fragments_evaluated == 0 {
            return 0.0;
        }
        (self.q_flops + self.setup_flops) as f64 / self.fragments_evaluated as f64
    }

    /// Fragment-to-Gaussian ratio given the number of distinct visible
    /// splats.
    pub fn fragments_per_gaussian(&self, splats: u64) -> f64 {
        if splats == 0 {
            return 0.0;
        }
        self.fragments_evaluated as f64 / splats as f64
    }

    /// Mean SIMT lane utilization if each of a tile's 16 rows were mapped
    /// to one lane and every lane waited for the slowest (Sec. V-A's
    /// Limitation 1). Requires recorded row workloads.
    pub fn row_lane_utilization(&self) -> f64 {
        let mut total_work = 0u64;
        let mut total_slots = 0u64;
        for rows in &self.row_workload {
            let max = *rows.iter().max().expect("fixed-size array") as u64;
            if max == 0 {
                continue;
            }
            total_work += rows.iter().map(|&r| r as u64).sum::<u64>();
            total_slots += max * rows.len() as u64;
        }
        if total_slots == 0 {
            return 1.0;
        }
        total_work as f64 / total_slots as f64
    }
}

/// Accumulates [`BlendStats`] across frames (used by multi-frame runs).
pub fn accumulate(into: &mut BlendStats, from: &BlendStats) {
    into.instances += from.instances;
    into.fragments_evaluated += from.fragments_evaluated;
    into.fragments_significant += from.fragments_significant;
    into.fragments_blended += from.fragments_blended;
    into.q_flops += from.q_flops;
    into.blend_flops += from.blend_flops;
    into.setup_flops += from.setup_flops;
    into.rows_considered += from.rows_considered;
    into.rows_skipped += from.rows_skipped;
    into.binary_searches += from.binary_searches;
    into.instances_skipped_saturated += from.instances_skipped_saturated;
    into.instance_row_max_sum += from.instance_row_max_sum;
}

/// Lane utilization of the IRSS-on-GPU row-to-lane mapping derived from
/// aggregate counters: useful work divided by issued lane slots.
pub fn irss_gpu_lane_utilization(stats: &BlendStats) -> f64 {
    if stats.instance_row_max_sum == 0 {
        return 1.0;
    }
    stats.fragments_evaluated as f64 / (16.0 * stats.instance_row_max_sum as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_constants_match_paper() {
        assert_eq!(FLOPS_Q_FULL, 11);
        assert_eq!(FLOPS_Q_T1, 3);
        assert_eq!(FLOPS_Q_T2, 2);
    }

    #[test]
    fn significant_fraction_zero_safe() {
        assert_eq!(BlendStats::default().significant_fraction(), 0.0);
    }

    #[test]
    fn significant_fraction_basic() {
        let s = BlendStats {
            fragments_evaluated: 100,
            fragments_significant: 8,
            ..BlendStats::default()
        };
        assert!((s.significant_fraction() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn lane_utilization_balanced_is_one() {
        let s = BlendStats { row_workload: vec![[4u32; 16]], ..BlendStats::default() };
        assert!((s.row_lane_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lane_utilization_imbalanced() {
        let mut rows = [0u32; 16];
        rows[0] = 16;
        let s = BlendStats { row_workload: vec![rows], ..BlendStats::default() };
        // One active lane out of 16.
        assert!((s.row_lane_utilization() - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn lane_utilization_empty_tiles_ignored() {
        let s = BlendStats { row_workload: vec![[0u32; 16], [2u32; 16]], ..BlendStats::default() };
        assert!((s.row_lane_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accumulate_sums_counters() {
        let mut a = BlendStats { fragments_evaluated: 10, q_flops: 110, ..BlendStats::default() };
        let b = BlendStats { fragments_evaluated: 5, q_flops: 55, ..BlendStats::default() };
        accumulate(&mut a, &b);
        assert_eq!(a.fragments_evaluated, 15);
        assert_eq!(a.q_flops, 165);
    }

    #[test]
    fn fragments_per_gaussian_ratio() {
        let s = BlendStats { fragments_evaluated: 5410, ..BlendStats::default() };
        assert!((s.fragments_per_gaussian(10) - 541.0).abs() < 1e-9);
        assert_eq!(s.fragments_per_gaussian(0), 0.0);
    }
}
