//! Scene sharding over tile rows: a [`ShardPlan`] splits one frame's
//! Step-❸ work across N devices.
//!
//! Tile rows are the natural shard boundary: the blending dataflows
//! already treat them as independent jobs, so a shard is just a *set of
//! tile rows*. The plan is consumed by the device path — each shard's
//! rows run on their own GBU device in `gbu_serve`'s cluster and the
//! partial images merge back bit-identically to the unsharded device
//! render (pinned by `gbu_serve`'s cluster tests for shard counts
//! {1, 2, 4} × every strategy, including an empty scene and more shards
//! than tile rows).
//!
//! Three [`ShardStrategy`] variants split the rows:
//!
//! - **contiguous rows** — shard `s` gets the `s`-th block of adjacent
//!   rows (best feature-cache locality per shard; worst balance on
//!   center-heavy scenes);
//! - **interleaved rows** — row `r` goes to shard `r mod n`
//!   (round-robin balance without measuring anything);
//! - **cost-balanced** — greedy longest-processing-time assignment fed
//!   by the per-tile-row (splat, tile) pair counts Step ❷ already
//!   produced ([`crate::binning::TileBins::row_pair_counts`]).
//!
//! [`ShardPlan::shard_bins`] restricts a [`crate::binning::TileBins`] to
//! one shard's rows (same grid, other rows emptied) — the form a device
//! in a multi-pool cluster consumes: the D&B access trace, and hence the
//! DRAM feature traffic, then covers only that shard's tile range.

use crate::binning::TileBins;

/// How a frame's tile rows are split over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardStrategy {
    /// Blocks of adjacent tile rows.
    ContiguousRows,
    /// Row `r` → shard `r mod n`.
    InterleavedRows,
    /// Greedy LPT over per-tile-row pair counts from binning.
    CostBalanced,
    /// Greedy LPT over per-row costs *corrected by measurement*: the
    /// previous frame's measured per-shard service cycles
    /// ([`ShardFeedback`]) rescale each row's pair count by how much its
    /// shard under- or over-ran the pair-count prediction — pair counts
    /// alone ignore saturation early-outs, which is exactly what the
    /// measurement recovers. Without feedback (the first frame) this is
    /// identical to [`ShardStrategy::CostBalanced`].
    Measured,
}

impl ShardStrategy {
    /// The feedback-free strategies, in sweep order. ([`Measured`]
    /// depends on per-frame history, so single-frame sweeps exclude it —
    /// without feedback it degenerates to [`CostBalanced`] anyway.)
    ///
    /// [`Measured`]: ShardStrategy::Measured
    /// [`CostBalanced`]: ShardStrategy::CostBalanced
    pub fn all() -> [ShardStrategy; 3] {
        [ShardStrategy::ContiguousRows, ShardStrategy::InterleavedRows, ShardStrategy::CostBalanced]
    }

    /// Stable name for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ShardStrategy::ContiguousRows => "contiguous_rows",
            ShardStrategy::InterleavedRows => "interleaved_rows",
            ShardStrategy::CostBalanced => "cost_balanced",
            ShardStrategy::Measured => "measured",
        }
    }
}

/// Measured outcome of a previously executed [`ShardPlan`]: which rows
/// each shard rendered and the service cycles the shard actually took —
/// the feedback [`ShardStrategy::Measured`] folds into the next frame's
/// plan.
#[derive(Debug, Clone, Default)]
pub struct ShardFeedback {
    /// Per-shard row assignments of the executed plan.
    pub rows: Vec<Vec<u32>>,
    /// Measured service cycles of each shard (same indexing as `rows`).
    pub measured_cycles: Vec<u64>,
}

impl ShardFeedback {
    /// Per-row cost estimates under this measurement: each row keeps its
    /// pair count, rescaled by its shard's measured-over-planned ratio
    /// *relative to the whole frame's* (a dimensionless factor around
    /// 1), so rows whose shard ran hotter than pair counts predicted
    /// (little saturation, deep alpha stacks) get proportionally
    /// heavier. Normalising by the frame-wide cycles-per-pair baseline
    /// keeps the corrected costs in pair-count units, so rows absent
    /// from the feedback (a regridded frame) combine consistently at
    /// their raw pair count (an implied correction factor of 1).
    ///
    /// Costs are returned in fixed-point (cost × 1024, as `u64`,
    /// computed through `u128` so large frames cannot overflow) — the
    /// LPT pass stays integer and fully deterministic.
    fn corrected_row_costs(&self, pair_counts: &[u64]) -> Vec<u64> {
        const SCALE: u128 = 1024;
        let mut costs: Vec<u64> = pair_counts.iter().map(|&c| c.saturating_mul(1024)).collect();
        // Frame-wide baseline: total measured cycles per planned pair.
        let mut total_measured: u128 = 0;
        let mut total_planned: u128 = 0;
        for (rows, &measured) in self.rows.iter().zip(&self.measured_cycles) {
            let planned: u64 = rows.iter().filter_map(|&r| pair_counts.get(r as usize)).sum();
            if planned > 0 {
                total_measured += u128::from(measured);
                total_planned += u128::from(planned);
            }
        }
        if total_measured == 0 || total_planned == 0 {
            return costs;
        }
        for (rows, &measured) in self.rows.iter().zip(&self.measured_cycles) {
            let planned: u64 = rows.iter().filter_map(|&r| pair_counts.get(r as usize)).sum();
            if planned == 0 {
                continue;
            }
            // factor = (measured / planned) / (total_measured /
            // total_planned): how much hotter this shard ran than the
            // frame as a whole, per planned pair.
            for &r in rows {
                if let Some(c) = costs.get_mut(r as usize) {
                    let corrected = u128::from(pair_counts[r as usize])
                        * SCALE
                        * u128::from(measured)
                        * total_planned
                        / (u128::from(planned) * total_measured);
                    *c = u64::try_from(corrected).unwrap_or(u64::MAX);
                }
            }
        }
        costs
    }
}

/// One shard's slice of the frame.
#[derive(Debug, Clone)]
pub struct ShardAssignment {
    /// Tile rows this shard renders, ascending.
    pub rows: Vec<u32>,
    /// Planned Step-❷ cost: summed (splat, tile) pair count of the rows.
    pub planned_cost: u64,
}

/// A frame's tile rows split over N shards — disjoint and covering.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// The strategy that built the plan.
    pub strategy: ShardStrategy,
    /// Tile edge in pixels (copied from the bins).
    pub tile_size: u32,
    /// Tiles per row of the planned grid.
    pub tiles_x: u32,
    /// Total tile rows of the frame.
    pub tiles_y: u32,
    /// Per-shard row assignments; every row in `0..tiles_y` appears in
    /// exactly one shard.
    pub shards: Vec<ShardAssignment>,
}

impl ShardPlan {
    /// Splits `bins`' tile rows over `shards` shards with `strategy`.
    /// [`ShardStrategy::Measured`] has no history here and degenerates to
    /// [`ShardStrategy::CostBalanced`]; use [`ShardPlan::with_feedback`]
    /// to fold a previous frame's measurement in.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`.
    pub fn new(strategy: ShardStrategy, bins: &TileBins, shards: usize) -> Self {
        Self::with_feedback(strategy, bins, shards, None)
    }

    /// [`ShardPlan::new`] with optional measurement feedback: under
    /// [`ShardStrategy::Measured`] the LPT pass runs over per-row costs
    /// corrected by the previous frame's measured per-shard service
    /// cycles (`ShardFeedback`'s corrected per-row costs); every other
    /// strategy ignores `feedback`, as does `Measured` when it is `None`
    /// (the first frame has nothing to learn from).
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`.
    pub fn with_feedback(
        strategy: ShardStrategy,
        bins: &TileBins,
        shards: usize,
        feedback: Option<&ShardFeedback>,
    ) -> Self {
        assert!(shards > 0, "a plan needs at least one shard");
        let costs = bins.row_pair_counts();
        let tiles_y = bins.tiles_y;
        let mut rows_of: Vec<Vec<u32>> = vec![Vec::new(); shards];
        // Longest-processing-time over `weights`: heaviest rows first,
        // each to the currently lightest shard (ties by shard index —
        // fully deterministic).
        let lpt = |rows_of: &mut Vec<Vec<u32>>, weights: &[u64]| {
            let mut order: Vec<u32> = (0..tiles_y).collect();
            order.sort_by_key(|&r| (std::cmp::Reverse(weights[r as usize]), r));
            let mut load = vec![0u64; shards];
            for r in order {
                let s = (0..shards).min_by_key(|&s| (load[s], s)).expect("shards > 0");
                load[s] += weights[r as usize];
                rows_of[s].push(r);
            }
        };
        match strategy {
            ShardStrategy::ContiguousRows => {
                // Balanced blocks: the first `rem` shards get one extra row.
                let base = tiles_y as usize / shards;
                let rem = tiles_y as usize % shards;
                let mut next = 0u32;
                for (s, rows) in rows_of.iter_mut().enumerate() {
                    let len = base + usize::from(s < rem);
                    rows.extend(next..next + len as u32);
                    next += len as u32;
                }
            }
            ShardStrategy::InterleavedRows => {
                for r in 0..tiles_y {
                    rows_of[r as usize % shards].push(r);
                }
            }
            ShardStrategy::CostBalanced => lpt(&mut rows_of, &costs),
            ShardStrategy::Measured => match feedback {
                Some(fb) => lpt(&mut rows_of, &fb.corrected_row_costs(&costs)),
                None => lpt(&mut rows_of, &costs),
            },
        }
        let shards = rows_of
            .into_iter()
            .map(|mut rows| {
                rows.sort_unstable();
                let planned_cost = rows.iter().map(|&r| costs[r as usize]).sum();
                ShardAssignment { rows, planned_cost }
            })
            .collect();
        Self { strategy, tile_size: bins.tile_size, tiles_x: bins.tiles_x, tiles_y, shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Planned load imbalance: heaviest shard cost over mean shard cost
    /// (1.0 = perfectly balanced; 1.0 for an empty frame).
    pub fn planned_imbalance(&self) -> f64 {
        let total: u64 = self.shards.iter().map(|s| s.planned_cost).sum();
        if total == 0 {
            return 1.0;
        }
        let max = self.shards.iter().map(|s| s.planned_cost).max().expect("non-empty plan");
        max as f64 / (total as f64 / self.shards.len() as f64)
    }

    /// Restricts `bins` to shard `shard`'s tile rows: same grid and tile
    /// ids, but tiles outside the shard hold no instances. The D&B access
    /// trace built from the restriction — and hence the shard's DRAM
    /// feature traffic — covers only the shard's tile range.
    ///
    /// # Panics
    ///
    /// Panics if `bins` does not match the plan's grid.
    pub fn shard_bins(&self, bins: &TileBins, shard: usize) -> TileBins {
        assert_eq!(
            (bins.tiles_x, bins.tiles_y, bins.tile_size),
            (self.tiles_x, self.tiles_y, self.tile_size),
            "plan/bins grid mismatch"
        );
        let mut selected = vec![false; self.tiles_y as usize];
        for &r in &self.shards[shard].rows {
            selected[r as usize] = true;
        }
        let tile_count = bins.tile_count();
        let mut offsets = vec![0usize; tile_count + 1];
        let mut entries = Vec::with_capacity(self.shards[shard].planned_cost as usize);
        for t in 0..tile_count {
            let ty = t as u32 / bins.tiles_x;
            if selected[ty as usize] {
                entries.extend_from_slice(bins.entries_of(t));
            }
            offsets[t + 1] = entries.len();
        }
        TileBins {
            tile_size: bins.tile_size,
            tiles_x: bins.tiles_x,
            tiles_y: bins.tiles_y,
            offsets,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline;
    use gbu_math::Vec3;
    use gbu_scene::{Camera, Gaussian3D, GaussianScene};

    fn scene_and_camera() -> (GaussianScene, Camera) {
        // Center-heavy cloud: contiguous row blocks are visibly imbalanced.
        let scene: GaussianScene = (0..50)
            .map(|i| {
                let a = i as f32 * 0.37;
                Gaussian3D::isotropic(
                    Vec3::new(a.cos() * 0.5, (a * 1.3).sin() * 0.25, a.sin() * 0.5),
                    0.05 + 0.01 * (i % 4) as f32,
                    Vec3::new(0.3 + 0.01 * i as f32, 0.7, 0.4),
                    0.4 + 0.01 * i as f32,
                )
            })
            .collect();
        (scene, Camera::orbit(128, 96, 1.0, Vec3::ZERO, 3.0, 0.3, 0.15))
    }

    #[test]
    fn plans_are_disjoint_and_covering() {
        let (scene, camera) = scene_and_camera();
        let projected = pipeline::project(&scene, &camera);
        let binned = pipeline::bin(&projected, 16);
        for strategy in ShardStrategy::all() {
            for shards in [1usize, 2, 3, 4, 7] {
                let plan = ShardPlan::new(strategy, &binned.bins, shards);
                assert_eq!(plan.shard_count(), shards);
                let mut seen = vec![0u32; binned.bins.tiles_y as usize];
                for a in &plan.shards {
                    assert!(a.rows.windows(2).all(|w| w[0] < w[1]), "rows ascending");
                    for &r in &a.rows {
                        seen[r as usize] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "{strategy:?}/{shards}: cover exactly once");
                assert!(plan.planned_imbalance() >= 1.0 - 1e-12);
            }
        }
    }

    #[test]
    fn cost_balanced_is_no_worse_than_contiguous() {
        let (scene, camera) = scene_and_camera();
        let projected = pipeline::project(&scene, &camera);
        let binned = pipeline::bin(&projected, 16);
        for shards in [2usize, 3] {
            let cont = ShardPlan::new(ShardStrategy::ContiguousRows, &binned.bins, shards);
            let bal = ShardPlan::new(ShardStrategy::CostBalanced, &binned.bins, shards);
            assert!(
                bal.planned_imbalance() <= cont.planned_imbalance() + 1e-12,
                "LPT ({}) must not lose to contiguous ({}) at {shards} shards",
                bal.planned_imbalance(),
                cont.planned_imbalance()
            );
        }
    }

    #[test]
    fn shard_bins_partition_the_entries() {
        let (scene, camera) = scene_and_camera();
        let projected = pipeline::project(&scene, &camera);
        let binned = pipeline::bin(&projected, 16);
        let plan = ShardPlan::new(ShardStrategy::InterleavedRows, &binned.bins, 3);
        let mut total = 0usize;
        for s in 0..3 {
            let sb = plan.shard_bins(&binned.bins, s);
            assert_eq!(sb.tile_count(), binned.bins.tile_count());
            // Within the shard's rows the per-tile entries are identical.
            for t in 0..sb.tile_count() {
                let ty = t as u32 / sb.tiles_x;
                if plan.shards[s].rows.contains(&ty) {
                    assert_eq!(sb.entries_of(t), binned.bins.entries_of(t));
                } else {
                    assert!(sb.entries_of(t).is_empty());
                }
            }
            total += sb.entries.len();
        }
        assert_eq!(total, binned.bins.entries.len(), "entries partition exactly");
    }

    #[test]
    fn measured_without_feedback_matches_cost_balanced() {
        let (scene, camera) = scene_and_camera();
        let projected = pipeline::project(&scene, &camera);
        let binned = pipeline::bin(&projected, 16);
        for shards in [2usize, 3, 4] {
            let bal = ShardPlan::new(ShardStrategy::CostBalanced, &binned.bins, shards);
            let measured = ShardPlan::new(ShardStrategy::Measured, &binned.bins, shards);
            for (a, b) in bal.shards.iter().zip(&measured.shards) {
                assert_eq!(a.rows, b.rows, "first-frame Measured must be pair-count LPT");
            }
        }
    }

    #[test]
    fn measured_feedback_rebalances_hot_shards() {
        // A taller frame (10 tile rows) than the shared fixture: the LPT
        // pass needs several rows per shard for rebalancing to have any
        // freedom.
        let (scene, _) = scene_and_camera();
        let camera = Camera::orbit(128, 160, 1.0, Vec3::ZERO, 3.0, 0.3, 0.15);
        let projected = pipeline::project(&scene, &camera);
        let binned = pipeline::bin(&projected, 16);
        let shards = 3usize;
        let first = ShardPlan::new(ShardStrategy::Measured, &binned.bins, shards);

        // Synthetic measurement: the shard holding the *most* rows ran 4x
        // hotter than its pair counts predicted (saturation early-outs
        // elsewhere), the others exactly as planned. Heating a multi-row
        // shard leaves the LPT pass real freedom to redistribute — heating
        // the shard LPT isolated the single heaviest row on would not.
        let hot =
            (0..shards).max_by_key(|&s| (first.shards[s].rows.len(), s)).expect("non-empty plan");
        assert!(first.shards[hot].rows.len() >= 2, "hot shard must be divisible");
        let feedback = ShardFeedback {
            rows: first.shards.iter().map(|s| s.rows.clone()).collect(),
            measured_cycles: first
                .shards
                .iter()
                .enumerate()
                .map(|(s, a)| a.planned_cost * if s == hot { 4 } else { 1 })
                .collect(),
        };
        let corrected = feedback.corrected_row_costs(&binned.bins.row_pair_counts());
        let replan = ShardPlan::with_feedback(
            ShardStrategy::Measured,
            &binned.bins,
            shards,
            Some(&feedback),
        );

        let imbalance = |plan: &ShardPlan| {
            let loads: Vec<u64> = plan
                .shards
                .iter()
                .map(|a| a.rows.iter().map(|&r| corrected[r as usize]).sum::<u64>())
                .collect();
            let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
            *loads.iter().max().expect("non-empty") as f64 / mean.max(1.0)
        };
        assert!(
            imbalance(&replan) < imbalance(&first),
            "measured replan {:.3} must beat the stale plan {:.3} on corrected costs",
            imbalance(&replan),
            imbalance(&first)
        );
        // The replanned shards still partition the rows.
        let mut seen = vec![0u32; binned.bins.tiles_y as usize];
        for a in &replan.shards {
            for &r in &a.rows {
                seen[r as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn corrected_costs_stay_in_pair_units() {
        let (scene, camera) = scene_and_camera();
        let projected = pipeline::project(&scene, &camera);
        let binned = pipeline::bin(&projected, 16);
        let pairs = binned.bins.row_pair_counts();
        let plan = ShardPlan::new(ShardStrategy::CostBalanced, &binned.bins, 2);

        // Measurement exactly proportional to the pair-count plan: the
        // correction is a no-op, so every row — covered or not — must
        // come back at its raw fixed-point pair count. (This is what
        // keeps feedback covering only a subset of rows, e.g. after a
        // regrid, comparable with the uncovered rest.)
        let proportional = ShardFeedback {
            // Only shard 0 reports: shard 1's rows are "uncovered".
            rows: vec![plan.shards[0].rows.clone()],
            measured_cycles: vec![plan.shards[0].planned_cost * 1000],
        };
        let corrected = proportional.corrected_row_costs(&pairs);
        for (r, &pair) in pairs.iter().enumerate() {
            assert_eq!(
                corrected[r],
                pair * 1024,
                "row {r}: a proportional measurement must not move any cost"
            );
        }
    }

    #[test]
    fn measured_label_is_stable() {
        assert_eq!(ShardStrategy::Measured.label(), "measured");
        assert!(!ShardStrategy::all().contains(&ShardStrategy::Measured));
    }

    #[test]
    fn row_pair_counts_sum_to_instances() {
        let (scene, camera) = scene_and_camera();
        let projected = pipeline::project(&scene, &camera);
        let binned = pipeline::bin(&projected, 16);
        let counts = binned.bins.row_pair_counts();
        assert_eq!(counts.len(), binned.bins.tiles_y as usize);
        assert_eq!(counts.iter().sum::<u64>(), binned.bins.entries.len() as u64);
    }
}
