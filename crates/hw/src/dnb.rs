//! The Decomposition & Binning (D&B) engine (Sec. V-D, Fig. 12(a)).
//!
//! Before the Tile PE renders, the D&B engine:
//!
//! 1. computes each Gaussian's IRSS transform parameters (the EVD-based
//!    two-step transformation — offloaded from the GPU, which is the
//!    "+GBU D&B Engine" ablation row of Tab. V),
//! 2. performs the Gaussian-tile intersection tests, producing per-tile
//!    Gaussian lists in depth order, and
//! 3. precomputes each feature access's *next use* so the Gaussian Reuse
//!    Cache can run its reuse-distance replacement policy.
//!
//! The feature access stream is the bins' `entries` as stored: every
//! `TileBins` producer writes exact CSR (offsets that partition the
//! entries in tile order), so the entries already are the tile-major
//! stream the tile engine consumes, and no copy of it is made.
//!
//! Its cycle cost is what the chunk-level pipeline (Fig. 13, bottom)
//! overlaps with the Tile PE.

use crate::cache;
use crate::config::GbuConfig;
use gbu_render::binning::TileBins;
use gbu_render::irss::IrssSplat;
use gbu_render::Splat2D;
use gbu_telemetry::Labels;

/// Output of one D&B pass over a frame.
#[derive(Debug, Clone)]
pub struct DnbResult {
    /// Per-splat IRSS transforms (EVD + rotation parameters).
    pub transforms: Vec<IrssSplat>,
    /// Precomputed next-use position of each entry of the bins' access
    /// stream (`TileBins::entries`; Fig. 12(a)'s reuse distances,
    /// absolute-position form).
    pub next_use: Vec<u64>,
    /// Engine cycles spent (EVD + intersection tests).
    pub cycles: u64,
}

/// Runs the D&B engine over a binned frame. Transform generation (one
/// EVD + rotation per splat) is index-stable parallel work and runs on
/// the global `gbu_par` pool; the next-use scan is inherently sequential
/// (it walks the trace back to front) and stays serial. Recorded as a
/// `device_dnb` wall span at `GBU_TRACE=2`, as is [`run_scoped`].
pub fn run(splats: &[Splat2D], bins: &TileBins, cfg: &GbuConfig) -> DnbResult {
    run_inner(splats, bins, cfg, false)
}

/// [`run`] for a tile-range-scoped shard of a frame: `bins` has been
/// restricted to the shard's tile rows
/// (`gbu_render::shard::ShardPlan::shard_bins`), so the access trace —
/// and with it the shard's feature-fetch DRAM traffic — covers only that
/// tile range by construction. The cycle accounting is scoped too: the
/// EVD stage charges only the *distinct* Gaussians the shard's tiles
/// touch, not the whole frame's splat list (each shard device decomposes
/// only what it renders; a Gaussian spanning two shards is decomposed on
/// both, matching independent devices). Transforms stay index-stable over
/// the full splat list so the tile engine can keep indexing by splat id.
pub fn run_scoped(splats: &[Splat2D], bins: &TileBins, cfg: &GbuConfig) -> DnbResult {
    run_inner(splats, bins, cfg, true)
}

fn run_inner(splats: &[Splat2D], bins: &TileBins, cfg: &GbuConfig, scoped: bool) -> DnbResult {
    let recorder = gbu_telemetry::global();
    let _span = recorder.detailed().then(|| recorder.wall_span("device_dnb", Labels::default()));
    let offsets = &bins.offsets;
    debug_assert!(
        offsets.first() == Some(&0)
            && offsets.last() == Some(&bins.entries.len())
            && offsets.windows(2).all(|w| w[0] <= w[1]),
        "bins must be exact CSR for their entries to be the access stream"
    );
    let transforms = gbu_render::irss::precompute_pooled(gbu_par::global(), splats);
    let next_use = cache::next_use_positions(&bins.entries);
    let decomposed = if scoped {
        let mut touched = vec![false; splats.len()];
        let mut distinct = 0u64;
        for &e in &bins.entries {
            if !touched[e as usize] {
                touched[e as usize] = true;
                distinct += 1;
            }
        }
        distinct
    } else {
        splats.len() as u64
    };
    let cycles =
        decomposed * cfg.dnb_evd_cycles + bins.entries.len() as u64 * cfg.dnb_intersect_cycles;
    recorder.histogram("hw.dnb.cycles").record(cycles);
    DnbResult { transforms, next_use, cycles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbu_math::Vec3;
    use gbu_render::binning::bin_splats;
    use gbu_render::preprocess::project_scene;
    use gbu_scene::{Camera, Gaussian3D, GaussianScene};

    fn setup() -> (Vec<Splat2D>, TileBins) {
        let cam = Camera::orbit(96, 64, 1.0, Vec3::ZERO, 3.0, 0.4, 0.2);
        let scene: GaussianScene = (0..30)
            .map(|i| {
                let a = i as f32 * 0.7;
                Gaussian3D::isotropic(
                    Vec3::new(a.cos() * 0.6, a.sin() * 0.3, (a * 1.7).sin() * 0.4),
                    0.08,
                    Vec3::splat(0.7),
                    0.8,
                )
            })
            .collect();
        let (splats, _) = project_scene(&scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        (splats, bins)
    }

    #[test]
    fn trace_covers_all_instances() {
        let (splats, bins) = setup();
        let r = run(&splats, &bins, &GbuConfig::paper());
        assert_eq!(r.next_use.len(), bins.entries.len());
        assert_eq!(r.transforms.len(), splats.len());
    }

    #[test]
    fn trace_is_tile_major() {
        let (_, bins) = setup();
        // The access stream D&B and the reuse cache walk is the bins'
        // entries as stored: the per-tile entries, tile after tile.
        let mut cursor = 0;
        for tile in 0..bins.tile_count() {
            let e = bins.entries_of(tile);
            assert_eq!(&bins.entries[cursor..cursor + e.len()], e);
            cursor += e.len();
        }
        assert_eq!(cursor, bins.entries.len());
    }

    #[test]
    fn next_use_points_forward() {
        let (splats, bins) = setup();
        let r = run(&splats, &bins, &GbuConfig::paper());
        for (i, &n) in r.next_use.iter().enumerate() {
            if n != u64::MAX {
                assert!(n > i as u64);
                assert_eq!(bins.entries[n as usize], bins.entries[i]);
            }
        }
    }

    #[test]
    fn cycles_scale_with_work() {
        let (splats, bins) = setup();
        let cfg = GbuConfig::paper();
        let r = run(&splats, &bins, &cfg);
        let expect = splats.len() as u64 * cfg.dnb_evd_cycles
            + bins.entries.len() as u64 * cfg.dnb_intersect_cycles;
        assert_eq!(r.cycles, expect);
        assert!(r.cycles > 0);
    }

    #[test]
    fn scoped_run_charges_only_the_tile_range() {
        let (splats, bins) = setup();
        let cfg = GbuConfig::paper();
        let full = run(&splats, &bins, &cfg);

        // Restrict the bins to the top half of the tile rows and compare:
        // the scoped trace covers only the range, and the EVD charge drops
        // to the distinct Gaussians the range touches.
        let plan = gbu_render::shard::ShardPlan::new(
            gbu_render::shard::ShardStrategy::ContiguousRows,
            &bins,
            2,
        );
        let mut scoped_instances = 0usize;
        let mut scoped_cycles = 0u64;
        for s in 0..2 {
            let sb = plan.shard_bins(&bins, s);
            let r = run_scoped(&splats, &sb, &cfg);
            assert_eq!(r.next_use.len(), sb.entries.len());
            assert!(r.cycles <= full.cycles, "a shard cannot cost more than the frame");
            assert_eq!(r.transforms.len(), splats.len(), "transforms stay index-stable");
            scoped_instances += sb.entries.len();
            scoped_cycles += r.cycles;
        }
        assert_eq!(scoped_instances, bins.entries.len(), "instances partition");
        // Shards re-decompose Gaussians that straddle the boundary, so the
        // summed EVD charge can exceed the frame's — but never by more
        // than one extra decomposition per splat per extra shard.
        assert!(scoped_cycles >= bins.entries.len() as u64 * cfg.dnb_intersect_cycles);
        assert!(
            scoped_cycles <= full.cycles + splats.len() as u64 * cfg.dnb_evd_cycles,
            "duplicate decompositions are bounded by one per splat per shard"
        );
    }
}
