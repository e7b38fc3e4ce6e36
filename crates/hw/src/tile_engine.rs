//! The Row-Centric Tile Engine (Sec. V-C, Fig. 10/11).
//!
//! Renders 16×16 tiles one by one. A **Row Generation Engine** walks the
//! tile's depth-ordered instance list; for each instance it evaluates all
//! 16 row tests in parallel (threshold computation + comparator array),
//! locates first fragments, and forwards row tasks to the owning **Row
//! PE**'s FIFO. Each of the 8 Row PEs owns 2 pixel rows and shades one
//! fragment per cycle, keeping accumulated pixel colors stationary in its
//! Row Pixel Buffer. Because rows progress *asynchronously*, the workload
//! imbalance that strands SIMT lanes on a GPU (Limitation 1) becomes
//! simple queue slack here — the paper's central hardware argument.
//!
//! The engine is a cost model plus the IRSS kernel at Row-PE precision,
//! two passes over the D&B engine's output:
//!
//! - the **cost pass** ([`TileEngine::cost`]) is the timing model. It
//!   walks the access stream through the Gaussian Reuse Cache and every
//!   (instance, row) through IRSS's `row_outcome`/`march` into the
//!   Row-PE queues, and touches no pixel. Its [`FrameCost`] holds every
//!   counter of the frame and the device occupancy.
//! - the **pixel pass** ([`TileEngine::pixels`]) is the functional model:
//!   `gbu_render::irss`'s tile-row kernel over D&B's transforms, on the
//!   Row PE's FP-16 datapath (Sec. VI-B, [`irss::Fp16`]) or, with
//!   [`GbuConfig::fp16_datapath`] off, in FP32 ([`irss::Fp32`]), where
//!   the image is software IRSS's bit for bit.
//!
//! Both passes find row spans with the same code, so they agree by
//! construction. The cost counts every instance and every evaluated
//! fragment, including those the pixel pass skips once a pixel or a
//! whole tile has saturated: the hardware's threshold units evaluate
//! them too.

use crate::cache::{CacheStats, GaussianReuseCache, Policy};
use crate::config::GbuConfig;
use crate::dnb::DnbResult;
use gbu_math::Vec3;
use gbu_par::ThreadPool;
use gbu_render::binning::TileBins;
use gbu_render::irss::{self, RowOutcome};
use gbu_render::stats::BlendStats;
use gbu_render::{BlendScratch, FrameBuffer, RenderConfig, Splat2D};
use gbu_scene::Camera;
use gbu_telemetry::Labels;

/// The Tile PE: configuration plus rendering entry points.
#[derive(Debug, Clone, Default)]
pub struct TileEngine {
    /// Hardware parameters.
    pub config: GbuConfig,
}

/// What one frame costs the GBU: every counter of a run, without its
/// image. A pure function of the splats, the bins, the configuration and
/// the cache policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameCost {
    /// D&B engine cycles (EVD + intersection tests).
    pub dnb_cycles: u64,
    /// Total Tile-PE cycles for the frame (sum over tiles of the
    /// per-tile critical path, plus per-tile overhead).
    pub compute_cycles: u64,
    /// Cycles the Row Generation Engine was busy.
    pub rowgen_cycles: u64,
    /// Total busy cycles summed over all Row PEs.
    pub pe_busy_cycles: u64,
    /// Gaussian Reuse Cache statistics.
    pub cache: CacheStats,
    /// Off-chip bytes fetched for input features (misses × record size).
    pub dram_bytes: u64,
    /// (splat, tile) instances processed.
    pub instances: u64,
    /// Row tasks dispatched to Row PEs.
    pub spans: u64,
    /// Fragments shaded (threshold-unit evaluations).
    pub fragments: u64,
    /// Occupied tiles rendered.
    pub tiles: u64,
}

impl FrameCost {
    /// Device occupancy in cycles: the chunk-level pipeline (Fig. 13,
    /// bottom) overlaps D&B with the Tile PE, so a frame occupies the
    /// device for max(D&B, Tile PE) cycles.
    pub fn occupancy(&self) -> u64 {
        self.dnb_cycles.max(self.compute_cycles)
    }
}

/// Result of rendering one frame on the GBU.
#[derive(Debug, Clone)]
pub struct GbuRunResult {
    /// The rendered image (FP-16 datapath when configured).
    pub image: FrameBuffer,
    /// Total Tile-PE cycles for the frame (sum over tiles of the
    /// per-tile critical path, plus per-tile overhead).
    pub compute_cycles: u64,
    /// Cycles the Row Generation Engine was busy.
    pub rowgen_cycles: u64,
    /// Total busy cycles summed over all Row PEs.
    pub pe_busy_cycles: u64,
    /// Gaussian Reuse Cache statistics.
    pub cache: CacheStats,
    /// Off-chip bytes fetched for input features (misses × record size).
    pub dram_bytes: u64,
    /// (splat, tile) instances processed.
    pub instances: u64,
    /// Row tasks dispatched to Row PEs.
    pub spans: u64,
    /// Fragments shaded (threshold-unit evaluations).
    pub fragments: u64,
    /// Occupied tiles rendered.
    pub tiles: u64,
}

impl GbuRunResult {
    /// A run from the frame's cost pass and its image.
    pub fn new(c: FrameCost, image: FrameBuffer) -> Self {
        Self {
            image,
            compute_cycles: c.compute_cycles,
            rowgen_cycles: c.rowgen_cycles,
            pe_busy_cycles: c.pe_busy_cycles,
            cache: c.cache,
            dram_bytes: c.dram_bytes,
            instances: c.instances,
            spans: c.spans,
            fragments: c.fragments,
            tiles: c.tiles,
        }
    }

    /// Mean row-unit utilization: busy cycles over available row-unit
    /// cycles (each Row PE runs its two rows on parallel lanes, so a tile
    /// has `row_pes × rows_per_pe` row units). Contrast with the 18.9%
    /// SIMT utilization of the GPU mapping — the asynchronous rows keep
    /// this high (Fig. 10).
    pub fn pe_utilization(&self, cfg: &GbuConfig) -> f64 {
        if self.compute_cycles == 0 {
            return 0.0;
        }
        self.pe_busy_cycles as f64 / (self.compute_cycles as f64 * f64::from(cfg.covered_rows()))
    }

    /// Frame time in seconds at the configured clock.
    pub fn seconds(&self, cfg: &GbuConfig) -> f64 {
        cfg.cycles_to_seconds(self.compute_cycles)
    }
}

impl TileEngine {
    /// Creates a tile engine with the given configuration.
    pub fn new(config: GbuConfig) -> Self {
        Self { config }
    }

    /// Renders a frame: [`TileEngine::cost`] plus [`TileEngine::pixels`].
    ///
    /// `policy` selects the reuse-cache replacement policy (the paper's
    /// reuse-distance policy by default); the cache capacity comes from
    /// the configuration (`cache_kib = 0` disables caching, the "0 KB"
    /// point of Fig. 17 and the "+GBU Tile Engine"-only ablation row).
    ///
    /// # Panics
    ///
    /// As [`TileEngine::cost`] and [`TileEngine::pixels`].
    pub fn render(
        &self,
        splats: &[Splat2D],
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
        policy: Policy,
    ) -> GbuRunResult {
        let cost = self.cost(dnb, bins, camera, policy);
        GbuRunResult::new(cost, self.pixels(splats, dnb, bins, camera, background))
    }

    /// The cost pass on the global pool: every counter of the frame and
    /// its occupancy, no pixels. Recorded as a `device_cost` span at
    /// `GBU_TRACE=2`.
    ///
    /// # Panics
    ///
    /// When `bins.tile_size` is not [`GbuConfig::covered_rows`], or `dnb`
    /// ran on other bins.
    pub fn cost(
        &self,
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        policy: Policy,
    ) -> FrameCost {
        self.cost_on(gbu_par::global(), dnb, bins, camera, policy)
    }

    /// The pixel pass on the global pool: IRSS's tile-row kernel over
    /// D&B's transforms on the configured datapath, composited over
    /// `background`. Recorded as a `device_pixels` span at `GBU_TRACE=2`.
    ///
    /// # Panics
    ///
    /// When D&B's transforms do not match the splat list.
    pub fn pixels(
        &self,
        splats: &[Splat2D],
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
    ) -> FrameBuffer {
        self.pixels_on(gbu_par::global(), splats, dnb, bins, camera, background)
    }

    /// [`TileEngine::cost`] on `pool`. The Gaussian Reuse Cache is one
    /// structure whose state threads through the whole frame, so it walks
    /// the access stream serially (a few table lookups per instance); the
    /// Row-PE queue timing is independent per tile and runs one tile row
    /// per job, summed in tile order, so the counts are identical at
    /// every thread count.
    fn cost_on(
        &self,
        pool: &ThreadPool,
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        policy: Policy,
    ) -> FrameCost {
        let cfg = &self.config;
        let (got, covered) = (bins.tile_size, cfg.covered_rows());
        assert!(got == covered, "{got}-px tiles do not fit Row PEs covering {covered} rows");
        assert_eq!(dnb.next_use.len(), bins.entries.len(), "D&B ran on other bins");
        let recorder = gbu_telemetry::global();
        let _span =
            recorder.detailed().then(|| recorder.wall_span("device_cost", Labels::default()));

        // The access stream is the bins' entries (the instance stream in
        // tile order), exactly as the D&B engine feeds it.
        let mut cache = GaussianReuseCache::new(cfg.cache_lines(), policy);
        for (&entry, &next_use) in bins.entries.iter().zip(&dnb.next_use) {
            cache.access(entry, next_use);
        }
        let cache = cache.stats();
        let mut cost = FrameCost {
            dnb_cycles: dnb.cycles,
            cache,
            dram_bytes: cache.misses * cfg.bytes_per_miss,
            ..FrameCost::default()
        };

        let tile_rows: Vec<u32> = (0..bins.tiles_y).collect();
        let rows = pool.map_indexed(&tile_rows, |_, &ty| self.tile_row_cost(dnb, bins, camera, ty));
        for row in rows {
            cost.compute_cycles += row.compute_cycles;
            cost.rowgen_cycles += row.rowgen_cycles;
            cost.pe_busy_cycles += row.pe_busy_cycles;
            cost.instances += row.instances;
            cost.spans += row.spans;
            cost.fragments += row.fragments;
            cost.tiles += row.tiles;
        }
        cost
    }

    /// Row-Generation-Engine and Row-PE queue timing of every tile of
    /// tile row `ty` (the cache and D&B fields stay zero).
    fn tile_row_cost(
        &self,
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        ty: u32,
    ) -> FrameCost {
        let cfg = &self.config;
        let mut cost = FrameCost::default();
        let mut pe_free = vec![0u64; cfg.covered_rows() as usize];
        for tx in 0..bins.tiles_x {
            let tile = (ty * bins.tiles_x + tx) as usize;
            let entries = bins.entries_of(tile);
            if entries.is_empty() {
                continue;
            }
            cost.tiles += 1;
            let (x0, y0, x1, y1) = bins.tile_pixel_rect(tile, camera.width, camera.height);
            let mut rowgen_t = 0u64;
            pe_free.fill(0);

            for &entry in entries {
                cost.instances += 1;
                let isp = &dnb.transforms[entry as usize];
                rowgen_t += cfg.rowgen_instance_cycles;

                let mut nspans = 0u64;
                for (py, free) in (y0..y1).zip(pe_free.iter_mut()) {
                    let RowOutcome::Span(span) = isp.row_outcome(py, x0, x1) else { continue };
                    nspans += 1;
                    // Counts the terminating out-of-threshold fragment
                    // too: it also occupies a threshold-unit cycle.
                    let evaluated = u64::from(isp.march(&span, x1, |_, _| {}).evaluated);
                    cost.fragments += evaluated;
                    let task =
                        cfg.rowpe_setup_cycles + evaluated.div_ceil(cfg.rowpe_frags_per_cycle);
                    *free = rowgen_t.max(*free) + task;
                    cost.pe_busy_cycles += task;
                }
                cost.spans += nspans;
                rowgen_t += nspans.div_ceil(cfg.rowgen_spans_per_cycle);
            }

            let pe_done = pe_free.iter().copied().max().unwrap_or(0);
            cost.compute_cycles += rowgen_t.max(pe_done) + cfg.tile_overhead_cycles;
            cost.rowgen_cycles += rowgen_t;
        }
        cost
    }

    /// [`TileEngine::pixels`] on `pool`.
    fn pixels_on(
        &self,
        pool: &ThreadPool,
        splats: &[Splat2D],
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
    ) -> FrameBuffer {
        let recorder = gbu_telemetry::global();
        let _span =
            recorder.detailed().then(|| recorder.wall_span("device_pixels", Labels::default()));
        let blend = if self.config.fp16_datapath {
            irss::blend_precomputed_into::<irss::Fp16>
        } else {
            irss::blend_precomputed_into::<irss::Fp32>
        };
        let config =
            RenderConfig { tile_size: bins.tile_size, background, record_row_workload: false };
        let mut image = FrameBuffer::new(camera.width, camera.height, background);
        let (scratch, stats) = (&mut BlendScratch::new(), &mut BlendStats::default());
        blend(pool, splats, &dnb.transforms, bins, camera, &config, scratch, &mut image, stats);
        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnb;
    use gbu_render::binning::bin_splats;
    use gbu_render::metrics::psnr;
    use gbu_render::preprocess::project_scene;
    use gbu_render::{render_irss, RenderConfig};
    use gbu_scene::{Camera, Gaussian3D, GaussianScene};

    fn test_scene(n: usize) -> (GaussianScene, Camera) {
        let cam = Camera::orbit(96, 64, 1.0, Vec3::ZERO, 3.0, 0.5, 0.2);
        let scene: GaussianScene = (0..n)
            .map(|i| {
                let a = i as f32 * 0.47;
                Gaussian3D::isotropic(
                    Vec3::new(a.cos() * 0.7, (a * 1.3).sin() * 0.4, a.sin() * 0.6),
                    0.04 + 0.015 * ((i % 7) as f32),
                    Vec3::new(
                        0.2 + 0.6 * ((i % 5) as f32) / 5.0,
                        0.9 - 0.6 * ((i % 3) as f32) / 3.0,
                        0.5,
                    ),
                    0.25 + 0.6 * ((i % 4) as f32) / 4.0,
                )
            })
            .collect();
        (scene, cam)
    }

    fn run_engine(cfg: GbuConfig, n: usize) -> (GbuRunResult, GbuConfig, FrameBuffer) {
        let (scene, cam) = test_scene(n);
        let (splats, _) = project_scene(&scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        let d = dnb::run(&splats, &bins, &cfg);
        let engine = TileEngine::new(cfg.clone());
        let r = engine.render(&splats, &d, &bins, &cam, Vec3::ZERO, Policy::ReuseDistance);
        let sw = render_irss(&scene, &cam, &RenderConfig::default());
        (r, cfg, sw.image)
    }

    #[test]
    fn fp32_engine_matches_software_irss() {
        let cfg = GbuConfig { fp16_datapath: false, ..GbuConfig::paper() };
        let (r, _, sw_image) = run_engine(cfg, 60);
        let bits = |p: &Vec3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
        let same = r.image.pixels().iter().map(bits).eq(sw_image.pixels().iter().map(bits));
        assert!(same, "hardware FP32 path must equal software IRSS bit for bit");
    }

    #[test]
    fn fp16_engine_is_close_but_not_identical() {
        let (r, _, sw_image) = run_engine(GbuConfig::paper(), 60);
        let p = psnr(&sw_image, &r.image);
        // Tab. IV: FP-16 costs < 0.1 dB at paper scale; on a small frame
        // anything above ~40 dB is the same visual quality.
        assert!(p > 40.0, "FP16 PSNR vs FP32 reference: {p}");
        assert!(p.is_finite(), "FP16 must differ from FP32 at some pixel");
    }

    #[test]
    fn cycle_accounting_is_consistent() {
        let (r, cfg, _) = run_engine(GbuConfig::paper(), 60);
        assert!(r.compute_cycles > 0);
        assert!(r.rowgen_cycles <= r.compute_cycles);
        assert!(r.pe_busy_cycles > 0);
        let util = r.pe_utilization(&cfg);
        assert!(util > 0.0 && util <= 1.0, "PE utilization {util}");
        assert!(r.fragments >= r.spans, "every span shades at least one fragment");
        assert!(r.instances > 0 && r.tiles > 0);
    }

    #[test]
    fn cache_hits_reduce_dram_traffic() {
        let (r, cfg, _) = run_engine(GbuConfig::paper(), 80);
        assert_eq!(r.dram_bytes, r.cache.misses * cfg.bytes_per_miss);
        assert_eq!(r.cache.accesses, r.instances);
        // Splats spanning multiple tiles are re-accessed: hits must occur.
        assert!(r.cache.hits > 0, "expected feature reuse across tiles");
    }

    #[test]
    fn no_cache_means_every_access_misses() {
        let cfg = GbuConfig { cache_kib: 0, ..GbuConfig::paper() };
        let (scene, cam) = test_scene(40);
        let (splats, _) = project_scene(&scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        let d = dnb::run(&splats, &bins, &cfg);
        let r = TileEngine::new(cfg.clone()).render(
            &splats,
            &d,
            &bins,
            &cam,
            Vec3::ZERO,
            Policy::ReuseDistance,
        );
        assert_eq!(r.cache.hits, 0);
        assert_eq!(r.dram_bytes, r.instances * cfg.bytes_per_miss);
    }

    #[test]
    fn more_row_pes_do_not_slow_down() {
        let base = GbuConfig::paper();
        let wide = GbuConfig { row_pes: 16, rows_per_pe: 1, ..GbuConfig::paper() };
        let (r_base, _, _) = run_engine(base, 60);
        let (r_wide, _, _) = run_engine(wide, 60);
        assert!(
            r_wide.compute_cycles <= r_base.compute_cycles,
            "16 single-row PEs ({}) must not be slower than 8 double-row PEs ({})",
            r_wide.compute_cycles,
            r_base.compute_cycles
        );
    }

    #[test]
    fn empty_scene_renders_background() {
        let cfg = GbuConfig::paper();
        let cam = Camera::orbit(64, 64, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0);
        let splats: Vec<Splat2D> = vec![];
        let (bins, _) = bin_splats(&splats, &cam, 16);
        let d = dnb::run(&splats, &bins, &cfg);
        let bg = Vec3::new(0.1, 0.2, 0.3);
        let r = TileEngine::new(cfg).render(&splats, &d, &bins, &cam, bg, Policy::ReuseDistance);
        assert_eq!(r.compute_cycles, 0);
        assert_eq!(r.image.get(5, 5), bg);
    }

    #[test]
    fn engine_is_bit_identical_across_thread_counts() {
        let cfg = GbuConfig::paper();
        let (scene, cam) = test_scene(70);
        let (splats, _) = gbu_render::preprocess::project_scene(&scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        let d = dnb::run(&splats, &bins, &cfg);
        let engine = TileEngine::new(cfg);
        let run = |threads: usize| {
            let pool = gbu_par::ThreadPool::new(threads);
            let cost = engine.cost_on(&pool, &d, &bins, &cam, Policy::ReuseDistance);
            GbuRunResult::new(cost, engine.pixels_on(&pool, &splats, &d, &bins, &cam, Vec3::ZERO))
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            let r = run(threads);
            assert_eq!(r.image.pixels(), reference.image.pixels(), "image @ {threads} threads");
            assert_eq!(r.compute_cycles, reference.compute_cycles, "cycles @ {threads} threads");
            assert_eq!(r.rowgen_cycles, reference.rowgen_cycles);
            assert_eq!(r.pe_busy_cycles, reference.pe_busy_cycles);
            assert_eq!(r.cache, reference.cache, "cache stats @ {threads} threads");
            assert_eq!(r.dram_bytes, reference.dram_bytes);
            assert_eq!(
                (r.instances, r.spans, r.fragments, r.tiles),
                (reference.instances, reference.spans, reference.fragments, reference.tiles)
            );
        }
    }

    #[test]
    fn reuse_distance_policy_beats_fifo_on_real_frames() {
        let cfg = GbuConfig { cache_kib: 1, ..GbuConfig::paper() };
        let (scene, cam) = test_scene(120);
        let (splats, _) = project_scene(&scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        let d = dnb::run(&splats, &bins, &cfg);
        let engine = TileEngine::new(cfg);
        let rd = engine.render(&splats, &d, &bins, &cam, Vec3::ZERO, Policy::ReuseDistance);
        let fifo = engine.render(&splats, &d, &bins, &cam, Vec3::ZERO, Policy::Fifo);
        assert!(
            rd.cache.hits >= fifo.cache.hits,
            "reuse-distance ({}) must not lose to FIFO ({})",
            rd.cache.hits,
            fifo.cache.hits
        );
    }
}
