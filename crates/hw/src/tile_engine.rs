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
//! A frame is one walk over the D&B engine's output. The access stream
//! goes through the Gaussian Reuse Cache, serially (its state threads
//! through the whole frame), at O(log n) per miss: the cache keeps its
//! lines in a heap on the comparator array's eviction order
//! ([`crate::cache`]). Then `gbu_render::irss`'s tile-row kernel walks
//! every (instance, row), one tile row per pool job, and tells each row
//! span to the Row Generation Engine and Row-PE queue model here, which
//! times the tiles. The same walk blends the image on the Row PE's FP-16
//! datapath (Sec. VI-B, [`irss::Fp16`]: binary16 rounding on `f32` bits
//! with [`gbu_math::round_to_f16`], each instance's color rounded once)
//! or, with [`GbuConfig::fp16_datapath`] off, in FP32 ([`irss::Fp32`]),
//! where the image is software IRSS's bit for bit ([`TileEngine::frame`]).
//! Without a frame buffer it only times the frame ([`TileEngine::cost`]):
//! a view probe's no-pixel walk.
//!
//! Either way the [`FrameCost`] counts every instance and every evaluated
//! fragment: the walk goes on through a tile whose pixels have all
//! saturated, with shading off, because the hardware's threshold units
//! evaluate those instances too.

use crate::cache::{CacheStats, GaussianReuseCache, Policy};
use crate::config::GbuConfig;
use crate::dnb::DnbResult;
use gbu_math::Vec3;
use gbu_par::ThreadPool;
use gbu_render::binning::TileBins;
use gbu_render::irss::{self, RowPes};
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
    /// A run from the frame's cost and its image.
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
}

/// The Row Generation Engine and the Row-PE queues (Fig. 11) of one tile
/// row, fed by IRSS's tile-row kernel: its Tile-PE counters, joined in
/// tile-row order into the frame's.
#[derive(Debug)]
struct RowPeQueues<'a> {
    cfg: &'a GbuConfig,
    /// Cycle at which the Row Generation Engine is done with the tile's
    /// instances so far.
    rowgen_t: u64,
    /// Cycle at which each pixel row's Row-PE lane is free.
    pe_free: Vec<u64>,
    cost: FrameCost,
}

impl<'a> RowPeQueues<'a> {
    fn new(cfg: &'a GbuConfig) -> Self {
        let pe_free = vec![0; cfg.covered_rows() as usize];
        Self { cfg, rowgen_t: 0, pe_free, cost: FrameCost::default() }
    }
}

impl RowPes for RowPeQueues<'_> {
    const WALKS_SATURATED: bool = true;

    fn fork(&self) -> Self {
        Self::new(self.cfg)
    }

    fn join(&mut self, row: Self) {
        let (c, r) = (&mut self.cost, row.cost);
        c.compute_cycles += r.compute_cycles;
        c.rowgen_cycles += r.rowgen_cycles;
        c.pe_busy_cycles += r.pe_busy_cycles;
        c.instances += r.instances;
        c.spans += r.spans;
        c.fragments += r.fragments;
        c.tiles += r.tiles;
    }

    fn instance(&mut self) {
        self.cost.instances += 1;
        self.rowgen_t += self.cfg.rowgen_instance_cycles;
    }

    fn span(&mut self, row: usize, evaluated: u32) {
        // Counts the terminating out-of-threshold fragment too: it also
        // occupies a threshold-unit cycle.
        let evaluated = u64::from(evaluated);
        self.cost.fragments += evaluated;
        let task = self.cfg.rowpe_setup_cycles + evaluated.div_ceil(self.cfg.rowpe_frags_per_cycle);
        let free = &mut self.pe_free[row];
        *free = self.rowgen_t.max(*free) + task;
        self.cost.pe_busy_cycles += task;
    }

    fn instance_end(&mut self, spans: u32) {
        let spans = u64::from(spans);
        self.cost.spans += spans;
        self.rowgen_t += spans.div_ceil(self.cfg.rowgen_spans_per_cycle);
    }

    fn tile_end(&mut self) {
        let pe_done = self.pe_free.iter().copied().max().unwrap_or(0);
        self.cost.compute_cycles += self.rowgen_t.max(pe_done) + self.cfg.tile_overhead_cycles;
        self.cost.rowgen_cycles += self.rowgen_t;
        self.cost.tiles += 1;
        self.rowgen_t = 0;
        self.pe_free.fill(0);
    }
}

impl TileEngine {
    /// Creates a tile engine with the given configuration.
    pub fn new(config: GbuConfig) -> Self {
        Self { config }
    }

    /// Renders a frame: [`TileEngine::frame`] as one run.
    ///
    /// `policy` selects the reuse-cache replacement policy (the paper's
    /// reuse-distance policy by default); the cache capacity comes from
    /// the configuration (`cache_kib = 0` disables caching, the "0 KB"
    /// point of Fig. 17 and the "+GBU Tile Engine"-only ablation row).
    ///
    /// # Panics
    ///
    /// As [`TileEngine::frame`], and when D&B ran on other splats.
    pub fn render(
        &self,
        splats: &[Splat2D],
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
        policy: Policy,
    ) -> GbuRunResult {
        assert_eq!(splats.len(), dnb.transforms.len(), "D&B ran on other splats");
        let (cost, image) = self.frame(dnb, bins, camera, background, policy);
        GbuRunResult::new(cost, image)
    }

    /// One walk on the global pool: every counter of the frame and its
    /// occupancy, plus its image composited over `background`.
    ///
    /// # Panics
    ///
    /// When `bins.tile_size` is not [`GbuConfig::covered_rows`], or `dnb`
    /// ran on other bins.
    pub fn frame(
        &self,
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
        policy: Policy,
    ) -> (FrameCost, FrameBuffer) {
        let mut image = FrameBuffer::new(camera.width, camera.height, background);
        let cost =
            self.walk(gbu_par::global(), dnb, bins, camera, policy, Some((&mut image, background)));
        (cost, image)
    }

    /// [`TileEngine::frame`] without the image: the same walk with no
    /// frame buffer, so no pixel is shaded.
    ///
    /// # Panics
    ///
    /// As [`TileEngine::frame`].
    pub fn cost(
        &self,
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        policy: Policy,
    ) -> FrameCost {
        self.walk(gbu_par::global(), dnb, bins, camera, policy, None)
    }

    /// The one walk of a frame on `pool`: the reuse cache over the access
    /// stream, then IRSS's tile-row kernel into the Row-PE queues, one tile
    /// row per job (summed in tile order, so the counts are identical at
    /// every thread count), blending into `image` over its background
    /// when there is one. At `GBU_TRACE=2` the two halves record
    /// `device_cache` and `device_tile_engine` wall spans.
    fn walk(
        &self,
        pool: &ThreadPool,
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        policy: Policy,
        image: Option<(&mut FrameBuffer, Vec3)>,
    ) -> FrameCost {
        let cfg = &self.config;
        let (got, covered) = (bins.tile_size, cfg.covered_rows());
        assert!(got == covered, "{got}-px tiles do not fit Row PEs covering {covered} rows");
        assert_eq!(dnb.next_use.len(), bins.entries.len(), "D&B ran on other bins");
        let recorder = gbu_telemetry::global();
        let span = |name| recorder.detailed().then(|| recorder.wall_span(name, Labels::default()));

        // The access stream is the bins' entries (the instance stream in
        // tile order), exactly as the D&B engine feeds it.
        let cache_span = span("device_cache");
        let mut cache = GaussianReuseCache::new(cfg.cache_lines(), policy, dnb.transforms.len());
        for (&entry, &next_use) in bins.entries.iter().zip(&dnb.next_use) {
            cache.access(entry, next_use);
        }
        let cache = cache.stats();
        drop(cache_span);

        let _span = span("device_tile_engine");
        let (image, background) = image.unzip();
        let config = RenderConfig {
            tile_size: bins.tile_size,
            background: background.unwrap_or(Vec3::ZERO),
            record_row_workload: false,
        };
        let blend = if cfg.fp16_datapath {
            irss::blend_precomputed_into::<irss::Fp16>
        } else {
            irss::blend_precomputed_into::<irss::Fp32>
        };
        let (scratch, stats) = (&mut BlendScratch::new(), &mut BlendStats::default());
        let mut queues = RowPeQueues::new(cfg);
        blend(pool, &dnb.transforms, bins, camera, &config, scratch, image, stats, &mut queues);
        FrameCost {
            dnb_cycles: dnb.cycles,
            cache,
            dram_bytes: cache.misses * cfg.bytes_per_miss,
            ..queues.cost
        }
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
            let mut image = FrameBuffer::new(cam.width, cam.height, Vec3::ZERO);
            let pixels = Some((&mut image, Vec3::ZERO));
            let cost = engine.walk(&pool, &d, &bins, &cam, Policy::ReuseDistance, pixels);
            GbuRunResult::new(cost, image)
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
