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
//! The engine is simultaneously a *functional* model (it produces the
//! image, optionally through the FP-16 datapath of Sec. VI-B) and a
//! *timing* model (cycles per tile from the queue dynamics), driven by the
//! same row-span logic as the software IRSS implementation so the two
//! agree by construction.

use crate::cache::{CacheStats, GaussianReuseCache, Policy};
use crate::config::GbuConfig;
use crate::dnb::DnbResult;
use gbu_math::{Vec3, F16};
use gbu_par::ThreadPool;
use gbu_render::binning::TileBins;
use gbu_render::irss::RowOutcome;
use gbu_render::pfs::T_SATURATED;
use gbu_render::{alpha_from_q, FrameBuffer, Splat2D};
use gbu_scene::Camera;

/// The Tile PE: configuration plus rendering entry points.
#[derive(Debug, Clone, Default)]
pub struct TileEngine {
    /// Hardware parameters.
    pub config: GbuConfig,
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

/// Per-pixel blending state, generic over the datapath precision.
/// (`Send` so per-worker pixel buffers can live on pool workers.)
trait PixelState: Clone + Send {
    fn fresh() -> Self;
    fn transmittance(&self) -> f32;
    fn blend(&mut self, alpha: f32, color: Vec3);
    fn color(&self) -> Vec3;
}

/// FP32 state (used to validate against the software IRSS blender).
#[derive(Clone)]
struct StateF32 {
    color: Vec3,
    trans: f32,
}

impl PixelState for StateF32 {
    fn fresh() -> Self {
        Self { color: Vec3::ZERO, trans: 1.0 }
    }
    fn transmittance(&self) -> f32 {
        self.trans
    }
    fn blend(&mut self, alpha: f32, color: Vec3) {
        self.color += color * (alpha * self.trans);
        self.trans *= 1.0 - alpha;
    }
    fn color(&self) -> Vec3 {
        self.color
    }
}

/// FP16 state modelling the Row PE datapath (Sec. VI-B): every
/// intermediate — α, the running color and the transmittance — is rounded
/// to binary16 per operation, which is the source of Tab. IV's ≤0.1 PSNR
/// loss.
#[derive(Clone)]
struct StateF16 {
    color: [F16; 3],
    trans: F16,
}

impl PixelState for StateF16 {
    fn fresh() -> Self {
        Self { color: [F16::ZERO; 3], trans: F16::ONE }
    }
    fn transmittance(&self) -> f32 {
        self.trans.to_f32()
    }
    fn blend(&mut self, alpha: f32, color: Vec3) {
        let a = F16::from_f32(alpha);
        let w = a * self.trans;
        self.color[0] = F16::from_f32(color.x).mul_add(w, self.color[0]);
        self.color[1] = F16::from_f32(color.y).mul_add(w, self.color[1]);
        self.color[2] = F16::from_f32(color.z).mul_add(w, self.color[2]);
        self.trans = self.trans * (F16::ONE - a);
    }
    fn color(&self) -> Vec3 {
        Vec3::new(self.color[0].to_f32(), self.color[1].to_f32(), self.color[2].to_f32())
    }
}

impl TileEngine {
    /// Creates a tile engine with the given configuration.
    pub fn new(config: GbuConfig) -> Self {
        Self { config }
    }

    /// Renders a frame: functional image plus cycle/cache/DRAM accounting.
    ///
    /// `policy` selects the reuse-cache replacement policy (the paper's
    /// reuse-distance policy by default); the cache capacity comes from
    /// the configuration (`cache_kib = 0` disables caching, the "0 KB"
    /// point of Fig. 17 and the "+GBU Tile Engine"-only ablation row).
    pub fn render(
        &self,
        splats: &[Splat2D],
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
        policy: Policy,
    ) -> GbuRunResult {
        self.render_pooled(gbu_par::global(), splats, dnb, bins, camera, background, policy)
    }

    /// [`TileEngine::render`] on an explicit thread pool.
    ///
    /// The run splits into two phases: the Gaussian Reuse Cache is one
    /// shared structure whose state threads through the whole frame, so
    /// its simulation walks the D&B access trace serially (it is a few
    /// table lookups per instance); the per-tile shading and queue
    /// timing — all of the real work — is independent per tile and is
    /// dispatched across the pool one tile row at a time. Results are
    /// merged in tile order, so cycle counts and the image are identical
    /// at every thread count.
    ///
    /// # Panics
    ///
    /// When `bins.tile_size` is not [`GbuConfig::covered_rows`].
    #[allow(clippy::too_many_arguments)]
    pub fn render_pooled(
        &self,
        pool: &ThreadPool,
        splats: &[Splat2D],
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
        policy: Policy,
    ) -> GbuRunResult {
        let (got, covered) = (bins.tile_size, self.config.covered_rows());
        assert!(got == covered, "{got}-px tiles do not fit Row PEs covering {covered} rows");
        if self.config.fp16_datapath {
            self.render_with::<StateF16>(pool, splats, dnb, bins, camera, background, policy)
        } else {
            self.render_with::<StateF32>(pool, splats, dnb, bins, camera, background, policy)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn render_with<S: PixelState>(
        &self,
        pool: &ThreadPool,
        splats: &[Splat2D],
        dnb: &DnbResult,
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
        policy: Policy,
    ) -> GbuRunResult {
        assert_eq!(dnb.transforms.len(), splats.len(), "D&B transforms mismatch splat list");
        let cfg = &self.config;
        let mut image = FrameBuffer::new(camera.width, camera.height, background);
        let mut result = GbuRunResult {
            image: FrameBuffer::new(1, 1, background),
            compute_cycles: 0,
            rowgen_cycles: 0,
            pe_busy_cycles: 0,
            cache: CacheStats::default(),
            dram_bytes: 0,
            instances: 0,
            spans: 0,
            fragments: 0,
            tiles: 0,
        };

        // Phase 1 — the Gaussian Reuse Cache over the full access trace
        // (instance stream in tile order), exactly as the D&B engine
        // feeds it.
        let mut cache = GaussianReuseCache::new(cfg.cache_lines(), policy);
        for (pos, &entry) in dnb.access_trace.iter().enumerate() {
            if !cache.access(entry, dnb.next_use[pos]) {
                result.dram_bytes += cfg.bytes_per_miss;
            }
        }
        result.cache = cache.stats();

        // Phase 2 — per-tile shading and Row-PE queue timing, tile rows
        // in parallel. Each job owns its slice of image rows; per-worker
        // scratch holds the tile pixel states and Row-PE free times.
        struct RowJob<'a> {
            ty: u32,
            pixels: &'a mut [Vec3],
            compute_cycles: u64,
            rowgen_cycles: u64,
            pe_busy_cycles: u64,
            instances: u64,
            spans: u64,
            fragments: u64,
            tiles: u64,
        }
        struct WorkerScratch<S> {
            state: Vec<S>,
            pe_free: Vec<u64>,
        }

        let tile_px = (bins.tile_size * bins.tile_size) as usize;
        let row_px = bins.tile_size as usize * camera.width as usize;
        let width = camera.width as usize;
        let mut jobs: Vec<RowJob> = image
            .pixels_mut()
            .chunks_mut(row_px)
            .enumerate()
            .map(|(ty, pixels)| RowJob {
                ty: ty as u32,
                pixels,
                compute_cycles: 0,
                rowgen_cycles: 0,
                pe_busy_cycles: 0,
                instances: 0,
                spans: 0,
                fragments: 0,
                tiles: 0,
            })
            .collect();
        let workers = pool.threads().min(jobs.len()).max(1);
        let mut scratch: Vec<WorkerScratch<S>> = (0..workers)
            .map(|_| WorkerScratch {
                state: vec![S::fresh(); tile_px],
                pe_free: vec![0u64; cfg.covered_rows() as usize],
            })
            .collect();

        pool.for_each_mut_with(&mut scratch, &mut jobs, |ws, _, job| {
            for tx in 0..bins.tiles_x {
                let tile = (job.ty * bins.tiles_x + tx) as usize;
                let entries = bins.entries_of(tile);
                if entries.is_empty() {
                    continue;
                }
                debug_assert_eq!(
                    &dnb.access_trace[bins.offsets[tile]..bins.offsets[tile + 1]],
                    entries,
                    "trace desync"
                );
                job.tiles += 1;
                let (x0, y0, x1, y1) = bins.tile_pixel_rect(tile, camera.width, camera.height);
                let w = (x1 - x0) as usize;
                let state = &mut ws.state;
                for s in state.iter_mut().take(w * (y1 - y0) as usize) {
                    *s = S::fresh();
                }
                let mut rowgen_t = 0u64;
                let pe_free = &mut ws.pe_free;
                pe_free.fill(0);

                for &entry in entries {
                    job.instances += 1;
                    let isp = &dnb.transforms[entry as usize];
                    rowgen_t += cfg.rowgen_instance_cycles;

                    let mut nspans = 0u64;
                    for py in y0..y1 {
                        let outcome = isp.row_outcome(py, x0, x1);
                        let RowOutcome::Span(span) = outcome else { continue };
                        nspans += 1;
                        let row_idx = (py - y0) as usize;
                        let cost = isp.march(&span, x1, |px, q| {
                            let st = &mut state[row_idx * w + (px - x0) as usize];
                            if st.transmittance() < T_SATURATED {
                                return;
                            }
                            st.blend(alpha_from_q(isp.opacity, q), isp.color);
                        });
                        // Counts the terminating out-of-threshold fragment
                        // too: it also occupies a threshold-unit cycle.
                        let evaluated = u64::from(cost.evaluated);
                        job.fragments += evaluated;
                        let task =
                            cfg.rowpe_setup_cycles + evaluated.div_ceil(cfg.rowpe_frags_per_cycle);
                        let start = rowgen_t.max(pe_free[row_idx]);
                        pe_free[row_idx] = start + task;
                        job.pe_busy_cycles += task;
                    }
                    job.spans += nspans;
                    rowgen_t += nspans.div_ceil(cfg.rowgen_spans_per_cycle);
                }

                let tile_cycles = rowgen_t.max(pe_free.iter().copied().max().unwrap_or(0))
                    + cfg.tile_overhead_cycles;
                job.compute_cycles += tile_cycles;
                job.rowgen_cycles += rowgen_t;

                // Flush the row pixel buffers to this tile row's slice of
                // the frame buffer (`pixels` starts at image row `y0`).
                for py in y0..y1 {
                    for px in x0..x1 {
                        let st = &state[(py - y0) as usize * w + (px - x0) as usize];
                        job.pixels[(py - y0) as usize * width + px as usize] =
                            st.color() + background * st.transmittance();
                    }
                }
            }
        });

        for job in &jobs {
            result.compute_cycles += job.compute_cycles;
            result.rowgen_cycles += job.rowgen_cycles;
            result.pe_busy_cycles += job.pe_busy_cycles;
            result.instances += job.instances;
            result.spans += job.spans;
            result.fragments += job.fragments;
            result.tiles += job.tiles;
        }
        drop(jobs);
        result.image = image;
        result
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
            engine.render_pooled(&pool, &splats, &d, &bins, &cam, Vec3::ZERO, Policy::ReuseDistance)
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
