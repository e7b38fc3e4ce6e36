//! Reusable working memory for the rendering hot path, and the one
//! tile-row dispatch both blending dataflows run on.
//!
//! Both dataflows walk a tile with two tile-local arrays (accumulated
//! color and transmittance per pixel), and PFS adds two more (one
//! instance's quadratic form per pixel, and the tile's pixel-centre x
//! coordinates); both composite the tile over the background through
//! one [`TileScratch`] method. The original implementation
//! allocated the arrays per `blend` call; [`BlendScratch`] owns one
//! [`TileScratch`] per pool worker, so repeated-render loops (device
//! simulation, serving, benchmarks) make no per-tile or per-pixel
//! allocations once warm — the only per-frame heap touch left in a
//! `blend_into` call is the tile-row job list, which borrows the frame
//! buffer and so cannot be cached here. [`BinScratch`] plays the same
//! role for Step ❷'s `bin_into`: per-batch pair buffers, sort scratch
//! and histograms survive across frames.
//!
//! Per-job wall time is not kept here: it lives in the `gbu_telemetry`
//! job spans (`blend_row`, `bin_expand_batch`, ...) that a
//! `Verbosity::High` recorder captures.

use crate::binning::TileBins;
use crate::stats::{self, BlendStats};
use crate::{FrameBuffer, RenderConfig};
use gbu_math::Vec3;
use gbu_par::ThreadPool;
use gbu_scene::Camera;
use gbu_telemetry::Labels;

/// Per-worker tile-local working buffers.
#[derive(Debug, Default)]
pub struct TileScratch {
    color: Vec<Vec3>,
    trans: Vec<f32>,
    /// PFS: one instance's Eq.-7 quadratic form per tile pixel.
    q: Vec<f32>,
    /// PFS: the tile's pixel-centre x coordinates, one per column.
    centers_x: Vec<f32>,
    /// Width and height of the tile last handed out by [`Self::tile`].
    shape: (usize, usize),
}

/// One tile's working buffers, row-major over its `w × h` pixel
/// rectangle (`centers_x` has one entry per column).
pub(crate) struct TileBuffers<'a> {
    /// Accumulated color, zeroed.
    pub(crate) color: &'a mut [Vec3],
    /// Transmittance, reset to 1.
    pub(crate) trans: &'a mut [f32],
    /// Eq.-7 quadratic form of the instance being blended; stale.
    pub(crate) q: &'a mut [f32],
    /// Pixel-centre x coordinates; stale.
    pub(crate) centers_x: &'a mut [f32],
}

impl TileScratch {
    /// Hands out the buffers of a `w × h` tile, color zeroed and
    /// transmittance full (growing the buffers on first use).
    pub(crate) fn tile(&mut self, w: usize, h: usize) -> TileBuffers<'_> {
        let px = w * h;
        if self.color.len() < px {
            self.color.resize(px, Vec3::ZERO);
            self.trans.resize(px, 1.0);
            self.q.resize(px, 0.0);
        }
        if self.centers_x.len() < w {
            self.centers_x.resize(w, 0.0);
        }
        self.shape = (w, h);
        let color = &mut self.color[..px];
        let trans = &mut self.trans[..px];
        color.fill(Vec3::ZERO);
        trans.fill(1.0);
        TileBuffers { color, trans, q: &mut self.q[..px], centers_x: &mut self.centers_x[..w] }
    }

    /// Composites the last tile over `background` into `pixels` — the
    /// image rows of the tile's tile row, `width` wide — with the tile's
    /// left edge at column `x0`.
    pub(crate) fn composite(&self, pixels: &mut [Vec3], width: usize, x0: usize, background: Vec3) {
        let (w, h) = self.shape;
        let px = w * h;
        let rows = self.color[..px].chunks_exact(w).zip(self.trans[..px].chunks_exact(w));
        for ((color, trans), image_row) in rows.zip(pixels.chunks_mut(width)) {
            for ((out, &c), &t) in image_row[x0..x0 + w].iter_mut().zip(color).zip(trans) {
                *out = c + background * t;
            }
        }
    }
}

/// Reusable scratch for the `blend_into` entry points: one tile buffer
/// per pool worker.
#[derive(Debug, Default)]
pub struct BlendScratch {
    workers: Vec<TileScratch>,
}

impl BlendScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns at least `workers` tile scratches (growing the set if
    /// needed — each is cheap until its first tile sizes it).
    pub(crate) fn workers(&mut self, workers: usize) -> &mut [TileScratch] {
        if self.workers.len() < workers {
            self.workers.resize_with(workers, TileScratch::default);
        }
        &mut self.workers
    }
}

/// The tile-row dispatch behind `pfs::blend_into` and
/// `irss::blend_precomputed_into`: resets `image` and `stats`, runs one
/// pool job per tile row through the dataflow's row kernel `row`, and
/// merges the row stats in tile-row order. Tiles are independent
/// blending work and the kernel is the same sequential code at any
/// thread count, so the output is bit-identical to a serial run (pinned
/// by `tests/parallel_equivalence.rs`). Each job opens a `blend_row`
/// span at `GBU_TRACE=2`; otherwise the telemetry cost on the hot path
/// is one branch per row.
///
/// `row(scratch, ty, pixels, workload, stats)` blends tile row `ty` into
/// `pixels` (the image rows it covers, full width) and, when
/// `record_row_workload` is set, into `workload` (its tiles' slice of
/// [`BlendStats::row_workload`]; empty otherwise).
///
/// # Panics
///
/// Panics if `image` does not match the camera's dimensions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn blend_tile_rows<F>(
    pool: &ThreadPool,
    bins: &TileBins,
    camera: &Camera,
    config: &RenderConfig,
    record_row_workload: bool,
    scratch: &mut BlendScratch,
    image: &mut FrameBuffer,
    stats: &mut BlendStats,
    row: F,
) where
    F: Fn(&mut TileScratch, u32, &mut [Vec3], &mut [Vec<u32>], &mut BlendStats) + Sync,
{
    assert_eq!(
        (image.width(), image.height()),
        (camera.width, camera.height),
        "framebuffer/camera size mismatch"
    );
    image.fill(config.background);
    stats.reset();
    stats.tile_instances.extend((0..bins.tile_count()).map(|t| bins.entries_of(t).len() as u32));
    // The row-workload table is partitioned per tile row alongside the
    // image rows; take it out of `stats` so the jobs can borrow chunks.
    let mut row_workload = std::mem::take(&mut stats.row_workload);
    if record_row_workload {
        row_workload.resize(bins.tile_count(), vec![0u32; bins.tile_size as usize]);
    }

    struct RowJob<'a> {
        pixels: &'a mut [Vec3],
        workload: &'a mut [Vec<u32>],
        stats: BlendStats,
    }

    let row_px = bins.tile_size as usize * camera.width as usize;
    let mut workload_chunks = row_workload.chunks_mut(bins.tiles_x as usize);
    let mut jobs: Vec<RowJob> = image
        .pixels_mut()
        .chunks_mut(row_px)
        .map(|pixels| RowJob {
            pixels,
            workload: workload_chunks.next().unwrap_or_default(),
            stats: BlendStats::default(),
        })
        .collect();
    let workers = pool.threads().min(jobs.len()).max(1);
    let recorder = gbu_telemetry::global();
    pool.for_each_mut_with(scratch.workers(workers), &mut jobs, |tile_scratch, ty, job| {
        let _row_span = recorder.detailed().then(|| {
            recorder.wall_span("blend_row", Labels { row: Some(ty as u32), ..Labels::default() })
        });
        row(tile_scratch, ty as u32, job.pixels, job.workload, &mut job.stats);
    });

    for job in &jobs {
        stats::accumulate(stats, &job.stats);
    }
    drop(jobs);
    stats.row_workload = row_workload;
}

/// Per-worker identity handed to binning's parallel regions so detailed
/// telemetry spans can carry worker labels.
#[derive(Debug, Default)]
pub(crate) struct BinWorker {
    pub(crate) id: u32,
}

/// Reusable scratch for the `bin_into` entry point: per-batch pair
/// buffers, the concatenated pair list, radix-sort scratch and per-chunk
/// histograms, and per-worker telemetry identities. Once warm, a
/// `bin_into` call's only per-frame heap touches are the small job lists
/// that borrow frame-local slices (the same exception `blend_into`
/// documents).
#[derive(Debug, Default)]
pub struct BinScratch {
    pub(crate) batches: Vec<Vec<(u64, u32)>>,
    pub(crate) pairs: Vec<(u64, u32)>,
    pub(crate) sort_scratch: Vec<(u64, u32)>,
    pub(crate) hists: Vec<[usize; 256]>,
    pub(crate) workers: Vec<BinWorker>,
}

impl BinScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns at least `batches` batch buffers and per-worker identities
    /// for `workers` workers, growing both sets as needed.
    pub(crate) fn prepare(&mut self, batches: usize, workers: usize) {
        if self.batches.len() < batches {
            self.batches.resize_with(batches, Vec::new);
        }
        if self.workers.len() < workers {
            let start = self.workers.len();
            self.workers.extend((start..workers).map(|id| BinWorker { id: id as u32 }));
        }
    }
}
