//! Reusable working memory for the rendering hot path.
//!
//! Both dataflows walk a tile with two tile-local arrays (accumulated
//! color and transmittance per pixel). The original implementation
//! allocated them per `blend` call; [`BlendScratch`] owns one
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

use gbu_math::Vec3;

/// Per-worker tile-local working buffers.
#[derive(Debug, Default)]
pub struct TileScratch {
    color: Vec<Vec3>,
    trans: Vec<f32>,
}

impl TileScratch {
    /// Hands out the first `active_px` entries of the color/transmittance
    /// buffers, re-initialised to zero color and full transmittance
    /// (growing the buffers on first use).
    pub(crate) fn tile(&mut self, active_px: usize) -> (&mut [Vec3], &mut [f32]) {
        if self.color.len() < active_px {
            self.color.resize(active_px, Vec3::ZERO);
            self.trans.resize(active_px, 1.0);
        }
        let color = &mut self.color[..active_px];
        let trans = &mut self.trans[..active_px];
        color.fill(Vec3::ZERO);
        trans.fill(1.0);
        (color, trans)
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
