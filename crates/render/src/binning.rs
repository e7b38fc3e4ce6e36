//! Rendering Step ❷: tile binning and depth sorting.
//!
//! Each splat is duplicated into every 16×16 tile its truncated ellipse
//! overlaps, keyed by `(tile, depth)`, and the instance list is radix
//! sorted — the `cub::DeviceRadixSort` strategy of the 3DGS reference
//! rasteriser. The result groups instances by tile in near-to-far order,
//! which is the exact stream both blending dataflows (and the GBU's D&B
//! engine) consume.
//!
//! [`bin_splats`] is the serial reference (and test oracle). [`bin_into`]
//! — the one parallel kernel, behind `pipeline::bin` and the
//! [`crate::bincache::BinCache`] cold path — produces **byte-identical**
//! `TileBins` on a thread pool (pinned by `tests/binning_equivalence.rs`)
//! by decomposing every phase into jobs whose concatenation equals the
//! serial order:
//! fixed batches of [`BATCH_SPLATS`] consecutive splats emit pairs into
//! per-batch buffers (concatenated in batch order = the serial emission
//! order), the chunk-parallel stable radix sort of `gbu_math::sort`
//! preserves every element's global stable rank (and the executed
//! `sort_passes`), and the CSR offsets are recovered by binary search on
//! the sorted keys — the same counts a serial prefix sum produces.

use crate::preprocess::{ProjectedBounds, BATCH_SPLATS};
use crate::scratch::BinScratch;
use crate::splat::Splat2D;
use crate::stats::BinningStats;
use gbu_math::ellipse::EllipseBounds;
use gbu_math::sort;
use gbu_par::ThreadPool;
use gbu_scene::Camera;
use gbu_telemetry::Labels;

/// Sorted per-tile instance lists.
#[derive(Debug, Clone)]
pub struct TileBins {
    /// Tile edge in pixels.
    pub tile_size: u32,
    /// Tiles per row.
    pub tiles_x: u32,
    /// Tile rows.
    pub tiles_y: u32,
    /// CSR-style offsets: instances of tile `t` are
    /// `entries[offsets[t]..offsets[t+1]]`.
    pub offsets: Vec<usize>,
    /// Splat indices, grouped by tile, depth-sorted within each tile.
    pub entries: Vec<u32>,
}

impl TileBins {
    /// Total number of tiles.
    pub fn tile_count(&self) -> usize {
        (self.tiles_x * self.tiles_y) as usize
    }

    /// The depth-ordered splat indices assigned to tile `(tx, ty)`.
    ///
    /// # Panics
    ///
    /// Panics if the tile coordinates are outside the grid.
    pub fn tile_entries(&self, tx: u32, ty: u32) -> &[u32] {
        assert!(tx < self.tiles_x && ty < self.tiles_y, "tile ({tx},{ty}) out of grid");
        let t = (ty * self.tiles_x + tx) as usize;
        &self.entries[self.offsets[t]..self.offsets[t + 1]]
    }

    /// The depth-ordered splat indices of a flat tile id.
    pub fn entries_of(&self, tile: usize) -> &[u32] {
        &self.entries[self.offsets[tile]..self.offsets[tile + 1]]
    }

    /// Pixel rectangle of a flat tile id: `(x0, y0, x1, y1)` exclusive of
    /// `x1/y1`, clipped to the image.
    pub fn tile_pixel_rect(&self, tile: usize, width: u32, height: u32) -> (u32, u32, u32, u32) {
        let tx = tile as u32 % self.tiles_x;
        let ty = tile as u32 / self.tiles_x;
        let x0 = tx * self.tile_size;
        let y0 = ty * self.tile_size;
        (x0, y0, (x0 + self.tile_size).min(width), (y0 + self.tile_size).min(height))
    }

    /// Per-tile-row (splat, tile) pair counts — the Step-❷ cost signal
    /// the cost-balanced shard planner ([`crate::shard::ShardPlan`])
    /// consumes. Index = tile row.
    pub fn row_pair_counts(&self) -> Vec<u64> {
        (0..self.tiles_y)
            .map(|ty| {
                let first = (ty * self.tiles_x) as usize;
                let last = first + self.tiles_x as usize;
                (self.offsets[last] - self.offsets[first]) as u64
            })
            .collect()
    }

    /// Iterator over `(tile_id, entries)` for occupied tiles.
    pub fn occupied(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        (0..self.tile_count()).filter_map(move |t| {
            let e = self.entries_of(t);
            if e.is_empty() {
                None
            } else {
                Some((t, e))
            }
        })
    }
}

/// Inclusive tile rectangle `(x0, y0, x1, y1)` a splat's truncated
/// ellipse overlaps, or `None` when it misses the grid entirely — the
/// exact footprint [`bin_splats`] duplicates the splat into. Exposed so
/// the incremental [`crate::bincache::BinCache`] can diff footprints
/// between frames.
pub fn splat_tile_range(
    s: &Splat2D,
    tile_size: u32,
    tiles_x: u32,
    tiles_y: u32,
) -> Option<(u32, u32, u32, u32)> {
    EllipseBounds::from_conic(s.mean, s.conic, s.threshold)?.tile_range(tile_size, tiles_x, tiles_y)
}

/// Bins splats into tiles and depth-sorts each tile's instance list.
pub fn bin_splats(splats: &[Splat2D], camera: &Camera, tile_size: u32) -> (TileBins, BinningStats) {
    assert!(tile_size > 0, "tile size must be positive");
    let (tiles_x, tiles_y) = camera.tile_grid(tile_size);
    let tile_count = (tiles_x * tiles_y) as usize;

    // Emit (key, splat index) pairs for every overlapped tile.
    let mut pairs: Vec<(u64, u32)> = Vec::with_capacity(splats.len() * 2);
    for (i, s) in splats.iter().enumerate() {
        let Some((x0, y0, x1, y1)) = splat_tile_range(s, tile_size, tiles_x, tiles_y) else {
            continue;
        };
        for ty in y0..=y1 {
            for tx in x0..=x1 {
                let tile = ty * tiles_x + tx;
                pairs.push((sort::pack_key(tile, s.depth), i as u32));
            }
        }
    }

    let sort_passes = sort::radix_sort_pairs(&mut pairs);

    // CSR construction.
    let mut offsets = vec![0usize; tile_count + 1];
    for &(k, _) in &pairs {
        offsets[sort::key_tile(k) as usize + 1] += 1;
    }
    for t in 0..tile_count {
        offsets[t + 1] += offsets[t];
    }
    let entries: Vec<u32> = pairs.iter().map(|&(_, p)| p).collect();

    let occupied = (0..tile_count).filter(|&t| offsets[t + 1] > offsets[t]).count() as u64;
    let stats = BinningStats {
        instances: entries.len() as u64,
        sort_passes,
        occupied_tiles: occupied,
        total_tiles: tile_count as u64,
    };
    (TileBins { tile_size, tiles_x, tiles_y, offsets, entries }, stats)
}

/// Pairs per job in the chunk-parallel radix-sort stages. Fixed (never
/// derived from the thread count) so the chunk decomposition — and with
/// it every recorded job-span shape — is identical at any `GBU_THREADS`;
/// output bytes don't depend on it at all (see `gbu_math::sort`). Small
/// enough that even a test-profile scene yields plenty of jobs per stage.
const SORT_CHUNK_PAIRS: usize = 4096;

/// The allocation-lean parallel Step ❷: bins into caller-owned bins and
/// scratch, reused across frames (every field of `bins` is overwritten).
/// `bounds` optionally carries Step ❶'s per-splat/per-batch screen
/// bounds (see [`crate::preprocess::project_scene_bounded`]) so expansion
/// skips the per-splat conic-to-AABB derivation; with or without them
/// the result is byte-identical to [`bin_splats`] at every thread count.
/// Every phase is decomposed so that its parallel result equals the
/// serial one:
///
/// 1. **Batch expansion** — fixed batches of [`BATCH_SPLATS`] consecutive
///    splats emit `(key, splat)` pairs into per-batch buffers; carried
///    [`ProjectedBounds`] let a batch skip the grid-miss case wholesale
///    and each splat reuse its projection-time ellipse bounds.
///    Concatenating the buffers in batch order reproduces the serial
///    emission order exactly.
/// 2. **Chunk-parallel stable radix sort** —
///    `gbu_math::sort::radix_sort_pairs_chunked` on the pool; stable LSD
///    scatter output is invariant to chunking, and pass skipping uses the
///    aggregated histogram, so both the bytes and the executed
///    `sort_passes` match the serial sort.
/// 3. **CSR recovery** — offsets by binary search over the sorted keys
///    (`offsets[t+1]` = pairs with tile ≤ `t`, the exact prefix-sum
///    counts) and a payload copy.
///
/// Emits `bin_expand` / `bin_sort` wall spans (children of the caller's
/// span, e.g. `pipeline::bin`'s `bin`). At `GBU_TRACE=2` every pool job
/// also records a worker-labelled span — `bin_expand_batch` and
/// `bin_concat_batch` under `bin_expand`, `bin_sort_chunk` under a
/// `radix_histogram` / `radix_scatter` span per radix stage dispatch —
/// so the job costs and the barriers between stages are visible in the
/// trace (the bench's critical-path model reads them).
///
/// # Panics
///
/// Panics if `tile_size` is zero or `bounds` does not match `splats`.
pub fn bin_into(
    pool: &ThreadPool,
    splats: &[Splat2D],
    bounds: Option<&ProjectedBounds>,
    camera: &Camera,
    tile_size: u32,
    scratch: &mut BinScratch,
    bins: &mut TileBins,
) -> BinningStats {
    assert!(tile_size > 0, "tile size must be positive");
    let batch_count = splats.len().div_ceil(BATCH_SPLATS);
    if let Some(pb) = bounds {
        assert_eq!(pb.splats.len(), splats.len(), "bounds/splat list length mismatch");
        assert_eq!(pb.batches.len(), batch_count, "bounds batch count mismatch");
    }
    let (tiles_x, tiles_y) = camera.tile_grid(tile_size);
    let tile_count = (tiles_x * tiles_y) as usize;
    bins.tile_size = tile_size;
    bins.tiles_x = tiles_x;
    bins.tiles_y = tiles_y;

    scratch.prepare(batch_count, pool.threads());
    let recorder = gbu_telemetry::global();
    let detailed = recorder.detailed();
    let crate::scratch::BinScratch { batches, pairs, sort_scratch, hists, workers } = scratch;
    let batches = &mut batches[..batch_count];

    // Phase 1: per-batch pair emission, then concatenation in batch order
    // (= the serial splat-index emission order).
    {
        let _expand_span = recorder.wall_span("bin_expand", Labels::default());
        pool.for_each_mut_with(workers, batches, |worker, b, buf| {
            let _batch_span =
                detailed.then(|| recorder.wall_span("bin_expand_batch", Labels::worker(worker.id)));
            buf.clear();
            let lo = b * BATCH_SPLATS;
            let hi = (lo + BATCH_SPLATS).min(splats.len());
            let batch_plausible = match bounds {
                Some(pb) => pb.batches[b].tile_range(tile_size, tiles_x, tiles_y).is_some(),
                None => true,
            };
            if batch_plausible {
                for (i, splat) in splats.iter().enumerate().take(hi).skip(lo) {
                    let range = match bounds {
                        Some(pb) => pb.splats[i].tile_range(tile_size, tiles_x, tiles_y),
                        None => splat_tile_range(splat, tile_size, tiles_x, tiles_y),
                    };
                    let Some((x0, y0, x1, y1)) = range else { continue };
                    let key_depth = splat.depth;
                    for ty in y0..=y1 {
                        for tx in x0..=x1 {
                            buf.push((sort::pack_key(ty * tiles_x + tx, key_depth), i as u32));
                        }
                    }
                }
            }
        });

        let total: usize = batches.iter().map(Vec::len).sum();
        pairs.clear();
        pairs.resize(total, (0, 0));
        let mut rest: &mut [(u64, u32)] = pairs.as_mut_slice();
        let mut jobs = Vec::with_capacity(batch_count);
        for buf in batches.iter() {
            let (dst, tail) = rest.split_at_mut(buf.len());
            jobs.push((buf.as_slice(), dst));
            rest = tail;
        }
        pool.for_each_mut_with(workers, &mut jobs, |worker, _, (src, dst)| {
            let _copy_span =
                detailed.then(|| recorder.wall_span("bin_concat_batch", Labels::worker(worker.id)));
            dst.copy_from_slice(src);
        });
    }

    // Phase 2: chunk-parallel stable radix sort, one detail span per
    // stage dispatch so the barriers between stages stay visible.
    let sort_passes = {
        let _sort_span = recorder.wall_span("bin_sort", Labels::default());
        let mut run = |stage: &'static str, jobs: usize, job: &(dyn Fn(usize) + Sync)| {
            let _stage_span = detailed.then(|| recorder.wall_span(stage, Labels::default()));
            // One unit job per chunk: a Vec of ZSTs never heap-allocates.
            pool.for_each_mut_with(workers, &mut vec![(); jobs], |worker, i, ()| {
                let _chunk_span = detailed
                    .then(|| recorder.wall_span("bin_sort_chunk", Labels::worker(worker.id)));
                job(i);
            });
        };
        sort::radix_sort_pairs_chunked(pairs, sort_scratch, hists, SORT_CHUNK_PAIRS, &mut run)
    };

    // Phase 3: CSR recovery. `offsets[t+1]` = number of sorted pairs with
    // tile ≤ t — identical to the serial counting prefix sum.
    bins.offsets.clear();
    bins.offsets.resize(tile_count + 1, 0);
    for t in 0..tile_count {
        bins.offsets[t + 1] = pairs.partition_point(|&(k, _)| sort::key_tile(k) <= t as u32);
    }
    bins.entries.clear();
    bins.entries.extend(pairs.iter().map(|&(_, p)| p));

    let occupied =
        (0..tile_count).filter(|&t| bins.offsets[t + 1] > bins.offsets[t]).count() as u64;
    BinningStats {
        instances: bins.entries.len() as u64,
        sort_passes,
        occupied_tiles: occupied,
        total_tiles: tile_count as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::project_scene;
    use gbu_math::Vec3;
    use gbu_scene::{Gaussian3D, GaussianScene};

    fn camera() -> Camera {
        Camera::orbit(128, 96, 1.0, Vec3::ZERO, 4.0, 0.0, 0.0)
    }

    fn one_splat_scene(sigma: f32) -> (Vec<Splat2D>, Camera) {
        let cam = camera();
        let scene: GaussianScene =
            std::iter::once(Gaussian3D::isotropic(Vec3::ZERO, sigma, Vec3::ONE, 0.9)).collect();
        let (splats, _) = project_scene(&scene, &cam);
        (splats, cam)
    }

    #[test]
    fn small_splat_lands_in_center_tiles() {
        let (splats, cam) = one_splat_scene(0.02);
        let (bins, stats) = bin_splats(&splats, &cam, 16);
        assert!(stats.instances >= 1);
        // All instances reference splat 0.
        assert!(bins.entries.iter().all(|&e| e == 0));
        // The splat is near pixel (64, 48) -> tile (4, 3) must contain it.
        assert!(bins.tile_entries(4, 3).contains(&0) || bins.tile_entries(3, 2).contains(&0));
    }

    #[test]
    fn bigger_splat_covers_more_tiles() {
        let (small, cam) = one_splat_scene(0.02);
        let (big, _) = one_splat_scene(0.4);
        let (_, s_small) = bin_splats(&small, &cam, 16);
        let (_, s_big) = bin_splats(&big, &cam, 16);
        assert!(s_big.instances > s_small.instances);
    }

    #[test]
    fn entries_are_depth_sorted_per_tile() {
        let cam = camera();
        let dir = (Vec3::ZERO - cam.position()).normalized();
        let scene: GaussianScene = (0..20)
            .map(|i| {
                // Stack Gaussians along the view ray at varying depths,
                // inserted in shuffled order.
                let d = 2.0 + ((i * 7) % 20) as f32 * 0.1;
                Gaussian3D::isotropic(cam.position() + dir * d, 0.1, Vec3::ONE, 0.9)
            })
            .collect();
        let (splats, _) = project_scene(&scene, &cam);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        for (_, entries) in bins.occupied() {
            let depths: Vec<f32> = entries.iter().map(|&e| splats[e as usize].depth).collect();
            assert!(
                depths.windows(2).all(|w| w[0] <= w[1]),
                "tile instances must be near-to-far: {depths:?}"
            );
        }
    }

    #[test]
    fn offsets_partition_entries() {
        let (splats, cam) = one_splat_scene(0.3);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        assert_eq!(bins.offsets.len(), bins.tile_count() + 1);
        assert_eq!(*bins.offsets.last().unwrap(), bins.entries.len());
        assert!(bins.offsets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tile_pixel_rect_clips_at_edges() {
        let (splats, cam) = one_splat_scene(0.02);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        // 128x96 divides evenly into 8x6 tiles of 16.
        assert_eq!(bins.tiles_x, 8);
        assert_eq!(bins.tiles_y, 6);
        assert_eq!(bins.tile_pixel_rect(0, 128, 96), (0, 0, 16, 16));
        let last = bins.tile_count() - 1;
        assert_eq!(bins.tile_pixel_rect(last, 128, 96), (112, 80, 128, 96));
        // A non-multiple image clips.
        let cam2 = Camera::orbit(100, 50, 1.0, Vec3::ZERO, 4.0, 0.0, 0.0);
        let (bins2, _) = bin_splats(&splats, &cam2, 16);
        let rect = bins2.tile_pixel_rect(6, 100, 50); // tile x=6 spans 96..112 -> clipped to 100
        assert_eq!(rect, (96, 0, 100, 16));
    }

    #[test]
    fn empty_splat_list() {
        let cam = camera();
        let (bins, stats) = bin_splats(&[], &cam, 16);
        assert_eq!(stats.instances, 0);
        assert_eq!(stats.occupied_tiles, 0);
        assert!(bins.entries.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of grid")]
    fn tile_entries_out_of_range_panics() {
        let (splats, cam) = one_splat_scene(0.02);
        let (bins, _) = bin_splats(&splats, &cam, 16);
        let _ = bins.tile_entries(100, 0);
    }

    #[test]
    fn occupied_iterator_matches_stats() {
        let (splats, cam) = one_splat_scene(0.3);
        let (bins, stats) = bin_splats(&splats, &cam, 16);
        assert_eq!(bins.occupied().count() as u64, stats.occupied_tiles);
    }
}
