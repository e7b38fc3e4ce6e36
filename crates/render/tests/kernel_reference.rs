//! Pins both Step-❸ row kernels to an independent reference: the plain
//! per-pixel PFS loop and per-fragment IRSS loop, written here over the
//! public API only (`Splat2D::q_at`, `alpha_from_q`,
//! `IrssSplat::row_outcome`/`march`, `TileBins::entries_of`/
//! `tile_pixel_rect`). `pipeline::blend_pooled` must match them in every
//! pixel's bits and every `BlendStats` field — `tile_instances` included,
//! and IRSS's `row_workload` with `record_row_workload` set, one counter
//! per pixel row of the tile at every tile size — on 1- and 3-thread
//! pools. Inputs cover tile sizes 8, 16 and 32, frame sizes
//! that clip the edge tiles, a non-black background, and opaque stacks
//! that saturate single pixels mid-instance and whole tiles.
//! Those references blend over the bins under test, so PFS is also pinned
//! to a binning-free one, which catches a Step-❷ bound dropping a fragment.

use gbu_math::{Quat, Vec3};
use gbu_par::ThreadPool;
use gbu_render::binning::TileBins;
use gbu_render::irss::{IrssSplat, RowOutcome, FLOPS_ROW_TEST, FLOPS_SEARCH_ITER};
use gbu_render::pfs::T_SATURATED;
use gbu_render::pipeline::{self, Dataflow};
use gbu_render::preprocess::pixel_center;
use gbu_render::stats::{BlendStats, FLOPS_BLEND, FLOPS_Q_FULL, FLOPS_Q_T2};
use gbu_render::{alpha_from_q, RenderConfig, Splat2D};
use gbu_scene::{Camera, Gaussian3D, GaussianScene};
use proptest::prelude::*;

const TILE_SIZES: [u32; 3] = [8, 16, 32];
const BACKGROUND: Vec3 = Vec3::new(0.25, 0.5, 0.125);

/// One tile's accumulators, as the reference kernels walk it.
struct Tile {
    x0: u32,
    y0: u32,
    x1: u32,
    y1: u32,
    color: Vec<Vec3>,
    trans: Vec<f32>,
    alive: usize,
}

impl Tile {
    fn new(bins: &TileBins, tile: usize, camera: &Camera) -> Self {
        let (x0, y0, x1, y1) = bins.tile_pixel_rect(tile, camera.width, camera.height);
        let px = ((x1 - x0) * (y1 - y0)) as usize;
        Tile { x0, y0, x1, y1, color: vec![Vec3::ZERO; px], trans: vec![1.0; px], alive: px }
    }

    fn index(&self, x: u32, y: u32) -> usize {
        ((y - self.y0) * (self.x1 - self.x0) + (x - self.x0)) as usize
    }

    /// Blends one fragment unless its pixel has saturated.
    fn blend(&mut self, x: u32, y: u32, alpha: f32, color: Vec3, stats: &mut BlendStats) {
        let i = self.index(x, y);
        if self.trans[i] < T_SATURATED {
            return;
        }
        stats.fragments_blended += 1;
        stats.blend_flops += FLOPS_BLEND;
        self.color[i] += color * (alpha * self.trans[i]);
        self.trans[i] *= 1.0 - alpha;
        if self.trans[i] < T_SATURATED {
            self.alive -= 1;
        }
    }

    fn composite(&self, image: &mut [Vec3], width: u32, background: Vec3) {
        for y in self.y0..self.y1 {
            for x in self.x0..self.x1 {
                let i = self.index(x, y);
                image[(y * width + x) as usize] = self.color[i] + background * self.trans[i];
            }
        }
    }
}

fn empty_frame(bins: &TileBins, camera: &Camera, config: &RenderConfig) -> (Vec<Vec3>, BlendStats) {
    let image = vec![config.background; (camera.width * camera.height) as usize];
    let stats = BlendStats {
        tile_instances: (0..bins.tile_count()).map(|t| bins.entries_of(t).len() as u32).collect(),
        ..BlendStats::default()
    };
    (image, stats)
}

/// PFS without Step ❷: every splat at every pixel of the frame, front to
/// back in (depth, index) order, with the kernels' `q_at`, `alpha_from_q`
/// and saturation rule. Only the image has a binning-free meaning.
fn binning_free_pfs(splats: &[Splat2D], camera: &Camera, background: Vec3) -> Vec<Vec3> {
    let mut order: Vec<usize> = (0..splats.len()).collect();
    order.sort_by(|&a, &b| splats[a].depth.total_cmp(&splats[b].depth).then(a.cmp(&b)));
    let pixels = (camera.width * camera.height) as usize;
    let (mut color, mut trans) = (vec![Vec3::ZERO; pixels], vec![1.0f32; pixels]);
    for s in order.into_iter().map(|i| &splats[i]) {
        for (i, (c, t)) in color.iter_mut().zip(&mut trans).enumerate() {
            let q = s.q_at(pixel_center(i as u32 % camera.width, i as u32 / camera.width));
            if *t < T_SATURATED || q > s.threshold {
                continue;
            }
            let alpha = alpha_from_q(s.opacity, q);
            *c += s.color * (alpha * *t);
            *t *= 1.0 - alpha;
        }
    }
    color.iter().zip(&trans).map(|(&c, &t)| c + background * t).collect()
}

/// PFS, one fragment at a time: every live pixel of the tile evaluates
/// Eq. 7 for every instance, front to back.
fn pfs_reference(
    splats: &[Splat2D],
    bins: &TileBins,
    camera: &Camera,
    config: &RenderConfig,
) -> Blended {
    let (mut image, mut stats) = empty_frame(bins, camera, config);
    for tile_id in 0..bins.tile_count() {
        let entries = bins.entries_of(tile_id);
        if entries.is_empty() {
            continue;
        }
        let mut tile = Tile::new(bins, tile_id, camera);
        for (ei, &entry) in entries.iter().enumerate() {
            if tile.alive == 0 {
                stats.instances_skipped_saturated += (entries.len() - ei) as u64;
                break;
            }
            stats.instances += 1;
            let s = &splats[entry as usize];
            for y in tile.y0..tile.y1 {
                for x in tile.x0..tile.x1 {
                    if tile.trans[tile.index(x, y)] < T_SATURATED {
                        continue;
                    }
                    stats.fragments_evaluated += 1;
                    stats.q_flops += FLOPS_Q_FULL;
                    let q = s.q_at(pixel_center(x, y));
                    if q > s.threshold {
                        continue;
                    }
                    stats.fragments_significant += 1;
                    tile.blend(x, y, alpha_from_q(s.opacity, q), s.color, &mut stats);
                }
            }
        }
        tile.composite(&mut image, camera.width, config.background);
    }
    (image, stats, Vec::new())
}

/// IRSS, one fragment at a time: every row of every instance runs the
/// first-fragment procedure and marches its span.
fn irss_reference(
    splats: &[Splat2D],
    bins: &TileBins,
    camera: &Camera,
    config: &RenderConfig,
) -> Blended {
    let isplats: Vec<IrssSplat> = splats.iter().map(IrssSplat::new).collect();
    let (mut image, mut stats) = empty_frame(bins, camera, config);
    let mut rows = Vec::new();
    if config.record_row_workload {
        rows = vec![vec![0; bins.tile_size as usize]; bins.tile_count()];
    }
    for tile_id in 0..bins.tile_count() {
        let entries = bins.entries_of(tile_id);
        if entries.is_empty() {
            continue;
        }
        let mut tile = Tile::new(bins, tile_id, camera);
        for (ei, &entry) in entries.iter().enumerate() {
            if tile.alive == 0 {
                stats.instances_skipped_saturated += (entries.len() - ei) as u64;
                break;
            }
            stats.instances += 1;
            let isp = &isplats[entry as usize];
            let mut row_max = 0u32;
            for y in tile.y0..tile.y1 {
                stats.rows_considered += 1;
                stats.setup_flops += FLOPS_ROW_TEST;
                let span = match isp.row_outcome(y, tile.x0, tile.x1) {
                    RowOutcome::SkippedY => {
                        stats.rows_skipped += 1;
                        continue;
                    }
                    RowOutcome::Miss { search_iters } => {
                        if search_iters > 0 {
                            stats.binary_searches += 1;
                            stats.setup_flops += u64::from(search_iters) * FLOPS_SEARCH_ITER;
                        }
                        continue;
                    }
                    RowOutcome::Span(span) => span,
                };
                if span.search_iters > 0 {
                    stats.binary_searches += 1;
                    stats.setup_flops += u64::from(span.search_iters) * FLOPS_SEARCH_ITER;
                }
                stats.setup_flops += FLOPS_Q_FULL;
                let cost = isp.march(&span, tile.x1, |x, q| {
                    stats.fragments_significant += 1;
                    tile.blend(x, y, alpha_from_q(isp.opacity, q), isp.color, &mut stats);
                });
                stats.fragments_evaluated += u64::from(cost.evaluated);
                stats.q_flops += u64::from(cost.evaluated.saturating_sub(1)) * FLOPS_Q_T2;
                row_max = row_max.max(cost.evaluated);
                if let Some(tile_rows) = rows.get_mut(tile_id) {
                    tile_rows[(y - tile.y0) as usize] += cost.inside;
                }
            }
            stats.instance_row_max_sum += u64::from(row_max);
        }
        tile.composite(&mut image, camera.width, config.background);
    }
    (image, stats, rows)
}

fn bits(pixels: &[Vec3]) -> Vec<[u32; 3]> {
    pixels.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
}

/// A reference kernel's frame: the image, the blend statistics without
/// `row_workload`, and the row workload itself as one `Vec` per tile.
type Blended = (Vec<Vec3>, BlendStats, Vec<Vec<u32>>);

/// A reference kernel.
type Reference = fn(&[Splat2D], &TileBins, &Camera, &RenderConfig) -> Blended;

/// Blends `scene` through `pipeline::blend_pooled` on 1 and 3 threads
/// and checks both dataflows against their reference; returns the
/// reference PFS and IRSS stats so callers can check what was covered.
fn check_against_reference(
    scene: &GaussianScene,
    camera: &Camera,
    tile_size: u32,
) -> [BlendStats; 2] {
    let config = RenderConfig { tile_size, background: BACKGROUND, record_row_workload: true };
    let serial = ThreadPool::new(1);
    let frame = pipeline::project_pooled(&serial, scene, camera);
    let binned = pipeline::bin_pooled(&serial, &frame, tile_size);
    let dataflows: [(Dataflow, Reference); 2] =
        [(Dataflow::Pfs, pfs_reference), (Dataflow::Irss, irss_reference)];
    dataflows.map(|(dataflow, reference)| {
        let (want_image, want_stats, want_rows) =
            reference(&frame.splats, &binned.bins, camera, &config);
        for threads in [1, 3] {
            let pool = ThreadPool::new(threads);
            let (image, mut stats) =
                pipeline::blend_pooled(&pool, &frame, &binned, dataflow, &config);
            let at =
                format!("{threads} threads, tile {tile_size}, {}x{}", camera.width, camera.height);
            assert!(
                bits(image.pixels()) == bits(&want_image),
                "{dataflow:?} image bits differ from the reference ({at})"
            );
            let rows: Vec<Vec<u32>> =
                std::mem::take(&mut stats.row_workload).iter().map(|r| r.to_vec()).collect();
            assert_eq!(rows, want_rows, "{dataflow:?} row workloads differ ({at})");
            assert_eq!(stats, want_stats, "{dataflow:?} stats differ from the reference ({at})");
        }
        want_stats
    })
}

/// `layers` opaque Gaussians of one size stacked front to back along the
/// ray through `at`: broad ones saturate whole tiles, tiny ones a pixel
/// or two while the rest of the tile stays live.
fn opaque_stack(camera: &Camera, at: Vec3, sigma: f32, layers: u32) -> Vec<Gaussian3D> {
    let dir = (at - camera.position()).normalized();
    (0..layers)
        .map(|i| {
            let shade = 0.2 + 0.6 * (i % 4) as f32 / 3.0;
            Gaussian3D::isotropic(at + dir * (0.01 * i as f32), sigma, Vec3::splat(shade), 0.99)
        })
        .collect()
}

/// A frame of `tiles` whole tiles plus `rem` pixels in each direction;
/// a non-zero `rem` clips the last tile column or row.
fn frame_camera(tile_size: u32, tiles: (u32, u32), rem: (u32, u32), azimuth: f32) -> Camera {
    let width = tile_size * tiles.0 + rem.0;
    let height = tile_size * tiles.1 + rem.1;
    Camera::orbit(width, height, 1.0, Vec3::ZERO, 3.0, azimuth, 0.15)
}

type RandomGaussian = (f32, f32, f32, f32, f32, f32, f32, f32);

fn random_gaussians() -> impl Strategy<Value = Vec<RandomGaussian>> {
    proptest::collection::vec(
        (
            -0.9f32..0.9,
            -0.6f32..0.6,
            -0.8f32..0.8,
            0.01f32..0.3,
            0.2f32..3.0,
            0.0f32..3.1,
            0.0f32..1.0,
            0.05f32..0.99,
        ),
        1..50,
    )
}

fn build_scene(gaussians: Vec<RandomGaussian>) -> Vec<Gaussian3D> {
    gaussians
        .into_iter()
        .enumerate()
        .map(|(i, (x, y, z, sigma, stretch, angle, hue, opacity))| {
            let color = Vec3::new(hue, 1.0 - hue, 0.5 * hue + 0.25);
            let mut g = Gaussian3D::isotropic(Vec3::new(x, y, z), sigma, color, opacity);
            // Every other Gaussian is anisotropic and rotated, so conics
            // carry off-diagonal terms.
            if i % 2 == 1 {
                g.scale = Vec3::new(sigma * stretch, sigma, sigma / stretch);
                g.rotation = Quat::from_axis_angle(Vec3::new(0.3, 1.0, 0.2).normalized(), angle);
            }
            g
        })
        .collect()
}

/// Random scenes with two opaque stacks (one broad, one tiny) at a
/// random tile size and a clipped frame size: `(scene, camera, tile)`.
fn random_frame() -> impl Strategy<Value = (GaussianScene, Camera, u32)> {
    (
        random_gaussians(),
        0usize..3,
        (2u32..6, 2u32..5),
        (1u32..8, 1u32..8),
        0.0f32..6.2,
        (-0.5f32..0.5, -0.4f32..0.4, 0.6f32..1.5, 10u32..30),
        (-0.5f32..0.5, -0.4f32..0.4, 0.005f32..0.03, 3u32..10),
    )
        .prop_map(|(gaussians, tile_pick, tiles, rem, azimuth, broad, tiny)| {
            let tile_size = TILE_SIZES[tile_pick];
            let camera = frame_camera(tile_size, tiles, rem, azimuth);
            let mut scene = build_scene(gaussians);
            scene.extend(opaque_stack(&camera, Vec3::new(broad.0, broad.1, 0.0), broad.2, broad.3));
            scene.extend(opaque_stack(&camera, Vec3::new(tiny.0, tiny.1, 0.0), tiny.2, tiny.3));
            (scene.into_iter().collect(), camera, tile_size)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blends_match_the_per_fragment_reference((scene, camera, tile_size) in random_frame()) {
        check_against_reference(&scene, &camera, tile_size);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pfs_matches_the_binning_free_reference((scene, camera, tile_size) in random_frame()) {
        let config = RenderConfig { tile_size, background: BACKGROUND, ..RenderConfig::default() };
        let pool = ThreadPool::new(3);
        let frame = pipeline::project_pooled(&pool, &scene, &camera);
        let binned = pipeline::bin_pooled(&pool, &frame, tile_size);
        let (image, _) = pipeline::blend_pooled(&pool, &frame, &binned, Dataflow::Pfs, &config);
        let want = binning_free_pfs(&frame.splats, &camera, BACKGROUND);
        let at = format!("tile {tile_size}, {}x{}", camera.width, camera.height);
        assert!(bits(image.pixels()) == bits(&want), "PFS differs from the reference ({at})");
    }
}

/// Fixed scenes at every tile size that are known to saturate: whole
/// tiles stop early (`instances_skipped_saturated > 0`), and pixels
/// saturate while their tile keeps blending, so PFS evaluates fewer
/// fragments than the lockstep `instances × tile pixels` (exact here:
/// the first frame is a tile multiple; the second clips its edge tiles).
#[test]
fn opaque_stacks_saturate_pixels_and_tiles() {
    for tile_size in TILE_SIZES {
        for rem in [(0, 0), (5, 3)] {
            // The broad stack is centred on the middle tile of a 3x3 grid.
            let camera = frame_camera(tile_size, (3, 3), rem, 0.4);
            let mut scene = build_scene(vec![(0.1, 0.05, 0.0, 0.2, 1.5, 0.7, 0.3, 0.6); 3]);
            scene.extend(opaque_stack(&camera, Vec3::ZERO, 1.0, 16));
            scene.extend(opaque_stack(&camera, Vec3::new(0.45, -0.2, 0.0), 0.01, 6));
            let scene: GaussianScene = scene.into_iter().collect();
            let [pfs, irss] = check_against_reference(&scene, &camera, tile_size);
            for stats in [&pfs, &irss] {
                assert!(stats.instances_skipped_saturated > 0, "tile {tile_size}: none skipped");
            }
            if rem == (0, 0) {
                let lockstep = pfs.instances * u64::from(tile_size * tile_size);
                assert!(pfs.fragments_evaluated < lockstep, "tile {tile_size}: none saturated");
            }
        }
    }
}
