//! Cross-crate integration: the three implementations of Rendering Step ❸
//! (reference PFS, software IRSS, GBU tile engine in FP32) must produce
//! the same image on every application type — the FP32 tile engine and
//! software IRSS bit for bit — and the FP16 GBU datapath must stay
//! within Tab. IV's quality envelope. On random frames the tile engine
//! is also pinned to a per-pixel FP16 oracle of the Row PE datapath, bit
//! for bit, with its instance, span, fragment and tile counts and its
//! Row Generation Engine and Row-PE queue cycles.

use gbu_hw::cache::Policy;
use gbu_hw::{dnb, GbuConfig, TileEngine};
use gbu_math::{Quat, Vec3, F16};
use gbu_render::binning::TileBins;
use gbu_render::irss::{IrssSplat, RowOutcome};
use gbu_render::pfs::T_SATURATED;
use gbu_render::{
    alpha_from_q, binning, metrics, pipeline, preprocess, render_irss, render_pfs, FrameBuffer,
    RenderConfig,
};
use gbu_scene::{Camera, DatasetScene, Gaussian3D, GaussianScene, ScaleProfile};
use proptest::prelude::*;

fn scene_and_camera(name: &str) -> (GaussianScene, Camera) {
    let ds = DatasetScene::by_name(name).expect("registry scene");
    let scenario = gbu_core::apps::FrameScenario::from_dataset(&ds, ScaleProfile::Test);
    (scenario.scene, scenario.camera)
}

#[test]
fn irss_matches_pfs_on_all_application_types() {
    for name in ["bonsai", "flame_steak", "female-4"] {
        let (scene, camera) = scene_and_camera(name);
        let cfg = RenderConfig::default();
        let pfs = render_pfs(&scene, &camera, &cfg);
        let irss = render_irss(&scene, &camera, &cfg);
        let diff = pfs.image.max_abs_diff(&irss.image);
        assert!(diff < 5e-3, "{name}: IRSS diverged from PFS by {diff}");
        // And IRSS must do so with far fewer fragment evaluations.
        assert!(
            irss.blend.fragments_evaluated * 2 < pfs.blend.fragments_evaluated,
            "{name}: IRSS evaluated {} vs PFS {}",
            irss.blend.fragments_evaluated,
            pfs.blend.fragments_evaluated
        );
    }
}

/// The GBU tile engine's image of `scene`, Steps ❶/❷ done in software.
fn tile_engine_image(scene: &GaussianScene, camera: &Camera, hw_cfg: GbuConfig) -> FrameBuffer {
    let (splats, _) = preprocess::project_scene(scene, camera);
    let (bins, _) = binning::bin_splats(&splats, camera, RenderConfig::default().tile_size);
    let d = dnb::run(&splats, &bins, &hw_cfg);
    let engine = TileEngine::new(hw_cfg);
    engine.render(&splats, &d, &bins, camera, Vec3::ZERO, Policy::ReuseDistance).image
}

#[test]
fn gbu_fp32_engine_matches_software_exactly() {
    let bits = |img: &FrameBuffer| -> Vec<[u32; 3]> {
        img.pixels().iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
    };
    for name in ["bonsai", "flame_steak", "female-4"] {
        let (scene, camera) = scene_and_camera(name);
        let sw = render_irss(&scene, &camera, &RenderConfig::default()).image;
        let hw_cfg = GbuConfig { fp16_datapath: false, ..GbuConfig::paper() };
        let hw = tile_engine_image(&scene, &camera, hw_cfg);
        let diff = sw.max_abs_diff(&hw);
        assert!(bits(&sw) == bits(&hw), "{name}: FP32 engine is not software IRSS (diff {diff})");
    }
}

#[test]
fn gbu_fp16_quality_within_tab4_envelope() {
    for name in ["bonsai", "flame_steak", "female-4"] {
        let (scene, camera) = scene_and_camera(name);
        let reference = render_pfs(&scene, &camera, &RenderConfig::default()).image;
        let hw = tile_engine_image(&scene, &camera, GbuConfig::paper());
        let psnr = metrics::psnr(&reference, &hw);
        let ssim = metrics::ssim(&reference, &hw);
        assert!(psnr > 40.0, "{name}: FP16 PSNR {psnr}");
        assert!(ssim > 0.99, "{name}: FP16 SSIM {ssim}");
    }
}

#[test]
fn blending_is_insensitive_to_gaussian_insertion_order() {
    let (scene, camera) = scene_and_camera("bonsai");
    let mut reversed = scene.clone();
    reversed.gaussians.reverse();
    let cfg = RenderConfig::default();
    let a = render_irss(&scene, &camera, &cfg);
    let b = render_irss(&reversed, &camera, &cfg);
    // Same depth order after sorting => same image up to float
    // associativity at equal depths.
    assert!(a.image.max_abs_diff(&b.image) < 2e-2);
}

/// One pixel of the Row PE datapath (Sec. VI-B): binary16 color and
/// transmittance, every operation rounded, the color update one FMA.
#[derive(Clone, Copy)]
struct Fp16Pixel {
    color: [F16; 3],
    trans: F16,
}

impl Fp16Pixel {
    const FRESH: Self = Fp16Pixel { color: [F16::ZERO; 3], trans: F16::ONE };

    fn blend(&mut self, alpha: f32, rgb: Vec3) {
        let a = F16::from_f32(alpha);
        let w = a * self.trans;
        for (c, v) in self.color.iter_mut().zip([rgb.x, rgb.y, rgb.z]) {
            *c = F16::from_f32(v).mul_add(w, *c);
        }
        self.trans = self.trans * (F16::ONE - a);
    }
}

/// The device's counts of one frame: `(instances, spans, fragments,
/// tiles)`, every instance and every evaluated fragment included.
type Counts = (u64, u64, u64, u64);

/// The device's Tile-PE timing of one frame: `(compute, rowgen,
/// pe_busy)` cycles, as `GbuRunResult::{compute_cycles, rowgen_cycles,
/// pe_busy_cycles}`.
type Cycles = (u64, u64, u64);

/// The tile engine at FP16, one fragment at a time: every instance of
/// every occupied tile in bin order, each row through `row_outcome` and
/// `march`, pixels under `T_SATURATED` skipped, each tile composited over
/// `background`. Saturation never stops the walk, so the counts cover
/// every instance and every evaluated fragment.
///
/// The timing is Fig. 11's queues, from `cfg`'s public fields. The Row
/// Generation Engine spends `rowgen_instance_cycles` on each instance's
/// row tests, then issues its spans to the Row PEs and locates their
/// first fragments, `rowgen_spans_per_cycle` at a time. Each of the
/// `row_pes` Row PEs runs its `rows_per_pe` rows on parallel lanes; a
/// lane starts a span once the row tests are done and its previous span
/// is finished, and is busy `rowpe_setup_cycles` plus the evaluated
/// fragments at `rowpe_frags_per_cycle`. A tile takes the later of the
/// engine's and the last lane's finish, plus `tile_overhead_cycles`.
fn fp16_oracle(
    isplats: &[IrssSplat],
    bins: &TileBins,
    camera: &Camera,
    background: Vec3,
    cfg: &GbuConfig,
) -> (Vec<Vec3>, Counts, Cycles) {
    let mut image = vec![background; (camera.width * camera.height) as usize];
    let mut counts = (0, 0, 0, 0);
    let mut cycles = (0, 0, 0);
    let (pes, lanes) = (cfg.row_pes as usize, cfg.rows_per_pe as usize);
    for tile in 0..bins.tile_count() {
        let entries = bins.entries_of(tile);
        if entries.is_empty() {
            continue;
        }
        counts.3 += 1;
        let (x0, y0, x1, y1) = bins.tile_pixel_rect(tile, camera.width, camera.height);
        let w = (x1 - x0) as usize;
        let mut pixels = vec![Fp16Pixel::FRESH; w * (y1 - y0) as usize];
        let mut rowgen_done = 0u64;
        let mut lane_done = vec![vec![0u64; lanes]; pes];
        for &entry in entries {
            counts.0 += 1;
            let isp = &isplats[entry as usize];
            rowgen_done += cfg.rowgen_instance_cycles;
            let mut spans = 0u64;
            for y in y0..y1 {
                let RowOutcome::Span(span) = isp.row_outcome(y, x0, x1) else { continue };
                counts.1 += 1;
                spans += 1;
                let row = (y - y0) as usize * w;
                let cost = isp.march(&span, x1, |x, q| {
                    let p = &mut pixels[row + (x - x0) as usize];
                    if p.trans.to_f32() >= T_SATURATED {
                        p.blend(alpha_from_q(isp.opacity, q), isp.color);
                    }
                });
                counts.2 += u64::from(cost.evaluated);
                let busy = cfg.rowpe_setup_cycles
                    + u64::from(cost.evaluated).div_ceil(cfg.rowpe_frags_per_cycle);
                let r = (y - y0) as usize;
                let done = &mut lane_done[r / lanes][r % lanes];
                *done = (*done).max(rowgen_done) + busy;
                cycles.2 += busy;
            }
            rowgen_done += spans.div_ceil(cfg.rowgen_spans_per_cycle);
        }
        let last_lane = lane_done.iter().flatten().copied().max().unwrap_or(0);
        cycles.0 += rowgen_done.max(last_lane) + cfg.tile_overhead_cycles;
        cycles.1 += rowgen_done;
        for y in y0..y1 {
            for x in x0..x1 {
                let p = &pixels[(y - y0) as usize * w + (x - x0) as usize];
                let color =
                    Vec3::new(p.color[0].to_f32(), p.color[1].to_f32(), p.color[2].to_f32());
                image[(y * camera.width + x) as usize] = color + background * p.trans.to_f32();
            }
        }
    }
    (image, counts, cycles)
}

fn pixel_bits(pixels: &[Vec3]) -> Vec<[u32; 3]> {
    pixels.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
}

const BACKGROUND: Vec3 = Vec3::new(0.25, 0.5, 0.125);

/// `layers` opaque Gaussians stacked front to back along the ray through
/// `at`: broad ones saturate whole tiles mid-list, tiny ones single pixels.
fn opaque_stack(camera: &Camera, at: Vec3, sigma: f32, layers: u32) -> Vec<Gaussian3D> {
    let dir = (at - camera.position()).normalized();
    (0..layers)
        .map(|i| {
            let shade = 0.2 + 0.6 * (i % 4) as f32 / 3.0;
            Gaussian3D::isotropic(at + dir * (0.01 * i as f32), sigma, Vec3::splat(shade), 0.99)
        })
        .collect()
}

type RandomGaussian = (f32, f32, f32, f32, f32, f32, f32, f32);

/// Random Gaussians (every other one anisotropic and rotated) plus a
/// broad and a tiny opaque stack, in a 16-px-tile frame whose size clips
/// the last tile column and row.
fn random_frame() -> impl Strategy<Value = (GaussianScene, Camera)> {
    let gaussians = proptest::collection::vec(
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
    );
    (
        gaussians,
        (2u32..6, 2u32..5),
        (1u32..16, 1u32..16),
        0.0f32..6.2,
        (-0.5f32..0.5, -0.4f32..0.4, 0.6f32..1.5, 10u32..30),
        (-0.5f32..0.5, -0.4f32..0.4, 0.005f32..0.03, 3u32..10),
    )
        .prop_map(|(gaussians, tiles, rem, azimuth, broad, tiny)| {
            let (width, height) = (16 * tiles.0 + rem.0, 16 * tiles.1 + rem.1);
            let camera = Camera::orbit(width, height, 1.0, Vec3::ZERO, 3.0, azimuth, 0.15);
            let mut scene: Vec<Gaussian3D> = gaussians
                .into_iter()
                .enumerate()
                .map(|(i, g): (usize, RandomGaussian)| {
                    let (x, y, z, sigma, stretch, angle, hue, opacity) = g;
                    let color = Vec3::new(hue, 1.0 - hue, 0.5 * hue + 0.25);
                    let mut g = Gaussian3D::isotropic(Vec3::new(x, y, z), sigma, color, opacity);
                    if i % 2 == 1 {
                        g.scale = Vec3::new(sigma * stretch, sigma, sigma / stretch);
                        let axis = Vec3::new(0.3, 1.0, 0.2).normalized();
                        g.rotation = Quat::from_axis_angle(axis, angle);
                    }
                    g
                })
                .collect();
            scene.extend(opaque_stack(&camera, Vec3::new(broad.0, broad.1, 0.0), broad.2, broad.3));
            scene.extend(opaque_stack(&camera, Vec3::new(tiny.0, tiny.1, 0.0), tiny.2, tiny.3));
            (scene.into_iter().collect(), camera)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `TileEngine::render` equals the FP16 oracle bit for bit and
    /// software IRSS bit for bit at FP32, and counts what the oracle
    /// counts. Its Row-PE cycles equal the oracle's at the paper's
    /// queue constants and at non-unit ones on 16 single-row Row PEs.
    #[test]
    fn tile_engine_matches_the_fp16_oracle((scene, camera) in random_frame()) {
        let frame = pipeline::project(&scene, &camera);
        let binned = pipeline::bin(&frame, 16);
        let (splats, bins) = (&frame.splats, &binned.bins);
        let at = format!("{}x{}, {} splats", camera.width, camera.height, splats.len());

        let fp16 = GbuConfig::paper();
        let d = dnb::run(splats, bins, &fp16);
        let (want, counts, cycles) = fp16_oracle(&d.transforms, bins, &camera, BACKGROUND, &fp16);
        let run = TileEngine::new(fp16).render(
            splats, &d, bins, &camera, BACKGROUND, Policy::ReuseDistance,
        );
        prop_assert!(
            pixel_bits(run.image.pixels()) == pixel_bits(&want),
            "FP16 image differs from the oracle ({})", at
        );
        prop_assert_eq!((run.instances, run.spans, run.fragments, run.tiles), counts);
        prop_assert_eq!((run.compute_cycles, run.rowgen_cycles, run.pe_busy_cycles), cycles);

        let queues = GbuConfig {
            row_pes: 16,
            rows_per_pe: 1,
            rowgen_instance_cycles: 3,
            rowgen_spans_per_cycle: 4,
            rowpe_setup_cycles: 2,
            rowpe_frags_per_cycle: 3,
            tile_overhead_cycles: 5,
            ..GbuConfig::paper()
        };
        let d = dnb::run(splats, bins, &queues);
        let (_, _, cycles) = fp16_oracle(&d.transforms, bins, &camera, BACKGROUND, &queues);
        let run = TileEngine::new(queues).render(
            splats, &d, bins, &camera, BACKGROUND, Policy::ReuseDistance,
        );
        prop_assert_eq!(
            (run.compute_cycles, run.rowgen_cycles, run.pe_busy_cycles), cycles,
            "Row-PE cycles at non-unit queue constants ({})", at
        );

        let fp32 = GbuConfig { fp16_datapath: false, ..GbuConfig::paper() };
        let d = dnb::run(splats, bins, &fp32);
        let run = TileEngine::new(fp32).render(
            splats, &d, bins, &camera, BACKGROUND, Policy::ReuseDistance,
        );
        let config = RenderConfig { background: BACKGROUND, ..RenderConfig::default() };
        let sw = render_irss(&scene, &camera, &config).image;
        prop_assert!(
            pixel_bits(run.image.pixels()) == pixel_bits(sw.pixels()),
            "FP32 image differs from software IRSS ({})", at
        );
        prop_assert_eq!((run.instances, run.spans, run.fragments, run.tiles), counts);
    }
}
