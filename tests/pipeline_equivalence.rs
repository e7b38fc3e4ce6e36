//! Cross-crate integration: the three implementations of Rendering Step ❸
//! (reference PFS, software IRSS, GBU tile engine in FP32) must produce
//! the same image on every application type — the FP32 tile engine and
//! software IRSS bit for bit — and the FP16 GBU datapath must stay
//! within Tab. IV's quality envelope.

use gbu_hw::cache::Policy;
use gbu_hw::{dnb, GbuConfig, TileEngine};
use gbu_math::Vec3;
use gbu_render::{
    binning, metrics, preprocess, render_irss, render_pfs, FrameBuffer, RenderConfig,
};
use gbu_scene::{Camera, DatasetScene, GaussianScene, ScaleProfile};

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
