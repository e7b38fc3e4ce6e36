//! The device model under detail tracing: `TileEngine::render` records
//! its cost pass and its pixel pass as one `device_cost` and one
//! `device_pixels` wall span at `Verbosity::High` (`GBU_TRACE=2`), none
//! below it, and tracing changes no pixel and no counter.

use gbu_hw::cache::Policy;
use gbu_hw::{dnb, GbuConfig, GbuRunResult, TileEngine};
use gbu_math::Vec3;
use gbu_render::{binning, preprocess};
use gbu_scene::{Camera, Gaussian3D, GaussianScene};
use gbu_telemetry::{set_global, Recorder, Verbosity};

fn render(engine: &TileEngine) -> GbuRunResult {
    let scene: GaussianScene = (0..120)
        .map(|i| {
            let a = i as f32 * 0.47;
            let mean = Vec3::new(a.cos() * 0.7, (a * 1.3).sin() * 0.4, a.sin() * 0.6);
            Gaussian3D::isotropic(mean, 0.05, Vec3::new(0.8, 0.4, 0.2), 0.7)
        })
        .collect();
    let camera = Camera::orbit(96, 64, 1.0, Vec3::ZERO, 3.0, 0.5, 0.2);
    let (splats, _) = preprocess::project_scene(&scene, &camera);
    let (bins, _) = binning::bin_splats(&splats, &camera, 16);
    let d = dnb::run(&splats, &bins, &engine.config);
    engine.render(&splats, &d, &bins, &camera, Vec3::splat(0.1), Policy::ReuseDistance)
}

/// The only test in this binary that touches the process-global
/// recorder, so no other test's spans leak into its snapshots.
#[test]
fn device_passes_are_traced_at_high_verbosity_only() {
    for fp16_datapath in [true, false] {
        let engine = TileEngine::new(GbuConfig { fp16_datapath, ..GbuConfig::paper() });
        let previous = set_global(Recorder::disabled());
        let baseline = render(&engine);

        set_global(Recorder::enabled(Verbosity::Normal));
        let normal = render(&engine);
        let normal_trace = gbu_telemetry::global().snapshot();
        set_global(Recorder::enabled(Verbosity::High));
        let high = render(&engine);
        let high_trace = gbu_telemetry::global().snapshot();
        set_global(previous);

        for traced in [&normal, &high] {
            assert_eq!(traced.image, baseline.image, "pixels changed under tracing");
            assert_eq!(
                (traced.compute_cycles, traced.rowgen_cycles, traced.pe_busy_cycles),
                (baseline.compute_cycles, baseline.rowgen_cycles, baseline.pe_busy_cycles)
            );
            assert_eq!((traced.cache, traced.dram_bytes), (baseline.cache, baseline.dram_bytes));
            assert_eq!(
                (traced.instances, traced.spans, traced.fragments, traced.tiles),
                (baseline.instances, baseline.spans, baseline.fragments, baseline.tiles)
            );
        }

        for name in ["device_cost", "device_pixels"] {
            assert_eq!(normal_trace.spans_named(name).count(), 0, "{name} below GBU_TRACE=2");
        }
        let one = |name: &str| {
            let spans: Vec<_> = high_trace.spans_named(name).collect();
            assert_eq!(spans.len(), 1, "expected exactly one {name} span");
            spans[0]
        };
        let (cost, pixels) = (one("device_cost"), one("device_pixels"));
        assert!(cost.end <= pixels.start, "the cost pass runs before the pixel pass");
        assert_eq!(high_trace.spans_named("blend_row").count(), 4, "one job per tile row");
        assert!(gbu_telemetry::validate(&high_trace).is_ok(), "trace is not well-nested");
    }
}
