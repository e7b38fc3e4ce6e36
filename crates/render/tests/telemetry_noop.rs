//! Telemetry must be invisible to render results: running the full
//! pipeline with the global recorder at the highest verbosity (per-stage
//! spans, per-worker spans, per-job spans) changes no pixel and no
//! statistic relative to the disabled-recorder baseline — the tentpole
//! "observability is free when off, harmless when on" pin on the render
//! side. The same traced run pins the shape of the job spans the bench's
//! critical-path model reads.

use gbu_math::Vec3;
use gbu_render::{pipeline, preprocess, Dataflow, RenderConfig};
use gbu_scene::{Camera, Gaussian3D, GaussianScene};
use gbu_telemetry::{set_global, Recorder, Verbosity};

/// Enough splats to span several Step-❷ expansion batches.
fn scene_and_camera() -> (GaussianScene, Camera) {
    let scene: GaussianScene = (0..600)
        .map(|i| {
            let a = i as f32 * 0.7;
            Gaussian3D::isotropic(
                Vec3::new(a.cos() * 0.5, a.sin() * 0.4, 0.1 * (i % 5) as f32),
                0.06 + 0.01 * (i % 4) as f32,
                Vec3::new(0.2 + 0.1 * (i % 3) as f32, 0.6, 0.9 - 0.1 * (i % 7) as f32),
                0.85,
            )
        })
        .collect();
    let camera = Camera::orbit(160, 96, 1.0, Vec3::ZERO, 3.0, 0.4, 0.2);
    (scene, camera)
}

/// This is the ONLY test in this binary that touches the process-global
/// recorder, so the set/restore pair cannot race another test (recording
/// never changes render outputs, so concurrent tests would still pass —
/// but their spans would leak into this test's snapshot).
#[test]
fn high_verbosity_recording_is_bit_invisible_to_render() {
    let (scene, camera) = scene_and_camera();
    let cfg = RenderConfig { record_row_workload: true, ..RenderConfig::default() };

    for dataflow in [Dataflow::Pfs, Dataflow::Irss] {
        // Baseline: whatever the environment says (CI also runs this
        // suite with GBU_TRACE=1) — then explicitly disabled.
        let previous = set_global(Recorder::disabled());
        let baseline = pipeline::render(&scene, &camera, dataflow, &cfg);

        // Traced: a fresh recorder at High verbosity.
        set_global(Recorder::enabled(Verbosity::High));
        let traced = pipeline::render(&scene, &camera, dataflow, &cfg);
        let trace = gbu_telemetry::global().snapshot();
        set_global(previous);

        assert_eq!(traced.image, baseline.image, "pixels changed under tracing ({dataflow:?})");
        assert_eq!(traced.preprocess, baseline.preprocess, "Step-1 stats changed ({dataflow:?})");
        assert_eq!(traced.binning, baseline.binning, "Step-2 stats changed ({dataflow:?})");
        assert_eq!(traced.blend, baseline.blend, "Step-3 stats changed ({dataflow:?})");

        // The traced run actually produced the staged span tree.
        let one = |name: &str| {
            let spans: Vec<_> = trace.spans_named(name).collect();
            assert_eq!(spans.len(), 1, "expected exactly one {name} span ({dataflow:?})");
            spans[0]
        };
        let render = one("render");
        // Stage spans nest under the pipeline span and cover it.
        for stage in ["project", "bin", "blend"] {
            let span = one(stage);
            assert_eq!(span.parent, Some(render.id), "{stage} must nest under render");
            assert!(span.start >= render.start && span.end <= render.end);
        }
        let staged: u64 = ["project", "bin", "blend"].iter().map(|s| one(s).duration()).sum();
        assert!(staged <= render.duration(), "stage wall times exceed the enclosing pipeline span");
        assert!(gbu_telemetry::validate(&trace).is_ok(), "trace is not well-nested");

        // High verbosity records every pool job: one `blend_row` per
        // tile row in both dataflows, one `bin_expand_batch` and one
        // `bin_concat_batch` per splat batch, and a `radix_scatter`
        // stage span per executed sort pass.
        let count = |name: &str| trace.spans_named(name).count();
        let tile_rows = camera.height.div_ceil(cfg.tile_size);
        let mut rows: Vec<u32> =
            trace.spans_named("blend_row").map(|s| s.labels.row.unwrap()).collect();
        rows.sort_unstable();
        assert_eq!(
            rows,
            (0..tile_rows).collect::<Vec<_>>(),
            "one blend_row per tile row ({dataflow:?})"
        );
        let batches = (traced.preprocess.output_splats as usize).div_ceil(preprocess::BATCH_SPLATS);
        assert!(batches > 1, "the scene must span several expansion batches");
        assert_eq!(count("bin_expand_batch"), batches, "one expansion job per batch");
        assert_eq!(count("bin_concat_batch"), batches, "one concatenation copy per batch");
        assert_eq!(count("radix_scatter") as u32, traced.binning.sort_passes);
    }
}
