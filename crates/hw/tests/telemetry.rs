//! The device model under detail tracing: at `Verbosity::High`
//! (`GBU_TRACE=2`) a rendered frame and a cost-only frame each record one
//! `device_dnb`, one `device_cache` and one `device_tile_engine` wall
//! span, with the walk's `blend_row` jobs inside the last; none of them
//! below it, and tracing changes no pixel and no counter.

use gbu_hw::cache::Policy;
use gbu_hw::{dnb, GbuConfig, TileEngine};
use gbu_math::Vec3;
use gbu_render::binning::{self, TileBins};
use gbu_render::{preprocess, Splat2D};
use gbu_scene::{Camera, Gaussian3D, GaussianScene};
use gbu_telemetry::{set_global, Recorder, Trace, Verbosity};

const SPANS: [&str; 3] = ["device_dnb", "device_cache", "device_tile_engine"];

fn frame() -> (Vec<Splat2D>, TileBins, Camera) {
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
    (splats, bins, camera)
}

/// Runs `work` under a fresh global recorder at `verbosity` (disabled
/// when `None`), returning its result and the recorder's trace.
fn traced<T>(verbosity: Option<Verbosity>, work: impl FnOnce() -> T) -> (T, Trace) {
    let previous = set_global(verbosity.map_or_else(Recorder::disabled, Recorder::enabled));
    let out = work();
    let trace = gbu_telemetry::global().snapshot();
    set_global(previous);
    (out, trace)
}

/// The only test in this binary that touches the process-global
/// recorder, so no other test's spans leak into its snapshots.
#[test]
fn device_frames_are_traced_at_high_verbosity_only() {
    let (splats, bins, camera) = frame();
    for fp16_datapath in [true, false] {
        let engine = TileEngine::new(GbuConfig { fp16_datapath, ..GbuConfig::paper() });
        let d = || dnb::run(&splats, &bins, &engine.config);
        let bg = Vec3::splat(0.1);
        let render = || engine.render(&splats, &d(), &bins, &camera, bg, Policy::ReuseDistance);
        let cost = || engine.cost(&d(), &bins, &camera, Policy::ReuseDistance);
        let (baseline, _) = traced(None, render);
        let (baseline_cost, _) = traced(None, cost);

        for verbosity in [Verbosity::Normal, Verbosity::High] {
            let (run, run_trace) = traced(Some(verbosity), render);
            let (run_cost, cost_trace) = traced(Some(verbosity), cost);
            assert_eq!(run.image, baseline.image, "pixels changed under tracing");
            assert_eq!(
                (run.compute_cycles, run.rowgen_cycles, run.pe_busy_cycles),
                (baseline.compute_cycles, baseline.rowgen_cycles, baseline.pe_busy_cycles)
            );
            assert_eq!((run.cache, run.dram_bytes), (baseline.cache, baseline.dram_bytes));
            assert_eq!(
                (run.instances, run.spans, run.fragments, run.tiles),
                (baseline.instances, baseline.spans, baseline.fragments, baseline.tiles)
            );
            assert_eq!(run_cost, baseline_cost, "cost changed under tracing");

            for trace in [&run_trace, &cost_trace] {
                if verbosity == Verbosity::Normal {
                    for name in SPANS {
                        assert_eq!(trace.spans_named(name).count(), 0, "{name} below GBU_TRACE=2");
                    }
                    continue;
                }
                let one = |name: &str| {
                    let spans: Vec<_> = trace.spans_named(name).collect();
                    assert_eq!(spans.len(), 1, "expected exactly one {name} span");
                    spans[0]
                };
                let [dnb, cache, walk] = SPANS.map(one);
                assert!(dnb.end <= cache.start && cache.end <= walk.start, "D&B, cache, then walk");
                let rows: Vec<_> = trace.spans_named("blend_row").collect();
                assert_eq!(rows.len(), 4, "one job per tile row");
                for row in rows {
                    let inside = walk.start <= row.start && row.end <= walk.end;
                    assert!(inside, "blend_row outside device_tile_engine");
                }
                assert!(gbu_telemetry::validate(trace).is_ok(), "trace is not well-nested");
            }
        }
    }
}
