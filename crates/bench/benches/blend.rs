//! Criterion micro-bench: Step-❸ blending under the PFS and IRSS
//! dataflows on a fixed frame (the kernel behind Tab. V's first two rows),
//! and IRSS's kernel on the GBU Row PE's FP16 datapath beside its FP32 one.

use criterion::{criterion_group, criterion_main, Criterion};
use gbu_math::Vec3;
use gbu_render::{irss, pfs, pipeline, Dataflow, RenderConfig};
use gbu_scene::synth::SceneBuilder;
use gbu_scene::Camera;

fn bench_blend(c: &mut Criterion) {
    let scene = SceneBuilder::new(42)
        .ellipsoid_cloud(Vec3::ZERO, Vec3::splat(0.8), 2000, Vec3::new(0.7, 0.4, 0.3), 0.2)
        .build();
    let camera = Camera::orbit(256, 192, 0.9, Vec3::ZERO, 4.0, 0.3, 0.2);
    let cfg = RenderConfig::default();
    let frame = pipeline::project(&scene, &camera);
    let binned = pipeline::bin(&frame, cfg.tile_size);
    let (splats, bins) = (&frame.splats, &binned.bins);

    // The allocating pipeline stage on the global pool.
    let mut g = c.benchmark_group("blend");
    for dataflow in Dataflow::all() {
        g.bench_function(dataflow.label(), |b| {
            b.iter(|| pipeline::blend(&frame, &binned, dataflow, &cfg));
        });
    }

    // The allocation-free reuse kernels (`_into`) across thread counts —
    // the hot loop the device simulators and servers run.
    let isplats = irss::precompute_pooled(gbu_par::global(), splats);
    for threads in [1usize, 2, 4] {
        let pool = gbu_par::ThreadPool::new(threads);
        let mut image = gbu_render::FrameBuffer::new(camera.width, camera.height, cfg.background);
        let mut stats = gbu_render::stats::BlendStats::default();
        let mut scratch = gbu_render::BlendScratch::new();
        g.bench_function(format!("pfs_into_{threads}t"), |b| {
            b.iter(|| {
                pfs::blend_into(
                    &pool,
                    splats,
                    bins,
                    &camera,
                    &cfg,
                    &mut scratch,
                    &mut image,
                    &mut stats,
                )
            });
        });
        g.bench_function(format!("irss_into_{threads}t"), |b| {
            b.iter(|| {
                irss::blend_precomputed_into::<irss::Fp32>(
                    &pool,
                    &isplats,
                    bins,
                    &camera,
                    &cfg,
                    &mut scratch,
                    Some(&mut image),
                    &mut stats,
                    &mut (),
                )
            });
        });
        // The same kernel on the GBU Row PE's binary16 datapath: the
        // difference to `irss_into_*` is the cost of the FP16 rounding.
        g.bench_function(format!("irss_into_fp16_{threads}t"), |b| {
            b.iter(|| {
                irss::blend_precomputed_into::<irss::Fp16>(
                    &pool,
                    &isplats,
                    bins,
                    &camera,
                    &cfg,
                    &mut scratch,
                    Some(&mut image),
                    &mut stats,
                    &mut (),
                )
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_blend);
criterion_main!(benches);
