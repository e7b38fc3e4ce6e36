//! Criterion micro-bench: Rendering Step ❷ — tile binning and the
//! (tile, depth) radix sort, serial vs. the parallel path.
//!
//! Covers the serial reference (`bin_splats`), the allocating pipeline
//! stage (`pipeline::bin_pooled`), the allocation-lean `bin_into` reuse
//! kernel on warm scratch (with and without Step ❶'s carried bounds),
//! and the radix sort alone in its serial and chunk-parallel forms.

use criterion::{criterion_group, criterion_main, Criterion};
use gbu_math::sort;
use gbu_math::Vec3;
use gbu_par::ThreadPool;
use gbu_render::{binning, pipeline, BinScratch};
use gbu_scene::synth::SceneBuilder;
use gbu_scene::Camera;

fn bench_binning(c: &mut Criterion) {
    let scene = SceneBuilder::new(11)
        .ellipsoid_cloud(Vec3::ZERO, Vec3::splat(1.0), 5000, Vec3::splat(0.5), 0.1)
        .build();
    let camera = Camera::orbit(320, 240, 0.9, Vec3::ZERO, 4.0, 0.0, 0.2);
    let pool = ThreadPool::new(4);
    let frame = pipeline::project_pooled(&pool, &scene, &camera);
    let splats = &frame.splats;

    let mut g = c.benchmark_group("binning");
    g.bench_function("bin_splats_5k_serial", |b| {
        b.iter(|| binning::bin_splats(splats, &camera, 16));
    });
    g.bench_function("bin_pooled_5k_4t", |b| {
        b.iter(|| pipeline::bin_pooled(&pool, &frame, 16));
    });
    for (name, bounds) in
        [("bin_into_5k_4t_reuse", Some(&frame.bounds)), ("bin_into_5k_4t_reuse_unbounded", None)]
    {
        g.bench_function(name, |b| {
            let mut scratch = BinScratch::new();
            let mut bins = binning::bin_splats(splats, &camera, 16).0;
            b.iter(|| {
                binning::bin_into(&pool, splats, bounds, &camera, 16, &mut scratch, &mut bins)
            });
        });
    }

    let pairs: Vec<(u64, u32)> =
        (0..100_000u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i as u32)).collect();
    g.bench_function("radix_sort_100k_serial", |b| {
        b.iter_batched(
            || pairs.clone(),
            |mut p| sort::radix_sort_pairs(&mut p),
            criterion::BatchSize::LargeInput,
        );
    });
    g.bench_function("radix_sort_100k_chunked_4t", |b| {
        let mut scratch = Vec::new();
        let mut hists = Vec::new();
        let mut units = vec![(); pool.threads().max(1)];
        let mut slots: Vec<()> = Vec::new();
        b.iter_batched(
            || pairs.clone(),
            |mut p| {
                let mut run = |_stage: &'static str, jobs: usize, job: &(dyn Fn(usize) + Sync)| {
                    slots.resize(jobs, ());
                    pool.for_each_mut_with(&mut units, &mut slots[..jobs], |_, i, _| job(i));
                };
                sort::radix_sort_pairs_chunked(&mut p, &mut scratch, &mut hists, 4096, &mut run)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_binning);
criterion_main!(benches);
