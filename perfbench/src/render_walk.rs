//! `render_walk`: one AR/VR client walking head poses over a large
//! static scene, closed loop. Every pose runs Step ❶ `project`, Step ❷
//! `bin_cached` (one `BinCache` for the whole walk) and Step ❸ `blend`
//! once per dataflow. Small steps keep the incremental re-binner busy; a
//! periodic cut to a distant pose forces cold binning.

use crate::report::{kept, ms, Layer, Out};
use crate::stats::{self, Digest, Rng};
use crate::trace::{self, Global};
use gbu_math::Vec3;
use gbu_par::ThreadPool;
use gbu_render::pipeline::{self, BinnedFrame, Dataflow, ProjectedFrame};
use gbu_render::stats::BlendStats;
use gbu_render::{BinCache, FrameBuffer, RenderConfig};
use gbu_scene::synth::SceneBuilder;
use gbu_scene::{Camera, GaussianScene};
use gbu_telemetry::{Domain, Recorder, TraceSummary};
use std::hint::black_box;
use std::time::Instant;

/// Scene and walk dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Gaussians in the scene.
    pub gaussians: usize,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// A cut to a distant pose every this many poses.
    pub cut_every: usize,
    /// Leading poses every run renders and digests.
    pub digest_poses: usize,
}

/// The workload proper: about the size of `BENCH_render.json`'s `large`.
pub const PRIMARY: Size =
    Size { gaussians: 12_000, width: 896, height: 512, cut_every: 16, digest_poses: 48 };

/// The small size the other workloads run this layer at (a companion).
pub const COMPANION: Size =
    Size { gaussians: 1_500, width: 256, height: 160, cut_every: 8, digest_poses: 24 };

/// Orbit geometry shared by every pose.
const RADIUS: f32 = 3.4;
const FOV_Y: f32 = 0.9;

/// A built walk: the scene plus the seed its poses derive from. The
/// scene itself is the same for every seed, so seeds vary the path, not
/// the amount of work per pose.
#[derive(Debug)]
pub struct Walk {
    size: Size,
    seed: u64,
    scene: GaussianScene,
    /// Scene construction time.
    pub build_ms: f64,
}

/// Builds the scene for a walk seeded with `seed`.
pub fn setup(seed: u64, size: Size) -> Walk {
    let t0 = Instant::now();
    let n = size.gaussians;
    let scene = SceneBuilder::new(97)
        .ellipsoid_cloud(
            Vec3::ZERO,
            Vec3::new(0.9, 0.7, 0.9),
            n * 3 / 4,
            Vec3::new(0.7, 0.5, 0.3),
            0.25,
        )
        .sphere_shell(Vec3::ZERO, 1.2, n - n * 3 / 4, Vec3::new(0.3, 0.4, 0.6))
        .build();
    Walk { size, seed, scene, build_ms: ms(t0, Instant::now()) }
}

/// The seeded head-pose stream: small yaw/pitch steps, with a jump to a
/// distant pose every `cut_every` poses.
struct Poses {
    rng: Rng,
    yaw: f64,
    pitch: f64,
    index: usize,
    cut_every: usize,
}

impl Poses {
    fn new(seed: u64, cut_every: usize) -> Self {
        let mut rng = Rng::new(seed, 1);
        let yaw = rng.range(0.0, std::f64::consts::TAU);
        Self { rng, yaw, pitch: 0.2, index: 0, cut_every }
    }

    fn next(&mut self, size: Size) -> Camera {
        if self.index > 0 && self.index.is_multiple_of(self.cut_every) {
            self.yaw += self.rng.range(1.8, 3.2);
            self.pitch = self.rng.range(0.15, 0.3);
        } else if self.index > 0 {
            // Well inside `BinCacheConfig::max_camera_delta`.
            self.yaw += self.rng.range(0.004, 0.010);
            self.pitch = (self.pitch + self.rng.range(-0.003, 0.003)).clamp(0.1, 0.35);
        }
        self.index += 1;
        Camera::orbit(
            size.width,
            size.height,
            FOV_Y,
            Vec3::ZERO,
            RADIUS,
            self.yaw as f32,
            self.pitch as f32,
        )
    }
}

/// Poses whose outputs are re-derived by the serial oracle: cold, first
/// incremental, cold after a cut and incremental after a cut.
fn checked(size: Size, i: usize) -> bool {
    i == 0 || i == 1 || i == size.cut_every || i == size.cut_every + 1
}

fn same_bins(a: &BinnedFrame, b: &BinnedFrame) -> bool {
    a.bins.offsets == b.bins.offsets
        && a.bins.entries == b.bins.entries
        && a.stats.instances == b.stats.instances
        && a.stats.occupied_tiles == b.stats.occupied_tiles
        && a.stats.total_tiles == b.stats.total_tiles
}

/// Deterministic counts over the digest prefix.
#[derive(Default)]
struct Counts {
    poses: f64,
    splats: f64,
    input: f64,
    culled: f64,
    pairs: f64,
    cold_bins: f64,
    sort_passes: f64,
    hits: f64,
    irss: BlendStats,
    pfs: BlendStats,
}

/// The walk in progress: one `BinCache` for the whole walk, per-call
/// timers, and the deterministic record of the digest prefix.
pub struct Run<'w> {
    walk: &'w Walk,
    cfg: RenderConfig,
    /// The pools the checked poses are re-derived on: one worker (the
    /// oracle) and two, so the check covers the parallel split that the
    /// one-worker timed path never takes.
    pools: [ThreadPool; 2],
    cache: BinCache,
    poses: Poses,
    recorder: Recorder,
    out: Out,
    digest: Digest,
    counts: Counts,
    proj: Vec<f64>,
    bin: Vec<f64>,
    irss: Vec<f64>,
    pfs: Vec<f64>,
    /// Benchmark-timer totals of the traced poses' project, bin and
    /// blend calls, to reconcile with the recorder's spans.
    traced_ms: [f64; 3],
    i: usize,
}

impl<'w> Run<'w> {
    /// Starts the walk at its first pose; `traced` enables a recorder
    /// for the poses the runner traces.
    pub fn new(walk: &'w Walk, traced: bool) -> Self {
        Self {
            walk,
            cfg: RenderConfig::default(),
            pools: [ThreadPool::new(1), ThreadPool::new(2)],
            cache: BinCache::default(),
            poses: Poses::new(walk.seed, walk.size.cut_every),
            recorder: trace::recorder(traced),
            out: Out::default(),
            digest: Digest::default(),
            counts: Counts::default(),
            proj: vec![],
            bin: vec![],
            irss: vec![],
            pfs: vec![],
            traced_ms: [0.0; 3],
            i: 0,
        }
    }
}

impl Layer for Run<'_> {
    fn op(&mut self, traced: bool) -> f64 {
        let (size, cfg, i) = (self.walk.size, &self.cfg, self.i);
        let cam = self.poses.next(size);
        let hits_before = self.cache.stats().hits;
        let global = Global::install(&self.recorder, traced);
        let t0 = Instant::now();
        let projected = pipeline::project(&self.walk.scene, &cam);
        let t1 = Instant::now();
        let binned = pipeline::bin_cached(&mut self.cache, &projected, cfg.tile_size);
        let t2 = Instant::now();
        let (irss_img, irss_st) = pipeline::blend(&projected, &binned, Dataflow::Irss, cfg);
        let t3 = Instant::now();
        let (pfs_img, pfs_st) = pipeline::blend(&projected, &binned, Dataflow::Pfs, cfg);
        let t4 = Instant::now();
        drop(global);
        black_box((&irss_img, &pfs_img));
        self.proj.push(ms(t0, t1));
        self.bin.push(ms(t1, t2));
        self.irss.push(ms(t2, t3));
        self.pfs.push(ms(t3, t4));
        if traced {
            for (acc, v) in self.traced_ms.iter_mut().zip([ms(t0, t1), ms(t1, t2), ms(t2, t4)]) {
                *acc += v;
            }
        }
        let hit = self.cache.stats().hits > hits_before;
        if i < size.digest_poses {
            for fb in [&irss_img, &pfs_img] {
                self.digest.frame(fb);
            }
            let stats = format!("{:?}{:?}{irss_st:?}{pfs_st:?}", projected.stats, binned.stats);
            self.digest.bytes(stats.as_bytes());
            self.counts.add(&projected, &binned, hit, &irss_st, &pfs_st);
        }
        if checked(size, i) {
            self.check(i, &cam, &projected, &binned, [(&irss_img, &irss_st), (&pfs_img, &pfs_st)]);
        }
        self.i += 1;
        (t4 - t0).as_secs_f64()
    }

    fn min_ops(&self) -> usize {
        self.walk.size.digest_poses
    }

    fn finish(self: Box<Self>, keep: &[bool]) -> Out {
        let Run { mut out, proj, bin, irss, pfs, counts, digest, recorder, traced_ms, i, .. } =
            *self;
        let (proj, bin, irss, pfs) =
            (kept(&proj, keep), kept(&bin, keep), kept(&irss, keep), kept(&pfs, keep));
        out.attempted = i as u64;
        out.failed = out.problems.len() as u64;
        out.digest = digest.hex();

        let frame = |blend: &[f64]| -> Vec<f64> {
            proj.iter().zip(&bin).zip(blend).map(|((p, b), x)| p + b + x).collect()
        };
        let (irss_frame, pfs_frame) = (frame(&irss), frame(&pfs));
        out.e2e.median("irss_frame_ms_p50", &irss_frame);
        out.e2e.pct("irss_frame_ms_p95", stats::tail(&irss_frame, 95));
        out.e2e.median("pfs_frame_ms_p50", &pfs_frame);
        out.e2e.pct("pfs_frame_ms_p95", stats::tail(&pfs_frame, 95));

        let l = &mut out.layer;
        l.median("render.project_ms", &proj);
        l.median("render.bin_ms", &bin);
        l.median("render.blend_irss_ms", &irss);
        l.median("render.blend_pfs_ms", &pfs);
        counts.report(l);
        l.put("par.threads", gbu_par::global().threads() as f64);

        if recorder.is_enabled() {
            fold_trace(&mut out, &recorder.snapshot(), traced_ms);
        }
        out
    }
}

/// Per-layer metrics from the render spans, after checking that they
/// agree with the benchmark's own timers around the same calls.
fn fold_trace(out: &mut Out, t: &gbu_telemetry::Trace, outside: [f64; 3]) {
    let sum = TraceSummary::from_trace(t);
    let wall = |name| trace::stage(&sum, name, Domain::Wall);
    let (n_proj, proj_span, proj_mean) = wall("project");
    let (n_bin, bin_span, bin_mean) = wall("bin");
    let (n_blend, blend_span, blend_mean) = wall("blend");
    for ((stage, span, calls), outside) in
        [("project", proj_span, n_proj), ("bin", bin_span, n_bin), ("blend", blend_span, n_blend)]
            .into_iter()
            .zip(outside)
    {
        if !trace::reconciles(outside, span, calls) {
            out.fail(format!(
                "render {stage}: benchmark timers {outside:.3} ms vs recorder spans {span:.3} ms \
                 over {calls} calls"
            ));
        }
    }
    let l = &mut out.layer;
    l.note("trace.project_ms", proj_mean, format!("mean of {n_proj} spans"));
    l.note("trace.bin_ms", bin_mean, format!("mean of {n_bin} spans"));
    let bin_self = trace::self_time(t, "bin") as f64 * 1e-6;
    l.note("trace.bin_self_ms", bin_self / n_bin.max(1) as f64, "span minus children".into());
    for (name, stage) in [
        ("render.bin_expand_ms", "bin_expand"),
        ("render.bin_sort_ms", "bin_sort"),
        ("render.incremental_rebin_ms", "rebin_incremental"),
    ] {
        let (n, _, mean) = wall(stage);
        l.note(name, mean, format!("mean of {n} spans"));
    }
    l.note("trace.blend_ms", blend_mean, format!("mean of {n_blend} spans"));
    let share = blend_span / (proj_span + bin_span + blend_span);
    l.note("trace.blend_share_frac", share, "blend / (project + bin + blend) span time".into());
    l.put("counter.bin_cache.hits", trace::counter(t, "bin_cache.hits"));
    l.put("counter.bin_cache.misses", trace::counter(t, "bin_cache.misses"));
    out.info.push(format!(
        "render trace: blend is {:.1}% of project+bin+blend span time over {n_proj} traced poses",
        share * 100.0
    ));
}

impl Counts {
    fn add(
        &mut self,
        projected: &ProjectedFrame,
        binned: &BinnedFrame,
        hit: bool,
        irss: &BlendStats,
        pfs: &BlendStats,
    ) {
        let p = &projected.stats;
        self.poses += 1.0;
        self.splats += p.output_splats as f64;
        self.input += p.input_gaussians as f64;
        self.culled += (p.culled_frustum + p.culled_opacity) as f64;
        self.pairs += binned.stats.instances as f64;
        if hit {
            self.hits += 1.0;
        } else {
            self.cold_bins += 1.0;
            self.sort_passes += f64::from(binned.stats.sort_passes);
        }
        gbu_render::stats::accumulate(&mut self.irss, irss);
        gbu_render::stats::accumulate(&mut self.pfs, pfs);
    }

    fn report(&self, l: &mut crate::report::Sink) {
        let per_pose = |v: f64| v / self.poses;
        let note = || format!("over the first {} poses", self.poses);
        l.note("render.splats", per_pose(self.splats), note());
        l.note("render.culled_frac", self.culled / self.input, note());
        l.note("render.pairs", per_pose(self.pairs), note());
        l.note(
            "render.sort_passes",
            self.sort_passes / self.cold_bins.max(1.0),
            "per cold bin".into(),
        );
        l.note("render.bincache_hit_frac", self.hits / self.poses, note());
        l.note(
            "render.irss.fragments_evaluated",
            per_pose(self.irss.fragments_evaluated as f64),
            note(),
        );
        l.note(
            "render.pfs.fragments_evaluated",
            per_pose(self.pfs.fragments_evaluated as f64),
            note(),
        );
        l.note("render.irss.significant_frac", self.irss.significant_fraction(), note());
        l.note("render.pfs.significant_frac", self.pfs.significant_fraction(), note());
        let rows = self.irss.rows_skipped as f64 / self.irss.rows_considered.max(1) as f64;
        l.note("render.irss.rows_skipped_frac", rows, note());
    }
}

impl Run<'_> {
    /// Re-derives pose `i` through the `_pooled` entry points on a
    /// one-thread oracle pool and on a two-thread pool, and demands both
    /// byte-identical to the timed output; also demands the cached bins
    /// equal cold binning.
    fn check(
        &mut self,
        i: usize,
        cam: &Camera,
        projected: &ProjectedFrame,
        binned: &BinnedFrame,
        blends: [(&FrameBuffer, &BlendStats); 2],
    ) {
        let (out, walk) = (&mut self.out, self.walk);
        let cfg = RenderConfig::default();
        let cold = pipeline::bin(projected, cfg.tile_size);
        if !same_bins(binned, &cold) {
            out.fail(format!("render pose {i}: cached bins differ from cold pipeline::bin"));
        }
        for pool in &self.pools {
            let n = pool.threads();
            let p = pipeline::project_pooled(pool, &walk.scene, cam);
            let b = pipeline::bin_pooled(pool, &p, cfg.tile_size);
            if p.splats != projected.splats || p.stats != projected.stats {
                out.fail(format!("render pose {i}: projection on {n} threads differs"));
            }
            if !same_bins(&b, &cold) || b.stats != cold.stats {
                out.fail(format!("render pose {i}: bins on {n} threads differ"));
            }
            for (df, (img, st)) in [Dataflow::Irss, Dataflow::Pfs].into_iter().zip(blends) {
                let (ref_img, ref_st) = pipeline::blend_pooled(pool, &p, &b, df, &cfg);
                if stats::frame_hash(&ref_img) != stats::frame_hash(img) || ref_st != *st {
                    out.fail(format!(
                        "render pose {i}: {} blend on {n} threads differs",
                        df.label()
                    ));
                }
            }
        }
    }
}
