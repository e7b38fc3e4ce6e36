//! `device_ladder`: closed loop over the Listing-1 device API. Setup
//! takes one registry scene of each application kind through Steps ❶/❷
//! and `apps::measure_frame` (which also yields the Tab. V ablation
//! ladder); the timed loop submits the prepared frames round-robin
//! through `Gbu::render_image` + `Gbu::wait`.

use crate::report::{kept, kept_or_all, ms, Layer, Out};
use crate::stats::{self, Digest, Rng};
use crate::trace::{self, Global};
use gbu_core::apps::{measure_frame, FrameScenario};
use gbu_core::system::{self, Design, SystemConfig, SystemEvaluation};
use gbu_core::Gbu;
use gbu_hw::cache::Policy;
use gbu_hw::{dnb, GbuConfig, TileEngine};
use gbu_math::Vec3;
use gbu_render::binning::TileBins;
use gbu_render::{pipeline, Splat2D};
use gbu_scene::{Camera, DatasetScene, ScaleProfile};
use gbu_telemetry::Recorder;
use std::hint::black_box;
use std::time::Instant;

/// One static, one dynamic and one avatar scene of the registry.
const SCENES: [&str; 3] = ["counter", "flame_steak", "male-3"];

/// Per-layer metric name of each Tab. V rung, in ladder order.
const RUNGS: [&str; 5] = [
    "core.ladder_fps.gpu_pfs",
    "core.ladder_fps.gpu_irss",
    "core.ladder_fps.gbu_tile_engine",
    "core.ladder_fps.gbu_dnb",
    "core.ladder_fps.gbu_full",
];

/// A frame prepared through Steps ❶/❷, ready for `GBU_render_image`.
#[derive(Debug)]
struct Frame {
    name: &'static str,
    splats: Vec<Splat2D>,
    bins: TileBins,
    camera: Camera,
}

/// Prepared frames plus each scene's evaluated ablation ladder.
#[derive(Debug)]
pub struct Ladder {
    frames: Vec<Frame>,
    ladders: Vec<Vec<SystemEvaluation>>,
    /// Scene construction time (Step-❶ application work included).
    pub build_ms: f64,
}

/// Builds and measures the three scenes at `profile`. The seed nudges
/// each camera's distance by up to ±3% so seeds differ slightly.
pub fn setup(seed: u64, profile: ScaleProfile) -> Ladder {
    let gbu = GbuConfig::paper();
    let sys = SystemConfig::default();
    let mut rng = Rng::new(seed, 2);
    let mut build_ms = 0.0;
    let mut frames = Vec::new();
    let mut ladders = Vec::new();
    for name in SCENES {
        let ds = DatasetScene::by_name(name).expect("registry scene");
        let t0 = Instant::now();
        let mut scenario = FrameScenario::from_dataset(&ds, profile);
        build_ms += ms(t0, Instant::now());
        let center = scenario.scene.centroid().unwrap_or(Vec3::ZERO);
        let factor = rng.range(0.97, 1.03) as f32;
        scenario.camera = scenario.camera.with_distance_scaled(center, factor);
        let measured = measure_frame(&scenario, &gbu, scenario.paper_scale(&ds));
        ladders.push(system::evaluate_ladder(&sys, &measured.measurement));
        let projected = pipeline::project(&scenario.scene, &scenario.camera);
        let binned = pipeline::bin(&projected, 16);
        frames.push(Frame {
            name,
            splats: projected.splats,
            bins: binned.bins,
            camera: scenario.camera,
        });
    }
    Ladder { frames, ladders, build_ms }
}

/// The device loop in progress.
pub struct Run<'l> {
    ladder: &'l Ladder,
    cfg: GbuConfig,
    engine: TileEngine,
    gbu: Gbu,
    recorder: Recorder,
    out: Out,
    digest: Digest,
    device: Vec<f64>,
    /// `(operation, ms)` of the direct re-runs of traced frames.
    dnb_ms: Vec<(usize, f64)>,
    tile_ms: Vec<(usize, f64)>,
    /// Per-frame means over the first round of the simulated counters.
    sim: [f64; 7],
    i: usize,
}

impl<'l> Run<'l> {
    /// Starts submitting at the first prepared frame.
    pub fn new(ladder: &'l Ladder, traced: bool) -> Self {
        let cfg = GbuConfig::paper();
        Self {
            ladder,
            engine: TileEngine::new(cfg.clone()),
            gbu: Gbu::new(cfg.clone()),
            cfg,
            recorder: trace::recorder(traced),
            out: Out::default(),
            digest: Digest::default(),
            device: vec![],
            dnb_ms: vec![],
            tile_ms: vec![],
            sim: [0.0; 7],
            i: 0,
        }
    }
}

/// Submits frames round-robin. The first round is checked against a
/// direct `dnb::run` + `TileEngine::render`; traced frames are also
/// re-run directly under the benchmark's timers.
impl Layer for Run<'_> {
    fn op(&mut self, traced: bool) -> f64 {
        let n = self.ladder.frames.len();
        let (f, cfg) = (&self.ladder.frames[self.i % n], &self.cfg);
        let global = Global::install(&self.recorder, traced);
        let t0 = Instant::now();
        self.gbu.render_image(&f.splats, &f.bins, &f.camera, Vec3::ZERO).expect("device is idle");
        let occupancy = self.gbu.in_flight_occupancy().expect("frame in flight");
        let dram = self.gbu.in_flight_dram_bytes().expect("frame in flight");
        let done = self.gbu.wait().expect("frame in flight");
        let t1 = Instant::now();
        black_box(&done);
        self.device.push(ms(t0, t1));
        if traced || self.i < n {
            let t2 = Instant::now();
            let d = dnb::run(&f.splats, &f.bins, cfg);
            let t3 = Instant::now();
            let direct = self.engine.render(
                &f.splats,
                &d,
                &f.bins,
                &f.camera,
                Vec3::ZERO,
                Policy::ReuseDistance,
            );
            let t4 = Instant::now();
            if traced {
                self.dnb_ms.push((self.i, ms(t2, t3)));
                self.tile_ms.push((self.i, ms(t3, t4)));
            }
            if self.i < n {
                let r = &done.run;
                if occupancy != d.cycles.max(direct.compute_cycles)
                    || dram != direct.dram_bytes
                    || r.compute_cycles != direct.compute_cycles
                    || r.dram_bytes != direct.dram_bytes
                    || stats::frame_hash(&done.image) != stats::frame_hash(&direct.image)
                {
                    self.out.fail(format!(
                        "device frame {}: differs from direct dnb::run + TileEngine::render",
                        f.name
                    ));
                }
                self.digest.frame(&done.image);
                for w in [
                    occupancy,
                    d.cycles,
                    r.compute_cycles,
                    r.rowgen_cycles,
                    r.pe_busy_cycles,
                    r.cache.accesses,
                    r.cache.hits,
                    r.cache.misses,
                    r.dram_bytes,
                    r.instances,
                    r.spans,
                    r.fragments,
                    r.tiles,
                ] {
                    self.digest.word(w);
                }
                let row = [
                    d.cycles as f64,
                    r.compute_cycles as f64,
                    occupancy as f64,
                    f64::from(u8::from(d.cycles >= r.compute_cycles)),
                    r.dram_bytes as f64,
                    r.cache.hit_rate(),
                    r.pe_utilization(cfg),
                ];
                for (acc, v) in self.sim.iter_mut().zip(row) {
                    *acc += v / n as f64;
                }
            }
        }
        drop(global);
        self.i += 1;
        (t1 - t0).as_secs_f64()
    }

    fn min_ops(&self) -> usize {
        self.ladder.frames.len()
    }

    fn finish(self: Box<Self>, keep: &[bool]) -> Out {
        let Run { ladder, mut out, mut digest, device, dnb_ms, tile_ms, sim, i, .. } = *self;
        let device = kept(&device, keep);
        let (dnb_ms, tile_ms) = (kept_or_all(&dnb_ms, keep), kept_or_all(&tile_ms, keep));
        let n = ladder.frames.len();
        out.attempted = i as u64;
        let rung = |k: usize, f: &dyn Fn(&SystemEvaluation) -> f64| {
            stats::geo_mean(&ladder.ladders.iter().map(|l| f(&l[k])).collect::<Vec<_>>())
        };
        let fps: Vec<f64> = (0..RUNGS.len()).map(|k| rung(k, &|e| e.fps)).collect();
        if !fps.windows(2).all(|w| w[0] < w[1]) {
            out.fail(format!("ladder rungs are not strictly ordered: {fps:?}"));
        }
        let eff = stats::geo_mean(
            &ladder.ladders.iter().map(|l| l[0].energy_j / l[4].energy_j).collect::<Vec<_>>(),
        );
        for v in fps.iter().chain([&eff]) {
            digest.f64(*v);
        }
        out.failed = out.problems.len() as u64;
        out.digest = digest.hex();

        let scenes = format!("geo-mean over {n} scenes");
        out.e2e.median("device_frame_ms_p50", &device);
        out.e2e.pct("device_frame_ms_p95", stats::tail(&device, 95));
        out.e2e.note("ladder_fps_gbu_full", fps[4], scenes.clone());
        let base = Design::GpuPfs.label();
        out.e2e.note("ladder_energy_eff_gbu_full", eff, format!("vs {base}, {scenes}"));

        let l = &mut out.layer;
        if !dnb_ms.is_empty() {
            l.median("hw.dnb_ms", &dnb_ms);
            l.median("hw.tile_engine_ms", &tile_ms);
            let residual =
                stats::median(&device) - stats::median(&dnb_ms) - stats::median(&tile_ms);
            l.note("core.device_residual_ms", residual, "device p50 - dnb p50 - tile p50".into());
        }
        let note = || format!("mean per frame over {n} scenes");
        for (k, name) in [
            "hw.dnb_cycles",
            "hw.tile_pe_cycles",
            "hw.occupancy_cycles",
            "hw.dnb_bound_frac",
            "hw.dram_bytes",
            "hw.cache_hit_rate",
            "hw.pe_utilization",
        ]
        .into_iter()
        .enumerate()
        {
            l.note(name, sim[k], note());
        }
        for (k, name) in ["gpu.step1_ms", "gpu.step2_ms", "gpu.step3_ms"].into_iter().enumerate() {
            let v = rung(4, &|e| [e.step1, e.step2, e.step3][k] * 1e3);
            l.note(name, v, format!("{}, {scenes}", Design::GbuFull.label()));
        }
        for (k, name) in RUNGS.into_iter().enumerate() {
            l.note(name, fps[k], format!("{}, {scenes}", Design::ladder()[k].label()));
        }
        out
    }
}
