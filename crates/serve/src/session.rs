//! Sessions: per-client scene content, camera stream and QoS target.
//!
//! A [`Session`] is one AR/VR client being served: it owns a prepared
//! scene (static, dynamic or avatar — resolved through the same Step-❶
//! machinery as `gbu_core::apps`), a short orbit of preprocessed
//! viewpoints standing in for the client's head-pose stream, and a
//! [`QosTarget`] fixing the frame cadence and deadline.
//!
//! Preparation runs Rendering Steps ❶/❷ (projection + binning) once per
//! viewpoint, exactly what the host GPU would hand the GBU each frame,
//! and prices each viewpoint once ([`PreparedView::occupancy`]); serving
//! then replays the viewpoints round-robin, so the steady-state
//! per-frame work the scheduler sees is the paper's Step ❸. Every
//! session is prepared through a [`SceneStore`], shared or private.

use crate::backend::ExecMode;
use crate::store::SceneStore;
use gbu_core::apps::FrameScenario;
use gbu_hw::cache::Policy;
use gbu_hw::{dnb, GbuConfig, TileEngine};
use gbu_math::Vec3;
use gbu_render::binning::TileBins;
use gbu_render::{contrib, pipeline, QualityLevel, Splat2D};
use gbu_scene::synth::SceneBuilder;
use gbu_scene::{Camera, DatasetScene, GaussianScene, ScaleProfile};
use std::sync::{Arc, Mutex};

/// A frame-rate / deadline class (the refresh rates AR/VR runtimes pin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosTarget {
    /// Target refresh rate in Hz; one frame is due every `1/hz` seconds
    /// and must complete within that period.
    pub hz: f64,
}

impl QosTarget {
    /// 60 Hz — hand-held AR.
    pub const AR_60: QosTarget = QosTarget { hz: 60.0 };
    /// 72 Hz — standalone VR headsets.
    pub const VR_72: QosTarget = QosTarget { hz: 72.0 };
    /// 90 Hz — tethered/high-end VR.
    pub const VR_90: QosTarget = QosTarget { hz: 90.0 };

    /// The frame period in device cycles at the given GBU clock.
    pub fn period_cycles(&self, clock_ghz: f64) -> u64 {
        ((clock_ghz * 1e9) / self.hz).round().max(1.0) as u64
    }
}

/// What a session renders.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionContent {
    /// A procedurally generated static cloud (cheap; used by tests and
    /// synthetic sweeps). `gaussians` controls how heavy the session is.
    Synthetic {
        /// Scene seed.
        seed: u64,
        /// Number of Gaussians.
        gaussians: usize,
    },
    /// [`SessionContent::Synthetic`] at an explicit resolution — heavy
    /// enough (many tile rows) that sharded execution has planning
    /// freedom; the cluster sweeps and examples use this.
    SyntheticHd {
        /// Scene seed.
        seed: u64,
        /// Number of Gaussians.
        gaussians: usize,
        /// Frame width in pixels.
        width: u32,
        /// Frame height in pixels.
        height: u32,
    },
    /// A registry scene (static / dynamic / avatar) resolved through
    /// `gbu_core::apps::FrameScenario` at the given profile.
    Dataset {
        /// Registry name (`DatasetScene::by_name`).
        name: &'static str,
        /// Scale profile for the build.
        profile: ScaleProfile,
    },
}

/// Declarative description of one session, turned into a [`Session`] by
/// [`Session::prepare`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Display name (unique within a workload).
    pub name: String,
    /// Scene content.
    pub content: SessionContent,
    /// Frame cadence and deadline class.
    pub qos: QosTarget,
    /// Number of frames the client will request.
    pub frames: u32,
    /// Arrival phase as a fraction of this session's frame period in
    /// `[0, 1)` — staggers clients so they don't all hit the queue on the
    /// same cycle. The engine converts it to cycles once the clock (and
    /// hence the period) is fixed at run time.
    pub phase: f64,
    /// How this session's frames execute on the engine's backend:
    /// [`ExecMode::Unsharded`] (any backend) or [`ExecMode::Sharded`]
    /// (cluster backends only — the frame fans over that many lanes).
    /// Sessions of different modes coexist on one engine clock.
    ///
    /// Under fleet control with migration enabled, unsharded sessions
    /// also get a *home lane* (a soft affinity the dispatcher prefers);
    /// the controller re-homes them off dying or retiring lanes and
    /// emits a `SessionMigrated` event per move. Sharded sessions have
    /// no single home — their frames already span lanes.
    pub exec: ExecMode,
}

/// Size of the Step-❶/❷ preprocessing work that produced a
/// [`PreparedView`] — what the host-GPU cost model
/// ([`crate::engine::PrepConfig`]) charges per dispatched frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ViewPrepStats {
    /// Gaussians projected in Step ❶ (the full scene, pre-culling).
    pub gaussians: u64,
    /// (splat, tile) instances emitted and sorted in Step ❷.
    pub instances: u64,
    /// Radix-sort passes Step ❷ executed.
    pub sort_passes: u32,
}

/// A preprocessed viewpoint: the outputs of Rendering Steps ❶/❷ that the
/// host GPU hands to `GBU_render_image`, and the one price of them that
/// calibration, admission, the drop pass and the quality governor read.
#[derive(Debug)]
pub struct PreparedView {
    /// Projected, depth-sorted splats.
    pub splats: Vec<Splat2D>,
    /// Per-tile instance lists.
    pub bins: TileBins,
    /// The camera of this viewpoint.
    pub camera: Camera,
    /// Size of the preprocessing work that built this view.
    pub prep: ViewPrepStats,
    /// Device-occupancy cycles — max(D&B, Tile PE), exactly what
    /// `GBU_render_image` schedules — probed once by [`PreparedView::new`].
    pub occupancy: u64,
    /// The GBU configuration `occupancy` (and every sibling's) was
    /// measured under.
    pub gbu: GbuConfig,
    /// Degraded siblings built so far, one per [`QualityLevel`].
    degraded: Mutex<Vec<(QualityLevel, Arc<PreparedView>)>>,
}

impl PreparedView {
    /// Wraps Step-❶/❷ artifacts as a view and probes its occupancy.
    pub fn new(
        splats: Vec<Splat2D>,
        bins: TileBins,
        camera: Camera,
        prep: ViewPrepStats,
        gbu: &GbuConfig,
    ) -> Self {
        let occupancy = probe_view_cycles(&splats, &bins, &camera, gbu);
        let degraded = Mutex::default();
        Self { splats, bins, camera, prep, occupancy, gbu: gbu.clone(), degraded }
    }

    /// The sibling of this view at degraded `level`: the splats with the
    /// highest [`gbu_render::contrib`] scores, splats + bins compacted so
    /// the timing model prices only the surviving work. Built on first
    /// request and kept on this view, so it lives and dies with it.
    ///
    /// # Panics
    ///
    /// Panics when `level` is [`QualityLevel::Exact`] or invalid.
    pub fn degraded(&self, level: QualityLevel) -> Arc<PreparedView> {
        let mut table = self.degraded.lock().expect("no sibling build panicked");
        if let Some((_, view)) = table.iter().find(|(l, _)| *l == level) {
            return Arc::clone(view);
        }
        let scores = contrib::contribution_scores(&self.splats, None, &self.camera);
        let keep = contrib::select(&scores, level).expect("a degraded level selects a subset");
        let (splats, bins) = contrib::compact(&self.splats, &self.bins, &keep);
        let view =
            Arc::new(PreparedView::new(splats, bins, self.camera.clone(), self.prep, &self.gbu));
        table.push((level, Arc::clone(&view)));
        view
    }
}

/// A prepared session, ready to be served.
///
/// Cloning is cheap relative to [`Session::prepare`] (it copies the
/// prepared viewpoints, not the Step-❶/❷ work), which lets one prepared
/// workload be attached to many engines — the bench sweeps and the
/// equivalence tests rely on this.
#[derive(Debug, Clone)]
pub struct Session {
    /// The spec this session was built from.
    pub spec: SessionSpec,
    /// Preprocessed viewpoints, replayed round-robin as the camera
    /// stream. Behind `Arc` so sessions resolved through one
    /// [`SceneStore`] share one copy of each prepared view.
    views: Vec<Arc<PreparedView>>,
}

/// Number of orbit viewpoints prepared per session.
const VIEWS_PER_SESSION: usize = 3;

/// Resolves a spec's scene content into the scene and frame resolution.
pub(crate) fn resolve_scene(content: &SessionContent) -> (GaussianScene, u32, u32) {
    let synth = |seed: u64, gaussians: usize| {
        SceneBuilder::new(seed)
            .ellipsoid_cloud(
                Vec3::ZERO,
                Vec3::splat(0.8),
                gaussians,
                Vec3::new(0.6, 0.5, 0.4),
                0.15,
            )
            .build()
    };
    match content {
        SessionContent::Synthetic { seed, gaussians } => (synth(*seed, *gaussians), 64, 64),
        SessionContent::SyntheticHd { seed, gaussians, width, height } => {
            (synth(*seed, *gaussians), *width, *height)
        }
        SessionContent::Dataset { name, profile } => {
            let ds = DatasetScene::by_name(name)
                .unwrap_or_else(|| panic!("unknown dataset scene {name}"));
            let scenario = FrameScenario::from_dataset(&ds, *profile);
            let cam = &scenario.camera;
            (scenario.scene, cam.width, cam.height)
        }
    }
}

/// The seed that picks a spec's orbit: the scene seed for synthetic
/// content; a hash of the (unique) session name for dataset content so
/// sessions sharing a dataset scene still get distinct orbits.
pub(crate) fn orbit_seed(spec: &SessionSpec) -> u64 {
    match &spec.content {
        SessionContent::Synthetic { seed, .. } | SessionContent::SyntheticHd { seed, .. } => *seed,
        SessionContent::Dataset { .. } => {
            spec.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
        }
    }
}

/// Deterministic orbit camera of viewpoint `v`: spread yaw, nod pitch.
pub(crate) fn orbit_camera(
    scene: &GaussianScene,
    width: u32,
    height: u32,
    seed: u64,
    v: usize,
) -> Camera {
    let (center, radius) = match (scene.centroid(), scene.bounds()) {
        (Some(c), Some((min, max))) => (c, ((max - min).length() * 0.9).max(1.0)),
        _ => (Vec3::ZERO, 3.0),
    };
    let yaw = (seed % 7) as f32 * 0.9 + v as f32 * 0.35;
    let pitch = 0.15 + 0.1 * (v as f32 - 1.0);
    Camera::orbit(width, height, 0.9, center, radius, yaw, pitch)
}

/// Steps ❶/❷ through the staged pipeline — the exact artifacts the host
/// GPU hands to `GBU_render_image` each frame — priced on `gbu`.
pub(crate) fn prepare_view(scene: &GaussianScene, camera: Camera, gbu: &GbuConfig) -> PreparedView {
    let projected = pipeline::project(scene, &camera);
    let binned = pipeline::bin(&projected, 16);
    let prep = ViewPrepStats {
        gaussians: scene.gaussians.len() as u64,
        instances: binned.stats.instances,
        sort_passes: binned.stats.sort_passes,
    };
    PreparedView::new(projected.splats, binned.bins, camera, prep, gbu)
}

/// Prices one view with the tile engine's no-pixel walk: the device
/// occupancy `render_image` schedules (max(D&B, Tile PE) cycles, not
/// just the tile-engine share), with no image rendered.
fn probe_view_cycles(splats: &[Splat2D], bins: &TileBins, camera: &Camera, gbu: &GbuConfig) -> u64 {
    let d = dnb::run(splats, bins, gbu);
    TileEngine::new(gbu.clone()).cost(&d, bins, camera, Policy::ReuseDistance).occupancy()
}

impl Session {
    /// Builds the session over a private [`SceneStore`], so no other
    /// session shares its scene or views.
    pub fn prepare(spec: SessionSpec, gbu: &GbuConfig) -> Self {
        Self::prepare_shared(spec, gbu, &SceneStore::new())
    }

    /// Resolves the scene and prepares (Steps ❶/❷ + occupancy probe on
    /// `gbu`) all `VIEWS_PER_SESSION` viewpoints through `store`, which
    /// interns them: N sessions over the same content share one copy and
    /// pay Steps ❶/❷ once.
    pub fn prepare_shared(spec: SessionSpec, gbu: &GbuConfig, store: &SceneStore) -> Self {
        let seed = orbit_seed(&spec);
        let views =
            (0..VIEWS_PER_SESSION).map(|v| store.view(&spec.content, seed, v, gbu)).collect();
        Self { spec, views }
    }

    /// The viewpoint frame `index` renders (round-robin camera stream).
    /// The handle is scene identity for the cross-session
    /// preprocessing-reuse discount (frames over the same `Arc` share one
    /// Step-❶/❷ charge per epoch).
    pub fn view(&self, index: u32) -> &Arc<PreparedView> {
        &self.views[index as usize % self.views.len()]
    }

    /// Mean device-occupancy cycles over this session's viewpoints.
    pub fn mean_frame_cycles(&self) -> f64 {
        let sum: u64 = self.views.iter().map(|v| v.occupancy).sum();
        sum as f64 / self.views.len() as f64
    }

    /// Cheapest viewpoint's device-occupancy cycles — the optimistic
    /// lower bound on service time that deadline-aware admission and the
    /// deadline-drop pass use: if even this bound cannot fit before the
    /// deadline on an uncontended device, the frame is unmeetable.
    pub fn min_frame_cycles(&self) -> u64 {
        self.views.iter().map(|v| v.occupancy).min().unwrap_or(0)
    }

    /// Device cycles this session demands per second of simulated time at
    /// the given clock: frame rate × mean frame cost.
    pub fn offered_load_cycles_per_s(&self) -> f64 {
        self.spec.qos.hz * self.mean_frame_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(gaussians: usize) -> SessionSpec {
        SessionSpec {
            name: "s0".into(),
            content: SessionContent::Synthetic { seed: 9, gaussians },
            qos: QosTarget::VR_72,
            frames: 4,
            phase: 0.0,
            exec: ExecMode::Unsharded,
        }
    }

    #[test]
    fn period_cycles_matches_clock() {
        assert_eq!(QosTarget::AR_60.period_cycles(1.0), 16_666_667);
        assert_eq!(QosTarget::VR_90.period_cycles(0.5), 5_555_556);
    }

    #[test]
    fn prepare_builds_views_and_costs() {
        let s = Session::prepare(spec(120), &GbuConfig::paper());
        assert_eq!(s.views.len(), VIEWS_PER_SESSION);
        assert!(s.mean_frame_cycles() > 0.0);
        // The camera stream cycles through the views.
        assert_eq!(s.view(0).camera.position(), s.view(VIEWS_PER_SESSION as u32).camera.position());
    }

    #[test]
    fn min_frame_cycles_bounds_mean() {
        let s = Session::prepare(spec(120), &GbuConfig::paper());
        assert!(s.min_frame_cycles() > 0);
        assert!(s.min_frame_cycles() as f64 <= s.mean_frame_cycles());
    }

    #[test]
    fn heavier_scenes_cost_more() {
        let light = Session::prepare(spec(40), &GbuConfig::paper());
        let heavy = Session::prepare(
            SessionSpec {
                content: SessionContent::Synthetic { seed: 9, gaussians: 600 },
                ..spec(0)
            },
            &GbuConfig::paper(),
        );
        assert!(heavy.mean_frame_cycles() > light.mean_frame_cycles());
    }

    #[test]
    fn dataset_session_prepares() {
        let s = Session::prepare(
            SessionSpec {
                name: "avatar".into(),
                content: SessionContent::Dataset { name: "male-3", profile: ScaleProfile::Test },
                qos: QosTarget::VR_90,
                frames: 2,
                phase: 0.0,
                exec: ExecMode::Unsharded,
            },
            &GbuConfig::paper(),
        );
        assert!(s.mean_frame_cycles() > 0.0);
    }

    #[test]
    fn shared_preparation_is_bit_identical_to_classic() {
        let store = SceneStore::new();
        let gbu = GbuConfig::paper();
        let classic = Session::prepare(spec(120), &gbu);
        let shared = Session::prepare_shared(spec(120), &gbu, &store);
        assert_eq!(classic.views.len(), shared.views.len());
        for v in 0..classic.views.len() as u32 {
            let (c, s) = (classic.view(v), shared.view(v));
            assert_eq!(
                (&c.splats, &c.bins.entries, &c.bins.offsets),
                (&s.splats, &s.bins.entries, &s.bins.offsets)
            );
            assert_eq!((c.prep, c.occupancy), (s.prep, s.occupancy));
        }
    }

    #[test]
    fn shared_preparation_is_lazy_in_frame_count() {
        // It is not: short and push-only store sessions get the whole
        // orbit too, so they render and price every frame like classic ones.
        let store = SceneStore::new();
        let gbu = GbuConfig::paper();
        for frames in [0, 1] {
            let spec = SessionSpec { frames, ..spec(60) };
            let classic = Session::prepare(spec.clone(), &gbu);
            let shared = Session::prepare_shared(spec, &gbu, &store);
            assert_eq!(shared.views.len(), VIEWS_PER_SESSION, "{frames} frames");
            assert_eq!(classic.min_frame_cycles(), shared.min_frame_cycles());
            assert_eq!(classic.mean_frame_cycles(), shared.mean_frame_cycles());
        }
    }

    #[test]
    fn shared_sessions_share_view_handles() {
        let store = SceneStore::new();
        let gbu = GbuConfig::paper();
        let a = Session::prepare_shared(spec(80), &gbu, &store);
        let b =
            Session::prepare_shared(SessionSpec { name: "s1".into(), ..spec(80) }, &gbu, &store);
        // Same content through the same store: the views are one Arc.
        assert!(Arc::ptr_eq(a.view(0), b.view(0)));
        // Classic sessions never share, even for identical content.
        let c = Session::prepare(spec(80), &gbu);
        assert!(!Arc::ptr_eq(a.view(0), c.view(0)));
    }

    #[test]
    fn degraded_siblings_are_built_once_per_level() {
        let view = Session::prepare(spec(200), &GbuConfig::paper()).view(0).clone();
        let half = view.degraded(QualityLevel::TopK { fraction: 0.5 });
        assert!(Arc::ptr_eq(&half, &view.degraded(QualityLevel::TopK { fraction: 0.5 })));
        let quarter = view.degraded(QualityLevel::TopK { fraction: 0.25 });
        assert!(quarter.splats.len() < half.splats.len() && half.splats.len() < view.splats.len());
        assert!(quarter.occupancy < half.occupancy && half.occupancy < view.occupancy);
        let (splats, bins, camera) = (half.splats.clone(), half.bins.clone(), half.camera.clone());
        let fresh = PreparedView::new(splats, bins, camera, half.prep, &view.gbu);
        assert_eq!(fresh.occupancy, half.occupancy, "a sibling is priced like any view");
    }

    #[test]
    fn view_occupancy_is_what_the_device_schedules() {
        let gbu = GbuConfig::paper();
        let view = Session::prepare(spec(200), &gbu).view(0).clone();
        // Thousands of sub-pixel Gaussians: per-splat D&B work outweighs
        // the Tile PE, so occupancy is the D&B side of the max.
        let dust: GaussianScene = (0..3000)
            .map(|i| {
                let a = i as f32 * 0.37;
                let at = Vec3::new(a.cos() * 0.8, (a * 1.7).sin() * 0.8, a.sin() * 0.5);
                gbu_scene::Gaussian3D::isotropic(at, 0.002, Vec3::splat(0.5), 0.5)
            })
            .collect();
        let camera = Camera::orbit(64, 64, 1.0, Vec3::ZERO, 3.0, 0.3, 0.1);
        let dust = Arc::new(prepare_view(&dust, camera, &gbu));
        let rungs = crate::quality::QualityGovernor::default_ladder();
        let siblings: Vec<_> = rungs.into_iter().map(|level| view.degraded(level)).collect();
        let mut dnb_bound = 0;
        for v in [view, dust].into_iter().chain(siblings) {
            let mut gbu = gbu_core::Gbu::new(v.gbu.clone());
            gbu.render_image(&v.splats, &v.bins, &v.camera, Vec3::ZERO).expect("idle device");
            assert_eq!(gbu.in_flight_occupancy(), Some(v.occupancy), "{} splats", v.splats.len());
            let run = gbu.wait().expect("frame in flight").run;
            dnb_bound += usize::from(v.occupancy > run.compute_cycles);
        }
        assert!(dnb_bound > 0, "no view is bound by D&B");
    }

    #[test]
    fn synthetic_hd_controls_resolution() {
        let s = Session::prepare(
            SessionSpec {
                name: "hd".into(),
                content: SessionContent::SyntheticHd {
                    seed: 9,
                    gaussians: 60,
                    width: 128,
                    height: 96,
                },
                qos: QosTarget::VR_72,
                frames: 1,
                phase: 0.0,
                exec: ExecMode::Unsharded,
            },
            &GbuConfig::paper(),
        );
        assert_eq!(s.view(0).camera.width, 128);
        assert_eq!(s.view(0).camera.height, 96);
        assert!(s.view(0).bins.tiles_y >= 6, "HD frames have real shard-planning freedom");
    }
}
