//! Shared context for the experiment harness: scene measurement with
//! caching so `repro all` renders each scene once, and the [`Gate`] of
//! every BENCH-writing experiment.

use gbu_core::apps::{measure_frame, FrameScenario, MeasuredFrame};
use gbu_core::system::SystemConfig;
use gbu_hw::GbuConfig;
use gbu_scene::{DatasetScene, ScaleProfile};
use gbu_telemetry::json::Json;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Display;
use std::rc::Rc;

/// One fully measured scene.
#[derive(Debug)]
pub struct SceneMeasure {
    /// Registry entry.
    pub ds: DatasetScene,
    /// The rendered frame scenario.
    pub scenario: FrameScenario,
    /// All measurements (functional renders + hardware runs), extrapolated
    /// to paper scale.
    pub measured: MeasuredFrame,
}

/// Harness context: configuration + measurement cache.
pub struct Ctx {
    /// Scene scale profile.
    pub profile: ScaleProfile,
    /// System under evaluation.
    pub sys: SystemConfig,
    cache: RefCell<HashMap<&'static str, Rc<SceneMeasure>>>,
}

impl Ctx {
    /// Creates a context at the given profile.
    pub fn new(profile: ScaleProfile) -> Self {
        Self { profile, sys: SystemConfig::default(), cache: RefCell::new(HashMap::new()) }
    }

    /// Measures a scene by name (cached).
    pub fn measure(&self, name: &str) -> Rc<SceneMeasure> {
        let ds = DatasetScene::by_name(name).unwrap_or_else(|| panic!("unknown scene {name}"));
        if let Some(m) = self.cache.borrow().get(ds.name) {
            return Rc::clone(m);
        }
        eprintln!("  [measuring {} ...]", ds.name);
        let scenario = FrameScenario::from_dataset(&ds, self.profile);
        let scale = scenario.paper_scale(&ds);
        let measured = measure_frame(&scenario, &self.sys.gbu, scale);
        let entry = Rc::new(SceneMeasure { ds: ds.clone(), scenario, measured });
        self.cache.borrow_mut().insert(ds.name, Rc::clone(&entry));
        entry
    }

    /// Measures all 12 scenes.
    pub fn measure_all(&self) -> Vec<Rc<SceneMeasure>> {
        DatasetScene::all().iter().map(|d| self.measure(d.name)).collect()
    }

    /// Measures the static scenes only.
    pub fn measure_static(&self) -> Vec<Rc<SceneMeasure>> {
        DatasetScene::static_scenes().iter().map(|d| self.measure(d.name)).collect()
    }

    /// The GBU configuration in use.
    pub fn gbu(&self) -> &GbuConfig {
        &self.sys.gbu
    }
}

/// The self-check gate of a BENCH-writing experiment. Every check of the
/// experiment reports to it; a failed check prints `INVALID: …` and the
/// run goes on, so one run lists every failure. [`Gate::finish`] then
/// either fails the process or writes the experiment's document.
pub struct Gate {
    experiment: &'static str,
    failed: Cell<bool>,
}

impl Gate {
    /// A gate for `experiment`, the name its failure line starts with.
    pub fn new(experiment: &'static str) -> Self {
        Self { experiment, failed: Cell::new(false) }
    }

    /// Fails the gate with `INVALID: {what}` unless `ok`.
    pub fn check(&self, ok: bool, what: impl Display) {
        if !ok {
            eprintln!("INVALID: {what}");
            self.failed.set(true);
        }
    }

    /// Checks that the measured figure `v` is finite and positive.
    pub fn positive(&self, label: &str, v: f64) {
        self.check(v.is_finite() && v > 0.0, format_args!("{label} = {v}"));
    }

    /// Exits with status 1 after `{experiment} produced invalid output;
    /// failing` when a check failed. Otherwise writes `doc` and a newline
    /// to the committed `<stem>.json`, or for the CI `test` profile to the
    /// gitignored `bench_out/<stem>.smoke.json` so a smoke run never
    /// clobbers a trajectory, and prints `wrote <path>` (` (<runs> runs)`).
    pub fn finish(self, profile: ScaleProfile, stem: &str, doc: Json, runs: Option<usize>) {
        if self.failed.get() {
            eprintln!("{} produced invalid output; failing", self.experiment);
            std::process::exit(1);
        }
        let path = match profile {
            ScaleProfile::Test => {
                std::fs::create_dir_all("bench_out").expect("create bench_out/");
                format!("bench_out/{stem}.smoke.json")
            }
            _ => format!("{stem}.json"),
        };
        std::fs::write(&path, doc.0 + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
        match runs {
            Some(runs) => println!("wrote {path} ({runs} runs)\n"),
            None => println!("wrote {path}\n"),
        }
    }
}

/// Wall-clock run metadata embedded in every BENCH document (ISO-8601
/// start time, host thread count, `GBU_THREADS` in effect).
pub fn run_info() -> Json {
    Json(gbu_telemetry::run_info_json(gbu_par::global().threads()))
}
