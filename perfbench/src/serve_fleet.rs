//! `serve_fleet`: open loop in simulated time. Sessions instanced from a
//! dozen prepared scenes generate frames on their QoS timers; the host
//! drives `ServeEngine::step_until` in fixed simulated slices. Mid-run a
//! fraction of sessions detach and as many new ones attach. Latency
//! counts from each frame's scheduled arrival (the engine's QoS timer),
//! so the generator can never run late.

use crate::report::{ms, Layer, Out};
use crate::stats::{self, Digest, Rng};
use crate::trace::{self, Global};
use gbu_hw::GbuConfig;
use gbu_render::shard::ShardStrategy;
use gbu_serve::{
    calibrated_clock_ghz, AdmissionControl, BackendKind, ExecMode, Policy, PrepConfig, QosTarget,
    QualityGovernor, SceneStore, ServeConfig, ServeEngine, ServeEvent, ServeReport, Session,
    SessionContent, SessionId, SessionSpec,
};
use gbu_telemetry::{Domain, Recorder, TraceSummary};
use std::collections::HashSet;
use std::time::Instant;

/// Offered load over the cluster's capacity: sustained overload.
const OVERLOAD: f64 = 1.3;
/// Distinct prepared scenes the sessions are instanced from.
const BASE_SCENES: usize = 12;
/// One in this many starting sessions leaves mid-run (and as many join).
const LEAVE_EVERY: usize = 8;
/// Simulated step slices per 90 Hz frame period.
const SLICES_PER_90HZ: u64 = 12;

/// Cluster and population dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Cluster lanes (one device each).
    pub lanes: usize,
    /// Sessions attached at start.
    pub sessions: usize,
    /// Frames each starting session requests.
    pub frames: u32,
}

/// The workload proper: `repro fleet`'s session mix at half its sessions
/// and a third of its lanes (1,200 on 64, against 2,400 on 192), so that
/// one simulation takes about 2 s and a run replays it several times.
pub const PRIMARY: Size = Size { lanes: 64, sessions: 1_200, frames: 8 };

/// The small size the other workloads run this layer at (a companion).
pub const COMPANION: Size = Size { lanes: 16, sessions: 192, frames: 4 };

/// Everything a simulation needs, built once per setup.
#[derive(Debug)]
pub struct Fleet {
    size: Size,
    /// Seeded start of the arrival-phase sequence.
    phase0: f64,
    /// Sessions at this index modulo [`LEAVE_EVERY`] leave mid-run.
    leave: usize,
    cfg: ServeConfig,
    /// Interns the base scenes' prepared views; late joiners resolve
    /// through it, so they reuse views this benchmark keeps alive.
    store: SceneStore,
    base: Vec<SessionSpec>,
    instances: Vec<Session>,
}

fn spec(i: usize, frames: u32) -> SessionSpec {
    SessionSpec {
        name: format!("base-{i}"),
        content: SessionContent::Synthetic { seed: 300 + i as u64, gaussians: 20 + 4 * i },
        qos: QosTarget::VR_72,
        frames,
        phase: 0.0,
        exec: ExecMode::Unsharded,
    }
}

/// Arrival phase of the `i`-th session: a golden-ratio sequence from a
/// seeded start, so arrivals stay evenly spread whatever the seed.
fn phase(start: f64, i: usize) -> f64 {
    (start + i as f64 * 0.618_033_988_749_895).fract()
}

/// Prepares the base scenes and instances the session population. The
/// mix (scene, QoS class, sharding) is fixed; the seed shifts every
/// session's arrival phase and picks which sessions leave mid-run, so
/// seeds differ in timing while offering the same load.
pub fn setup(seed: u64, size: Size) -> Fleet {
    let gbu = GbuConfig::paper();
    let store = SceneStore::default();
    let mut rng = Rng::new(seed, 3);
    let phase0 = rng.unit();
    let leave = rng.next_u64() as usize % LEAVE_EVERY;
    let base: Vec<SessionSpec> = (0..BASE_SCENES).map(|i| spec(i, size.frames)).collect();
    let prepared: Vec<Session> =
        base.iter().map(|s| Session::prepare_shared(s.clone(), &gbu, &store)).collect();
    let instances: Vec<Session> = (0..size.sessions)
        .map(|i| {
            let mut s = prepared[i % BASE_SCENES].clone();
            s.spec.name = format!("hmd-{i}");
            s.spec.qos = [QosTarget::AR_60, QosTarget::VR_72, QosTarget::VR_90][i % 3];
            s.spec.phase = phase(phase0, i);
            s.spec.exec = if i % 6 == 5 {
                let strategy =
                    if i % 12 == 5 { ShardStrategy::Measured } else { ShardStrategy::CostBalanced };
                ExecMode::Sharded { shards: 4, strategy }
            } else {
                ExecMode::Unsharded
            };
            s
        })
        .collect();
    let clock = calibrated_clock_ghz(&instances, size.lanes, OVERLOAD);
    let mut cfg = ServeConfig {
        backend: BackendKind::Cluster { lanes: size.lanes, devices_per_lane: 1 },
        policy: Policy::Edf,
        admission: AdmissionControl { reject_unmeetable: true, ..AdmissionControl::default() },
        drop_unmeetable: true,
        prep: Some(PrepConfig { share: true, ..PrepConfig::default() }),
        quality: QualityGovernor {
            ladder: QualityGovernor::default_ladder(),
            counter_offer: true,
            shed_on_pressure: true,
            interval: (QosTarget::VR_90.period_cycles(clock) / 8).max(1),
            ..QualityGovernor::default()
        },
        telemetry: Recorder::disabled(),
        ..ServeConfig::default()
    };
    cfg.admission.max_queue_depth = size.sessions * 2;
    cfg.gbu.clock_ghz = clock;
    Fleet { size, phase0, leave, cfg, store, base, instances }
}

/// Host-side timings and the outcome of one simulation.
struct Sim {
    step_ms: Vec<f64>,
    attach_ms: Vec<f64>,
    detach_ms: Vec<f64>,
    report_ms: f64,
    serve_s: f64,
    report: ServeReport,
    json: String,
    peak_queue: usize,
    /// Frames cancelled after dispatch (their session detached): counted
    /// on a quality side at dispatch, but never completed.
    cancelled_in_flight: usize,
}

fn simulate(fleet: &Fleet, recorder: &Recorder) -> Sim {
    let size = fleet.size;
    let cfg = ServeConfig { telemetry: recorder.clone(), ..fleet.cfg.clone() };
    let gbu = cfg.gbu.clone();
    let clock = gbu.clock_ghz;
    let period60 = QosTarget::AR_60.period_cycles(clock);
    let slice = (QosTarget::VR_90.period_cycles(clock) / SLICES_PER_90HZ).max(1);
    let churn_at = u64::from(size.frames / 2) * period60;
    let last_arrival = u64::from(size.frames + 1) * period60;
    let mut engine = ServeEngine::new(cfg);
    let (mut attach_ms, mut detach_ms, mut step_ms) = (vec![], vec![], vec![]);
    let mut ids = Vec::with_capacity(size.sessions);
    for s in &fleet.instances {
        let t0 = Instant::now();
        ids.push(engine.attach_session(s.clone()));
        attach_ms.push(ms(t0, Instant::now()));
    }
    let (mut queued, mut running) = (HashSet::new(), HashSet::new());
    let (mut peak_queue, mut cancelled_in_flight) = (0, 0);
    let mut churned = false;
    let mut now = 0u64;
    loop {
        now += slice;
        let t0 = Instant::now();
        let events = engine.step_until(now);
        step_ms.push(ms(t0, Instant::now()));
        for e in &events {
            match e {
                ServeEvent::Admitted { frame, .. } | ServeEvent::Requeued { frame, .. } => {
                    queued.insert(*frame);
                }
                ServeEvent::Started { frame, .. } => {
                    queued.remove(frame);
                    running.insert(*frame);
                }
                ServeEvent::Completed { frame, .. } => {
                    running.remove(frame);
                }
                ServeEvent::Dropped { frame, .. } => {
                    queued.remove(frame);
                    cancelled_in_flight += usize::from(running.remove(frame));
                }
                _ => {}
            }
        }
        peak_queue = peak_queue.max(queued.len());
        if !churned && now >= churn_at {
            churned = true;
            churn(fleet, &mut engine, &ids, &gbu, &mut attach_ms, &mut detach_ms);
        }
        if now >= last_arrival && engine.is_drained() {
            break;
        }
    }
    engine.finish();
    let t0 = Instant::now();
    let report = engine.report();
    let json = report.to_json();
    let report_ms = ms(t0, Instant::now());
    let serve_s = (step_ms.iter().chain(&attach_ms).chain(&detach_ms).sum::<f64>()) / 1e3;
    Sim {
        step_ms,
        attach_ms,
        detach_ms,
        report_ms,
        serve_s,
        report,
        json,
        peak_queue,
        cancelled_in_flight,
    }
}

/// Detaches one starting session in [`LEAVE_EVERY`] and attaches as many
/// new ones, resolved through the store.
fn churn(
    fleet: &Fleet,
    engine: &mut ServeEngine,
    ids: &[SessionId],
    gbu: &GbuConfig,
    attach_ms: &mut Vec<f64>,
    detach_ms: &mut Vec<f64>,
) {
    let leaving: Vec<SessionId> =
        ids.iter().copied().skip(fleet.leave).step_by(LEAVE_EVERY).collect();
    for &id in &leaving {
        let t0 = Instant::now();
        let detached = engine.detach_session(id);
        detach_ms.push(ms(t0, Instant::now()));
        assert!(detached, "session {id} was attached");
    }
    for j in 0..leaving.len() {
        let mut s = fleet.base[j % BASE_SCENES].clone();
        s.name = format!("late-{j}");
        s.qos = [QosTarget::AR_60, QosTarget::VR_72, QosTarget::VR_90][j % 3];
        s.phase = phase(fleet.phase0 + 0.5, j);
        let t0 = Instant::now();
        let session = Session::prepare_shared(s, gbu, &fleet.store);
        engine.attach_session(session);
        attach_ms.push(ms(t0, Instant::now()));
    }
}

/// Per index, the fastest of the simulations' host timings `f` (every
/// simulation performs the same steps, attaches and detaches in order).
fn fastest(sims: &[Sim], f: impl Fn(&Sim) -> &Vec<f64>) -> Vec<f64> {
    (0..f(&sims[0]).len())
        .map(|k| sims.iter().filter_map(|s| f(s).get(k)).copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// Simulations run so far. Every simulation has the same inputs, so
/// every report must match the first; simulated metrics come from the
/// first, and per-layer trace metrics from the first traced one.
pub struct Run<'f> {
    fleet: &'f Fleet,
    sims: Vec<Sim>,
    first_trace: Option<gbu_telemetry::Trace>,
}

impl<'f> Run<'f> {
    /// No simulation run yet.
    pub fn new(fleet: &'f Fleet) -> Self {
        Self { fleet, sims: Vec::new(), first_trace: None }
    }
}

impl Layer for Run<'_> {
    /// One whole simulation, recorded into a fresh recorder when traced.
    fn op(&mut self, traced: bool) -> f64 {
        let recorder = trace::recorder(traced);
        let global = Global::install(&recorder, traced);
        let sim = simulate(self.fleet, &recorder);
        drop(global);
        if traced && self.first_trace.is_none() {
            self.first_trace = Some(recorder.snapshot());
        }
        let seconds = sim.serve_s + sim.report_ms / 1e3;
        self.sims.push(sim);
        seconds
    }

    fn min_ops(&self) -> usize {
        1
    }

    /// Every simulation replays the same work, so host timings take each
    /// step's (attach's, detach's) fastest replay rather than quiet rounds.
    fn finish(self: Box<Self>, _keep: &[bool]) -> Out {
        let Run { fleet, sims, first_trace } = *self;
        let mut out = Out::default();
        let first = &sims[0];
        let r = &first.report;
        let life = r.lifetime;
        for (k, sim) in sims.iter().enumerate() {
            let l = sim.report.lifetime;
            if l.generated != l.completed + l.rejected + l.dropped {
                out.fail(format!(
                    "serve sim {k}: generated {} != completed {} + rejected {} + dropped {}",
                    l.generated, l.completed, l.rejected, l.dropped
                ));
            }
            let q = sim.report.quality;
            if q.frames_exact + q.frames_degraded != l.completed + sim.cancelled_in_flight {
                out.fail(format!(
                    "serve sim {k}: exact {} + degraded {} != completed {} \
                     + cancelled in flight {}",
                    q.frames_exact, q.frames_degraded, l.completed, sim.cancelled_in_flight
                ));
            }
            if sim.json != first.json {
                out.fail(format!("serve sim {k}: report differs from the first simulation's"));
            }
        }
        // A simulation either conserves every frame or fails as a whole.
        out.attempted = sims.iter().map(|s| s.report.lifetime.generated as u64).sum();
        out.failed = if out.problems.is_empty() { 0 } else { out.attempted };
        // `ServeReport` carries only simulated quantities (no wall-clock
        // `run_info`), so its JSON is digested whole.
        let mut digest = Digest::default();
        digest.bytes(first.json.as_bytes());
        out.digest = digest.hex();

        let excused = r.reject_reasons.unknown_session + r.drop_reasons.session_detached;
        let shed = life.rejected + life.dropped + life.missed - excused;
        out.info.push(format!(
            "serve: {} sims; shed {shed} of {} accountable frames (rejected {}, dropped {}, \
             missed {}); peak ready queue {} frames; {} sessions on {} lanes at {OVERLOAD}x load",
            sims.len(),
            life.generated - excused,
            life.rejected,
            life.dropped,
            life.missed,
            first.peak_queue,
            fleet.size.sessions,
            fleet.size.lanes,
        ));

        let steps = fastest(&sims, |s| &s.step_ms);
        let (attach, detach) = (fastest(&sims, |s| &s.attach_ms), fastest(&sims, |s| &s.detach_ms));
        let host_s = steps.iter().chain(&attach).chain(&detach).sum::<f64>() / 1e3;
        let resolved = (life.completed + life.rejected + life.dropped) as f64;
        out.e2e.note(
            "serve_frames_per_host_s",
            resolved / host_s,
            format!("{resolved} frames over {host_s:.4} host s, fastest of {} replays", sims.len()),
        );
        out.e2e.median("serve_step_ms_p50", &steps);
        out.e2e.pct("serve_step_ms_p95", stats::tail(&steps, 95));
        out.e2e.note(
            "serve_ontime_frac",
            (life.completed - life.missed) as f64 / life.generated as f64,
            format!("of {} generated", life.generated),
        );
        let n = format!("of n={} completed", life.completed);
        out.e2e.note("serve_latency_ms_p50", r.p50_latency_ms, format!("p50 {n}"));
        out.e2e.note("serve_latency_ms_p99", r.p99_latency_ms, format!("p99 {n}"));

        let l = &mut out.layer;
        l.median("serve.attach_ms", &attach);
        l.median("serve.detach_ms", &detach);
        l.median("serve.step_ms", &steps);
        l.note(
            "serve.report_ms",
            sims.iter().map(|s| s.report_ms).fold(f64::INFINITY, f64::min),
            format!("fastest of {} replays", sims.len()),
        );
        for (name, v) in [
            ("serve.generated", life.generated),
            ("serve.admitted", life.generated - life.rejected),
            ("serve.rejected", life.rejected),
            ("serve.dropped", life.dropped),
            ("serve.missed", life.missed),
            ("serve.completed", life.completed),
            ("serve.counter_offers", r.quality.counter_offers),
        ] {
            l.put(name, v as f64);
        }
        l.put(
            "serve.degraded_frac",
            r.quality.frames_degraded as f64 / life.completed.max(1) as f64,
        );
        let prep = r.preprocessing;
        l.put(
            "serve.prep_shared_frac",
            prep.frames_shared as f64 / (prep.frames_shared + prep.frames_charged).max(1) as f64,
        );
        l.put("serve.device_utilization", r.device_utilization);
        l.put("serve.shard_imbalance_mean", r.sharding.as_ref().map_or(0.0, |s| s.mean_imbalance));

        if let Some(t) = first_trace {
            if let Err(e) = gbu_telemetry::validate(&t) {
                out.fail(format!("serve trace: {e}"));
            }
            let sum = TraceSummary::from_trace(&t);
            if sum.frame_count() != life.completed as u64 {
                out.fail(format!(
                    "serve trace: {} frame spans for {} completed frames",
                    sum.frame_count(),
                    life.completed
                ));
            }
            let l = &mut out.layer;
            let col = |f: &dyn Fn(&gbu_telemetry::FrameStat) -> u64| {
                sum.frames.iter().map(|s| f(s) as f64).collect::<Vec<_>>()
            };
            let (wait, service) = (col(&|f| f.queue_wait_cycles), col(&|f| f.service_cycles));
            l.median("serve.queue_wait_cycles_p50", &wait);
            l.pct("serve.queue_wait_cycles_p99", stats::tail(&wait, 99));
            l.median("serve.service_cycles_p50", &service);
            l.put(
                "serve.dram_stall_cycles",
                trace::gauge_sum(&t, "serve.lane", ".dram_stall_cycles"),
            );
            for (name, stage) in [
                ("trace.device_busy_cycles", "device_busy"),
                ("trace.queue_wait_cycles", "queue_wait"),
                ("trace.service_cycles", "service"),
            ] {
                let (count, _, mean) = trace::stage(&sum, stage, Domain::Cycles);
                l.note(name, mean, format!("mean of {count} spans"));
            }
            let service_self = trace::self_time(&t, "service") as f64;
            l.note(
                "trace.service_self_cycles",
                service_self / sum.frame_count().max(1) as f64,
                "service span minus shard children, per frame".into(),
            );
            for (name, counter) in [
                ("counter.serve.admitted", "serve.admitted"),
                ("counter.serve.completed", "serve.completed"),
                ("counter.serve.dispatched", "serve.dispatched"),
                ("counter.serve.prep.shared", "serve.prep.shared"),
                ("counter.serve.prep.charged", "serve.prep.charged"),
                ("counter.serve.quality.degraded", "serve.quality.degraded"),
                ("counter.serve.quality.counter_offers", "serve.quality.counter_offers"),
                ("counter.scene_store.hits", "scene_store.hits"),
                ("counter.scene_store.misses", "scene_store.misses"),
            ] {
                l.put(name, trace::counter(&t, counter));
            }
        }
        out
    }
}
