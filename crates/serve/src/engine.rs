//! The reactive serving engine: runtime session attach/detach,
//! non-blocking frame submission, the open `step_until` loop and the
//! batch [`run_workload`] wrapper built on top of it.
//!
//! The engine owns its sessions (keyed by [`SessionId`], not borrowed for
//! the engine's lifetime), so clients can join and leave mid-run. Frame
//! arrivals come from two sources on equal footing: each attached
//! session's QoS timer generates one request per period (plus its phase
//! offset), and the host can push extra requests at any time through
//! [`ServeHandle::submit_frame`]. Arrivals pass [`AdmissionControl`] into
//! the shared ready queue; whenever the [`ClusterBackend`] has capacity
//! for a queued frame's [`ExecMode`] the configured [`crate::Scheduler`]
//! picks the next frame; the backend advances event-to-event (next
//! arrival or next completion, whichever is sooner) on one simulated
//! clock.
//!
//! Execution is a plug-in behind one [`ClusterBackend`], exactly as the
//! paper's GBU is a plug-in behind the host GPU's interface: every
//! engine owns one, sized by [`BackendKind`] ([`BackendKind::Single`] is
//! a 1-lane cluster of [`ServeConfig::devices`] GBUs), with sharded and
//! unsharded sessions mixed freely per [`ExecMode`]. Sharded frames
//! report [`ServeEvent::ShardCompleted`] per landed shard before their
//! [`ServeEvent::Completed`]; deadline-aware admission reasons about
//! per-lane backlogs (a k-shard frame waits for its critical-path lane).
//!
//! [`ServeEngine::step_until`] only ever advances the backend to event
//! timestamps, never to the step boundary itself, so driving the engine
//! in arbitrary cycle slices replays the *identical* event sequence as
//! one-shot draining — the API-equivalence property tests pin this.

use crate::backend::{BackendKind, ExecCompletion, ExecMode};
use crate::cluster::ClusterBackend;
use crate::event::{
    DropReason, FrameId, FrameStatus, RejectReason, RequeueReason, ServeEvent, SessionId,
};
use crate::fleet::{AutoscaleConfig, FleetAction, FleetConfig};
use crate::metrics::{RunInfo, ServeMetrics, ServeReport};
use crate::quality::QualityGovernor;
use crate::scheduler::{AdmissionControl, FrameTicket, Policy, Scheduler};
use crate::session::{PreparedView, Session, SessionSpec};
use crate::store::SceneStore;
use gbu_gpu::GpuConfig;
use gbu_hw::GbuConfig;
use gbu_render::FrameBuffer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Weak;

/// Configuration of one serving engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of GBU devices in the [`BackendKind::Single`] backend's
    /// one lane (a [`BackendKind::Cluster`] sizes itself from its own
    /// variant fields and ignores this).
    pub devices: usize,
    /// Shape of the [`ClusterBackend`] the engine drives: one lane of
    /// [`ServeConfig::devices`] GBUs ([`BackendKind::Single`], the
    /// default) or `lanes` lanes ([`BackendKind::Cluster`]). Sharded
    /// and unsharded sessions run side by side on either.
    pub backend: BackendKind,
    /// Per-session ready-queue quota: a session already holding this
    /// many queued frames has further arrivals rejected with
    /// [`RejectReason::QuotaExceeded`], so one flooding client cannot
    /// starve its peers out of the shared queue. `None` (default)
    /// disables the quota.
    pub session_queue_quota: Option<usize>,
    /// When set, the engine retains every completed frame's rendered
    /// image (sharded frames: the merged image, bit-identical to the
    /// unsharded render) until the host collects it with
    /// [`ServeEngine::take_image`]. Off by default — a server that never
    /// collects images must not grow memory with frames served.
    pub retain_images: bool,
    /// Scheduling policy.
    pub policy: Policy,
    /// Admission gate (queue bound + optional deadline-aware rejection).
    pub admission: AdmissionControl,
    /// When set, a deadline-drop pass runs before every dispatch round
    /// and cancels queued frames that can no longer meet their deadline
    /// (`now + min_service_estimate > deadline`) — late-frame drop at the
    /// queue instead of burning a device on a guaranteed miss.
    pub drop_unmeetable: bool,
    /// GBU hardware configuration (its `clock_ghz` fixes the cycle↔time
    /// mapping; see [`calibrated_clock_ghz`]).
    pub gbu: GbuConfig,
    /// Host GPU, for the shared LPDDR bandwidth.
    pub gpu: GpuConfig,
    /// Fraction of LPDDR bandwidth available to the GBU pool (the GPU's
    /// preprocessing streams take the rest; `gbu_core::system` uses 0.5).
    pub dram_share: f64,
    /// Per-frame metrics retention: `None` keeps every record so
    /// [`ServeEngine::report`] covers the whole run (memory grows
    /// linearly with frames served); `Some(w)` bounds each terminal
    /// category to its most recent `w` records — the report is then
    /// exact over that window, with whole-run conservation still visible
    /// through [`crate::metrics::LifetimeCounts`]. Long-lived engines
    /// should set a window.
    pub metrics_window: Option<usize>,
    /// Telemetry recorder the engine and its backend record into:
    /// per-frame `frame`/`queue_wait`/`service` spans with per-lane
    /// `shard` children, admission marks and counters, per-device busy
    /// segments and DRAM-stall gauges — all on the exact cycle clock.
    /// Defaults to [`gbu_telemetry::Recorder::from_env`] (`GBU_TRACE`),
    /// i.e. a disabled recorder whose overhead is a branch unless the
    /// environment opts in.
    pub telemetry: gbu_telemetry::Recorder,
    /// Fleet control plane: fault-injection schedule, session migration,
    /// miss-rate autoscaling and lane reservation. The default is
    /// entirely inactive and costs nothing.
    pub fleet: FleetConfig,
    /// When set, [`ServeEngine::attach_spec`] resolves sessions through
    /// this shared [`SceneStore`]
    /// ([`Session::prepare_shared`](crate::session::Session::prepare_shared)):
    /// scenes and prepared viewpoints are interned across sessions.
    /// `None` (default) keeps the classic per-session preparation
    /// (a private store), which prices and renders identically.
    pub scene_store: Option<SceneStore>,
    /// Quality governor: degradation ladder plus the counter-offer and
    /// pressure-shedding mechanisms ([`crate::QualityGovernor`]). The
    /// default is entirely inactive and costs nothing — every frame
    /// renders exact, byte-identical to a build without the quality
    /// subsystem.
    pub quality: QualityGovernor,
    /// When set, every dispatched frame is charged the host GPU's
    /// Step-❶/❷ preprocessing time (projection + binning, from the
    /// `gbu_gpu` cost model) as up-front device occupancy — and, with
    /// [`PrepConfig::share`], co-scheduled frames over the same shared
    /// view handle pay it once per camera epoch instead of once per
    /// frame. `None` (default) charges nothing: byte-identical to
    /// pre-prep behaviour.
    pub prep: Option<PrepConfig>,
}

/// Host-GPU preprocessing charge model (see [`ServeConfig::prep`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrepConfig {
    /// Spherical-harmonics degree Step ❶ evaluates per Gaussian (the
    /// paper's scenes use 3).
    pub sh_degree: u8,
    /// Cross-session preprocessing reuse: frames dispatched over the
    /// same shared view handle (same `Arc`, i.e. sessions resolved
    /// through one [`SceneStore`]) within one camera epoch pay the
    /// Step-❶/❷ charge once; the rest ride free, with the saved cycles
    /// attributed in the report's `preprocessing` block. Off = every
    /// frame pays.
    pub share: bool,
    /// Length of a camera epoch in wall cycles: how long a paid
    /// preprocessing pass stays fresh for other frames of the same view
    /// handle. `None` (default) uses the dispatched session's frame
    /// period — the natural "co-scheduled this frame interval" window.
    pub share_window_cycles: Option<u64>,
}

impl Default for PrepConfig {
    fn default() -> Self {
        Self { sh_degree: 3, share: false, share_window_cycles: None }
    }
}

impl ServeConfig {
    /// `(lanes, devices per lane)` of the engine's [`ClusterBackend`]:
    /// [`BackendKind::Single`] is one lane of [`ServeConfig::devices`].
    fn lane_shape(&self) -> (usize, usize) {
        match self.backend {
            BackendKind::Single => (1, self.devices),
            BackendKind::Cluster { lanes, devices_per_lane } => (lanes, devices_per_lane),
        }
    }

    /// Total GBU devices the configured backend will own:
    /// [`ServeConfig::devices`] for [`BackendKind::Single`],
    /// `lanes × devices_per_lane` for [`BackendKind::Cluster`].
    pub fn total_devices(&self) -> usize {
        let (lanes, devices_per_lane) = self.lane_shape();
        lanes * devices_per_lane
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            devices: 1,
            backend: BackendKind::Single,
            session_queue_quota: None,
            retain_images: false,
            policy: Policy::Edf,
            admission: AdmissionControl::default(),
            drop_unmeetable: false,
            gbu: GbuConfig::paper(),
            gpu: GpuConfig::orin_nx(),
            dram_share: 0.5,
            metrics_window: None,
            telemetry: gbu_telemetry::Recorder::from_env(),
            fleet: FleetConfig::default(),
            scene_store: None,
            quality: QualityGovernor::default(),
            prep: None,
        }
    }
}

/// Picks the GBU clock (GHz) at which the prepared workload's offered
/// load equals `target_utilization` of the pool's compute capacity.
///
/// Reduced-scale scenes cost far fewer cycles per frame than paper-scale
/// ones, so at the paper's 1 GHz a test workload would never stress the
/// pool; pinning utilization instead of the clock makes runs comparable
/// across scene scales. (Cycle counts are scale-invariant workload
/// measurements — changing the clock does not change them.)
pub fn calibrated_clock_ghz(sessions: &[Session], devices: usize, target_utilization: f64) -> f64 {
    assert!(target_utilization > 0.0, "utilization target must be positive");
    let offered: f64 = sessions.iter().map(Session::offered_load_cycles_per_s).sum();
    offered / (devices as f64 * target_utilization) / 1e9
}

/// One attached session plus its engine-side serving state.
#[derive(Debug)]
struct Slot {
    session: Session,
    /// Frame period in cycles at the engine's clock.
    period: u64,
    /// How this session's frames execute (copied from the spec and
    /// validated against the backend at attach).
    mode: ExecMode,
    /// Optimistic service-time lower bound (cheapest viewpoint) in this
    /// session's execution mode: the whole-frame bound for unsharded
    /// sessions, the critical-path shard bound (`unsharded / shards`,
    /// still provably optimistic) for sharded ones.
    min_service: u64,
    /// QoS timer: (arrival cycle, frame index) of the next generated
    /// request; `None` for push-only sessions (`spec.frames == 0`) or
    /// once `spec.frames` requests have been generated.
    next_arrival: Option<(u64, u32)>,
}

/// Engine-side state of an active fleet control plane (`None` on the
/// engine when [`FleetConfig::is_active`] is false, so an inactive fleet
/// costs one branch per event-loop iteration).
///
/// A lane is up iff it is neither `failed` (fault plan) nor `parked`
/// (autoscaler) — the two causes are independent, so restoring a failed
/// lane cannot resurrect one the autoscaler parked and vice versa.
/// `apply_lane_state` reconciles that desired state against the
/// backend's actual [`ClusterBackend::lane_alive`].
#[derive(Debug)]
struct FleetRuntime {
    /// Cursor into the plan's time-ordered events.
    next_plan: usize,
    /// Next autoscale decision cycle (`None` without an autoscaler).
    next_tick: Option<u64>,
    /// Decision ticks left to sit out after a scale action.
    cooldown: u32,
    /// Lanes currently killed by the fault plan.
    failed: Vec<bool>,
    /// Lanes currently parked by the autoscaler.
    parked: Vec<bool>,
    /// Home lane per session index (migration policy only; `None` =
    /// unassigned, e.g. sharded sessions, which span lanes by nature).
    homes: Vec<Option<usize>>,
    /// Telemetry gauge tracking the live-lane count through churn.
    lanes_active: gbu_telemetry::Gauge,
}

/// Engine-side state of an active [`QualityGovernor`] (see
/// [`ServeConfig::quality`]); `None` on the engine when the config is
/// inactive.
#[derive(Debug)]
struct QualityRuntime {
    /// Current global ladder rung: 0 = exact, `1..=ladder.len()` indexes
    /// [`QualityGovernor::ladder`] (1-based; deeper = cheaper).
    level: usize,
    /// Next pressure-tick cycle (`None` when shedding is off).
    next_tick: Option<u64>,
    /// Decision ticks to sit out after a shed/recover step.
    cooldown: u32,
    /// Frames admitted as degraded counter-offers: frame id → pinned
    /// rung. Entries retire at dispatch or drop.
    pinned: std::collections::HashMap<u64, usize>,
    /// Telemetry gauge tracking the global level through shed/recover.
    level_gauge: gbu_telemetry::Gauge,
}

/// The reactive serving engine.
///
/// Construct with [`ServeEngine::new`], populate with
/// [`ServeEngine::attach_session`] (any time, including mid-run), then
/// drive with [`ServeEngine::step_until`] from a host loop. The batch
/// entry points [`run_workload`] / [`run_sessions`] are thin wrappers
/// over the same machinery.
///
/// Retention: by default the engine keeps per-frame metrics history for
/// its whole lifetime so [`ServeEngine::report`] can cover everything it
/// ever served — memory grows linearly with frames served.
/// [`ServeConfig::metrics_window`] bounds that history to the most
/// recent records per terminal category, keeping `report()` exact
/// within the window while `LifetimeCounts` preserves whole-run
/// conservation. (The frame-future table behind [`ServeEngine::poll`] —
/// one small enum per issued `FrameId` — is kept in full either way.)
#[derive(Debug)]
pub struct ServeEngine {
    cfg: ServeConfig,
    backend: ClusterBackend,
    scheduler: Box<dyn Scheduler>,
    /// Attached sessions; `None` marks a detached (retired) id.
    slots: Vec<Option<Slot>>,
    /// `(name, qos_hz)` of every session ever attached, by id.
    roster: Vec<(String, f64)>,
    /// Ready queue of admitted frames.
    queue: Vec<FrameTicket>,
    /// Queued frames per session index — what the per-session quota
    /// reads at admission instead of filtering the queue. Kept in step
    /// with `queue` by `enqueue` / `dequeue`.
    queued: Vec<usize>,
    /// Session QoS timers as a min-heap of `(next arrival cycle, session
    /// index)`, with lazy deletion: a detached session's entry stays
    /// until it reaches the top and is found stale (`timer_is_live`).
    /// Every armed timer has exactly one entry.
    timers: BinaryHeap<Reverse<(u64, u32)>>,
    /// Attached sessions whose QoS timer still has requests to
    /// generate (`Slot::next_arrival` is `Some`) — exact, unlike the
    /// heap's length, which counts stale entries too.
    armed_timers: usize,
    /// Lifecycle state of every frame ever assigned an id.
    statuses: Vec<FrameStatus>,
    /// Events generated outside `step_until` (submission, detach),
    /// delivered by the next `step_until` call.
    pending: Vec<ServeEvent>,
    /// Completed frames' rendered images awaiting collection
    /// ([`ServeConfig::retain_images`] only; empty otherwise).
    images: Vec<(FrameId, FrameBuffer)>,
    /// Highest cycle the host has stepped to; pushed submissions are
    /// stamped with this time (the backend clock lags at the last event).
    horizon: u64,
    metrics: ServeMetrics,
    /// Clone of [`ServeConfig::telemetry`] (also attached to the
    /// backend).
    recorder: gbu_telemetry::Recorder,
    /// Shard landings of frames still in flight, buffered until the
    /// frame completes and its `service` span exists to parent them:
    /// `(frame, shard, lane, landed_at, service_cycles)`. Only populated
    /// while telemetry is enabled; entries of dropped frames are purged
    /// in `drop_ticket`.
    shard_trace: Vec<(FrameId, usize, usize, u64, u64)>,
    /// Active fleet control plane ([`ServeConfig::fleet`]); `None` when
    /// the config is inactive. Taken out (`Option::take`) for the
    /// duration of fleet passes so they can call `&mut self` methods.
    fleet: Option<FleetRuntime>,
    /// Active quality governor ([`ServeConfig::quality`]); `None` when
    /// the config is inactive. Taken out (`Option::take`) like `fleet`
    /// for the duration of quality passes.
    quality: Option<QualityRuntime>,
    /// Reused buffer for [`ClusterBackend::lane_backlogs_into`] in the
    /// admission wait estimate, so the per-arrival probe does not
    /// allocate a fresh `Vec<Vec<u64>>`.
    backlog_scratch: Vec<Vec<u64>>,
    /// Cross-session preprocessing-reuse ledger
    /// ([`PrepConfig::share`]): per shared view handle (keyed by `Arc`
    /// pointer identity), a weak handle on the view and the wall cycle
    /// its Step-❶/❷ charge was last paid. A dispatch within the
    /// camera-epoch window of a paid entry rides free. The weak handle
    /// keeps the view's allocation, so a freed view's address cannot be
    /// reused by another view while its entry exists; `detach_session`
    /// drops entries whose view died.
    prep_paid: std::collections::HashMap<usize, (Weak<PreparedView>, u64)>,
}

impl ServeEngine {
    /// Creates an empty engine; attach sessions to give it work.
    pub fn new(cfg: ServeConfig) -> Self {
        let (lanes, devices_per_lane) = cfg.lane_shape();
        let mut backend =
            ClusterBackend::new(lanes, devices_per_lane, &cfg.gbu, &cfg.gpu, cfg.dram_share);
        if cfg.telemetry.is_enabled() {
            backend.set_telemetry(&cfg.telemetry);
        }
        let scheduler = cfg.policy.build();
        let metrics = match cfg.metrics_window {
            Some(window) => ServeMetrics::windowed(window),
            None => ServeMetrics::default(),
        };
        let recorder = cfg.telemetry.clone();
        let fleet = cfg.fleet.is_active().then(|| {
            for e in cfg.fleet.plan.events() {
                assert!(
                    e.action.lane() < lanes,
                    "fleet plan targets lane {} but the cluster has {lanes}",
                    e.action.lane(),
                );
            }
            if let Some(a) = &cfg.fleet.autoscale {
                assert!(a.interval > 0, "autoscale interval must be positive");
                assert!(a.min_lanes >= 1, "autoscaling below one live lane would wedge the queue");
            }
            let lanes_active = recorder.gauge("fleet.lanes_active");
            lanes_active.set(lanes as u64);
            FleetRuntime {
                next_plan: 0,
                next_tick: cfg.fleet.autoscale.as_ref().map(|a| a.interval),
                cooldown: 0,
                failed: vec![false; lanes],
                parked: vec![false; lanes],
                homes: Vec::new(),
                lanes_active,
            }
        });
        let quality = cfg.quality.is_active().then(|| {
            for level in &cfg.quality.ladder {
                assert!(
                    !level.is_exact(),
                    "ladder rungs must be degraded levels (Exact is the absence of degradation)",
                );
                level.validate();
            }
            if cfg.quality.shed_on_pressure {
                assert!(cfg.quality.interval > 0, "quality tick interval must be positive");
                assert!(
                    cfg.quality.recover_pressure < cfg.quality.shed_pressure,
                    "recover threshold must sit below shed threshold (hysteresis)",
                );
            }
            let level_gauge = recorder.gauge("quality.level");
            level_gauge.set(0);
            QualityRuntime {
                level: 0,
                next_tick: cfg.quality.shed_on_pressure.then_some(cfg.quality.interval),
                cooldown: 0,
                pinned: std::collections::HashMap::new(),
                level_gauge,
            }
        });
        Self {
            cfg,
            backend,
            scheduler,
            slots: Vec::new(),
            roster: Vec::new(),
            queue: Vec::new(),
            queued: Vec::new(),
            timers: BinaryHeap::new(),
            armed_timers: 0,
            statuses: Vec::new(),
            pending: Vec::new(),
            images: Vec::new(),
            horizon: 0,
            metrics,
            recorder,
            shard_trace: Vec::new(),
            fleet,
            quality,
            backlog_scratch: Vec::new(),
            prep_paid: std::collections::HashMap::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Current simulated time: the later of the last event the backend
    /// advanced to and the highest `step_until` horizon.
    pub fn now(&self) -> u64 {
        self.horizon.max(self.backend.clock())
    }

    /// Number of currently attached sessions.
    pub fn attached_sessions(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Display name of a session, attached or detached (`None` for an id
    /// this engine never issued).
    pub fn session_name(&self, id: SessionId) -> Option<&str> {
        self.roster.get(id.index()).map(|(name, _)| name.as_str())
    }

    /// The client-facing handle (submission, polling, attach/detach).
    pub fn handle(&mut self) -> ServeHandle<'_> {
        ServeHandle { engine: self }
    }

    /// Attaches a prepared session and returns its id. The session's QoS
    /// timer starts at the current time plus the spec's phase offset and
    /// generates `spec.frames` requests (`0` makes the session push-only:
    /// frames arrive solely through [`ServeHandle::submit_frame`]).
    ///
    /// # Panics
    ///
    /// Panics when the session's [`ExecMode`] does not fit the engine's
    /// backend: [`ExecMode::Sharded`] needs `1 <= shards <= lanes`.
    pub fn attach_session(&mut self, session: Session) -> SessionId {
        let mode = session.spec.exec;
        if let ExecMode::Sharded { shards, .. } = mode {
            assert!(shards >= 1, "a sharded session needs at least one shard");
            assert!(
                shards <= self.backend.lane_count(),
                "session {:?} wants {shards} shard lanes but the backend has {}",
                session.spec.name,
                self.backend.lane_count(),
            );
        }
        let id = SessionId(self.slots.len() as u32);
        let period = session.spec.qos.period_cycles(self.cfg.gbu.clock_ghz);
        let phase = (session.spec.phase.rem_euclid(1.0) * period as f64) as u64;
        let base = self.now();
        let next_arrival = (session.spec.frames > 0).then_some((base.saturating_add(phase), 0));
        self.roster.push((session.spec.name.clone(), session.spec.qos.hz));
        let min_service = mode.min_service(session.min_frame_cycles());
        if let Some((at, _)) = next_arrival {
            self.timers.push(Reverse((at, id.0)));
            self.armed_timers += 1;
        }
        self.slots.push(Some(Slot { session, period, mode, min_service, next_arrival }));
        self.queued.push(0);
        // Migration policy: every unsharded session gets a home lane at
        // attach (the coldest live lane), mirrored into the backend as a
        // placement affinity. No SessionMigrated event — assignment is
        // not a move.
        if self.cfg.fleet.migration.is_some() {
            if let Some(mut fleet) = self.fleet.take() {
                if matches!(mode, ExecMode::Unsharded) {
                    if fleet.homes.len() <= id.index() {
                        fleet.homes.resize(id.index() + 1, None);
                    }
                    if let Some(lane) = self.coldest_live_lane(&fleet) {
                        fleet.homes[id.index()] = Some(lane);
                        self.backend.set_lane_affinity(id, Some(lane));
                    }
                }
                self.fleet = Some(fleet);
            }
        }
        id
    }

    /// Convenience: prepares `spec` against this engine's GBU
    /// configuration and attaches it — through the shared
    /// [`SceneStore`] when [`ServeConfig::scene_store`] is set, with
    /// classic private preparation otherwise.
    pub fn attach_spec(&mut self, spec: SessionSpec) -> SessionId {
        let session = match &self.cfg.scene_store {
            Some(store) => Session::prepare_shared(spec, &self.cfg.gbu, store),
            None => Session::prepare(spec, &self.cfg.gbu),
        };
        self.attach_session(session)
    }

    /// Detaches a session: stops its QoS timer, drops its queued frames
    /// and cancels its in-flight frames through the backend's
    /// cancellation hook (all shards of a sharded frame; all reported as
    /// [`DropReason::SessionDetached`]). Returns `false` when the id was
    /// never attached or already detached.
    pub fn detach_session(&mut self, id: SessionId) -> bool {
        // The slot drops here, so the per-view purge below sees its
        // views released.
        let Some(armed) = self
            .slots
            .get_mut(id.index())
            .and_then(Option::take)
            .map(|slot| slot.next_arrival.is_some())
        else {
            return false;
        };
        // The timer's heap entry goes stale and is discarded lazily.
        if armed {
            self.armed_timers -= 1;
        }
        let now = self.now();
        // The backend clock lags at the last event; bring it forward to
        // the detach time so the cancellation frees devices *now*, not
        // retroactively at that event. This is exact: `step_until` has
        // already processed every event at or before the horizon, so the
        // advance crosses none (any stragglers are completed properly).
        self.advance_backend_to(now);
        // Cancel queued-not-started frames ...
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].session == id {
                let ticket = self.dequeue(i);
                self.drop_ticket(ticket, DropReason::SessionDetached, now);
            } else {
                i += 1;
            }
        }
        // ... and preempt in-flight ones.
        for ticket in self.backend.cancel_session(id) {
            self.drop_ticket(ticket, DropReason::SessionDetached, now);
        }
        // Retire the session's home lane and backend affinity, if any.
        if let Some(fleet) = self.fleet.as_mut() {
            if let Some(home) = fleet.homes.get_mut(id.index()) {
                if home.take().is_some() {
                    self.backend.set_lane_affinity(id, None);
                }
            }
        }
        // Drop the prep ledger entries of views nothing holds any more
        // (a view's degraded siblings died with it).
        self.prep_paid.retain(|_, (view, _)| view.strong_count() > 0);
        true
    }

    /// Non-blocking submission: requests one frame of `session` rendering
    /// viewpoint `view` (round-robin index into the session's camera
    /// stream), arriving now with one QoS period of deadline. Always
    /// returns a [`FrameId`] future; admission is decided immediately
    /// (visible through [`ServeEngine::poll`]) while rendering happens on
    /// subsequent [`ServeEngine::step_until`] calls.
    pub fn submit_frame(&mut self, session: SessionId, view: u32) -> FrameId {
        let at = self.now();
        let Some(Some(slot)) = self.slots.get(session.index()) else {
            let id = self.alloc_frame();
            let ticket = FrameTicket { id, session, frame: view, arrival: at, deadline: at };
            // A detached session still has a roster row, so its late
            // submissions are recorded against it; an id this engine
            // never issued is a caller error, reported to the caller
            // (status + event) but kept out of the serving metrics.
            if session.index() < self.roster.len() {
                self.metrics.reject(ticket, RejectReason::UnknownSession);
            }
            self.emit(ServeEvent::Rejected {
                frame: id,
                session,
                reason: RejectReason::UnknownSession,
                at,
            });
            return id;
        };
        let deadline = at.saturating_add(slot.period);
        let id = self.alloc_frame();
        let ticket = FrameTicket { id, session, frame: view, arrival: at, deadline };
        // In-flight-aware admission reads the devices' remaining work,
        // which is exact only at the backend clock; bring it to the
        // submission time first. Like the detach path, this is exact:
        // every event at or before the horizon has already been
        // processed, so the advance crosses none.
        if self.cfg.admission.reject_unmeetable && self.cfg.admission.in_flight_aware {
            self.advance_backend_to(at);
        }
        self.admit(ticket, at);
        id
    }

    /// Polls a frame future.
    ///
    /// # Panics
    ///
    /// Panics when `frame` was not issued by this engine.
    pub fn poll(&self, frame: FrameId) -> FrameStatus {
        self.statuses[frame.0 as usize]
    }

    /// Collects the rendered image of a completed frame, if the engine
    /// retained it ([`ServeConfig::retain_images`]). Each image can be
    /// taken once; `None` for frames that did not complete, were already
    /// taken, or when retention is off. Sharded frames yield the merged
    /// image — bit-identical to the unsharded render.
    pub fn take_image(&mut self, frame: FrameId) -> Option<FrameBuffer> {
        let idx = self.images.iter().position(|(id, _)| *id == frame)?;
        Some(self.images.swap_remove(idx).1)
    }

    /// `true` when nothing remains to simulate: no pending events, no
    /// queued or in-flight frames, and no session timer with requests
    /// left to generate.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
            && self.queue.is_empty()
            && self.backend.in_flight_frames() == 0
            && self.armed_timers == 0
    }

    /// Advances the simulation until the next event lies beyond `cycle`,
    /// returning every [`ServeEvent`] that fired (plus any buffered by
    /// submissions/detaches since the last step). The pool clock only
    /// ever advances to event timestamps — never to `cycle` itself — so
    /// step granularity cannot change the simulation's outcome.
    ///
    /// `cycle` also moves the submission horizon ([`ServeEngine::now`])
    /// forward permanently — later submissions are stamped there. To run
    /// out of work without declaring the end of time, use
    /// [`ServeEngine::drain`].
    pub fn step_until(&mut self, cycle: u64) -> Vec<ServeEvent> {
        self.horizon = self.horizon.max(cycle);
        self.step_events(cycle)
    }

    /// Runs the simulation to quiescence: processes every remaining event
    /// at its own timestamp and returns the events. Unlike
    /// `step_until(u64::MAX)` this does **not** move the submission
    /// horizon to the end of time, so sessions can still attach and
    /// submit afterwards at sensible timestamps.
    pub fn drain(&mut self) -> Vec<ServeEvent> {
        self.step_events(u64::MAX)
    }

    /// The shared event loop of [`ServeEngine::step_until`] and
    /// [`ServeEngine::drain`].
    fn step_events(&mut self, cycle: u64) -> Vec<ServeEvent> {
        let mut events = std::mem::take(&mut self.pending);
        loop {
            let now = self.backend.clock();
            self.fleet_due(now);
            self.quality_due(now);
            self.admit_due(now);
            if self.cfg.drop_unmeetable {
                self.drop_pass(now);
            }
            self.dispatch(now);
            events.append(&mut self.pending);

            // Advance to the next event: completion, timer arrival, a
            // pushed frame whose stamped arrival is still in the future,
            // or a fleet intervention (plan event / autoscale tick).
            let next_timer = self.next_timer();
            let next_push = self.queue.iter().map(|t| t.arrival).filter(|&a| a > now).min();
            let next_completion =
                self.backend.next_completion_dt().map(|dt| now.saturating_add(dt));
            let next_fleet = self.fleet_next_time();
            let next_quality = self.quality_next_time();
            let t = [next_timer, next_push, next_completion, next_fleet, next_quality]
                .into_iter()
                .flatten()
                .min();
            match t {
                None => break,
                Some(t) if t > cycle => break,
                // Degenerate end-of-time state (the clock saturated at
                // `u64::MAX`): time cannot advance, so stop rather than
                // livelock; whatever is in flight stays unfinished.
                Some(t) if t <= now => break,
                Some(t) => self.advance_backend_to(t),
            }
            events.append(&mut self.pending);
        }
        events
    }

    /// Advances the backend clock to `t` (a no-op when already there),
    /// recording and emitting everything that lands on the way: shard
    /// landings as [`ServeEvent::ShardCompleted`], frame completions as
    /// [`ServeEvent::Completed`] (with the image retained when
    /// [`ServeConfig::retain_images`] is set).
    fn advance_backend_to(&mut self, t: u64) {
        let now = self.backend.clock();
        if t <= now {
            return;
        }
        for completion in self.backend.advance(t - now) {
            match completion {
                ExecCompletion::Shard { ticket, shard, lane, at, service_cycles } => {
                    if self.recorder.is_enabled() {
                        self.shard_trace.push((ticket.id, shard, lane, at, service_cycles));
                    }
                    self.emit(ServeEvent::ShardCompleted {
                        frame: ticket.id,
                        session: ticket.session,
                        shard,
                        lane,
                        at,
                        service_cycles,
                    });
                }
                ExecCompletion::Frame(done) => {
                    let latency = done.completed_at - done.ticket.arrival;
                    let missed = done.completed_at > done.ticket.deadline;
                    if self.recorder.is_enabled() {
                        // Before `complete_with_shards` retires the
                        // dispatch entry this reads.
                        self.record_frame_spans(done.ticket, done.completed_at);
                    }
                    self.metrics.complete_with_shards(
                        done.ticket,
                        done.completed_at,
                        &done.shard_cycles,
                    );
                    if self.cfg.retain_images {
                        self.images.push((done.ticket.id, done.image));
                    }
                    self.emit(ServeEvent::Completed {
                        frame: done.ticket.id,
                        session: done.ticket.session,
                        at: done.completed_at,
                        latency_cycles: latency,
                        missed,
                    });
                }
            }
        }
    }

    /// Seals the run: cancels every frame still sitting in the ready
    /// queue as [`DropReason::Gated`] (only a gating scheduler leaves
    /// any) so conservation holds for the final [`ServeEngine::report`].
    /// Returns the drop events. Call after draining; the batch wrappers
    /// do.
    pub fn finish(&mut self) -> Vec<ServeEvent> {
        let now = self.now();
        self.queued.fill(0);
        for ticket in std::mem::take(&mut self.queue) {
            self.drop_ticket(ticket, DropReason::Gated, now);
        }
        std::mem::take(&mut self.pending)
    }

    /// The aggregate report over everything served so far, with one
    /// per-session entry for every session ever attached (in id order,
    /// detached ones included).
    pub fn report(&self) -> ServeReport {
        let names: Vec<String> = self.roster.iter().map(|(n, _)| n.clone()).collect();
        let hz: Vec<f64> = self.roster.iter().map(|(_, hz)| *hz).collect();
        self.metrics.report(
            &RunInfo {
                policy: self.cfg.policy.label(),
                devices: self.backend.device_count(),
                wall_cycles: self.backend.clock(),
                utilization: self.backend.utilization(),
                clock_ghz: self.cfg.gbu.clock_ghz,
            },
            &names,
            &hz,
        )
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Assigns the next dense frame id (status starts as `Queued` and is
    /// immediately refined by the admission decision).
    fn alloc_frame(&mut self) -> FrameId {
        let id = FrameId(self.statuses.len() as u64);
        self.statuses.push(FrameStatus::Queued);
        id
    }

    /// Appends `ticket` to the ready queue, counting it against its
    /// session.
    fn enqueue(&mut self, ticket: FrameTicket) {
        self.queued[ticket.session.index()] += 1;
        self.queue.push(ticket);
    }

    /// Removes and returns the queued ticket at `index`, keeping the
    /// queue order of the rest.
    fn dequeue(&mut self, index: usize) -> FrameTicket {
        let ticket = self.queue.remove(index);
        self.queued[ticket.session.index()] -= 1;
        ticket
    }

    /// Whether the timer-heap entry `(at, session)` is still the
    /// session's armed timer — `false` once the session detached.
    fn timer_is_live(&self, at: u64, session: u32) -> bool {
        self.slots[session as usize]
            .as_ref()
            .and_then(|slot| slot.next_arrival)
            .is_some_and(|(next, _)| next == at)
    }

    /// The earliest armed session timer: discards stale entries off the
    /// top of the heap, then peeks. Amortised O(log S) per discarded
    /// entry, O(1) otherwise.
    fn next_timer(&mut self) -> Option<u64> {
        while let Some(&Reverse((at, session))) = self.timers.peek() {
            if self.timer_is_live(at, session) {
                return Some(at);
            }
            self.timers.pop();
        }
        None
    }

    /// Applies an event's status transition (frame-lifecycle events
    /// only; control-plane events carry no frame) and buffers it for
    /// delivery.
    fn emit(&mut self, event: ServeEvent) {
        let status = match event {
            ServeEvent::Admitted { .. } => Some(FrameStatus::Queued),
            ServeEvent::Rejected { reason, .. } => Some(FrameStatus::Rejected(reason)),
            // A shard landing leaves the frame rendering until the last
            // shard's Completed arrives.
            ServeEvent::Started { .. } | ServeEvent::ShardCompleted { .. } => {
                Some(FrameStatus::Rendering)
            }
            ServeEvent::Completed { latency_cycles, missed, .. } => {
                Some(FrameStatus::Completed { latency_cycles, missed })
            }
            ServeEvent::Dropped { reason, .. } => Some(FrameStatus::Dropped(reason)),
            // A requeued frame is back in the ready queue awaiting a
            // fresh dispatch.
            ServeEvent::Requeued { .. } => Some(FrameStatus::Queued),
            // A degradation decision is non-terminal and does not move
            // the frame's lifecycle state.
            ServeEvent::Degraded { .. }
            | ServeEvent::SessionMigrated { .. }
            | ServeEvent::LaneDown { .. }
            | ServeEvent::LaneUp { .. } => None,
        };
        if let Some(status) = status {
            let frame = event.frame().expect("frame-lifecycle events carry a frame");
            self.statuses[frame.0 as usize] = status;
        }
        self.pending.push(event);
    }

    fn reject_ticket(&mut self, ticket: FrameTicket, reason: RejectReason, at: u64) {
        if self.recorder.is_enabled() {
            let name = match reason {
                RejectReason::QueueFull => "reject.queue_full",
                RejectReason::Unmeetable => "reject.unmeetable",
                RejectReason::UnknownSession => "reject.unknown_session",
                RejectReason::QuotaExceeded => "reject.quota_exceeded",
            };
            self.recorder.mark(name, gbu_telemetry::Domain::Cycles, at, self.ticket_labels(ticket));
            self.recorder.counter(&format!("serve.rejected.{}", reason.label())).add(1);
        }
        self.metrics.reject(ticket, reason);
        self.emit(ServeEvent::Rejected { frame: ticket.id, session: ticket.session, reason, at });
    }

    fn drop_ticket(&mut self, ticket: FrameTicket, reason: DropReason, at: u64) {
        if let Some(q) = self.quality.as_mut() {
            q.pinned.remove(&ticket.id.index());
        }
        if self.recorder.is_enabled() {
            let name = match reason {
                DropReason::Deadline => "drop.deadline",
                DropReason::SessionDetached => "drop.session_detached",
                DropReason::Gated => "drop.gated",
            };
            self.recorder.mark(name, gbu_telemetry::Domain::Cycles, at, self.ticket_labels(ticket));
            self.recorder.counter(&format!("serve.dropped.{}", reason.label())).add(1);
            // A dropped frame never completes; its buffered shard
            // landings would otherwise linger forever.
            self.shard_trace.retain(|&(id, ..)| id != ticket.id);
        }
        self.metrics.drop_frame(ticket, reason);
        self.emit(ServeEvent::Dropped { frame: ticket.id, session: ticket.session, reason, at });
    }

    /// Returns a dispatched frame whose lane went away to the ready
    /// queue: retires its dispatch entry (non-terminal — the frame keeps
    /// its original arrival and deadline and counts toward conservation
    /// only at its eventual terminal event), purges any buffered shard
    /// landings (they lived in the dead lane's memory), emits
    /// [`ServeEvent::Requeued`] and requeues the ticket.
    fn requeue_ticket(&mut self, ticket: FrameTicket, reason: RequeueReason, at: u64) {
        self.metrics.requeue(ticket, reason);
        if self.recorder.is_enabled() {
            let name = match reason {
                RequeueReason::LaneFailed => "requeue.lane_failed",
                RequeueReason::LaneRetired => "requeue.lane_retired",
            };
            self.recorder.mark(name, gbu_telemetry::Domain::Cycles, at, self.ticket_labels(ticket));
            self.recorder.counter(&format!("serve.requeued.{}", reason.label())).add(1);
            self.shard_trace.retain(|&(id, ..)| id != ticket.id);
        }
        self.emit(ServeEvent::Requeued { frame: ticket.id, session: ticket.session, reason, at });
        self.enqueue(ticket);
    }

    // ------------------------------------------------------------------
    // Fleet control plane
    // ------------------------------------------------------------------

    /// Applies every fleet intervention due at or before `now`: plan
    /// events in schedule order, then at most one autoscale decision
    /// (a tick that fell behind — e.g. while the engine sat idle —
    /// catches up with a single decision rather than replaying the
    /// missed grid). No-op without an active fleet.
    fn fleet_due(&mut self, now: u64) {
        let Some(mut fleet) = self.fleet.take() else { return };
        while let Some(&e) = self.cfg.fleet.plan.events().get(fleet.next_plan) {
            if e.at > now {
                break;
            }
            fleet.next_plan += 1;
            let lane = e.action.lane();
            match e.action {
                FleetAction::Kill(_) => fleet.failed[lane] = true,
                FleetAction::Restore(_) => fleet.failed[lane] = false,
            }
            self.apply_lane_state(&mut fleet, lane, now, RequeueReason::LaneFailed);
        }
        if let Some(a) = self.cfg.fleet.autoscale {
            if let Some(tick) = fleet.next_tick {
                if tick <= now {
                    self.autoscale_decision(&mut fleet, &a, now);
                    fleet.next_tick = Some(now.saturating_add(a.interval));
                }
            }
        }
        self.fleet = Some(fleet);
    }

    /// The next cycle at which the fleet wants the event loop to stop:
    /// the next unapplied plan event, and — only while work is pending —
    /// the next autoscale tick. An idle engine must not chase the tick
    /// grid forever, or [`ServeEngine::drain`] would never return; plan
    /// events are finite, so they are always offered.
    fn fleet_next_time(&self) -> Option<u64> {
        let fleet = self.fleet.as_ref()?;
        let mut t = self.cfg.fleet.plan.events().get(fleet.next_plan).map(|e| e.at);
        if let Some(tick) = fleet.next_tick {
            if self.work_pending() {
                t = Some(t.map_or(tick, |x| x.min(tick)));
            }
        }
        t
    }

    /// `true` while anything is queued, executing or still to be
    /// generated by a session timer — the condition under which the
    /// periodic controllers keep offering their ticks to the event loop.
    fn work_pending(&self) -> bool {
        !self.queue.is_empty() || self.backend.in_flight_frames() > 0 || self.armed_timers > 0
    }

    // ------------------------------------------------------------------
    // Quality governor
    // ------------------------------------------------------------------

    /// Applies at most one quality shed/recover decision due at or
    /// before `now` (a tick that fell behind catches up with a single
    /// decision, like the fleet autoscaler). No-op without an active
    /// governor or with pressure shedding off.
    fn quality_due(&mut self, now: u64) {
        let Some(mut q) = self.quality.take() else { return };
        if let Some(tick) = q.next_tick {
            if tick <= now {
                let g = &self.cfg.quality;
                let pressure = self.metrics.window_pressure();
                if q.cooldown > 0 {
                    q.cooldown -= 1;
                } else if pressure >= g.shed_pressure && q.level < g.ladder.len() {
                    q.level += 1;
                    q.cooldown = g.cooldown_ticks;
                    q.level_gauge.set(q.level as u64);
                    self.metrics.quality_shed();
                    if self.recorder.is_enabled() {
                        self.recorder.counter("serve.quality.sheds").add(1);
                    }
                } else if pressure <= g.recover_pressure && q.level > 0 {
                    q.level -= 1;
                    q.cooldown = g.cooldown_ticks;
                    q.level_gauge.set(q.level as u64);
                    self.metrics.quality_recovery();
                    if self.recorder.is_enabled() {
                        self.recorder.counter("serve.quality.recoveries").add(1);
                    }
                }
                q.next_tick = Some(now.saturating_add(g.interval));
            }
        }
        self.quality = Some(q);
    }

    /// The next cycle at which the governor wants the event loop to
    /// stop: its next pressure tick, offered only while work is pending
    /// — same drain-livelock guard as [`ServeEngine::fleet_next_time`].
    fn quality_next_time(&self) -> Option<u64> {
        let tick = self.quality.as_ref()?.next_tick?;
        self.work_pending().then_some(tick)
    }

    /// `view`'s degraded sibling at ladder rung `rung` (1-based).
    fn rung_view(&self, view: &PreparedView, rung: usize) -> std::sync::Arc<PreparedView> {
        view.degraded(self.cfg.quality.ladder[rung - 1])
    }

    /// The counter-offer admission probe: the deepest ladder rung and
    /// the frame's min-service cycles at that rung (its own view,
    /// degraded). `None` without an active governor.
    fn degraded_min_service(&self, ticket: FrameTicket) -> Option<(usize, u64)> {
        self.quality.as_ref()?;
        let rung = self.cfg.quality.ladder.len();
        let slot = self.slots.get(ticket.session.index())?.as_ref()?;
        let cycles = self.rung_view(slot.session.view(ticket.frame), rung).occupancy;
        Some((rung, slot.mode.min_service(cycles)))
    }

    /// Substitutes the degraded prepared view for a dispatch when the
    /// effective rung (the frame's counter-offer pin, or the global
    /// pressure-shed level, whichever is deeper) is non-zero; counts the
    /// dispatch on whichever quality side it served. Identity when the
    /// governor is inactive.
    fn quality_substitute(
        &mut self,
        view: std::sync::Arc<PreparedView>,
        ticket: FrameTicket,
        now: u64,
    ) -> std::sync::Arc<PreparedView> {
        let Some(mut q) = self.quality.take() else { return view };
        let pinned = q.pinned.remove(&ticket.id.index());
        let rung = pinned.map_or(q.level, |r| r.max(q.level));
        let out = if rung == 0 {
            self.metrics.quality_exact();
            if self.recorder.is_enabled() {
                self.recorder.counter("serve.quality.exact").add(1);
            }
            view
        } else {
            let degraded = self.rung_view(&view, rung);
            let saved = view.occupancy.saturating_sub(degraded.occupancy);
            self.metrics.quality_degraded(saved);
            if self.recorder.is_enabled() {
                self.recorder.mark(
                    "dispatch.degraded",
                    gbu_telemetry::Domain::Cycles,
                    now,
                    self.ticket_labels(ticket),
                );
                self.recorder.counter("serve.quality.degraded").add(1);
                self.recorder.counter("serve.quality.saved_cycles").add(saved);
            }
            // Counter-offered frames already reported their Degraded
            // event at admission; pressure-shed frames report here.
            if pinned.is_none() {
                self.emit(ServeEvent::Degraded {
                    frame: ticket.id,
                    session: ticket.session,
                    level: rung,
                    at: now,
                });
            }
            degraded
        };
        self.quality = Some(q);
        out
    }

    /// Reconciles one lane's desired state (up iff neither failed nor
    /// parked) against the backend. Going down drains the lane's
    /// in-flight frames back to the queue (requeued with `reason`) and
    /// migrates its homed sessions off; coming up starts a new lane
    /// generation. Either transition counts in
    /// [`crate::ServeReport::lane_churn`] and updates the
    /// `fleet.lanes_active` gauge.
    fn apply_lane_state(
        &mut self,
        fleet: &mut FleetRuntime,
        lane: usize,
        now: u64,
        reason: RequeueReason,
    ) {
        let want_up = !fleet.failed[lane] && !fleet.parked[lane];
        if want_up == self.backend.lane_alive(lane) {
            return;
        }
        if want_up {
            self.backend.restore_lane(lane);
            let generation = self.backend.lane_generation(lane);
            self.metrics.lane_transition();
            if self.recorder.is_enabled() {
                let labels = gbu_telemetry::Labels {
                    lane: Some(lane as u32),
                    lane_generation: Some(generation),
                    ..gbu_telemetry::Labels::default()
                };
                self.recorder.mark("fleet.lane_up", gbu_telemetry::Domain::Cycles, now, labels);
                self.recorder.counter("fleet.lane_up").add(1);
            }
            self.emit(ServeEvent::LaneUp { lane, generation, at: now });
        } else {
            // `fleet_due` runs at the backend clock, so the kill lands at
            // exactly `now` — cancellations free nothing retroactively.
            for ticket in self.backend.kill_lane(lane) {
                self.requeue_ticket(ticket, reason, now);
            }
            self.metrics.lane_transition();
            if self.recorder.is_enabled() {
                let labels = gbu_telemetry::Labels {
                    lane: Some(lane as u32),
                    ..gbu_telemetry::Labels::default()
                };
                self.recorder.mark("fleet.lane_down", gbu_telemetry::Domain::Cycles, now, labels);
                self.recorder.counter("fleet.lane_down").add(1);
            }
            self.emit(ServeEvent::LaneDown { lane, at: now });
            if self.cfg.fleet.migration.is_some() {
                self.migrate_off(fleet, lane, now);
            }
        }
        fleet.lanes_active.set(self.backend.live_lane_count() as u64);
    }

    /// Moves every attached session homed on `lane` to the coldest live
    /// lane (fewest homes), emitting [`ServeEvent::SessionMigrated`] per
    /// move. Sessions are orphaned (home cleared) when no live lane
    /// remains; a later rebalance pass re-homes them.
    fn migrate_off(&mut self, fleet: &mut FleetRuntime, lane: usize, now: u64) {
        for s in 0..fleet.homes.len() {
            if fleet.homes[s] != Some(lane) {
                continue;
            }
            let id = SessionId(s as u32);
            if self.slots.get(s).is_none_or(|slot| slot.is_none()) {
                // Stale home of a detached session.
                fleet.homes[s] = None;
                continue;
            }
            match self.coldest_live_lane(fleet) {
                Some(to) => self.do_migrate(fleet, s, lane, to, now),
                None => {
                    fleet.homes[s] = None;
                    self.backend.set_lane_affinity(id, None);
                }
            }
        }
    }

    /// The live lane with the fewest homed sessions (lowest index on
    /// ties); `None` when every lane is down.
    fn coldest_live_lane(&self, fleet: &FleetRuntime) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for lane in 0..self.backend.lane_count() {
            if !self.backend.lane_alive(lane) {
                continue;
            }
            let count = fleet.homes.iter().filter(|h| **h == Some(lane)).count();
            if best.is_none_or(|(c, _)| count < c) {
                best = Some((count, lane));
            }
        }
        best.map(|(_, lane)| lane)
    }

    /// Re-homes session `s` from lane `from` to lane `to`: updates the
    /// policy state, mirrors the affinity into the backend, bumps the
    /// migration counter and emits [`ServeEvent::SessionMigrated`].
    /// Migration happens *between* frames — in-flight work is untouched,
    /// only future placement moves — so the span is zero-length.
    fn do_migrate(&mut self, fleet: &mut FleetRuntime, s: usize, from: usize, to: usize, now: u64) {
        fleet.homes[s] = Some(to);
        let session = SessionId(s as u32);
        self.backend.set_lane_affinity(session, Some(to));
        self.metrics.migrate();
        if self.recorder.is_enabled() {
            let labels = gbu_telemetry::Labels {
                session: Some(s as u32),
                lane: Some(to as u32),
                ..gbu_telemetry::Labels::default()
            };
            self.recorder.span("migrate", gbu_telemetry::Domain::Cycles, now, now, None, labels);
            self.recorder.counter("fleet.migrated").add(1);
        }
        self.emit(ServeEvent::SessionMigrated { session, from, to, at: now });
    }

    /// One autoscale decision at a tick: grow (restore the lowest-index
    /// parked lane) when window pressure reaches `grow_pressure`, shrink
    /// (park the highest-index live non-failed lane, requeueing its
    /// in-flight frames as [`RequeueReason::LaneRetired`]) when pressure
    /// *and* per-lane occupancy are both low and more than `min_lanes`
    /// lanes live. Every action arms the cooldown. When the migration
    /// policy asks for it, one rebalance move runs on the same tick.
    fn autoscale_decision(&mut self, fleet: &mut FleetRuntime, a: &AutoscaleConfig, now: u64) {
        if fleet.cooldown > 0 {
            fleet.cooldown -= 1;
        } else {
            let pressure = self.metrics.window_pressure();
            let live = self.backend.live_lane_count();
            let occupancy =
                (self.queue.len() + self.backend.in_flight_frames()) as f64 / live.max(1) as f64;
            if pressure >= a.grow_pressure {
                if let Some(lane) = fleet.parked.iter().position(|&p| p) {
                    fleet.parked[lane] = false;
                    self.apply_lane_state(fleet, lane, now, RequeueReason::LaneRetired);
                    fleet.cooldown = a.cooldown_ticks;
                }
            } else if pressure <= a.shrink_pressure
                && occupancy < a.shrink_occupancy
                && live > a.min_lanes
            {
                let candidate = (0..self.backend.lane_count())
                    .rev()
                    .find(|&l| self.backend.lane_alive(l) && !fleet.failed[l] && !fleet.parked[l]);
                if let Some(lane) = candidate {
                    fleet.parked[lane] = true;
                    self.apply_lane_state(fleet, lane, now, RequeueReason::LaneRetired);
                    fleet.cooldown = a.cooldown_ticks;
                }
            }
        }
        if self.cfg.fleet.migration.is_some_and(|m| m.rebalance) {
            self.rebalance_once(fleet, now);
        }
    }

    /// One rebalance step: re-homes orphaned unsharded sessions (their
    /// home lane died with no live lane available at the time), then
    /// moves a single session from the most crowded home lane to the
    /// least when they differ by at least two — moving one session per
    /// tick converges without oscillating.
    fn rebalance_once(&mut self, fleet: &mut FleetRuntime, now: u64) {
        for s in 0..self.slots.len() {
            let unsharded =
                self.slots[s].as_ref().is_some_and(|slot| matches!(slot.mode, ExecMode::Unsharded));
            if !unsharded || fleet.homes.get(s).copied().flatten().is_some() {
                continue;
            }
            if let Some(lane) = self.coldest_live_lane(fleet) {
                if fleet.homes.len() <= s {
                    fleet.homes.resize(s + 1, None);
                }
                fleet.homes[s] = Some(lane);
                self.backend.set_lane_affinity(SessionId(s as u32), Some(lane));
            }
        }
        let counts: Vec<(usize, usize)> = (0..self.backend.lane_count())
            .filter(|&l| self.backend.lane_alive(l))
            .map(|l| (fleet.homes.iter().filter(|h| **h == Some(l)).count(), l))
            .collect();
        let Some(&(max_c, hot)) = counts.iter().max_by_key(|&&(c, l)| (c, std::cmp::Reverse(l)))
        else {
            return;
        };
        let Some(&(min_c, cold)) = counts.iter().min_by_key(|&&(c, l)| (c, l)) else { return };
        if max_c < min_c + 2 {
            return;
        }
        let victim = (0..fleet.homes.len()).find(|&s| {
            fleet.homes[s] == Some(hot) && self.slots.get(s).is_some_and(|sl| sl.is_some())
        });
        if let Some(s) = victim {
            self.do_migrate(fleet, s, hot, cold, now);
        }
    }

    /// Span/mark labels of a ticket: session + engine-issued frame id.
    fn ticket_labels(&self, ticket: FrameTicket) -> gbu_telemetry::Labels {
        gbu_telemetry::Labels::frame(ticket.session.index() as u32, ticket.id.index())
    }

    /// Records a completed frame's cycle-domain span subtree:
    /// `frame[arrival, completed]` partitioned exactly into
    /// `queue_wait[arrival, started]` + `service[started, completed]`,
    /// with one `shard` child per buffered shard landing under
    /// `service`. The frame span's duration *is* the latency
    /// `ServeMetrics` records (completion − arrival), which is what lets
    /// `repro trace` reconcile the two to the cycle.
    fn record_frame_spans(&mut self, ticket: FrameTicket, completed_at: u64) {
        let started = self
            .metrics
            .started_at(ticket)
            .expect("a completing frame has an in-flight dispatch entry");
        let labels = self.ticket_labels(ticket);
        let frame = self.recorder.span(
            "frame",
            gbu_telemetry::Domain::Cycles,
            ticket.arrival,
            completed_at,
            None,
            labels,
        );
        self.recorder.span(
            "queue_wait",
            gbu_telemetry::Domain::Cycles,
            ticket.arrival,
            started,
            frame,
            labels,
        );
        let service = self.recorder.span(
            "service",
            gbu_telemetry::Domain::Cycles,
            started,
            completed_at,
            frame,
            labels,
        );
        let mut i = 0;
        while i < self.shard_trace.len() {
            if self.shard_trace[i].0 == ticket.id {
                let (_, shard, lane, at, service_cycles) = self.shard_trace.swap_remove(i);
                let shard_labels = gbu_telemetry::Labels {
                    lane: Some(lane as u32),
                    shard: Some(shard as u32),
                    ..labels
                };
                // Shards submit when the frame dispatches, so the span
                // starts at `at − service_cycles == started` — nested in
                // `service` by construction.
                self.recorder.span(
                    "shard",
                    gbu_telemetry::Domain::Cycles,
                    at - service_cycles,
                    at,
                    service,
                    shard_labels,
                );
            } else {
                i += 1;
            }
        }
        self.recorder.counter("serve.completed").add(1);
    }

    /// The (lanes-needed, optimistic service) requirements of a session's
    /// frames under its execution mode; detached sessions contribute
    /// nothing.
    fn mode_requirements(&self, session: SessionId) -> (usize, u64) {
        self.slots[session.index()]
            .as_ref()
            .map_or((1, 0), |slot| (slot.mode.lanes_needed(), slot.min_service))
    }

    /// Estimated wait (cycles) a new arrival of `session` sees before the
    /// backend can start it: the greedy earliest-free schedule of
    /// [`greedy_wait`] over the backend's live lanes, where each device
    /// starts at its remaining in-flight work (when
    /// [`AdmissionControl::in_flight_aware`]; zero when idle or the term
    /// is off) and every queued frame's optimistic service time is placed,
    /// in queue order, on the earliest-free device of each of the
    /// `lanes_needed` earliest-free lanes its mode occupies (when
    /// [`AdmissionControl::queue_aware`]). Lanes rank by (earliest-free
    /// cycle, lane index) and devices within a lane by (backlog, device
    /// index); that tie-break is part of the result, not a detail.
    ///
    /// The estimate is lane-aware: an unsharded candidate waits for the
    /// earliest-free device anywhere, while a k-shard candidate waits for
    /// its *critical-path lane* — the k-th earliest-free lane, since all
    /// k shards must start together. An idle backend with an empty queue
    /// yields zero, keeping the bound optimistic — it also ignores
    /// contention, matching `min_service`'s own optimism — so a
    /// rejection is still a proof of unmeetability.
    ///
    /// Cost per arrival, with L live lanes of d devices and Q queued
    /// frames of lane need k: O(L·d) to read the backlogs into a reused
    /// buffer, then O(L + Q·k·(log L + d)) for the schedule.
    fn wait_estimate(&mut self, session: SessionId) -> u64 {
        let ac = self.cfg.admission;
        let mut lanes = std::mem::take(&mut self.backlog_scratch);
        if ac.in_flight_aware {
            self.backend.lane_backlogs_into(&mut lanes);
        } else {
            // Same live-lane/device shape, all idle — without touching
            // the per-device in-flight state the term would discard
            // anyway. (Lanes are uniformly sized.)
            let live = self.backend.live_lane_count();
            let per_lane = self.backend.device_count() / self.backend.lane_count();
            lanes.resize_with(live, Vec::new);
            for lane in lanes.iter_mut() {
                lane.clear();
                lane.resize(per_lane, 0);
            }
        }
        // With every lane down there is no backlog to measure: the
        // schedule answers zero and stays optimistic (the fleet may
        // restore a lane before the deadline) — a rejection must remain
        // a proof of unmeetability.
        let queued = if ac.queue_aware { &self.queue[..] } else { &[] };
        let (k, _) = self.mode_requirements(session);
        let wait =
            greedy_wait(&mut lanes, queued.iter().map(|t| self.mode_requirements(t.session)), k);
        self.backlog_scratch = lanes;
        wait
    }

    /// Runs the admission decision for `ticket` at time `at`, queueing it
    /// or rejecting it.
    fn admit(&mut self, ticket: FrameTicket, at: u64) {
        let (_, min_service) = self.mode_requirements(ticket.session);
        let ac = &self.cfg.admission;
        let queued_wait = if ac.reject_unmeetable && (ac.queue_aware || ac.in_flight_aware) {
            self.wait_estimate(ticket.session)
        } else {
            0
        };
        let session_depth = self.queued[ticket.session.index()];
        match self.cfg.admission.decide(
            self.queue.len(),
            session_depth,
            self.cfg.session_queue_quota,
            queued_wait,
            ticket.arrival,
            ticket.deadline,
            min_service,
        ) {
            Ok(()) => {
                if self.recorder.is_enabled() {
                    self.recorder.mark(
                        "admit",
                        gbu_telemetry::Domain::Cycles,
                        at,
                        self.ticket_labels(ticket),
                    );
                    self.recorder.counter("serve.admitted").add(1);
                }
                self.enqueue(ticket);
                self.emit(ServeEvent::Admitted { frame: ticket.id, session: ticket.session, at });
            }
            Err(reason) => {
                // Counter-offer: an unmeetable frame gets one more
                // admission test at the deepest ladder rung's (cheaper)
                // min service; passing admits it pinned to that rung
                // instead of rejecting.
                if reason == RejectReason::Unmeetable && self.cfg.quality.counter_offer {
                    if let Some((rung, degraded_min)) = self.degraded_min_service(ticket) {
                        let offer = self.cfg.admission.decide(
                            self.queue.len(),
                            session_depth,
                            self.cfg.session_queue_quota,
                            queued_wait,
                            ticket.arrival,
                            ticket.deadline,
                            degraded_min,
                        );
                        if offer.is_ok() {
                            self.quality
                                .as_mut()
                                .expect("degraded_min_service implies an active governor")
                                .pinned
                                .insert(ticket.id.index(), rung);
                            self.metrics.quality_counter_offer();
                            if self.recorder.is_enabled() {
                                self.recorder.mark(
                                    "admit.degraded",
                                    gbu_telemetry::Domain::Cycles,
                                    at,
                                    self.ticket_labels(ticket),
                                );
                                self.recorder.counter("serve.quality.counter_offers").add(1);
                            }
                            self.enqueue(ticket);
                            self.emit(ServeEvent::Admitted {
                                frame: ticket.id,
                                session: ticket.session,
                                at,
                            });
                            self.emit(ServeEvent::Degraded {
                                frame: ticket.id,
                                session: ticket.session,
                                level: rung,
                                at,
                            });
                            return;
                        }
                    }
                }
                self.reject_ticket(ticket, reason, at)
            }
        }
    }

    /// Admits every timer-generated arrival due at or before `now`.
    ///
    /// Due sessions come off the timer heap and are drained in ascending
    /// session index, each session's due arrivals back to back — the
    /// order a sweep over every slot produces, so admission order and
    /// `FrameId`s do not depend on the heap. Cost: O(D log S) for D due
    /// sessions out of S armed timers, plus one pop per stale entry of a
    /// detached session.
    fn admit_due(&mut self, now: u64) {
        let mut due = Vec::new();
        while let Some(&Reverse((at, s))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            if self.timer_is_live(at, s) {
                due.push(s as usize);
            }
        }
        due.sort_unstable();
        for s in due {
            while let Some((slot, (at, frame))) =
                self.slots[s].as_ref().and_then(|slot| Some((slot, slot.next_arrival?)))
            {
                if at > now {
                    break;
                }
                let (period, frames) = (slot.period, slot.session.spec.frames);
                let id = self.alloc_frame();
                let ticket = FrameTicket {
                    id,
                    session: SessionId(s as u32),
                    frame,
                    arrival: at,
                    deadline: at.saturating_add(period),
                };
                self.admit(ticket, at);
                let next_frame = frame + 1;
                self.slots[s].as_mut().expect("slot checked above").next_arrival =
                    (next_frame < frames).then_some((at.saturating_add(period), next_frame));
            }
            match self.slots[s].as_ref().and_then(|slot| slot.next_arrival) {
                Some((at, _)) => self.timers.push(Reverse((at, s as u32))),
                None => self.armed_timers -= 1,
            }
        }
    }

    /// The deadline-drop pass: cancels queued frames that can no longer
    /// meet their deadline even on an uncontended device. With an active
    /// quality governor the bound sheds quality before it sheds the
    /// frame: a frame pinned to a counter-offer rung — or caught by a
    /// non-zero global shed level — is judged by its *degraded* view's
    /// (cheaper) min service, so it survives as long as the degraded
    /// render could still land in time.
    fn drop_pass(&mut self, now: u64) {
        let mut q = self.quality.take();
        let mut i = 0;
        while i < self.queue.len() {
            let t = self.queue[i];
            let slot_min =
                self.slots[t.session.index()].as_ref().map_or(0, |slot| slot.min_service);
            let min_service = match q.as_ref() {
                Some(q) => {
                    let rung = q.pinned.get(&t.id.index()).map_or(q.level, |&r| r.max(q.level));
                    match (rung, self.slots[t.session.index()].as_ref()) {
                        (0, _) | (_, None) => slot_min,
                        (rung, Some(slot)) => {
                            let cycles = self.rung_view(slot.session.view(t.frame), rung).occupancy;
                            slot.mode.min_service(cycles).min(slot_min)
                        }
                    }
                }
                None => slot_min,
            };
            if now.saturating_add(min_service) > t.deadline {
                self.dequeue(i);
                if let Some(q) = q.as_mut() {
                    q.pinned.remove(&t.id.index());
                }
                self.drop_ticket(t, DropReason::Deadline, now);
            } else {
                i += 1;
            }
        }
        self.quality = q;
    }

    /// Host-GPU preprocessing (Step ❶ project + Step ❷ bin) cycles to
    /// charge this dispatch, per [`ServeConfig::prep`].
    ///
    /// With sharing on, the charge is per *view handle* per epoch
    /// window: the first frame over a shared [`PreparedView`] within
    /// the window pays the full Step-❶/❷ cost, co-scheduled frames
    /// over the same `Arc` ride for free. Classic (non-store) sessions
    /// hold distinct `Arc`s even for identical content, so they can
    /// never falsely share — pointer identity is the key.
    fn prep_charge_cycles(
        &mut self,
        view: &std::sync::Arc<PreparedView>,
        period: u64,
        now: u64,
    ) -> u64 {
        let Some(prep) = self.cfg.prep else { return 0 };
        let w = gbu_gpu::FrameWorkload {
            gaussians: view.prep.gaussians as f64,
            instances: view.prep.instances as f64,
            sort_passes: f64::from(view.prep.sort_passes),
            ..gbu_gpu::FrameWorkload::default()
        };
        let seconds = gbu_gpu::timing::step1_time(&w, &self.cfg.gpu, prep.sh_degree)
            + gbu_gpu::timing::step2_time(&w, &self.cfg.gpu);
        let full = (seconds * self.cfg.gbu.clock_ghz * 1e9).round().max(1.0) as u64;
        if prep.share {
            let key = std::sync::Arc::as_ptr(view) as usize;
            let window = prep.share_window_cycles.unwrap_or(period).max(1);
            if let Some(&(_, paid)) = self.prep_paid.get(&key) {
                if now.saturating_sub(paid) < window {
                    self.metrics.prep_shared(full);
                    if self.recorder.is_enabled() {
                        self.recorder.counter("serve.prep.shared").add(1);
                        self.recorder.counter("serve.prep.saved_cycles").add(full);
                    }
                    return 0;
                }
            }
            self.prep_paid.insert(key, (std::sync::Arc::downgrade(view), now));
        }
        self.metrics.prep_charged(full);
        if self.recorder.is_enabled() {
            self.recorder.counter("serve.prep.charged").add(1);
        }
        full
    }

    /// Dispatches queued, already-arrived frames the backend can accept
    /// right now. A frame is eligible when it has arrived *and* the
    /// backend has capacity for its session's [`ExecMode`] — on a
    /// cluster, an unsharded frame needs one open lane while a k-shard
    /// frame needs k, so cheap frames backfill around a wide frame that
    /// is still waiting for lanes (the scheduler keeps its priority
    /// order *within* the eligible set).
    ///
    /// Backfill is a deliberate work-conserving trade-off: lanes never
    /// idle while any placeable frame waits, but under sustained narrow
    /// load a k-wide frame may never see k lanes simultaneously free —
    /// EDF priority does not reserve lanes across dispatch rounds. The
    /// deadline passes pick up the pieces ([`ServeConfig::drop_unmeetable`]
    /// sheds the starved frame once its deadline is provably gone, and
    /// lane-aware `reject_unmeetable` refuses hopeless wide frames at
    /// admission). [`FleetConfig::lane_reservation`] closes the gap
    /// directly: with it on, each dispatch round reserves open lanes for
    /// the widest arrived queued frame — a narrower frame is eligible
    /// only when dispatching it still leaves that many lanes open, so
    /// unsharded backfill can no longer starve a wide frame forever
    /// (this matters most during scale-down, when the lane supply is
    /// shrinking under the wide frame).
    ///
    /// Each round reads the backend's open-lane count once and tests
    /// every queued frame's mode against it ([`ExecMode::fits`], the
    /// test [`ClusterBackend::can_accept`] makes), so a round costs
    /// O(L + Q) for L lanes and Q queued frames; a round with no open
    /// lane stops before looking at the queue. The scheduler picks among
    /// the eligible frames, which it sees in queue order, so its
    /// tie-breaks do not depend on which frames are ineligible.
    fn dispatch(&mut self, now: u64) {
        while !self.queue.is_empty() {
            let open = self.backend.open_lane_count();
            if open == 0 {
                // Every frame needs at least one lane.
                break;
            }
            // Lane reservation: the widest arrived frame's lane need,
            // capped at what the fleet can ever supply. Recomputed per
            // round — the reserve holder itself dispatching releases it.
            let reserve = if self.cfg.fleet.lane_reservation {
                self.queue
                    .iter()
                    .filter(|t| t.arrival <= now)
                    .map(|t| self.mode_requirements(t.session).0)
                    .max()
                    .unwrap_or(0)
                    .min(self.backend.live_lane_count())
            } else {
                0
            };
            let eligible_mask: Vec<bool> = self
                .queue
                .iter()
                .map(|t| {
                    let mode = self.slots[t.session.index()]
                        .as_ref()
                        .expect("queued frames of detached sessions are dropped at detach")
                        .mode;
                    let k = mode.lanes_needed();
                    t.arrival <= now
                        && mode.fits(open)
                        && (reserve == 0 || k >= reserve || open >= reserve + k)
                })
                .collect();
            let qi = if eligible_mask.iter().all(|&e| e) {
                // Common case: everything queued is dispatchable — pick
                // in place, no copy.
                let Some(i) = self.scheduler.pick(&self.queue, now) else { break };
                i
            } else {
                // Pushed frames stamped beyond the backend clock wait for
                // their arrival event, and frames whose mode lacks open
                // lanes wait for capacity; pick among the rest.
                let eligible: Vec<FrameTicket> = self
                    .queue
                    .iter()
                    .zip(&eligible_mask)
                    .filter_map(|(t, &e)| e.then_some(*t))
                    .collect();
                if eligible.is_empty() {
                    break;
                }
                let Some(e) = self.scheduler.pick(&eligible, now) else { break };
                let picked = eligible[e].id;
                self.queue
                    .iter()
                    .position(|t| t.id == picked)
                    .expect("picked ticket comes from the queue")
            };
            let ticket = self.dequeue(qi);
            let slot = self.slots[ticket.session.index()]
                .as_ref()
                .expect("queued frames of detached sessions are dropped at detach");
            let (mode, period) = (slot.mode, slot.period);
            let view = slot.session.view(ticket.frame).clone();
            let view = self.quality_substitute(view, ticket, now);
            let prep_cycles = self.prep_charge_cycles(&view, period, now);
            let device = self.backend.submit(&view, ticket, mode, prep_cycles);
            self.metrics.start(ticket, now);
            if self.recorder.is_enabled() {
                self.recorder.mark(
                    "dispatch",
                    gbu_telemetry::Domain::Cycles,
                    now,
                    self.ticket_labels(ticket),
                );
                self.recorder.counter("serve.dispatched").add(1);
            }
            self.emit(ServeEvent::Started {
                frame: ticket.id,
                session: ticket.session,
                device,
                at: now,
            });
        }
    }
}

/// A client-shaped view of a [`ServeEngine`]: the subset an AR/VR client
/// connection (or the RPC layer fronting one) needs — attach, submit,
/// poll, detach. Borrow it from [`ServeEngine::handle`].
///
/// This is an ergonomic narrowing, not a privilege boundary: the same
/// methods stay available on the engine itself for hosts that drive both
/// sides.
#[derive(Debug)]
pub struct ServeHandle<'e> {
    engine: &'e mut ServeEngine,
}

impl ServeHandle<'_> {
    /// See [`ServeEngine::attach_session`].
    pub fn attach_session(&mut self, session: Session) -> SessionId {
        self.engine.attach_session(session)
    }

    /// See [`ServeEngine::attach_spec`].
    pub fn attach_spec(&mut self, spec: SessionSpec) -> SessionId {
        self.engine.attach_spec(spec)
    }

    /// See [`ServeEngine::detach_session`].
    pub fn detach_session(&mut self, id: SessionId) -> bool {
        self.engine.detach_session(id)
    }

    /// See [`ServeEngine::submit_frame`].
    pub fn submit_frame(&mut self, session: SessionId, view: u32) -> FrameId {
        self.engine.submit_frame(session, view)
    }

    /// See [`ServeEngine::poll`].
    pub fn poll(&self, frame: FrameId) -> FrameStatus {
        self.engine.poll(frame)
    }
}

/// The greedy earliest-free schedule behind the admission wait estimate,
/// as a pure function of its inputs.
///
/// `lanes` holds each live lane's per-device backlog in cycles (every
/// lane non-empty) and is consumed as scratch; `queued` yields each
/// queued frame's `(lanes needed, optimistic service)` in queue order;
/// `k` is the candidate's lane need. Each queued frame in turn adds its
/// service (saturating) to the earliest-free device — lowest device
/// index on ties — of each of its `min(need, L)` earliest-free lanes.
/// The answer is the candidate's critical-path lane: the k-th earliest
/// lane-free cycle once every queued frame is placed (0 without lanes).
///
/// Lanes rank by `(earliest-free cycle, lane index)`. The lane index is
/// part of the contract: lanes of several devices can share an
/// earliest-free cycle yet differ in their other devices, so which one
/// a frame lands on changes later answers. A binary min-heap on that
/// key holds the ranking, so a queued frame costs O(k·(log L + d)) — k
/// pops, k device updates, k pushes — and the candidate's answer is its
/// k-th pop.
fn greedy_wait(
    lanes: &mut [Vec<u64>],
    queued: impl IntoIterator<Item = (usize, u64)>,
    k: usize,
) -> u64 {
    let lane_free = |lane: &[u64]| lane.iter().copied().min().expect("lanes are non-empty");
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        lanes.iter().enumerate().map(|(l, lane)| Reverse((lane_free(lane), l))).collect();
    let mut taken = Vec::new();
    for (need, service) in queued {
        // Pop every lane the frame occupies before pushing any back: a
        // frame's lanes are distinct.
        taken.clear();
        for _ in 0..need.min(lanes.len()) {
            let Some(Reverse((_, l))) = heap.pop() else { unreachable!("one entry per lane") };
            taken.push(l);
        }
        for &l in &taken {
            let lane = &mut lanes[l];
            let d = (0..lane.len()).min_by_key(|&d| lane[d]).expect("lanes are non-empty");
            lane[d] = lane[d].saturating_add(service);
            heap.push(Reverse((lane_free(lane), l)));
        }
    }
    let mut free = 0;
    for _ in 0..k.min(lanes.len()) {
        let Some(Reverse((f, _))) = heap.pop() else { unreachable!("one entry per lane") };
        free = f;
    }
    free
}

/// Batch entry point at a fixed clock: attaches clones of `sessions`,
/// drains the engine, seals it and returns the report — the exact
/// behaviour of the old run-to-completion API, now a thin wrapper over
/// [`ServeEngine::step_until`].
pub fn run_sessions(cfg: ServeConfig, sessions: &[Session]) -> ServeReport {
    let mut engine = ServeEngine::new(cfg);
    for session in sessions {
        engine.attach_session(session.clone());
    }
    engine.drain();
    engine.finish();
    debug_assert!(engine.is_drained());
    engine.report()
}

/// Convenience: prepare, calibrate and run one workload under `cfg`.
///
/// The GBU clock is chosen with [`calibrated_clock_ghz`] so the offered
/// load is `target_utilization` of the backend's total device capacity;
/// everything else comes from `cfg`.
pub fn run_workload(
    mut cfg: ServeConfig,
    sessions: &[Session],
    target_utilization: f64,
) -> ServeReport {
    cfg.gbu.clock_ghz = calibrated_clock_ghz(sessions, cfg.total_devices(), target_utilization);
    run_sessions(cfg, sessions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionContent, SessionSpec};
    use crate::QosTarget;

    fn tiny_spec(i: usize, frames: u32) -> SessionSpec {
        SessionSpec {
            name: format!("s{i}"),
            content: SessionContent::Synthetic { seed: i as u64, gaussians: 40 + 30 * (i % 3) },
            qos: [QosTarget::AR_60, QosTarget::VR_72, QosTarget::VR_90][i % 3],
            frames,
            phase: 0.0,
            exec: ExecMode::Unsharded,
        }
    }

    fn tiny_workload(n: usize, frames: u32) -> Vec<Session> {
        (0..n).map(|i| Session::prepare(tiny_spec(i, frames), &GbuConfig::paper())).collect()
    }

    #[test]
    fn underloaded_pool_serves_everything_on_time() {
        let sessions = tiny_workload(3, 4);
        let report = run_workload(ServeConfig::default(), &sessions, 0.3);
        assert_eq!(report.generated, 12);
        assert_eq!(report.completed, 12);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.missed, 0, "30% load must not miss deadlines");
        assert!(report.device_utilization < 0.6);
    }

    #[test]
    fn overload_produces_misses_and_backpressure() {
        let sessions = tiny_workload(4, 6);
        let cfg = ServeConfig {
            admission: AdmissionControl { max_queue_depth: 2, ..AdmissionControl::default() },
            ..ServeConfig::default()
        };
        let report = run_workload(cfg, &sessions, 3.0);
        assert_eq!(report.generated, 24);
        assert_eq!(report.completed + report.rejected, 24, "frame conservation");
        assert!(report.rejected > 0, "3x overload with depth-2 queue must reject");
        assert_eq!(report.reject_reasons.queue_full, report.rejected);
        assert!(report.deadline_miss_rate > 0.0);
    }

    #[test]
    fn more_devices_increase_throughput_under_overload() {
        let sessions = tiny_workload(6, 5);
        // Calibrate against ONE device, then compare 1 vs 3 devices at
        // the same clock: the bigger pool must complete frames faster.
        let clock = calibrated_clock_ghz(&sessions, 1, 2.0);
        let run = |devices: usize| {
            let mut cfg = ServeConfig { devices, ..ServeConfig::default() };
            cfg.gbu.clock_ghz = clock;
            run_sessions(cfg, &sessions)
        };
        let one = run(1);
        let three = run(3);
        assert!(
            three.p95_latency_ms < one.p95_latency_ms,
            "3 devices should cut tail latency: {} vs {}",
            three.p95_latency_ms,
            one.p95_latency_ms
        );
        assert!(three.missed <= one.missed);
    }

    #[test]
    fn report_sessions_match_workload() {
        let sessions = tiny_workload(3, 2);
        let report = run_workload(ServeConfig::default(), &sessions, 0.5);
        assert_eq!(report.sessions.len(), 3);
        for (s, session) in report.sessions.iter().zip(&sessions) {
            assert_eq!(s.name, session.spec.name);
            assert_eq!(s.generated, session.spec.frames as usize);
            assert_eq!(s.completed + s.rejected, session.spec.frames as usize);
        }
    }

    #[test]
    fn submit_and_poll_drive_a_push_only_session() {
        let mut cfg = ServeConfig::default();
        cfg.gbu.clock_ghz = calibrated_clock_ghz(&tiny_workload(1, 1), 1, 0.5);
        let mut engine = ServeEngine::new(cfg);
        // frames: 0 -> no QoS timer; the host pushes every request.
        let sid = engine.attach_spec(SessionSpec { frames: 0, ..tiny_spec(0, 0) });
        assert_eq!(engine.attached_sessions(), 1);
        assert!(engine.is_drained(), "push-only session generates nothing on its own");

        let f0 = engine.handle().submit_frame(sid, 0);
        let f1 = engine.handle().submit_frame(sid, 1);
        assert_eq!(engine.poll(f0), FrameStatus::Queued);
        assert_eq!(engine.poll(f1), FrameStatus::Queued);
        assert!(!engine.is_drained());

        let mut t = 0u64;
        let mut events = Vec::new();
        while !engine.is_drained() {
            t += 1 << 20;
            events.extend(engine.step_until(t));
        }
        assert!(matches!(engine.poll(f0), FrameStatus::Completed { .. }));
        assert!(matches!(engine.poll(f1), FrameStatus::Completed { .. }));
        // Event stream: 2 admitted, 2 started, 2 completed.
        assert_eq!(events.len(), 6);
        assert_eq!(events.iter().filter(|e| matches!(e, ServeEvent::Completed { .. })).count(), 2);
        let report = engine.report();
        assert_eq!(report.completed, 2);
        assert_eq!(report.generated, 2);
    }

    #[test]
    fn submitting_to_an_unknown_session_rejects_the_future() {
        let mut engine = ServeEngine::new(ServeConfig::default());
        let ghost = SessionId::from_index(42);
        let f = engine.handle().submit_frame(ghost, 0);
        assert_eq!(engine.poll(f), FrameStatus::Rejected(RejectReason::UnknownSession));
        let events = engine.step_until(0);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            ServeEvent::Rejected { reason: RejectReason::UnknownSession, .. }
        ));
        // A never-issued id is a caller error, not offered load: the
        // caller sees the rejection, the serving metrics do not.
        let report = engine.report();
        assert_eq!(report.generated, 0);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.reject_reasons.unknown_session, 0);
    }

    #[test]
    fn submitting_to_a_detached_session_is_recorded_against_it() {
        let sessions = tiny_workload(1, 1);
        let mut cfg = ServeConfig::default();
        cfg.gbu.clock_ghz = calibrated_clock_ghz(&sessions, 1, 0.5);
        let mut engine = ServeEngine::new(cfg);
        let sid = engine.attach_session(sessions[0].clone());
        engine.drain();
        engine.detach_session(sid);
        let f = engine.handle().submit_frame(sid, 0);
        assert_eq!(engine.poll(f), FrameStatus::Rejected(RejectReason::UnknownSession));
        // The detached session keeps a roster row, so the late submit is
        // accounted there and per-session sums still cover the totals.
        let report = engine.report();
        assert_eq!(report.reject_reasons.unknown_session, 1);
        assert_eq!(report.sessions[0].rejected, 1);
        let session_total: usize = report.sessions.iter().map(|s| s.generated).sum();
        assert_eq!(session_total, report.generated);
    }

    #[test]
    fn engine_outlives_a_drained_workload() {
        let sessions = tiny_workload(2, 2);
        let mut cfg = ServeConfig::default();
        cfg.gbu.clock_ghz = calibrated_clock_ghz(&sessions, 1, 0.5);
        let mut engine = ServeEngine::new(cfg);
        engine.attach_session(sessions[0].clone());
        engine.drain();
        assert!(engine.is_drained());
        let mid = engine.now();
        // A drained engine is not finished: a new client can attach and
        // be served — `drain` must not have declared the end of time.
        let sid = engine.attach_session(sessions[1].clone());
        let f = engine.handle().submit_frame(sid, 0);
        engine.drain();
        assert!(engine.is_drained());
        assert!(matches!(engine.poll(f), FrameStatus::Completed { .. }));
        assert!(engine.now() > mid, "time kept moving");
        let report = engine.report();
        assert_eq!(report.generated, 2 + 2 + 1);
        assert_eq!(report.completed, report.generated);
    }

    #[test]
    fn detach_cancels_queued_and_in_flight_work() {
        let sessions = tiny_workload(3, 6);
        let mut cfg = ServeConfig { devices: 1, ..ServeConfig::default() };
        // Heavy overload: frames pile up in the queue behind one device.
        cfg.gbu.clock_ghz = calibrated_clock_ghz(&sessions, 1, 4.0);
        let mut engine = ServeEngine::new(cfg);
        let ids: Vec<SessionId> =
            sessions.iter().map(|s| engine.attach_session(s.clone())).collect();

        // Step a little, then detach session 0 mid-run.
        let period = sessions[0].spec.qos.period_cycles(engine.config().gbu.clock_ghz);
        engine.step_until(2 * period);
        assert!(engine.detach_session(ids[0]));
        assert!(!engine.detach_session(ids[0]), "second detach is a no-op");
        assert_eq!(engine.attached_sessions(), 2);

        engine.drain();
        let _ = engine.finish();
        let report = engine.report();
        // Detached session: everything it generated is accounted for, and
        // nothing new was generated after detach.
        let s0 = &report.sessions[0];
        assert!(s0.generated < 6, "timer must stop at detach");
        assert_eq!(s0.generated, s0.completed + s0.rejected + s0.dropped);
        assert!(s0.dropped > 0, "overloaded queue must have held frames to drop");
        assert_eq!(report.drop_reasons.session_detached, report.dropped);
        // Survivors ran to completion.
        for s in &report.sessions[1..] {
            assert_eq!(s.generated, 6);
            assert_eq!(s.generated, s.completed + s.rejected + s.dropped);
        }
        assert_eq!(report.generated, report.completed + report.rejected + report.dropped);
    }

    #[test]
    fn windowed_engine_bounds_history_and_preserves_lifetime() {
        let sessions = tiny_workload(3, 8);
        let clock = calibrated_clock_ghz(&sessions, 1, 0.5);
        let run = |window: Option<usize>| {
            let mut cfg = ServeConfig { metrics_window: window, ..ServeConfig::default() };
            cfg.gbu.clock_ghz = clock;
            run_sessions(cfg, &sessions)
        };
        let full = run(None);
        let windowed = run(Some(5));
        // Same simulation: whole-run conservation is identical...
        assert_eq!(windowed.lifetime.generated, full.generated);
        assert_eq!(windowed.lifetime.completed, full.completed);
        assert_eq!(windowed.lifetime.missed, full.missed);
        assert_eq!(
            windowed.lifetime.generated,
            windowed.lifetime.completed + windowed.lifetime.rejected + windowed.lifetime.dropped
        );
        // ...while the windowed report covers only the most recent
        // records per category.
        assert_eq!(windowed.completed, 5);
        assert!(windowed.generated <= 15);
        assert!(windowed.p95_latency_ms > 0.0, "percentiles stay exact within the window");
    }

    #[test]
    fn deadline_drop_pass_sheds_unmeetable_queue_entries() {
        let sessions = tiny_workload(4, 6);
        let base = ServeConfig { devices: 1, ..ServeConfig::default() };
        let plain = run_workload(base.clone(), &sessions, 3.0);
        let dropping = run_workload(ServeConfig { drop_unmeetable: true, ..base }, &sessions, 3.0);
        assert!(dropping.dropped > 0, "3x overload must leave unmeetable frames in queue");
        assert_eq!(dropping.drop_reasons.deadline, dropping.dropped);
        assert_eq!(dropping.generated, plain.generated);
        assert_eq!(
            dropping.generated,
            dropping.completed + dropping.rejected + dropping.dropped,
            "conservation with drops"
        );
        // Dropping hopeless frames can only reduce completed-but-missed.
        assert!(dropping.missed <= plain.missed);
    }

    #[test]
    fn idle_device_admits_despite_other_device_backlog() {
        // Calibrate so one frame roughly fills one device's period: any
        // estimate that spreads the busy device's backlog over the pool
        // would call a frame on the idle device unmeetable.
        let sessions = tiny_workload(1, 1);
        let mut cfg = ServeConfig { devices: 2, ..ServeConfig::default() };
        cfg.admission.reject_unmeetable = true;
        cfg.gbu.clock_ghz = calibrated_clock_ghz(&sessions, 1, 1.0);
        let mut engine = ServeEngine::new(cfg);
        let sid = engine.attach_spec(SessionSpec { frames: 0, ..tiny_spec(0, 0) });
        let f0 = engine.handle().submit_frame(sid, 0);
        engine.step_until(1); // dispatch f0 onto device 0
        assert_eq!(engine.poll(f0), FrameStatus::Rendering);
        // Device 1 is idle and the queue is empty: the wait estimate is
        // an earliest-free bound, so this frame must be admitted.
        let f1 = engine.handle().submit_frame(sid, 1);
        assert!(
            !matches!(engine.poll(f1), FrameStatus::Rejected(_)),
            "an idle device means zero wait: {:?}",
            engine.poll(f1)
        );
        engine.drain();
        assert!(matches!(engine.poll(f1), FrameStatus::Completed { .. }));
    }

    fn sharded_spec(shards: usize, strategy: gbu_render::shard::ShardStrategy) -> SessionSpec {
        SessionSpec {
            name: format!("sharded-{shards}"),
            content: SessionContent::SyntheticHd {
                seed: 5,
                gaussians: 150,
                width: 128,
                height: 96,
            },
            qos: QosTarget::VR_72,
            frames: 0,
            phase: 0.0,
            exec: ExecMode::Sharded { shards, strategy },
        }
    }

    #[test]
    fn cluster_engine_serves_mixed_modes_through_one_api() {
        use gbu_render::shard::ShardStrategy;
        let cfg = ServeConfig {
            backend: BackendKind::Cluster { lanes: 3, devices_per_lane: 1 },
            retain_images: true,
            ..ServeConfig::default()
        };
        assert_eq!(cfg.total_devices(), 3);
        let mut engine = ServeEngine::new(cfg);
        let sharded = engine.attach_spec(sharded_spec(2, ShardStrategy::CostBalanced));
        let plain = engine.attach_spec(SessionSpec { frames: 0, ..tiny_spec(0, 0) });

        let fs = engine.handle().submit_frame(sharded, 0);
        let fp = engine.handle().submit_frame(plain, 0);
        let mut events = Vec::new();
        while !engine.is_drained() {
            events.extend(engine.drain());
        }
        assert!(matches!(engine.poll(fs), FrameStatus::Completed { .. }));
        assert!(matches!(engine.poll(fp), FrameStatus::Completed { .. }));

        // The sharded frame: Admitted, Started, 2 ShardCompleted, then
        // Completed — in that order; the plain frame never emits shards.
        let of = |frame| {
            events.iter().filter(move |e| e.frame() == Some(frame)).cloned().collect::<Vec<_>>()
        };
        let sharded_events = of(fs);
        assert!(matches!(sharded_events[0], ServeEvent::Admitted { .. }));
        assert!(matches!(sharded_events[1], ServeEvent::Started { .. }));
        assert!(
            matches!(sharded_events[2], ServeEvent::ShardCompleted { shard: 0, .. })
                || matches!(sharded_events[2], ServeEvent::ShardCompleted { shard: 1, .. })
        );
        assert!(matches!(sharded_events[3], ServeEvent::ShardCompleted { .. }));
        assert!(matches!(sharded_events[4], ServeEvent::Completed { .. }));
        assert_eq!(sharded_events.len(), 5);
        assert!(
            !of(fp).iter().any(|e| matches!(e, ServeEvent::ShardCompleted { .. })),
            "unsharded frames emit no shard events"
        );

        // The merged sharded image is bit-identical to a direct
        // single-device render of the same view.
        let session =
            Session::prepare(sharded_spec(2, ShardStrategy::CostBalanced), &GbuConfig::paper());
        let view = session.view(0);
        let mut gbu = gbu_core::Gbu::new(GbuConfig::paper());
        gbu.render_image(&view.splats, &view.bins, &view.camera, gbu_math::Vec3::ZERO).unwrap();
        let reference = gbu.wait().expect("frame in flight").image;
        let merged = engine.take_image(fs).expect("image retained");
        assert_eq!(merged.pixels(), reference.pixels(), "merged image bit-identical");
        assert!(engine.take_image(fs).is_none(), "images are taken once");

        // The report carries per-frame shard imbalance for the sharded
        // frame only.
        let report = engine.report();
        assert_eq!(report.completed, 2);
        let sharding = report.sharding.as_ref().expect("a sharded frame completed");
        assert_eq!(sharding.frames.len(), 1);
        assert_eq!(sharding.frames[0].shards, 2);
        assert!(sharding.mean_imbalance >= 1.0 - 1e-12);
    }

    #[test]
    #[should_panic(expected = "wants 2 shard lanes but the backend has 1")]
    fn sharded_session_requires_cluster_backend() {
        use gbu_render::shard::ShardStrategy;
        let mut engine = ServeEngine::new(ServeConfig::default());
        engine.attach_spec(sharded_spec(2, ShardStrategy::CostBalanced));
    }

    #[test]
    fn lane_aware_admission_rejects_only_provably_unmeetable_shards() {
        use gbu_render::shard::ShardStrategy;
        // Calibrate so an unsharded frame costs ~2 periods: hopeless
        // unsharded, provably fine at 4 shards (bound = unsharded/4).
        let sessions = vec![Session::prepare(
            sharded_spec(4, ShardStrategy::CostBalanced),
            &GbuConfig::paper(),
        )];
        let mut cfg = ServeConfig {
            backend: BackendKind::Cluster { lanes: 4, devices_per_lane: 1 },
            ..ServeConfig::default()
        };
        cfg.admission.reject_unmeetable = true;
        cfg.gbu.clock_ghz = calibrated_clock_ghz(&sessions, 1, 2.0);
        let mut engine = ServeEngine::new(cfg.clone());
        let four = engine.attach_session(sessions[0].clone());
        let f_ok = engine.handle().submit_frame(four, 0);
        assert!(
            !matches!(engine.poll(f_ok), FrameStatus::Rejected(_)),
            "a 4-shard frame's critical-path bound fits the period: {:?}",
            engine.poll(f_ok)
        );
        engine.drain();
        assert!(matches!(engine.poll(f_ok), FrameStatus::Completed { .. }));

        // The same scene as a 1-shard session on the same cluster: its
        // critical-path lane must execute the whole frame — provably
        // unmeetable, rejected at admission.
        let mut engine = ServeEngine::new(cfg);
        let one = engine.attach_spec(sharded_spec(1, ShardStrategy::CostBalanced));
        let f_bad = engine.handle().submit_frame(one, 0);
        assert_eq!(engine.poll(f_bad), FrameStatus::Rejected(RejectReason::Unmeetable));
    }

    #[test]
    fn session_queue_quota_rejects_the_flooder_only() {
        let mut cfg = ServeConfig { session_queue_quota: Some(2), ..ServeConfig::default() };
        cfg.gbu.clock_ghz = calibrated_clock_ghz(&tiny_workload(1, 1), 1, 0.5);
        let mut engine = ServeEngine::new(cfg);
        let flooder = engine.attach_spec(SessionSpec { frames: 0, ..tiny_spec(0, 0) });
        let peer = engine.attach_spec(SessionSpec { frames: 0, ..tiny_spec(1, 0) });
        // Flood five submissions at once: 2 queue, the rest bounce.
        let floods: Vec<FrameId> =
            (0..5).map(|v| engine.handle().submit_frame(flooder, v)).collect();
        let rejected = floods
            .iter()
            .filter(|f| engine.poll(**f) == FrameStatus::Rejected(RejectReason::QuotaExceeded))
            .count();
        assert_eq!(rejected, 3, "the quota holds two queued frames per session");
        // The peer is untouched by the flooder's quota.
        let p = engine.handle().submit_frame(peer, 0);
        assert_eq!(engine.poll(p), FrameStatus::Queued);
        engine.drain();
        let report = engine.report();
        assert_eq!(report.reject_reasons.quota_exceeded, 3);
        assert_eq!(report.sessions[1].rejected, 0);
    }

    #[test]
    fn reject_unmeetable_refuses_hopeless_frames_at_admission() {
        let sessions = tiny_workload(2, 4);
        let mut cfg = ServeConfig::default();
        cfg.admission.reject_unmeetable = true;
        // 5x overload: every frame's optimistic service time exceeds its
        // period, so deadline-aware admission refuses all of them.
        let report = run_workload(cfg, &sessions, 5.0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.rejected, report.generated);
        assert_eq!(report.reject_reasons.unmeetable, report.rejected);
    }

    use crate::fleet::{FleetEvent, FleetPlan, MigrationConfig};

    fn cluster_fleet_cfg(lanes: usize, fleet: FleetConfig) -> ServeConfig {
        ServeConfig {
            backend: BackendKind::Cluster { lanes, devices_per_lane: 1 },
            fleet,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn lane_kill_requeues_in_flight_frames_and_conserves() {
        let session =
            Session::prepare(SessionSpec { frames: 0, ..tiny_spec(0, 0) }, &GbuConfig::paper());
        let svc = session.min_frame_cycles();
        let plan = FleetPlan::new(vec![
            // Mid-service kill (the optimistic bound guarantees the frame
            // is still in flight), restore well after.
            FleetEvent { at: svc / 2, action: FleetAction::Kill(0) },
            FleetEvent { at: svc * 4, action: FleetAction::Restore(0) },
        ]);
        let cfg = cluster_fleet_cfg(2, FleetConfig { plan, ..FleetConfig::default() });
        let mut engine = ServeEngine::new(cfg);
        let sid = engine.attach_session(session);
        let f0 = engine.handle().submit_frame(sid, 0);
        let f1 = engine.handle().submit_frame(sid, 1);
        let mut events = engine.drain();
        events.extend(engine.finish());
        assert!(engine.is_drained());

        assert!(matches!(engine.poll(f0), FrameStatus::Completed { .. }));
        assert!(matches!(engine.poll(f1), FrameStatus::Completed { .. }));
        let requeues: Vec<_> =
            events.iter().filter(|e| matches!(e, ServeEvent::Requeued { .. })).collect();
        assert_eq!(requeues.len(), 1, "exactly one frame was on the killed lane");
        assert!(matches!(
            requeues[0],
            ServeEvent::Requeued { reason: RequeueReason::LaneFailed, .. }
        ));
        assert!(events.iter().any(|e| matches!(e, ServeEvent::LaneDown { lane: 0, .. })));
        assert!(
            events.iter().any(|e| matches!(e, ServeEvent::LaneUp { lane: 0, generation: 1, .. })),
            "restore starts generation 1"
        );
        // Each requeue pairs with an extra Started: the frame dispatched
        // twice but completed once.
        let started = events.iter().filter(|e| matches!(e, ServeEvent::Started { .. })).count();
        let completed = events.iter().filter(|e| matches!(e, ServeEvent::Completed { .. })).count();
        assert_eq!(started, completed + 1);

        let report = engine.report();
        assert_eq!(report.generated, 2);
        assert_eq!(report.completed, 2, "the killed frame recovered");
        assert_eq!(report.requeued, 1);
        assert_eq!(report.requeue_reasons.lane_failed, 1);
        assert_eq!(report.lane_churn, 2, "one down + one up");
        assert_eq!(report.generated, report.completed + report.rejected + report.dropped);
    }

    #[test]
    fn migration_moves_homed_sessions_off_a_dying_lane() {
        let plan = FleetPlan::new(vec![FleetEvent { at: 1_000, action: FleetAction::Kill(0) }]);
        let fleet = FleetConfig {
            plan,
            migration: Some(MigrationConfig { rebalance: false }),
            ..FleetConfig::default()
        };
        let mut engine = ServeEngine::new(cluster_fleet_cfg(2, fleet));
        // Two unsharded sessions: homes land on the two coldest lanes in
        // attach order — s0 on lane 0, s1 on lane 1.
        let s0 = engine.attach_spec(SessionSpec { frames: 0, ..tiny_spec(0, 0) });
        let _s1 = engine.attach_spec(SessionSpec { frames: 0, ..tiny_spec(1, 0) });
        let events = engine.drain();
        let migrated: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                ServeEvent::SessionMigrated { session, from, to, .. } => {
                    Some((*session, *from, *to))
                }
                _ => None,
            })
            .collect();
        assert_eq!(migrated, vec![(s0, 0, 1)], "only the session homed on lane 0 moves");
        let report = engine.report();
        assert_eq!(report.migrated, 1);
        assert_eq!(report.lane_churn, 1);
    }

    #[test]
    fn autoscaler_shrinks_when_idle_and_grows_under_pressure() {
        let light = tiny_workload(1, 6);
        let mut cfg = cluster_fleet_cfg(4, FleetConfig::default());
        // Calibrate so ONE session loads the 4-lane cluster to ~10%.
        cfg.gbu.clock_ghz = calibrated_clock_ghz(&light, 4, 0.1);
        let period = light[0].spec.qos.period_cycles(cfg.gbu.clock_ghz);
        cfg.fleet.autoscale = Some(AutoscaleConfig {
            interval: period / 2,
            cooldown_ticks: 0,
            min_lanes: 1,
            shrink_occupancy: 1.0,
            ..AutoscaleConfig::default()
        });
        let mut engine = ServeEngine::new(cfg);
        engine.attach_session(light[0].clone());
        let mut events = engine.drain();
        let downs = events.iter().filter(|e| matches!(e, ServeEvent::LaneDown { .. })).count();
        assert!(downs >= 1, "an underloaded fleet parks lanes, saw {downs} LaneDown");

        // Now pile on 12x the load: misses push window pressure over the
        // grow threshold and the autoscaler restores parked lanes.
        for s in tiny_workload(12, 8) {
            engine.attach_session(s);
        }
        events.extend(engine.drain());
        events.extend(engine.finish());
        assert!(engine.is_drained());
        let ups = events.iter().filter(|e| matches!(e, ServeEvent::LaneUp { .. })).count();
        assert!(ups >= 1, "sustained overload restores parked lanes, saw {ups} LaneUp");
        let report = engine.report();
        assert_eq!(report.lane_churn, downs + ups);
        assert_eq!(report.generated, report.completed + report.rejected + report.dropped);
        // Scale-down requeues are non-terminal bookkeeping.
        assert_eq!(report.requeue_reasons.lane_retired, report.requeued);
    }

    #[test]
    fn lane_reservation_stops_backfill_from_starving_wide_frames() {
        use gbu_render::shard::ShardStrategy;
        // The sharded session gets the *latest* deadline (AR_60 vs VR_90
        // elsewhere), so EDF alone would always backfill the unsharded
        // queue first and the 2-wide frame waits for a lucky double-idle.
        let run = |lane_reservation: bool| {
            let fleet = FleetConfig { lane_reservation, ..FleetConfig::default() };
            let mut engine = ServeEngine::new(cluster_fleet_cfg(2, fleet));
            let wide = engine.attach_spec(SessionSpec {
                frames: 0,
                qos: QosTarget::AR_60,
                exec: ExecMode::Sharded { shards: 2, strategy: ShardStrategy::CostBalanced },
                ..sharded_spec(2, ShardStrategy::CostBalanced)
            });
            let narrow = engine.attach_spec(SessionSpec {
                frames: 0,
                qos: QosTarget::VR_90,
                ..tiny_spec(1, 0)
            });
            let wf = engine.handle().submit_frame(wide, 0);
            for v in 0..6 {
                engine.handle().submit_frame(narrow, v);
            }
            let mut events = engine.drain();
            events.extend(engine.finish());
            assert!(matches!(engine.poll(wf), FrameStatus::Completed { .. }));
            // Position of the wide frame's Started among all Starteds.
            events
                .iter()
                .filter(|e| matches!(e, ServeEvent::Started { .. }))
                .position(|e| e.frame() == Some(wf))
                .expect("the wide frame started")
        };
        let reserved = run(true);
        let unreserved = run(false);
        assert_eq!(reserved, 0, "reservation holds both lanes for the wide frame");
        assert!(
            unreserved > 0,
            "without reservation EDF backfills the earlier-deadline narrow frames first"
        );
    }

    #[test]
    fn admission_survives_every_lane_being_down() {
        let plan = FleetPlan::new(vec![
            FleetEvent { at: 100, action: FleetAction::Kill(0) },
            FleetEvent { at: 200_000_000, action: FleetAction::Restore(0) },
        ]);
        let mut cfg = cluster_fleet_cfg(1, FleetConfig { plan, ..FleetConfig::default() });
        cfg.admission.reject_unmeetable = true;
        cfg.admission.in_flight_aware = true;
        let mut engine = ServeEngine::new(cfg);
        let sid = engine.attach_spec(SessionSpec { frames: 0, ..tiny_spec(0, 0) });
        engine.step_until(1_000); // process the kill: zero live lanes
                                  // The wait estimate has no lane to measure — it must stay
                                  // optimistic (admit), not panic on an empty backlog list.
        let f = engine.handle().submit_frame(sid, 0);
        assert_eq!(engine.poll(f), FrameStatus::Queued);
        engine.drain();
        assert!(
            matches!(engine.poll(f), FrameStatus::Completed { .. }),
            "the frame runs once the lane is restored"
        );
    }

    #[test]
    fn scene_store_without_prep_reports_byte_identically() {
        // Same specs, same clock: classic private preparation vs the
        // shared store with prep modelling off must be indistinguishable
        // down to the serialized report.
        let specs: Vec<SessionSpec> = (0..4).map(|i| tiny_spec(i % 2, 3)).collect();
        let gbu = GbuConfig::paper();
        let classic = crate::workload::prepare_all(specs.clone(), &gbu);
        let store = crate::store::SceneStore::new();
        let stored = crate::workload::prepare_all_shared(specs, &gbu, &store);
        let cfg = ServeConfig { scene_store: Some(store), ..ServeConfig::default() };
        let json = |cfg: ServeConfig, sessions| run_workload(cfg, sessions, 0.5).to_json();
        assert_eq!(json(ServeConfig::default(), &classic), json(cfg, &stored));
    }

    #[test]
    fn push_only_store_session_reports_like_a_classic_one() {
        // A push-only store session renders and prices the view each
        // submission names, exactly like a classic one.
        let report = |scene_store| {
            let mut engine =
                ServeEngine::new(ServeConfig { scene_store, ..ServeConfig::default() });
            let id = engine.attach_spec(tiny_spec(1, 0));
            for v in 0..3 {
                engine.submit_frame(id, v);
                engine.drain();
            }
            engine.report().to_json()
        };
        assert_eq!(report(None), report(Some(crate::store::SceneStore::new())));
    }

    #[test]
    fn prep_charging_counts_and_slows_frames() {
        let sessions = tiny_workload(3, 4);
        let base = run_workload(ServeConfig::default(), &sessions, 0.5);
        assert_eq!(base.preprocessing, crate::metrics::PrepCounts::default());
        let cfg = ServeConfig { prep: Some(PrepConfig::default()), ..ServeConfig::default() };
        let charged = run_workload(cfg, &sessions, 0.5);
        assert_eq!(charged.preprocessing.frames_charged, charged.completed);
        assert_eq!(charged.preprocessing.frames_shared, 0);
        assert!(charged.preprocessing.cycles_charged > 0);
        assert!(
            charged.p50_latency_ms > base.p50_latency_ms,
            "the host Step-❶/❷ charge must show up in latency: {} vs {}",
            charged.p50_latency_ms,
            base.p50_latency_ms
        );
    }

    #[test]
    fn sharing_discounts_co_scheduled_frames_over_one_handle() {
        // Four sessions over ONE scene through a shared store: with the
        // share window open, only the first frame over each (view, epoch)
        // pays; classic private sessions can never share (distinct Arcs).
        let store = crate::store::SceneStore::new();
        let specs: Vec<SessionSpec> =
            (0..4).map(|i| SessionSpec { name: format!("c{i}"), ..tiny_spec(0, 3) }).collect();
        let sessions: Vec<Session> = specs
            .iter()
            .map(|s| Session::prepare_shared(s.clone(), &GbuConfig::paper(), &store))
            .collect();
        let run = |share: bool, sessions: &[Session]| {
            let cfg = ServeConfig {
                scene_store: Some(store.clone()),
                prep: Some(PrepConfig { share, ..PrepConfig::default() }),
                ..ServeConfig::default()
            };
            run_workload(cfg, sessions, 0.5)
        };
        let unshared = run(false, &sessions);
        assert_eq!(unshared.preprocessing.frames_shared, 0);
        assert_eq!(unshared.preprocessing.frames_charged, unshared.completed);

        let shared = run(true, &sessions);
        assert!(shared.preprocessing.frames_shared > 0, "co-scheduled frames must share");
        assert_eq!(
            shared.preprocessing.frames_shared + shared.preprocessing.frames_charged,
            shared.completed
        );
        assert!(shared.preprocessing.cycles_saved > 0);
        assert!(
            shared.p50_latency_ms < unshared.p50_latency_ms,
            "sharing the Step-❶/❷ charge must recover latency: {} vs {}",
            shared.p50_latency_ms,
            unshared.p50_latency_ms
        );

        // Classic sessions under share=true: distinct Arcs, no discount.
        let classic: Vec<Session> =
            specs.iter().map(|s| Session::prepare(s.clone(), &GbuConfig::paper())).collect();
        let cfg = ServeConfig {
            prep: Some(PrepConfig { share: true, ..PrepConfig::default() }),
            ..ServeConfig::default()
        };
        let private = run_workload(cfg, &classic, 0.5);
        assert_eq!(private.preprocessing.frames_shared, 0, "private views never falsely share");
    }

    #[test]
    fn private_view_churn_never_shares_and_leaves_no_per_view_state() {
        // Attach a private session, serve one frame, detach — 64 times.
        // Each detach frees the session's views, so a later session's
        // views can land at recycled addresses. The address-keyed prep
        // ledger must neither carry state across sessions nor outlive
        // the views (degraded siblings included) it describes.
        let gbu = GbuConfig::paper();
        let ladder = QualityGovernor::default_ladder();
        let probe = Session::prepare(tiny_spec(0, 0), &gbu);
        let exact_min = probe.min_frame_cycles();
        let deepest = *ladder.last().expect("non-empty ladder");
        let degraded = probe.view(0).degraded(deepest).occupancy;
        // At a 1 GHz clock, a `tight` frame period sits between the
        // degraded and the exact service of view 0, so its frames are
        // admitted as degraded counter-offers; `loose` frames run exact.
        let period = (degraded + exact_min) / 2;
        assert!(degraded < period && period < exact_min, "{degraded} < {period} < {exact_min}");
        let tight = QosTarget { hz: 1e9 / period as f64 };
        let loose = QosTarget { hz: tight.hz / 100.0 };
        let mut cfg = ServeConfig {
            admission: AdmissionControl { reject_unmeetable: true, ..AdmissionControl::default() },
            quality: QualityGovernor { ladder, counter_offer: true, ..QualityGovernor::default() },
            prep: Some(PrepConfig {
                share: true,
                share_window_cycles: Some(u64::MAX),
                ..PrepConfig::default()
            }),
            ..ServeConfig::default()
        };
        cfg.gbu.clock_ghz = 1.0;
        let mut engine = ServeEngine::new(cfg);
        for round in 0..64 {
            let qos = if round % 2 == 0 { tight } else { loose };
            let id = engine.attach_session(Session::prepare(
                SessionSpec { qos, ..tiny_spec(0, 0) },
                &engine.config().gbu,
            ));
            engine.submit_frame(id, 0);
            engine.drain();
            assert!(engine.detach_session(id));
        }
        let report = engine.report();
        assert_eq!(report.completed, 64);
        assert_eq!(report.quality.counter_offers, 32, "every tight frame is counter-offered");
        assert_eq!(report.quality.frames_degraded, 32);
        assert_eq!(report.preprocessing.frames_shared, 0, "private views never share");
        assert!(
            engine.prep_paid.is_empty(),
            "{} prep ledger entries remain",
            engine.prep_paid.len()
        );
    }

    #[test]
    fn timer_arrivals_admit_in_session_order_through_churn() {
        // Six sessions on one QoS grid (equal rate, zero phase): every
        // arrival cycle is shared. Session 2 detaches and session 6
        // attaches on the grid mid-run; at every shared cycle the
        // admissions must come in ascending session id with gap-free
        // frame ids.
        let spec = |i: usize| SessionSpec { qos: QosTarget::VR_72, frames: 8, ..tiny_spec(i, 8) };
        let sessions: Vec<Session> =
            (0..6).map(|i| Session::prepare(spec(i), &GbuConfig::paper())).collect();
        let mut cfg = ServeConfig { devices: 4, ..ServeConfig::default() };
        cfg.gbu.clock_ghz = calibrated_clock_ghz(&sessions, 4, 0.5);
        let period = QosTarget::VR_72.period_cycles(cfg.gbu.clock_ghz);
        let mut engine = ServeEngine::new(cfg);
        for session in &sessions {
            engine.attach_session(session.clone());
        }
        let mut events = engine.step_until(3 * period);
        assert!(engine.detach_session(SessionId(2)));
        let late = engine.attach_session(Session::prepare(spec(6), &GbuConfig::paper()));
        assert_eq!(late, SessionId(6));
        // Coarse and fine slices alike.
        events.extend(engine.step_until(5 * period + period / 3));
        while !engine.is_drained() {
            events.extend(engine.step_until(engine.now() + period / 7));
        }
        let admitted: Vec<(u64, SessionId, FrameId)> = events
            .iter()
            .filter_map(|e| match *e {
                ServeEvent::Admitted { frame, session, at } => Some((at, session, frame)),
                _ => None,
            })
            .collect();
        let ids: Vec<u64> = admitted.iter().map(|&(_, _, f)| f.index()).collect();
        assert_eq!(ids, (0..ids.len() as u64).collect::<Vec<_>>(), "gap-free frame ids");
        for pair in admitted.windows(2) {
            let ((a0, s0, _), (a1, s1, _)) = (pair[0], pair[1]);
            assert!(a0 <= a1, "arrivals admit in time order");
            if a0 == a1 {
                assert!(s0 < s1, "at cycle {a0}: session {s1:?} admitted after {s0:?}");
            }
        }
        let at = |cycle: u64| -> Vec<SessionId> {
            admitted.iter().filter(|&&(a, _, _)| a == cycle).map(|&(_, s, _)| s).collect()
        };
        assert_eq!(at(0), (0..6).map(SessionId).collect::<Vec<_>>());
        assert_eq!(at(4 * period), [0, 1, 3, 4, 5, 6].map(SessionId));
        assert_eq!(at(8 * period), [6].map(SessionId), "only the late session has frames left");
        let generated = |s: u32| admitted.iter().filter(|&&(_, id, _)| id == SessionId(s)).count();
        assert_eq!(generated(2), 4, "the detached session's timer stops");
        assert_eq!(generated(6), 8);
        assert_eq!(engine.report().generated, 6 * 8 - 4 + 8);
    }

    /// The sort-based admission schedule, one fresh sort of every lane
    /// per queued frame: the oracle for [`greedy_wait`].
    fn greedy_wait_sorted(
        lanes: &mut [Vec<u64>],
        queued: impl IntoIterator<Item = (usize, u64)>,
        k: usize,
    ) -> u64 {
        if lanes.is_empty() {
            return 0;
        }
        let lane_free = |lane: &[u64]| lane.iter().copied().min().expect("lanes are non-empty");
        for (need, service) in queued {
            let mut order: Vec<usize> = (0..lanes.len()).collect();
            order.sort_by_key(|&l| (lane_free(&lanes[l]), l));
            for &l in order.iter().take(need.min(lanes.len())) {
                let d =
                    (0..lanes[l].len()).min_by_key(|&d| lanes[l][d]).expect("lanes are non-empty");
                lanes[l][d] = lanes[l][d].saturating_add(service);
            }
        }
        let mut frees: Vec<u64> = lanes.iter().map(|l| lane_free(l)).collect();
        frees.sort_unstable();
        frees[k.min(frees.len()) - 1]
    }

    /// `small` cycles, or `small` cycles short of `u64::MAX` when
    /// `near_max`, so that sums saturate.
    fn cycles(small: u64, near_max: bool) -> u64 {
        if near_max {
            u64::MAX - small
        } else {
            small
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// The heap schedule answers exactly what the sorting one does.
        /// Small cycle ranges make lane ties common, lanes of 2–3 devices
        /// make the lane-index tie-break change answers, and one value in
        /// eight sits near `u64::MAX`.
        #[test]
        fn heap_wait_estimate_matches_the_sorting_oracle(
            n_lanes in 1usize..17,
            devices in 1usize..4,
            backlogs in proptest::prop::collection::vec((0u64..6, 0u32..8), 48..49),
            queued in proptest::prop::collection::vec((1usize..5, 0u64..5, 0u32..8), 0..24),
            k in 1usize..5,
        ) {
            let lanes: Vec<Vec<u64>> = (0..n_lanes)
                .map(|l| {
                    (0..devices)
                        .map(|d| {
                            let (small, pick) = backlogs[l * devices + d];
                            cycles(small, pick == 0)
                        })
                        .collect()
                })
                .collect();
            let queued: Vec<(usize, u64)> = queued
                .iter()
                .map(|&(need, small, pick)| (need, cycles(small, pick == 0)))
                .collect();
            let k = k.min(n_lanes);
            let expected = greedy_wait_sorted(&mut lanes.clone(), queued.iter().copied(), k);
            let got = greedy_wait(&mut lanes.clone(), queued.iter().copied(), k);
            proptest::prop_assert_eq!(got, expected, "lanes {:?} queued {:?} k {}", lanes, queued, k);
        }
    }
}
