//! `gbu_serve` — a reactive multi-session frame-serving engine over a
//! pool of simulated GBU devices.
//!
//! The paper's asynchronous `GBU_render_image` / `GBU_check_status`
//! programming model (Listing 1; `gbu_core::device`) exists so a host can
//! pipeline frames across concurrent workloads. This crate builds the
//! serving layer that exploits it — and exposes the same asynchronous
//! shape to its own callers:
//!
//! - [`engine`]: the [`ServeEngine`] owns its sessions (attach/detach at
//!   runtime by [`SessionId`]) and is driven open-loop: a host calls
//!   [`ServeEngine::step_until`] in whatever time slices it likes and
//!   gets back typed [`ServeEvent`]s (`Admitted`, `Rejected`, `Started`,
//!   `ShardCompleted`, `Completed`, `Dropped`). The [`ServeHandle`] is
//!   the client-facing surface: non-blocking
//!   [`ServeHandle::submit_frame`] returning a [`FrameId`] future,
//!   resolved by [`ServeEngine::poll`] → [`FrameStatus`]. The old batch
//!   behaviour survives as the thin [`run_workload`] / [`run_sessions`]
//!   wrappers;
//! - [`backend`]: the execution vocabulary — [`BackendKind`] sizes the
//!   engine's one [`ClusterBackend`] ([`BackendKind::Single`] is a
//!   1-lane cluster of [`ServeConfig::devices`] GBUs,
//!   [`BackendKind::Cluster`] any number of lanes), and each *session*
//!   picks its [`ExecMode`] (`Unsharded`, or
//!   `Sharded { shards, strategy }` fanning every frame over that many
//!   cluster lanes), so mixed sharded/unsharded sessions share one
//!   clock, one scheduler and one admission gate. Progress comes back
//!   as [`ExecCompletion`]s carrying a [`FrameDone`] per frame;
//! - [`session`]: a [`Session`] is one AR/VR client — scene content
//!   (static / dynamic / avatar, resolved through `gbu_core::apps`), a
//!   preprocessed viewpoint stream, and a [`QosTarget`] (60/72/90 Hz
//!   deadline classes). Sessions with `frames > 0` generate requests on a
//!   QoS timer; push-only sessions (`frames == 0`) are driven entirely by
//!   `submit_frame`;
//! - [`pool`]: a [`DevicePool`] owns N [`gbu_core::Gbu`] devices advanced
//!   on **one** simulated clock with shared-DRAM bandwidth contention
//!   (the paper's Limitation 2, generalised to a pool), plus per-device
//!   cancellation over the device's `cancel_in_flight` hook;
//! - [`cluster`]: the [`ClusterBackend`], the engine's only execution
//!   backend — N [`DevicePool`] lanes on one lockstep clock (submit /
//!   cancel / `next_completion_dt` / advance / per-lane backlogs /
//!   capacity probes / lane lifecycle), mirroring how the paper's GBU
//!   hides behind a stable host interface. Unsharded frames run on the
//!   least-busy lane; sharded frames (planned by `gbu_render::shard`,
//!   including the measurement-fed `ShardStrategy::Measured` replanner)
//!   fan over the least-busy `shards` lanes, each landing reported
//!   shard by shard before the merged, bit-identical frame completes;
//! - [`scheduler`]: the engine's one ready queue and its dispatch
//!   [`Policy`], a closed set (FCFS, round-robin, earliest-deadline-first)
//!   that picks among the eligible queued frames ([`Policy::pick`]). The
//!   queue keeps each frame's counter-offer rung beside its
//!   [`FrameTicket`], with the per-session depths the quota reads.
//!   [`AdmissionControl`] adds bounded-queue backpressure and optional
//!   deadline-aware rejection ([`AdmissionControl::reject_unmeetable`]);
//!   the engine-side deadline-drop pass ([`ServeConfig::drop_unmeetable`])
//!   sheds queued frames whose deadline became unmeetable;
//! - [`event`]: the shared vocabulary — [`SessionId`], [`FrameId`],
//!   [`ServeEvent`], [`FrameStatus`], [`RejectReason`], [`DropReason`],
//!   [`RequeueReason`];
//! - [`fleet`]: the fleet control plane — a [`FleetPlan`]
//!   fault-injection schedule kills and restores cluster lanes mid-run
//!   (in-flight frames are requeued, not lost), [`MigrationConfig`]
//!   moves sessions' home lanes off dying/crowded lanes
//!   ([`ServeEvent::SessionMigrated`]), [`AutoscaleConfig`] grows and
//!   shrinks the live-lane set from windowed miss-rate pressure with
//!   hysteresis, and [`FleetConfig::lane_reservation`] keeps wide
//!   sharded frames from starving during scale-down. The autoscaler and
//!   the quality governor's pressure shedding run on one private
//!   controller: a tick grid, a cooldown and a hysteresis band, offered
//!   to the event loop only while work is pending;
//! - [`quality`]: the quality governor — a [`QualityGovernor`]
//!   degradation ladder over `gbu_render::contrib`'s contribution-aware
//!   render modes lets the engine ship *cheaper* frames instead of
//!   rejecting or dropping them: admission counter-offers a degraded
//!   render for unmeetable frames ([`ServeEvent::Degraded`]), pressure
//!   shedding steps the global quality level down under deadline
//!   pressure and recovers to exact with hysteresis, and every degraded
//!   dispatch is priced at its genuinely smaller modeled occupancy;
//! - [`metrics`]: [`ServeMetrics`] → [`ServeReport`] — throughput,
//!   per-session FPS, p50/p95/p99 latency, deadline-miss rate,
//!   drop/reject-reason breakdowns and device utilization, with JSON
//!   serialisation for the bench harness;
//! - [`workload`]: canonical heterogeneous session mixes shared by the
//!   examples, the integration tests and the bench sweep.
//!
//! # Batch example
//!
//! ```
//! use gbu_serve::{run_workload, workload, Policy, ServeConfig};
//! use gbu_hw::GbuConfig;
//!
//! let specs = workload::synthetic_mix(6, 3);
//! let sessions = workload::prepare_all(specs, &GbuConfig::paper());
//! let cfg = ServeConfig { devices: 2, policy: Policy::Edf, ..ServeConfig::default() };
//! // Run at 80% pool utilization.
//! let report = run_workload(cfg, &sessions, 0.8);
//! assert_eq!(report.completed + report.rejected, 18);
//! ```
//!
//! # Reactive example: submit a frame, poll its future
//!
//! ```
//! use gbu_serve::{
//!     ExecMode, FrameStatus, QosTarget, ServeConfig, ServeEngine, SessionContent, SessionSpec,
//! };
//!
//! let mut engine = ServeEngine::new(ServeConfig::default());
//! // `frames: 0` makes the session push-only: no QoS timer, the host
//! // submits every request itself.
//! let client = engine.attach_spec(SessionSpec {
//!     name: "hmd-0".into(),
//!     content: SessionContent::Synthetic { seed: 7, gaussians: 30 },
//!     qos: QosTarget::VR_72,
//!     frames: 0,
//!     phase: 0.0,
//!     exec: ExecMode::Unsharded,
//! });
//!
//! // Non-blocking submission returns a frame future immediately.
//! let frame = engine.handle().submit_frame(client, 0);
//! assert_eq!(engine.poll(frame), FrameStatus::Queued);
//!
//! // Drive the engine like a host loop: step, react to events.
//! let mut now = 0;
//! while !engine.is_drained() {
//!     now += 1_000_000; // one 1-Mcycle slice
//!     for event in engine.step_until(now) {
//!         println!("{event:?}");
//!     }
//! }
//! assert!(matches!(engine.poll(frame), FrameStatus::Completed { missed: false, .. }));
//! ```
//!
//! # Cluster example: sharded and unsharded sessions on one engine
//!
//! ```
//! use gbu_render::shard::ShardStrategy;
//! use gbu_serve::{
//!     BackendKind, ExecMode, FrameStatus, QosTarget, ServeConfig, ServeEngine, ServeEvent,
//!     SessionContent, SessionSpec,
//! };
//!
//! // A 3-lane cluster: same engine API, different execution backend.
//! let mut engine = ServeEngine::new(ServeConfig {
//!     backend: BackendKind::Cluster { lanes: 3, devices_per_lane: 1 },
//!     ..ServeConfig::default()
//! });
//! let spec = |name: &str, exec| SessionSpec {
//!     name: name.into(),
//!     content: SessionContent::SyntheticHd { seed: 7, gaussians: 80, width: 128, height: 96 },
//!     qos: QosTarget::VR_72,
//!     frames: 0, // push-only
//!     phase: 0.0,
//!     exec,
//! };
//! // A 2-wide sharded session and an unsharded one share the clock.
//! let sharded = engine.attach_spec(spec(
//!     "hmd-sharded",
//!     ExecMode::Sharded { shards: 2, strategy: ShardStrategy::CostBalanced },
//! ));
//! let plain = engine.attach_spec(spec("hmd-plain", ExecMode::Unsharded));
//!
//! let f0 = engine.handle().submit_frame(sharded, 0);
//! let f1 = engine.handle().submit_frame(plain, 0);
//! let events = engine.drain();
//!
//! // The sharded frame lands shard by shard before completing.
//! let shards = events
//!     .iter()
//!     .filter(|e| matches!(e, ServeEvent::ShardCompleted { frame, .. } if *frame == f0))
//!     .count();
//! assert_eq!(shards, 2);
//! assert!(matches!(engine.poll(f0), FrameStatus::Completed { .. }));
//! assert!(matches!(engine.poll(f1), FrameStatus::Completed { .. }));
//! // Per-frame shard imbalance lands in the report's sharding block.
//! assert_eq!(engine.report().sharding.expect("sharded frames ran").frames.len(), 1);
//! ```
//!
//! # Degraded-mode example: shed quality, not frames
//!
//! ```
//! use gbu_hw::GbuConfig;
//! use gbu_serve::{
//!     run_workload, workload, AdmissionControl, Policy, QualityGovernor, ServeConfig,
//! };
//!
//! // The default governor is inactive: zero config, byte-identical
//! // serving behaviour.
//! assert!(!QualityGovernor::default().is_active());
//!
//! let governor = QualityGovernor {
//!     ladder: QualityGovernor::default_ladder(), // top 75% → 50% → 25%
//!     counter_offer: true,    // admit unmeetable frames degraded
//!     shed_on_pressure: true, // step the global level under pressure
//!     interval: 2_000,        // pressure tick, in device cycles
//!     ..QualityGovernor::default()
//! };
//! assert!(governor.is_active());
//!
//! let specs = workload::synthetic_mix(4, 6);
//! let sessions = workload::prepare_all(specs, &GbuConfig::paper());
//! let cfg = ServeConfig {
//!     policy: Policy::Edf,
//!     // Counter-offers replace *unmeetable-frame rejections*, so the
//!     // admission check that produces them must be on.
//!     admission: AdmissionControl { reject_unmeetable: true, ..AdmissionControl::default() },
//!     quality: governor,
//!     ..ServeConfig::default()
//! };
//! // Overload one device at 2x capacity: under deadline pressure the
//! // governor serves cheaper frames instead of shipping nothing.
//! let report = run_workload(cfg, &sessions, 2.0);
//! let q = report.quality;
//! assert!(q.frames_degraded > 0, "overload forces degraded dispatches");
//! assert!(q.counter_offers > 0, "unmeetable frames are admitted degraded");
//! assert!(q.sheds > 0, "sustained pressure steps the global level");
//! assert!(q.cycles_saved > 0, "each degraded frame is genuinely cheaper");
//! assert_eq!(q.frames_exact + q.frames_degraded, report.completed);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod cluster;
mod control;
pub mod engine;
pub mod event;
pub mod fleet;
pub mod metrics;
pub mod pool;
pub mod quality;
pub mod scheduler;
pub mod session;
pub mod store;
pub mod workload;

pub use backend::{BackendKind, ExecCompletion, ExecMode, FrameDone};
pub use cluster::ClusterBackend;
pub use engine::{
    calibrated_clock_ghz, run_sessions, run_workload, PrepConfig, ServeConfig, ServeEngine,
    ServeHandle,
};
pub use event::{
    DropReason, FrameId, FrameStatus, RejectReason, RequeueReason, ServeEvent, SessionId,
};
pub use fleet::{
    AutoscaleConfig, FleetAction, FleetConfig, FleetEvent, FleetPlan, MigrationConfig,
};
pub use metrics::{
    DropBreakdown, FrameRecord, LifetimeCounts, PrepCounts, QualityCounts, RejectBreakdown,
    RequeueBreakdown, RunInfo, ServeMetrics, ServeReport, SessionReport, ShardFrameRecord,
    ShardingReport,
};
pub use pool::{DevicePool, PoolCompletion};
pub use quality::QualityGovernor;
pub use scheduler::{AdmissionControl, FrameTicket, Policy};
pub use session::{PreparedView, QosTarget, Session, SessionContent, SessionSpec, ViewPrepStats};
pub use store::{SceneStore, SceneStoreCounters};
