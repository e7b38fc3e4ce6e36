//! Property tests for the reactive serving API:
//!
//! 1. **Step-slicing equivalence** — driving the engine through
//!    `step_until` in arbitrary (proptest-chosen) cycle slices produces a
//!    `ServeReport` *identical* (bit-for-bit, `PartialEq` on every float)
//!    to the one-shot `run_sessions` batch wrapper on the same workload:
//!    step granularity is an observation choice, never a simulation
//!    input;
//! 2. **Frame conservation under detach** — detaching sessions mid-run
//!    stops their timers and cancels their queued/in-flight frames, and
//!    every generated frame still ends in exactly one terminal state
//!    (`completed + rejected + dropped == generated`), per session and in
//!    aggregate;
//! 3. **Event-stream / report consistency** — the typed `ServeEvent`
//!    stream, the `poll` futures and the final `ServeReport` agree on
//!    every count.

use gbu_hw::GbuConfig;
use gbu_serve::{
    calibrated_clock_ghz, run_sessions, AdmissionControl, AutoscaleConfig, BackendKind, ExecMode,
    FleetAction, FleetConfig, FleetEvent, FleetPlan, FrameStatus, MigrationConfig, Policy,
    QosTarget, ServeConfig, ServeEngine, ServeEvent, Session, SessionContent, SessionSpec,
};
use proptest::prelude::*;

fn workload(n_sessions: usize, frames: u32, seed: u64) -> Vec<Session> {
    (0..n_sessions)
        .map(|i| {
            Session::prepare(
                SessionSpec {
                    name: format!("s{i}"),
                    content: SessionContent::Synthetic {
                        seed: seed + i as u64,
                        gaussians: 30 + 40 * (i % 3),
                    },
                    qos: [QosTarget::AR_60, QosTarget::VR_72, QosTarget::VR_90][i % 3],
                    frames,
                    phase: (i as f64 * 0.37).fract(),
                    exec: ExecMode::Unsharded,
                },
                &GbuConfig::paper(),
            )
        })
        .collect()
}

fn config(devices: usize, policy: Policy, depth: usize, deadline_aware: bool) -> ServeConfig {
    ServeConfig {
        devices,
        policy,
        admission: AdmissionControl {
            max_queue_depth: depth,
            reject_unmeetable: deadline_aware,
            ..AdmissionControl::default()
        },
        drop_unmeetable: deadline_aware,
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Arbitrary step slicing replays the identical simulation.
    #[test]
    fn step_slicing_matches_one_shot_run(
        n_sessions in 2usize..5,
        frames in 2u32..5,
        devices in 1usize..3,
        depth in 2usize..8,
        util_pct in 50u32..220,
        seed in 0u64..1000,
        deadline_aware in any::<bool>(),
        slices in prop::collection::vec(1u64..50_000, 1..32),
    ) {
        let sessions = workload(n_sessions, frames, seed);
        for policy in Policy::all() {
            let mut cfg = config(devices, policy, depth, deadline_aware);
            cfg.gbu.clock_ghz =
                calibrated_clock_ghz(&sessions, devices, f64::from(util_pct) / 100.0);

            let one_shot = run_sessions(cfg.clone(), &sessions);

            let mut engine = ServeEngine::new(cfg);
            for s in &sessions {
                engine.attach_session(s.clone());
            }
            let mut now = 0u64;
            let mut events = Vec::new();
            for &slice in &slices {
                now += slice;
                events.extend(engine.step_until(now));
            }
            // Whatever the slices left unfinished, drain it the same way
            // the batch wrapper does.
            events.extend(engine.drain());
            events.extend(engine.finish());
            prop_assert!(engine.is_drained());
            let sliced = engine.report();

            prop_assert_eq!(&sliced, &one_shot, "policy {:?} diverged under slicing", policy);

            // The event stream agrees with the report it accompanied.
            let completed =
                events.iter().filter(|e| matches!(e, ServeEvent::Completed { .. })).count();
            let rejected =
                events.iter().filter(|e| matches!(e, ServeEvent::Rejected { .. })).count();
            let admitted =
                events.iter().filter(|e| matches!(e, ServeEvent::Admitted { .. })).count();
            let started = events.iter().filter(|e| matches!(e, ServeEvent::Started { .. })).count();
            prop_assert_eq!(completed, sliced.completed);
            prop_assert_eq!(rejected, sliced.rejected);
            prop_assert_eq!(admitted + rejected, sliced.generated);
            let dropped = events.iter().filter(|e| matches!(e, ServeEvent::Dropped { .. })).count();
            prop_assert_eq!(dropped, sliced.dropped);
            prop_assert_eq!(started, completed, "the drop pass only cancels queued frames");
        }
    }

    /// Detaching sessions mid-run preserves frame conservation.
    #[test]
    fn conservation_holds_under_mid_run_detach(
        n_sessions in 3usize..6,
        frames in 3u32..7,
        devices in 1usize..3,
        util_pct in 120u32..350,
        seed in 0u64..1000,
        detach_count in 1usize..3,
        detach_after in 1u64..200_000,
    ) {
        let sessions = workload(n_sessions, frames, seed);
        let mut cfg = config(devices, Policy::Edf, 64, false);
        cfg.gbu.clock_ghz = calibrated_clock_ghz(&sessions, devices, f64::from(util_pct) / 100.0);

        let mut engine = ServeEngine::new(cfg);
        let ids: Vec<_> = sessions.iter().map(|s| engine.attach_session(s.clone())).collect();
        engine.step_until(detach_after);
        for id in ids.iter().take(detach_count) {
            prop_assert!(engine.detach_session(*id));
        }
        engine.drain();
        engine.finish();
        prop_assert!(engine.is_drained());
        let report = engine.report();

        // Per-session and aggregate conservation, detached or not.
        prop_assert_eq!(report.sessions.len(), n_sessions, "roster keeps detached sessions");
        for (i, s) in report.sessions.iter().enumerate() {
            prop_assert_eq!(
                s.generated, s.completed + s.rejected + s.dropped,
                "conservation for session {}", i
            );
            prop_assert!(s.generated <= frames as usize);
            if i >= detach_count {
                prop_assert_eq!(s.generated, frames as usize, "survivors generate every frame");
            }
        }
        prop_assert_eq!(
            report.generated,
            report.completed + report.rejected + report.dropped
        );
        let session_total: usize = report.sessions.iter().map(|s| s.generated).sum();
        prop_assert_eq!(session_total, report.generated);
        prop_assert_eq!(report.drop_reasons.session_detached, report.dropped);

        // Nothing is generated beyond the specs' frame budgets.
        prop_assert!(report.generated <= n_sessions * frames as usize);
    }
}

/// A heterogeneous mixed-mode workload for the cluster backend: every
/// third session unsharded, the rest sharded at varying widths and
/// strategies (including `Measured`, whose feedback replanning must
/// also be slicing-invariant).
fn mixed_workload(n_sessions: usize, frames: u32, seed: u64, lanes: usize) -> Vec<Session> {
    use gbu_render::shard::ShardStrategy;
    let mut sessions = workload(n_sessions, frames, seed);
    for (i, s) in sessions.iter_mut().enumerate() {
        s.spec.exec = match i % 3 {
            0 => ExecMode::Unsharded,
            1 => ExecMode::Sharded { shards: 2.min(lanes), strategy: ShardStrategy::Measured },
            _ => ExecMode::Sharded { shards: lanes, strategy: ShardStrategy::CostBalanced },
        };
    }
    sessions
}

/// Attach `sessions`, drive with the given slices (then drain), seal,
/// and return the full event stream plus the report.
fn run_engine(
    cfg: ServeConfig,
    sessions: &[Session],
    slices: &[u64],
) -> (Vec<ServeEvent>, gbu_serve::ServeReport) {
    let mut engine = ServeEngine::new(cfg);
    for s in sessions {
        engine.attach_session(s.clone());
    }
    let mut events = Vec::new();
    let mut now = 0u64;
    for &slice in slices {
        now += slice;
        events.extend(engine.step_until(now));
    }
    events.extend(engine.drain());
    events.extend(engine.finish());
    assert!(engine.is_drained());
    (events, engine.report())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The cluster backend is slicing-invariant too: `step_until` at any
    /// granularity over mixed sharded/unsharded sessions replays the
    /// one-shot `drain` event stream (shard events included) bit for bit.
    #[test]
    fn cluster_step_slicing_matches_one_shot_drain(
        n_sessions in 2usize..5,
        frames in 2u32..4,
        lanes in 1usize..4,
        util_pct in 50u32..200,
        seed in 0u64..1000,
        deadline_aware in any::<bool>(),
        slices in prop::collection::vec(1u64..50_000, 1..24),
    ) {
        let sessions = mixed_workload(n_sessions, frames, seed, lanes);
        let mut cfg = config(1, Policy::Edf, 64, deadline_aware);
        cfg.backend = BackendKind::Cluster { lanes, devices_per_lane: 1 };
        cfg.gbu.clock_ghz =
            calibrated_clock_ghz(&sessions, lanes, f64::from(util_pct) / 100.0);

        let (one_shot_events, one_shot) = run_engine(cfg.clone(), &sessions, &[]);
        let (sliced_events, sliced) = run_engine(cfg, &sessions, &slices);

        prop_assert_eq!(&sliced_events, &one_shot_events, "event streams diverged");
        prop_assert_eq!(&sliced, &one_shot, "reports diverged");

        // Every sharded completion carries its full shard-event preamble.
        for e in &one_shot_events {
            if let ServeEvent::Completed { frame, .. } = e {
                let shards_seen = one_shot_events
                    .iter()
                    .filter(|se| {
                        matches!(se, ServeEvent::ShardCompleted { frame: f, .. } if f == frame)
                    })
                    .count();
                let session = e.session().expect("Completed carries a session").index();
                match sessions[session].spec.exec {
                    ExecMode::Unsharded => prop_assert_eq!(shards_seen, 0),
                    ExecMode::Sharded { shards, .. } => prop_assert_eq!(shards_seen, shards),
                }
            }
        }
        prop_assert_eq!(
            one_shot.generated,
            one_shot.completed + one_shot.rejected + one_shot.dropped,
            "conservation on the cluster backend"
        );
    }
}

/// A host-side intervention pinned to an absolute cycle: detach an
/// existing session or attach a fresh one. Applied at identical cycles
/// in both runs being compared, so the only degree of freedom left is
/// step granularity.
#[derive(Clone, Copy, Debug)]
enum Intervention {
    Detach(usize),
    Attach,
}

/// Drives `cfg` over `sessions` with `interventions` applied at their
/// scheduled cycles, stepping additionally at `extra_slices` boundaries,
/// then drains and seals. Both the intervention schedule and the fleet
/// plan inside `cfg` are keyed to absolute cycles, so two calls with
/// different `extra_slices` must replay the identical event stream.
fn run_churny(
    cfg: ServeConfig,
    sessions: &[Session],
    interventions: &[(u64, Intervention)],
    extra_slices: &[u64],
) -> (Vec<ServeEvent>, gbu_serve::ServeReport) {
    let mut engine = ServeEngine::new(cfg);
    let mut ids: Vec<_> = sessions.iter().map(|s| engine.attach_session(s.clone())).collect();
    let mut boundaries: Vec<(u64, Option<Intervention>)> =
        interventions.iter().map(|&(at, i)| (at, Some(i))).collect();
    boundaries.extend(extra_slices.iter().map(|&at| (at, None)));
    boundaries.sort_by_key(|&(at, _)| at);
    let mut events = Vec::new();
    let mut fresh = 0usize;
    for (at, action) in boundaries {
        events.extend(engine.step_until(at));
        match action {
            Some(Intervention::Detach(i)) => {
                engine.detach_session(ids[i % ids.len()]);
            }
            Some(Intervention::Attach) => {
                // A fresh timer-driven session joining mid-churn; its
                // timer phase anchors at the (identical) step horizon.
                let spec = SessionSpec {
                    name: format!("late-{fresh}"),
                    content: SessionContent::Synthetic {
                        seed: 7_000 + fresh as u64,
                        gaussians: 35,
                    },
                    qos: QosTarget::VR_72,
                    frames: 2,
                    phase: 0.25,
                    exec: ExecMode::Unsharded,
                };
                fresh += 1;
                ids.push(engine.attach_session(Session::prepare(spec, &GbuConfig::paper())));
            }
            None => {}
        }
    }
    events.extend(engine.drain());
    events.extend(engine.finish());
    assert!(engine.is_drained());
    (events, engine.report())
}

/// Checks one frame's event subsequence against the lifecycle grammar:
/// `Rejected` alone, or `Admitted` followed by any number of
/// `Started → ShardCompleted* → Requeued` cycles and a queue-side
/// `Dropped`/dispatch, ending in exactly one terminal
/// (`Completed`/`Dropped`).
fn assert_frame_grammar(events: &[&ServeEvent]) {
    #[derive(PartialEq, Debug)]
    enum S {
        Fresh,
        Queued,
        Running,
        Terminal,
    }
    let mut state = S::Fresh;
    for e in events {
        state = match (state, e) {
            (S::Fresh, ServeEvent::Rejected { .. }) => S::Terminal,
            (S::Fresh, ServeEvent::Admitted { .. }) => S::Queued,
            (S::Queued, ServeEvent::Started { .. }) => S::Running,
            (S::Queued, ServeEvent::Dropped { .. }) => S::Terminal,
            (S::Running, ServeEvent::ShardCompleted { .. }) => S::Running,
            (S::Running, ServeEvent::Requeued { .. }) => S::Queued,
            (S::Running, ServeEvent::Completed { .. }) => S::Terminal,
            (S::Running, ServeEvent::Dropped { .. }) => S::Terminal,
            (state, e) => panic!("event {e:?} illegal in state {state:?}"),
        };
    }
    assert_eq!(state, S::Terminal, "every frame ends terminal: {events:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Fleet churn is slicing-invariant: random lane kill/restore plans,
    /// migration, autoscaling and lane reservation, overlaid with random
    /// attach/detach schedules, replay the identical event stream at any
    /// step granularity — and every frame still walks the lifecycle
    /// grammar to exactly one terminal state.
    #[test]
    fn fleet_churn_is_slicing_invariant_and_conserves_frames(
        n_sessions in 3usize..6,
        frames in 2u32..4,
        lanes in 1usize..4,
        util_pct in 80u32..260,
        seed in 0u64..1000,
        plan_raw in prop::collection::vec((1u64..500_000, 0usize..4, any::<bool>()), 0..8),
        interventions_raw in prop::collection::vec((1u64..400_000, 0usize..8), 0..5),
        migration in any::<bool>(),
        rebalance in any::<bool>(),
        autoscale in any::<bool>(),
        lane_reservation in any::<bool>(),
        slices in prop::collection::vec(1u64..60_000, 1..24),
    ) {
        let sessions = mixed_workload(n_sessions, frames, seed, lanes);
        let mut cfg = config(1, Policy::Edf, 64, false);
        cfg.backend = BackendKind::Cluster { lanes, devices_per_lane: 1 };
        cfg.gbu.clock_ghz = calibrated_clock_ghz(&sessions, lanes, f64::from(util_pct) / 100.0);
        cfg.fleet = FleetConfig {
            plan: FleetPlan::new(
                plan_raw
                    .iter()
                    .map(|&(at, lane, kill)| FleetEvent {
                        at,
                        action: if kill {
                            FleetAction::Kill(lane % lanes)
                        } else {
                            FleetAction::Restore(lane % lanes)
                        },
                    })
                    .collect(),
            ),
            autoscale: autoscale.then(|| AutoscaleConfig {
                interval: 120_000,
                cooldown_ticks: 1,
                ..AutoscaleConfig::default()
            }),
            migration: migration.then_some(MigrationConfig { rebalance }),
            lane_reservation,
        };
        let interventions: Vec<(u64, Intervention)> = interventions_raw
            .iter()
            .map(|&(at, k)| {
                let kind = if k < n_sessions {
                    Intervention::Detach(k)
                } else {
                    Intervention::Attach
                };
                (at, kind)
            })
            .collect();

        let (coarse_events, coarse) = run_churny(cfg.clone(), &sessions, &interventions, &[]);
        let (fine_events, fine) = run_churny(cfg, &sessions, &interventions, &slices);
        prop_assert_eq!(&fine_events, &coarse_events, "event streams diverged under slicing");
        prop_assert_eq!(&fine, &coarse, "reports diverged under slicing");

        // Conservation with requeues explicitly non-terminal.
        prop_assert_eq!(
            coarse.generated,
            coarse.completed + coarse.rejected + coarse.dropped,
            "completed + rejected + dropped == generated under churn"
        );
        let requeues = coarse_events
            .iter()
            .filter(|e| matches!(e, ServeEvent::Requeued { .. }))
            .count();
        prop_assert_eq!(requeues, coarse.requeued, "report agrees with the event stream");
        let churn = coarse_events
            .iter()
            .filter(|e| matches!(e, ServeEvent::LaneDown { .. } | ServeEvent::LaneUp { .. }))
            .count();
        prop_assert_eq!(churn, coarse.lane_churn);

        // Per-frame lifecycle grammar, requeue cycles included.
        let max_frame = coarse_events.iter().filter_map(|e| e.frame()).map(|f| f.index()).max();
        if let Some(max_frame) = max_frame {
            for f in 0..=max_frame {
                let of_frame: Vec<&ServeEvent> = coarse_events
                    .iter()
                    .filter(|e| e.frame().is_some_and(|id| id.index() == f))
                    .collect();
                assert_frame_grammar(&of_frame);
            }
        }
    }
}

/// Pushed frames and timer frames share one queue, one id space and one
/// conservation law.
#[test]
fn pushed_and_timer_frames_share_conservation() {
    let sessions = workload(2, 3, 99);
    let mut cfg = config(1, Policy::Edf, 64, false);
    cfg.gbu.clock_ghz = calibrated_clock_ghz(&sessions, 1, 1.5);
    let period = sessions[0].spec.qos.period_cycles(cfg.gbu.clock_ghz);

    let mut engine = ServeEngine::new(cfg);
    let ids: Vec<_> = sessions.iter().map(|s| engine.attach_session(s.clone())).collect();
    // Interleave stepping with pushed submissions on top of the timers.
    let mut pushed = Vec::new();
    for k in 1..=4u64 {
        engine.step_until(k * period / 2);
        pushed.push(engine.handle().submit_frame(ids[(k % 2) as usize], k as u32));
    }
    engine.drain();
    engine.finish();
    assert!(engine.is_drained());

    for f in &pushed {
        let status = engine.poll(*f);
        assert!(
            matches!(
                status,
                FrameStatus::Completed { .. } | FrameStatus::Rejected(_) | FrameStatus::Dropped(_)
            ),
            "pushed frame must reach a terminal state, got {status:?}"
        );
    }
    let report = engine.report();
    assert_eq!(report.generated, 2 * 3 + 4, "timer frames + pushed frames");
    assert_eq!(report.generated, report.completed + report.rejected + report.dropped);
}
