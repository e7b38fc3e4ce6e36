//! Deterministic property tests for the serving subsystem:
//!
//! 1. **Frame conservation** — every generated frame completes or is
//!    rejected exactly once, under any session mix, pool size, queue
//!    bound and policy;
//! 2. **No EDF deadline inversion** — whenever EDF dispatches, no other
//!    queued frame has an earlier deadline;
//! 3. **Monotone clock** — the pool's simulated clock advances strictly
//!    monotonically through any submit/advance interleaving.

use gbu_hw::GbuConfig;
use gbu_serve::{
    calibrated_clock_ghz, run_sessions, AdmissionControl, DevicePool, Edf, ExecMode, FrameId,
    FrameTicket, Policy, QosTarget, Scheduler, ServeConfig, Session, SessionContent, SessionId,
    SessionSpec,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation: completed + rejected == generated, per session, for
    /// every policy, under varying load and queue bounds.
    #[test]
    fn frame_conservation(
        n_sessions in 2usize..6,
        frames in 2u32..6,
        devices in 1usize..4,
        depth in 1usize..8,
        util_pct in 40u32..250,
        seed in 0u64..1000,
    ) {
        let sessions = workload(n_sessions, frames, seed);
        for policy in Policy::all() {
            let mut cfg = ServeConfig {
                devices,
                policy,
                admission: AdmissionControl { max_queue_depth: depth, ..Default::default() },
                ..ServeConfig::default()
            };
            cfg.gbu.clock_ghz =
                calibrated_clock_ghz(&sessions, devices, f64::from(util_pct) / 100.0);
            let report = run_sessions(cfg, &sessions);
            let generated = n_sessions * frames as usize;
            prop_assert_eq!(report.generated, generated, "policy {:?}", policy);
            prop_assert_eq!(
                report.completed + report.rejected + report.dropped, generated,
                "conservation under {:?}", policy
            );
            for s in &report.sessions {
                prop_assert_eq!(s.completed + s.rejected + s.dropped, frames as usize);
            }
        }
    }

    /// EDF never dispatches past an earlier queued deadline.
    #[test]
    fn edf_has_no_deadline_inversion(
        raw in prop::collection::vec((0u32..8, 0u64..1000, 1u64..5000), 1..40),
        now in 0u64..2000,
    ) {
        let queue: Vec<FrameTicket> = raw
            .iter()
            .enumerate()
            .map(|(i, &(session, arrival, slack))| FrameTicket {
                id: FrameId::from_index(i as u64),
                session: SessionId::from_index(session as usize),
                frame: i as u32,
                arrival,
                deadline: arrival + slack,
            })
            .collect();
        let picked = Edf.pick(&queue, now).expect("non-empty queue");
        let earliest = queue.iter().map(|t| t.deadline).min().expect("non-empty");
        prop_assert_eq!(
            queue[picked].deadline, earliest,
            "EDF picked deadline {} but {} was queued", queue[picked].deadline, earliest
        );
    }

    /// The pool's simulated clock is strictly monotone through arbitrary
    /// submit/advance interleavings, and utilization stays in [0, 1].
    #[test]
    fn pool_clock_is_monotone(
        devices in 1usize..4,
        steps in prop::collection::vec((0u32..3, 1u64..50_000), 5..40),
        seed in 0u64..100,
    ) {
        let session = &workload(1, 1, seed)[0];
        let mut pool = DevicePool::new(
            devices,
            &GbuConfig::paper(),
            &gbu_gpu::GpuConfig::orin_nx(),
            0.5,
        );
        let mut frame = 0u32;
        let mut last_clock = pool.clock();
        for &(action, dt) in &steps {
            if action == 0 {
                if let Some(idle) = pool.idle_device() {
                    let ticket = FrameTicket {
                        id: FrameId::from_index(u64::from(frame)),
                        session: SessionId::from_index(0),
                        frame,
                        arrival: pool.clock(),
                        deadline: u64::MAX,
                    };
                    pool.submit(idle, session.view(frame), ticket, 0);
                    frame += 1;
                    // Submission must not move the clock.
                    prop_assert_eq!(pool.clock(), last_clock);
                    continue;
                }
            }
            // Advance either to the next completion or by a raw step.
            let step = if action == 1 {
                pool.next_completion_dt().unwrap_or(dt)
            } else {
                dt
            };
            pool.advance(step);
            prop_assert!(pool.clock() > last_clock, "clock must strictly advance");
            last_clock = pool.clock();
            let u = pool.utilization();
            prop_assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
    }
}
