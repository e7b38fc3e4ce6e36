//! The reactive serving vocabulary: identifiers, frame futures and the
//! typed events [`crate::ServeEngine::step_until`] reports.
//!
//! The engine owns its sessions and assigns every attached client a
//! [`SessionId`]; every frame request — whether generated by a session's
//! QoS timer or pushed through [`crate::ServeHandle::submit_frame`] —
//! gets a [`FrameId`] that acts as a poll-able future
//! ([`crate::ServeEngine::poll`] → [`FrameStatus`]). Each lifecycle
//! transition is reported back to the host loop as a [`ServeEvent`], so a
//! real driver (or, once dependencies are allowed, a tokio-style
//! executor) can react per frame instead of waiting for a batch run to
//! drain.

/// Identifier of an attached session, assigned by
/// [`crate::ServeEngine::attach_session`].
///
/// Ids are engine-scoped and stable: detaching a session retires its id
/// (it is never reused), so a stale id held by a client simply stops
/// resolving instead of aliasing a new session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub(crate) u32);

impl SessionId {
    /// Builds an id from a raw roster index (mainly for tests and tools
    /// that construct [`crate::FrameTicket`]s by hand).
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }

    /// The roster index this id maps to.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of one frame request — the "future" returned by
/// [`crate::ServeHandle::submit_frame`] and resolved by
/// [`crate::ServeEngine::poll`].
///
/// Ids are dense and monotonically increasing in admission-decision
/// order, across timer-generated and pushed frames alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub(crate) u64);

impl FrameId {
    /// Builds an id from its raw index (mainly for tests and tools that
    /// construct [`crate::FrameTicket`]s by hand).
    pub fn from_index(index: u64) -> Self {
        Self(index)
    }

    /// The raw dense index of this frame.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for FrameId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Why a frame was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The ready queue was at its [`crate::AdmissionControl`] bound
    /// (backpressure to the client).
    QueueFull,
    /// Deadline-aware admission
    /// ([`crate::AdmissionControl::reject_unmeetable`]) proved the frame
    /// could not meet its deadline even on an uncontended device.
    Unmeetable,
    /// The frame was submitted for a [`SessionId`] that is not attached
    /// (never existed, or already detached). Submissions for ids this
    /// engine never issued are reported to the caller but excluded from
    /// serving metrics — they are caller errors, not offered load.
    UnknownSession,
    /// The session already held its per-session queue quota
    /// ([`crate::ServeConfig::session_queue_quota`]) of queued frames —
    /// per-client backpressure so one flooding session cannot starve its
    /// peers out of the shared ready queue.
    QuotaExceeded,
}

impl RejectReason {
    /// Stable lowercase label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::Unmeetable => "unmeetable",
            RejectReason::UnknownSession => "unknown_session",
            RejectReason::QuotaExceeded => "quota_exceeded",
        }
    }
}

/// Why an already-admitted frame was cancelled before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The deadline-drop pass ([`crate::ServeConfig::drop_unmeetable`])
    /// found the queued frame could no longer meet its deadline.
    Deadline,
    /// The owning session was detached while the frame was queued or in
    /// flight ([`crate::ServeEngine::detach_session`]).
    SessionDetached,
    /// The frame was still queued when the run was sealed by
    /// [`crate::ServeEngine::finish`]: after a drain, only a frame that
    /// can never dispatch (every lane it needs is down for good) is left.
    Gated,
}

impl DropReason {
    /// Stable lowercase label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::Deadline => "deadline",
            DropReason::SessionDetached => "session_detached",
            DropReason::Gated => "gated",
        }
    }
}

/// Why an in-flight frame was pulled back into the ready queue instead
/// of completing — the non-terminal sibling of [`DropReason`]. Requeued
/// frames keep their original arrival and deadline and compete for
/// dispatch again, so conservation still reads
/// `completed + rejected + dropped == generated` once they terminate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequeueReason {
    /// The lane executing the frame (any shard of it) was killed by the
    /// fleet plan's fault injection ([`crate::FleetPlan`]).
    LaneFailed,
    /// The lane executing the frame was drained by the autoscaler's
    /// scale-down ([`crate::AutoscaleConfig`]) — a voluntary retirement,
    /// not a failure.
    LaneRetired,
}

impl RequeueReason {
    /// Stable lowercase label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            RequeueReason::LaneFailed => "lane_failed",
            RequeueReason::LaneRetired => "lane_retired",
        }
    }
}

/// Lifecycle state of one frame request, returned by
/// [`crate::ServeEngine::poll`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameStatus {
    /// Admitted and waiting in the ready queue.
    Queued,
    /// Dispatched to a device and currently rendering.
    Rendering,
    /// Rendered to completion.
    Completed {
        /// Request-to-completion latency in cycles.
        latency_cycles: u64,
        /// Whether completion came after the frame's deadline.
        missed: bool,
    },
    /// Refused at admission.
    Rejected(RejectReason),
    /// Cancelled after admission.
    Dropped(DropReason),
}

/// One lifecycle transition, reported by
/// [`crate::ServeEngine::step_until`] in the order it happened.
///
/// `at` is the simulated wall cycle of the transition. A frame's event
/// sequence is either `Admitted → Started → Completed`,
/// `Admitted → [Started →] Dropped`, or a lone `Rejected`; a frame of a
/// sharded session ([`crate::ExecMode::Sharded`]) additionally reports
/// one [`ServeEvent::ShardCompleted`] per shard between `Started` and
/// `Completed` (unsharded frames never do). Under a fleet plan
/// ([`crate::FleetConfig`]) a `Started` frame may bounce back to the
/// queue with [`ServeEvent::Requeued`] (its lane died or was retired)
/// and later start again — `Started → Requeued` cycles can repeat before
/// the terminal event.
///
/// Control-plane transitions ([`ServeEvent::SessionMigrated`],
/// [`ServeEvent::LaneDown`], [`ServeEvent::LaneUp`]) concern a session
/// or a lane rather than one frame, which is why
/// [`ServeEvent::frame`]/[`ServeEvent::session`] return `Option`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeEvent {
    /// The frame passed admission into the ready queue.
    Admitted {
        /// The frame.
        frame: FrameId,
        /// Its session.
        session: SessionId,
        /// Admission cycle.
        at: u64,
    },
    /// The frame was refused at admission.
    Rejected {
        /// The frame.
        frame: FrameId,
        /// Its session.
        session: SessionId,
        /// Why it was refused.
        reason: RejectReason,
        /// Rejection cycle.
        at: u64,
    },
    /// The frame was dispatched to a device.
    Started {
        /// The frame.
        frame: FrameId,
        /// Its session.
        session: SessionId,
        /// Pool index of the device rendering it.
        device: usize,
        /// Dispatch cycle.
        at: u64,
    },
    /// One shard of a sharded frame landed on its cluster lane; the
    /// frame stays [`FrameStatus::Rendering`] until its last shard does.
    /// Only frames of [`crate::ExecMode::Sharded`] sessions emit these.
    ShardCompleted {
        /// The frame the shard belongs to.
        frame: FrameId,
        /// Its session.
        session: SessionId,
        /// Shard index within the frame's plan.
        shard: usize,
        /// Cluster lane the shard executed on.
        lane: usize,
        /// Landing cycle.
        at: u64,
        /// Wall cycles from frame dispatch to this shard landing.
        service_cycles: u64,
    },
    /// The frame completed.
    Completed {
        /// The frame.
        frame: FrameId,
        /// Its session.
        session: SessionId,
        /// Completion cycle.
        at: u64,
        /// Request-to-completion latency in cycles.
        latency_cycles: u64,
        /// Whether the deadline was missed.
        missed: bool,
    },
    /// The quality governor ([`crate::QualityGovernor`]) decided this
    /// frame will render degraded: blended from only its
    /// highest-contribution splats at ladder rung `level`. Emitted once
    /// per degraded frame — at admission for a counter-offered frame
    /// (right after its [`ServeEvent::Admitted`]), at dispatch for a
    /// frame caught by pressure shedding. Non-terminal: the frame's
    /// status is untouched and its lifecycle continues normally.
    Degraded {
        /// The frame.
        frame: FrameId,
        /// Its session.
        session: SessionId,
        /// 1-based rung into the governor's ladder (deeper = cheaper).
        level: usize,
        /// Decision cycle.
        at: u64,
    },
    /// The frame was cancelled after admission.
    Dropped {
        /// The frame.
        frame: FrameId,
        /// Its session.
        session: SessionId,
        /// Why it was cancelled.
        reason: DropReason,
        /// Cancellation cycle.
        at: u64,
    },
    /// An in-flight frame lost its lane (fault injection or autoscaler
    /// scale-down) and was pulled back into the ready queue with its
    /// original arrival and deadline — a non-terminal transition; the
    /// frame will start again, be dropped, or be sealed later.
    Requeued {
        /// The frame.
        frame: FrameId,
        /// Its session.
        session: SessionId,
        /// Why it lost its lane.
        reason: RequeueReason,
        /// Requeue cycle.
        at: u64,
    },
    /// The fleet controller moved a session's home lane: frames the
    /// session dispatches after this event prefer `to` instead of
    /// `from`. In-flight frames are not touched (migration happens
    /// between frames); `Measured` shard feedback survives the move.
    SessionMigrated {
        /// The migrated session.
        session: SessionId,
        /// Lane the session was homed on.
        from: usize,
        /// Its new home lane.
        to: usize,
        /// Migration cycle.
        at: u64,
    },
    /// A cluster lane went down (fleet-plan kill or autoscaler
    /// scale-down); its in-flight frames were requeued just before this
    /// event.
    LaneDown {
        /// The lane.
        lane: usize,
        /// Kill cycle.
        at: u64,
    },
    /// A cluster lane came (back) up, starting lifetime `generation`.
    LaneUp {
        /// The lane.
        lane: usize,
        /// Restart generation (1 for the first restore, and so on).
        generation: u32,
        /// Restore cycle.
        at: u64,
    },
}

impl ServeEvent {
    /// The frame this event concerns — `None` for control-plane events
    /// (migrations, lane transitions), which have no single frame.
    pub fn frame(&self) -> Option<FrameId> {
        match *self {
            ServeEvent::Admitted { frame, .. }
            | ServeEvent::Rejected { frame, .. }
            | ServeEvent::Started { frame, .. }
            | ServeEvent::ShardCompleted { frame, .. }
            | ServeEvent::Completed { frame, .. }
            | ServeEvent::Degraded { frame, .. }
            | ServeEvent::Dropped { frame, .. }
            | ServeEvent::Requeued { frame, .. } => Some(frame),
            ServeEvent::SessionMigrated { .. }
            | ServeEvent::LaneDown { .. }
            | ServeEvent::LaneUp { .. } => None,
        }
    }

    /// The session this event concerns — `None` for lane transitions,
    /// which concern a lane rather than a session.
    pub fn session(&self) -> Option<SessionId> {
        match *self {
            ServeEvent::Admitted { session, .. }
            | ServeEvent::Rejected { session, .. }
            | ServeEvent::Started { session, .. }
            | ServeEvent::ShardCompleted { session, .. }
            | ServeEvent::Completed { session, .. }
            | ServeEvent::Degraded { session, .. }
            | ServeEvent::Dropped { session, .. }
            | ServeEvent::Requeued { session, .. }
            | ServeEvent::SessionMigrated { session, .. } => Some(session),
            ServeEvent::LaneDown { .. } | ServeEvent::LaneUp { .. } => None,
        }
    }

    /// The simulated cycle at which the transition happened.
    pub fn at(&self) -> u64 {
        match *self {
            ServeEvent::Admitted { at, .. }
            | ServeEvent::Rejected { at, .. }
            | ServeEvent::Started { at, .. }
            | ServeEvent::ShardCompleted { at, .. }
            | ServeEvent::Completed { at, .. }
            | ServeEvent::Degraded { at, .. }
            | ServeEvent::Dropped { at, .. }
            | ServeEvent::Requeued { at, .. }
            | ServeEvent::SessionMigrated { at, .. }
            | ServeEvent::LaneDown { at, .. }
            | ServeEvent::LaneUp { at, .. } => at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_display() {
        let a = SessionId::from_index(0);
        let b = SessionId::from_index(3);
        assert!(a < b);
        assert_eq!(b.index(), 3);
        assert_eq!(format!("{b}"), "s3");
        assert_eq!(format!("{}", FrameId::from_index(17)), "f17");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RejectReason::QueueFull.label(), "queue_full");
        assert_eq!(RejectReason::Unmeetable.label(), "unmeetable");
        assert_eq!(RejectReason::QuotaExceeded.label(), "quota_exceeded");
        assert_eq!(DropReason::Deadline.label(), "deadline");
        assert_eq!(DropReason::SessionDetached.label(), "session_detached");
        assert_eq!(DropReason::Gated.label(), "gated");
        assert_eq!(RequeueReason::LaneFailed.label(), "lane_failed");
        assert_eq!(RequeueReason::LaneRetired.label(), "lane_retired");
    }

    #[test]
    fn event_accessors_cover_all_variants() {
        let f = FrameId(7);
        let s = SessionId(2);
        let events = [
            ServeEvent::Admitted { frame: f, session: s, at: 10 },
            ServeEvent::Rejected { frame: f, session: s, reason: RejectReason::QueueFull, at: 11 },
            ServeEvent::Started { frame: f, session: s, device: 0, at: 12 },
            ServeEvent::ShardCompleted {
                frame: f,
                session: s,
                shard: 1,
                lane: 3,
                at: 13,
                service_cycles: 1,
            },
            ServeEvent::Completed {
                frame: f,
                session: s,
                at: 14,
                latency_cycles: 3,
                missed: false,
            },
            ServeEvent::Dropped { frame: f, session: s, reason: DropReason::Deadline, at: 15 },
            ServeEvent::Requeued {
                frame: f,
                session: s,
                reason: RequeueReason::LaneFailed,
                at: 16,
            },
            ServeEvent::Degraded { frame: f, session: s, level: 2, at: 17 },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.frame(), Some(f));
            assert_eq!(e.session(), Some(s));
            assert_eq!(e.at(), 10 + i as u64);
        }
    }

    #[test]
    fn control_plane_events_have_no_frame() {
        let migrated =
            ServeEvent::SessionMigrated { session: SessionId(2), from: 0, to: 1, at: 20 };
        assert_eq!(migrated.frame(), None);
        assert_eq!(migrated.session(), Some(SessionId(2)));
        assert_eq!(migrated.at(), 20);

        let down = ServeEvent::LaneDown { lane: 3, at: 21 };
        assert_eq!(down.frame(), None);
        assert_eq!(down.session(), None);
        assert_eq!(down.at(), 21);

        let up = ServeEvent::LaneUp { lane: 3, generation: 1, at: 22 };
        assert_eq!(up.frame(), None);
        assert_eq!(up.session(), None);
        assert_eq!(up.at(), 22);
    }
}
