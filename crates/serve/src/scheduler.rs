//! The ready queue, its dispatch policies and admission control.
//!
//! The serving engine keeps one shared ready queue of admitted frames.
//! Whenever the backend has capacity, the configured [`Policy`] picks
//! which eligible queued frame it dispatches next. The policies are a
//! closed set:
//!
//! - [`Policy::Fcfs`] — first-come-first-served, the baseline a naive
//!   host driver implements;
//! - [`Policy::RoundRobin`] — cycles over sessions for throughput
//!   fairness, ignoring urgency;
//! - [`Policy::Edf`] — earliest-deadline-first, the classic real-time
//!   policy that FLICKER-style deadline-aware splat serving motivates.
//!
//! [`AdmissionControl`] decides at arrival time whether a frame may enter
//! the ready queue at all: a bounded queue depth gives backpressure to
//! the client, and the optional
//! [`reject_unmeetable`](AdmissionControl::reject_unmeetable) check
//! refuses frames whose deadline is provably unmeetable even on an
//! uncontended device — rejecting at admission is cheaper than queueing a
//! frame that can only miss.

use crate::event::{FrameId, RejectReason, SessionId};

/// Identity and timing of one admitted frame request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTicket {
    /// Engine-wide frame id (the client's future).
    pub id: FrameId,
    /// The session that requested the frame.
    pub session: SessionId,
    /// Frame number within the session (indexes the session's viewpoint
    /// stream round-robin).
    pub frame: u32,
    /// Cycle at which the client requested the frame.
    pub arrival: u64,
    /// Cycle by which the frame must complete.
    pub deadline: u64,
}

/// The scheduling policies the engine can be configured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// First-come-first-served: always the oldest eligible frame.
    Fcfs,
    /// Round-robin over sessions: the next session, in cyclic session
    /// order after the one served last, that has an eligible frame,
    /// oldest frame first within the session.
    RoundRobin,
    /// Earliest-deadline-first: the eligible frame whose deadline expires
    /// soonest.
    Edf,
}

impl Policy {
    /// All built-in policies.
    pub fn all() -> [Policy; 3] {
        [Policy::Fcfs, Policy::RoundRobin, Policy::Edf]
    }

    /// Stable name used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs",
            Policy::RoundRobin => "round_robin",
            Policy::Edf => "edf",
        }
    }

    /// The position in `queue` (admission order, oldest first) of the
    /// frame this policy dispatches next among those `eligible` accepts;
    /// `None` when it accepts none. `last` is the session round-robin
    /// served last; the other policies ignore it.
    ///
    /// EDF ranks by (deadline, arrival, position) and round-robin by
    /// (cyclic session distance after `last`, arrival, position). An
    /// ineligible frame therefore never changes how the others rank.
    pub fn pick<'a>(
        self,
        queue: impl IntoIterator<Item = &'a FrameTicket>,
        last: Option<SessionId>,
        mut eligible: impl FnMut(&FrameTicket) -> bool,
    ) -> Option<usize> {
        let mut candidates = queue.into_iter().enumerate().filter(|(_, t)| eligible(t));
        let picked = match self {
            Policy::Fcfs => candidates.next(),
            Policy::RoundRobin => {
                let start = last.map_or(0, |s| s.0 + 1);
                candidates.min_by_key(|(i, t)| (t.session.0.wrapping_sub(start), t.arrival, *i))
            }
            Policy::Edf => candidates.min_by_key(|(i, t)| (t.deadline, t.arrival, *i)),
        };
        picked.map(|(i, _)| i)
    }
}

/// The engine's ready queue: admitted frames in admission order, each
/// beside the counter-offer rung it was admitted at, the per-session
/// depths the admission quota reads, and the [`Policy`] with its
/// round-robin cursor.
#[derive(Debug)]
pub(crate) struct ReadyQueue {
    /// Queued frames, oldest first, each with its counter-offer rung
    /// (0: admitted exact; a requeued frame re-enters with 0).
    entries: Vec<(FrameTicket, usize)>,
    /// Queued frames per session index.
    depth: Vec<usize>,
    policy: Policy,
    /// The session the last pick served (round-robin's cursor).
    last: Option<SessionId>,
}

impl ReadyQueue {
    pub(crate) fn new(policy: Policy) -> Self {
        Self { entries: Vec::new(), depth: Vec::new(), policy, last: None }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Frames `session` holds queued.
    pub(crate) fn depth(&self, session: SessionId) -> usize {
        self.depth.get(session.index()).copied().unwrap_or(0)
    }

    /// The queued tickets, oldest first.
    pub(crate) fn tickets(&self) -> impl Iterator<Item = &FrameTicket> {
        self.entries.iter().map(|(t, _)| t)
    }

    /// The ticket and rung at queue position `index`.
    pub(crate) fn get(&self, index: usize) -> Option<(FrameTicket, usize)> {
        self.entries.get(index).copied()
    }

    /// Appends `ticket` at the back, pinned to counter-offer `rung`.
    pub(crate) fn push(&mut self, ticket: FrameTicket, rung: usize) {
        let s = ticket.session.index();
        if self.depth.len() <= s {
            self.depth.resize(s + 1, 0);
        }
        self.depth[s] += 1;
        self.entries.push((ticket, rung));
    }

    /// Removes the frame at queue position `index`, keeping the order of
    /// the rest.
    pub(crate) fn remove(&mut self, index: usize) -> (FrameTicket, usize) {
        let entry = self.entries.remove(index);
        self.depth[entry.0.session.index()] -= 1;
        entry
    }

    /// Removes every queued frame of `session`, oldest first.
    pub(crate) fn remove_session(&mut self, session: SessionId) -> Vec<FrameTicket> {
        let mut removed = Vec::new();
        self.entries.retain(|&(t, _)| {
            let keep = t.session != session;
            if !keep {
                removed.push(t);
            }
            keep
        });
        if let Some(d) = self.depth.get_mut(session.index()) {
            *d = 0;
        }
        removed
    }

    /// Removes and returns the frame the policy dispatches next among
    /// those `eligible` accepts ([`Policy::pick`]), moving the
    /// round-robin cursor to its session.
    pub(crate) fn pop_next(
        &mut self,
        eligible: impl FnMut(&FrameTicket) -> bool,
    ) -> Option<(FrameTicket, usize)> {
        let index = self.policy.pick(self.tickets(), self.last, eligible)?;
        let entry = self.remove(index);
        self.last = Some(entry.0.session);
        Some(entry)
    }

    /// Empties the queue, oldest first.
    pub(crate) fn drain(&mut self) -> Vec<(FrameTicket, usize)> {
        self.depth.fill(0);
        std::mem::take(&mut self.entries)
    }
}

/// Admission control: the gate every arrival passes before entering the
/// ready queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Maximum number of frames the ready queue may hold; arrivals beyond
    /// this are rejected (backpressure).
    pub max_queue_depth: usize,
    /// When set, reject at admission any frame whose deadline is already
    /// unmeetable: `arrival + queued_wait + min_service_estimate >
    /// deadline`, where the estimate is the session's cheapest viewpoint
    /// on an uncontended device and `queued_wait` is the estimated wait
    /// behind the work already queued (see
    /// [`AdmissionControl::queue_aware`]). Such a frame could only burn
    /// device time to miss anyway.
    pub reject_unmeetable: bool,
    /// Whether the meetability estimate folds in the wait behind frames
    /// already queued ahead of the candidate (their summed optimistic
    /// service time spread over the pool's devices). Off, the check
    /// pretends the candidate runs next — optimistic at exactly the
    /// moment (a deep queue) when optimism hurts most. On by default;
    /// only meaningful together with
    /// [`AdmissionControl::reject_unmeetable`].
    pub queue_aware: bool,
    /// Whether the meetability estimate also folds in the work *already
    /// executing* on the pool's devices (`Gbu::in_flight_remaining`,
    /// summed and spread over the devices). The queue-aware term alone
    /// sees an empty queue the instant after a dispatch, even though
    /// every device may be mid-frame — exactly when a moderate overload
    /// admits frames that can only miss. On by default; only meaningful
    /// together with [`AdmissionControl::reject_unmeetable`].
    pub in_flight_aware: bool,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        Self {
            max_queue_depth: 64,
            reject_unmeetable: false,
            queue_aware: true,
            in_flight_aware: true,
        }
    }
}

impl AdmissionControl {
    /// Whether a new arrival may enter a queue currently `depth` deep.
    pub fn admits(&self, depth: usize) -> bool {
        depth < self.max_queue_depth
    }

    /// Full admission decision for a frame arriving at `arrival` with
    /// `deadline`, given the current queue `depth`, the frames its
    /// session already holds queued (`session_depth`, gated by
    /// `session_quota` — [`crate::ServeConfig::session_queue_quota`]),
    /// the estimated wait `queued_wait_cycles` behind work already
    /// queued *and* already executing (the engine folds in only the
    /// terms enabled by [`AdmissionControl::queue_aware`] /
    /// [`AdmissionControl::in_flight_aware`]; with both off the wait is
    /// ignored entirely) and the session's optimistic
    /// `min_service_cycles` estimate (mode-aware: the critical-path
    /// shard bound for sharded sessions). `Ok(())` admits; `Err`
    /// carries the rejection reason.
    #[allow(clippy::too_many_arguments)] // an admission decision simply has this many inputs
    pub fn decide(
        &self,
        depth: usize,
        session_depth: usize,
        session_quota: Option<usize>,
        queued_wait_cycles: u64,
        arrival: u64,
        deadline: u64,
        min_service_cycles: u64,
    ) -> Result<(), RejectReason> {
        if !self.admits(depth) {
            return Err(RejectReason::QueueFull);
        }
        if session_quota.is_some_and(|quota| session_depth >= quota) {
            return Err(RejectReason::QuotaExceeded);
        }
        let wait = if self.queue_aware || self.in_flight_aware { queued_wait_cycles } else { 0 };
        if self.reject_unmeetable
            && arrival.saturating_add(wait).saturating_add(min_service_cycles) > deadline
        {
            return Err(RejectReason::Unmeetable);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket(session: u32, frame: u32, arrival: u64, deadline: u64) -> FrameTicket {
        FrameTicket {
            id: FrameId::from_index(u64::from(session) * 1000 + u64::from(frame)),
            session: SessionId::from_index(session as usize),
            frame,
            arrival,
            deadline,
        }
    }

    /// Every ticket eligible.
    fn all(_: &FrameTicket) -> bool {
        true
    }

    fn queue_of(policy: Policy, tickets: &[FrameTicket]) -> ReadyQueue {
        let mut q = ReadyQueue::new(policy);
        for &t in tickets {
            q.push(t, 0);
        }
        q
    }

    #[test]
    fn fcfs_picks_head() {
        let q = vec![ticket(2, 0, 5, 100), ticket(0, 0, 7, 50)];
        assert_eq!(Policy::Fcfs.pick(&q, None, all), Some(0));
        assert_eq!(Policy::Fcfs.pick(&[], None, all), None);
        // The oldest *eligible* frame.
        assert_eq!(Policy::Fcfs.pick(&q, None, |t| t.session.index() == 0), Some(1));
    }

    #[test]
    fn edf_picks_earliest_deadline() {
        let q = vec![ticket(0, 0, 1, 300), ticket(1, 0, 2, 120), ticket(2, 0, 3, 200)];
        assert_eq!(Policy::Edf.pick(&q, None, all), Some(1));
        assert_eq!(Policy::Edf.pick(&q, None, |t| t.deadline != 120), Some(2));
        assert_eq!(Policy::Edf.pick(&q, None, |_| false), None);
    }

    #[test]
    fn edf_breaks_deadline_ties_by_arrival() {
        let q = vec![ticket(0, 0, 9, 100), ticket(1, 0, 2, 100)];
        assert_eq!(Policy::Edf.pick(&q, None, all), Some(1));
        // Full ties fall to queue position.
        let q = vec![ticket(1, 0, 2, 100), ticket(0, 0, 2, 100)];
        assert_eq!(Policy::Edf.pick(&q, None, all), Some(0));
    }

    #[test]
    fn round_robin_cycles_sessions() {
        let q = vec![ticket(0, 0, 1, 100), ticket(1, 0, 2, 100), ticket(2, 0, 3, 100)];
        assert_eq!(Policy::RoundRobin.pick(&q, None, all), Some(0));
        // Session 0 was served; next pick prefers session 1.
        let after_0 = Some(SessionId::from_index(0));
        let q2 = vec![ticket(0, 1, 4, 200), ticket(1, 0, 2, 100), ticket(2, 0, 3, 100)];
        assert_eq!(Policy::RoundRobin.pick(&q2, after_0, all), Some(1));
        // ... then session 2 even though session 0's frame is queued ahead.
        let after_1 = Some(SessionId::from_index(1));
        let q3 = vec![ticket(0, 1, 4, 200), ticket(2, 0, 3, 100)];
        assert_eq!(Policy::RoundRobin.pick(&q3, after_1, all), Some(1));
        // The ready queue moves the cursor itself: session 0's second
        // frame, queued ahead of sessions 1 and 2 and due first, waits for
        // them (FCFS and EDF would dispatch it second).
        let mut rr = queue_of(
            Policy::RoundRobin,
            &[
                ticket(0, 0, 1, 100),
                ticket(0, 1, 4, 90),
                ticket(1, 0, 2, 100),
                ticket(2, 0, 3, 100),
            ],
        );
        let order: Vec<usize> =
            std::iter::from_fn(|| rr.pop_next(all)).map(|(t, _)| t.session.index()).collect();
        assert_eq!(order, [0, 1, 2, 0]);
    }

    #[test]
    fn round_robin_wraps_around() {
        let q = vec![ticket(2, 1, 4, 200), ticket(0, 0, 9, 100)];
        let after_2 = Some(SessionId::from_index(2));
        assert_eq!(
            Policy::RoundRobin.pick(&q, after_2, all),
            Some(1),
            "wraps to session 0 after 2"
        );
    }

    #[test]
    fn ready_queue_keeps_rungs_and_depths_beside_tickets() {
        let mut q = ReadyQueue::new(Policy::Edf);
        q.push(ticket(1, 0, 1, 300), 0);
        q.push(ticket(3, 0, 2, 100), 2);
        q.push(ticket(1, 1, 3, 200), 0);
        assert_eq!((q.len(), q.depth(SessionId::from_index(1))), (3, 2));
        assert_eq!(q.depth(SessionId::from_index(7)), 0, "never seen");
        // The pin travels with its ticket.
        assert_eq!(q.pop_next(all), Some((ticket(3, 0, 2, 100), 2)));
        assert_eq!(q.depth(SessionId::from_index(3)), 0);
        assert_eq!(q.remove_session(SessionId::from_index(1)).len(), 2);
        assert!(q.is_empty());
        assert_eq!(q.depth(SessionId::from_index(1)), 0);
        q.push(ticket(0, 0, 4, 50), 1);
        assert_eq!(q.drain(), vec![(ticket(0, 0, 4, 50), 1)]);
        assert_eq!(q.depth(SessionId::from_index(0)), 0);
    }

    #[test]
    fn admission_bounds_queue() {
        let ac = AdmissionControl { max_queue_depth: 2, ..AdmissionControl::default() };
        assert!(ac.admits(0));
        assert!(ac.admits(1));
        assert!(!ac.admits(2));
        assert_eq!(ac.decide(2, 0, None, 0, 0, 100, 10), Err(RejectReason::QueueFull));
        assert_eq!(ac.decide(1, 0, None, 0, 0, 100, 10), Ok(()));
    }

    #[test]
    fn unmeetable_rejection_is_opt_in() {
        let lax = AdmissionControl::default();
        // Deadline 100 with a 500-cycle minimum service: hopeless, but
        // admitted unless the deadline-aware check is enabled.
        assert_eq!(lax.decide(0, 0, None, 0, 50, 100, 500), Ok(()));
        let strict = AdmissionControl { reject_unmeetable: true, ..lax };
        assert_eq!(strict.decide(0, 0, None, 0, 50, 100, 500), Err(RejectReason::Unmeetable));
        // A meetable frame still passes.
        assert_eq!(strict.decide(0, 0, None, 0, 50, 600, 500), Ok(()));
        // Saturating arithmetic: a huge arrival cannot wrap around and
        // sneak past an effectively-infinite deadline.
        assert_eq!(strict.decide(0, 0, None, 0, u64::MAX - 1, u64::MAX, 500), Ok(()));
        assert_eq!(
            strict.decide(0, 0, None, 0, u64::MAX - 1, u64::MAX - 1, 500),
            Err(RejectReason::Unmeetable)
        );
    }

    #[test]
    fn queue_wait_folds_into_meetability() {
        let strict = AdmissionControl { reject_unmeetable: true, ..AdmissionControl::default() };
        // Meetable with an empty queue (arrival 0, service 400 ≤ 1000)…
        assert_eq!(strict.decide(0, 0, None, 0, 0, 1000, 400), Ok(()));
        // …but not behind 700 cycles of queued work.
        assert_eq!(strict.decide(3, 0, None, 700, 0, 1000, 400), Err(RejectReason::Unmeetable));
        // A fully wait-blind configuration ignores the estimate (the
        // pre-queue-aware behaviour, kept reachable for comparison).
        let blind = AdmissionControl { queue_aware: false, in_flight_aware: false, ..strict };
        assert_eq!(blind.decide(3, 0, None, 700, 0, 1000, 400), Ok(()));
        // Either awareness flag alone re-enables the wait term.
        let inflight_only = AdmissionControl { queue_aware: false, ..strict };
        assert_eq!(
            inflight_only.decide(3, 0, None, 700, 0, 1000, 400),
            Err(RejectReason::Unmeetable)
        );
        // Queue wait saturates rather than wrapping.
        assert_eq!(
            strict.decide(1, 0, None, u64::MAX, 5, u64::MAX - 1, 1),
            Err(RejectReason::Unmeetable)
        );
    }
}
