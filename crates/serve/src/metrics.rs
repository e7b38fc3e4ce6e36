//! Serving metrics: throughput, latency percentiles, deadline misses,
//! drop/reject-reason breakdowns, utilization — per run and per session.
//!
//! [`ServeMetrics`] is the engine-side accumulator, fed one call per
//! lifecycle transition (mirroring the [`crate::ServeEvent`] stream);
//! [`ServeMetrics::report`] folds it into the serialisable
//! [`ServeReport`]. With the reactive API a frame now has three terminal
//! states — completed, rejected at admission, or dropped after admission
//! (deadline pass / session detach) — and conservation reads
//! `completed + rejected + dropped == generated`.

use crate::event::{DropReason, RejectReason, RequeueReason};
use crate::scheduler::FrameTicket;
use gbu_telemetry::json::{self, Fixed};

/// Lifecycle record of one completed frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameRecord {
    /// The admitted request.
    pub ticket: FrameTicket,
    /// Wall cycle at which the frame was dispatched to a device.
    pub started: u64,
    /// Wall cycle at which it completed.
    pub completed: u64,
}

impl FrameRecord {
    /// Request-to-completion latency in cycles.
    pub fn latency(&self) -> u64 {
        self.completed - self.ticket.arrival
    }

    /// Whether the frame missed its deadline.
    pub fn missed(&self) -> bool {
        self.completed > self.ticket.deadline
    }
}

/// Lifetime terminal-event totals, maintained even when the per-frame
/// records behind them have been evicted by a retention window. In full
/// retention they equal the windowed counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifetimeCounts {
    /// Frames that reached any terminal state.
    pub generated: usize,
    /// Frames completed.
    pub completed: usize,
    /// Frames rejected at admission.
    pub rejected: usize,
    /// Admitted frames cancelled before completion.
    pub dropped: usize,
    /// Completed frames that blew their deadline.
    pub missed: usize,
    /// Requeue transitions (in-flight frames bounced back to the queue
    /// by lane churn). Non-terminal: a requeued frame still ends up in
    /// exactly one of the buckets above, so `requeued` is *not* part of
    /// the `completed + rejected + dropped == generated` conservation
    /// sum — it counts how often frames took the detour.
    pub requeued: usize,
}

/// Host-GPU preprocessing (Step ❶ project + Step ❷ bin) accounting
/// under [`crate::ServeConfig::prep`]: how many dispatches paid the
/// full per-frame charge versus rode a co-scheduled frame's shared
/// epoch charge, and the cycle totals on each side. All zero when prep
/// modelling is off, so the block is additive to existing reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepCounts {
    /// Dispatches that paid the full Step-❶/❷ charge.
    pub frames_charged: usize,
    /// Dispatches that reused a shared view's in-window charge.
    pub frames_shared: usize,
    /// Total host-GPU cycles charged to dispatched frames.
    pub cycles_charged: u64,
    /// Total host-GPU cycles avoided through sharing — the cycles the
    /// shared frames would have paid without
    /// [`crate::PrepConfig::share`].
    pub cycles_saved: u64,
}

/// Quality-governor accounting under [`crate::ServeConfig::quality`]:
/// how many dispatches served exact versus degraded frames, where the
/// degradations came from (admission counter-offers versus pressure
/// shedding), how often the governor stepped its global level, and the
/// modeled device cycles the degraded frames saved. All zero when the
/// governor is inactive, so the block is additive to existing reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QualityCounts {
    /// Dispatches served at exact quality while the governor was active.
    pub frames_exact: usize,
    /// Dispatches served from a degraded ladder rung.
    pub frames_degraded: usize,
    /// Unmeetable frames admitted as a degraded counter-offer instead of
    /// being rejected.
    pub counter_offers: usize,
    /// Pressure-tick steps away from exact (one rung deeper each).
    pub sheds: usize,
    /// Pressure-tick steps back toward exact (one rung shallower each).
    pub recoveries: usize,
    /// Modeled device cycles saved by degraded dispatches (exact view
    /// occupancy minus degraded view occupancy, summed).
    pub cycles_saved: u64,
}

/// Collects events during a serving run.
///
/// Retention: by default every per-frame record is kept so
/// [`ServeMetrics::report`] covers the whole run. [`ServeMetrics::windowed`]
/// bounds each record category to the most recent `window` entries (a
/// simple eviction ring) — the report is then exact over that window,
/// while [`LifetimeCounts`] keeps whole-run conservation visible. This is
/// what lets a long-lived [`crate::ServeEngine`] run unbounded without
/// growing memory linearly with frames served.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    completed: Vec<FrameRecord>,
    rejected: Vec<(FrameTicket, RejectReason)>,
    dropped: Vec<(FrameTicket, DropReason)>,
    starts: Vec<(FrameTicket, u64)>,
    /// Sharded completions only: per-frame shard count and measured
    /// imbalance (max shard service over mean), windowed like the rest.
    sharded: Vec<ShardFrameRecord>,
    /// Requeue transitions (non-terminal), windowed like the rest.
    requeued: Vec<(FrameTicket, RequeueReason)>,
    /// Session migrations performed by the fleet controller.
    migrated: usize,
    /// Lane up/down transitions (kills, restores, scale actions).
    lane_churn: usize,
    /// Per-category record cap; `None` keeps everything.
    window: Option<usize>,
    lifetime: LifetimeCounts,
    /// Host-GPU preprocessing charge/reuse totals (whole-run, unwindowed
    /// — like [`LifetimeCounts`], these are conservation sums).
    prep: PrepCounts,
    /// Quality-governor totals (whole-run, unwindowed like
    /// [`PrepCounts`]).
    quality: QualityCounts,
}

/// Shard-level record of one completed sharded frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardFrameRecord {
    /// The completed request.
    pub ticket: FrameTicket,
    /// Number of shards the frame was split into.
    pub shards: usize,
    /// Critical-path shard service in wall cycles (the max).
    pub critical_path_cycles: u64,
    /// Measured imbalance: max shard service over mean (1.0 = balanced).
    pub imbalance: f64,
}

/// Bounds `v`'s growth under a retention window: the buffer is allowed
/// to reach twice the window before the stale front half is cut away in
/// one `drain`, making eviction amortized O(1) per record (a
/// per-record `remove(0)` would shift the whole window every push).
/// Readers see exactly the window through [`tail`].
fn evict<T>(v: &mut Vec<T>, window: Option<usize>) {
    if let Some(w) = window {
        if v.len() >= w.saturating_mul(2) {
            v.drain(..v.len() - w);
        }
    }
}

/// The most recent `window` entries of `v` (all of them without a
/// window) — the slice every reader of a retention-bounded record list
/// goes through.
fn tail<T>(v: &[T], window: Option<usize>) -> &[T] {
    match window {
        Some(w) if v.len() > w => &v[v.len() - w..],
        _ => v,
    }
}

impl ServeMetrics {
    /// Metrics bounded to the most recent `window` records per terminal
    /// category. The report stays exact within the window;
    /// [`LifetimeCounts`] covers the rest of the run.
    ///
    /// # Panics
    ///
    /// Panics when `window == 0` — a report over nothing is a
    /// configuration error, not a retention policy.
    pub fn windowed(window: usize) -> Self {
        assert!(window > 0, "a retention window must hold at least one record");
        Self { window: Some(window), ..Self::default() }
    }

    /// Whole-run terminal-event totals (maintained across evictions).
    pub fn lifetime(&self) -> LifetimeCounts {
        self.lifetime
    }

    /// Records a frame refused at admission.
    pub fn reject(&mut self, ticket: FrameTicket, reason: RejectReason) {
        self.lifetime.generated += 1;
        self.lifetime.rejected += 1;
        self.rejected.push((ticket, reason));
        evict(&mut self.rejected, self.window);
    }

    /// Records a dispatch.
    pub fn start(&mut self, ticket: FrameTicket, now: u64) {
        self.starts.push((ticket, now));
    }

    /// Dispatch cycle of an in-flight ticket — available until the
    /// completion that retires the entry. The engine's telemetry path
    /// reads it *before* [`ServeMetrics::complete_with_shards`] to cut
    /// the frame span into queue-wait and service children.
    pub fn started_at(&self, ticket: FrameTicket) -> Option<u64> {
        self.starts.iter().find(|(t, _)| *t == ticket).map(|&(_, at)| at)
    }

    /// Records an admitted frame cancelled before completion (deadline
    /// drop or session detach) — queued or already dispatched.
    pub fn drop_frame(&mut self, ticket: FrameTicket, reason: DropReason) {
        // A dropped in-flight frame will never complete; retire its start
        // entry so `starts` stays bounded by the in-flight count.
        if let Some(idx) = self.starts.iter().position(|(t, _)| *t == ticket) {
            self.starts.swap_remove(idx);
        }
        self.lifetime.generated += 1;
        self.lifetime.dropped += 1;
        self.dropped.push((ticket, reason));
        evict(&mut self.dropped, self.window);
    }

    /// Records an in-flight frame bounced back to the ready queue by
    /// lane churn. Non-terminal: the frame's start entry is retired (it
    /// will be re-dispatched or dropped later) and nothing terminal is
    /// counted, so conservation is untouched.
    ///
    /// # Panics
    ///
    /// Panics when `ticket` has no in-flight start entry — only
    /// dispatched frames can lose their lane.
    pub fn requeue(&mut self, ticket: FrameTicket, reason: RequeueReason) {
        let idx =
            self.starts.iter().position(|(t, _)| *t == ticket).expect("requeue without dispatch");
        self.starts.swap_remove(idx);
        self.lifetime.requeued += 1;
        self.requeued.push((ticket, reason));
        evict(&mut self.requeued, self.window);
    }

    /// Records one fleet-controller session migration.
    pub fn migrate(&mut self) {
        self.migrated += 1;
    }

    /// Records a dispatch that paid the full host-GPU Step-❶/❷ charge.
    pub fn prep_charged(&mut self, cycles: u64) {
        self.prep.frames_charged += 1;
        self.prep.cycles_charged += cycles;
    }

    /// Records a dispatch that reused a shared view's in-window charge,
    /// saving `cycles` of host-GPU preprocessing.
    pub fn prep_shared(&mut self, cycles: u64) {
        self.prep.frames_shared += 1;
        self.prep.cycles_saved += cycles;
    }

    /// Host-GPU preprocessing charge/reuse totals so far.
    pub fn prep(&self) -> PrepCounts {
        self.prep
    }

    /// Records a dispatch served at exact quality under an active
    /// governor.
    pub fn quality_exact(&mut self) {
        self.quality.frames_exact += 1;
    }

    /// Records a dispatch served from a degraded ladder rung, saving
    /// `cycles_saved` modeled device cycles against the exact view.
    pub fn quality_degraded(&mut self, cycles_saved: u64) {
        self.quality.frames_degraded += 1;
        self.quality.cycles_saved += cycles_saved;
    }

    /// Records an unmeetable frame admitted as a degraded counter-offer.
    pub fn quality_counter_offer(&mut self) {
        self.quality.counter_offers += 1;
    }

    /// Records a pressure-tick step one rung away from exact.
    pub fn quality_shed(&mut self) {
        self.quality.sheds += 1;
    }

    /// Records a pressure-tick step one rung back toward exact.
    pub fn quality_recovery(&mut self) {
        self.quality.recoveries += 1;
    }

    /// Quality-governor totals so far.
    pub fn quality(&self) -> QualityCounts {
        self.quality
    }

    /// Records one lane up/down transition (kill, restore, or autoscale
    /// action).
    pub fn lane_transition(&mut self) {
        self.lane_churn += 1;
    }

    /// Requeued tickets with their reasons (window-bounded).
    pub fn requeued(&self) -> &[(FrameTicket, RequeueReason)] {
        tail(&self.requeued, self.window)
    }

    /// Pressure over the retention window: misses, rejections and
    /// deadline drops as a fraction of generated frames — the signal the
    /// fleet autoscaler thresholds against (0 when nothing terminated
    /// yet, so an idle service never grows).
    pub fn window_pressure(&self) -> f64 {
        let completed = self.completed();
        let rejected = self.rejected().len();
        let dropped = self.dropped();
        let generated = completed.len() + rejected + dropped.len();
        if generated == 0 {
            return 0.0;
        }
        let missed = completed.iter().filter(|r| r.missed()).count();
        let deadline_drops = dropped.iter().filter(|(_, r)| *r == DropReason::Deadline).count();
        (missed + rejected + deadline_drops) as f64 / generated as f64
    }

    /// Records a completion.
    pub fn complete(&mut self, ticket: FrameTicket, completed: u64) {
        self.complete_with_shards(ticket, completed, &[]);
    }

    /// Records a completion with its per-shard service cycles (empty for
    /// unsharded frames — then identical to [`ServeMetrics::complete`]).
    /// Sharded completions additionally feed the [`ShardingReport`]
    /// (per-frame imbalance, critical path).
    pub fn complete_with_shards(
        &mut self,
        ticket: FrameTicket,
        completed: u64,
        shard_cycles: &[u64],
    ) {
        // Each ticket completes once, so its start entry can be retired —
        // `starts` stays bounded by the in-flight count instead of
        // growing with the run.
        let idx = self
            .starts
            .iter()
            .position(|(t, _)| *t == ticket)
            .expect("completion without dispatch");
        let (_, started) = self.starts.swap_remove(idx);
        let record = FrameRecord { ticket, started, completed };
        self.lifetime.generated += 1;
        self.lifetime.completed += 1;
        self.lifetime.missed += usize::from(record.missed());
        self.completed.push(record);
        evict(&mut self.completed, self.window);
        if let Some(imbalance) = crate::backend::shard_imbalance(shard_cycles) {
            self.sharded.push(ShardFrameRecord {
                ticket,
                shards: shard_cycles.len(),
                critical_path_cycles: *shard_cycles.iter().max().expect("non-empty"),
                imbalance,
            });
            evict(&mut self.sharded, self.window);
        }
    }

    /// Shard-level records of completed sharded frames.
    pub fn sharded(&self) -> &[ShardFrameRecord] {
        tail(&self.sharded, self.window)
    }

    /// Completed-frame records.
    pub fn completed(&self) -> &[FrameRecord] {
        tail(&self.completed, self.window)
    }

    /// Rejected tickets with their reasons.
    pub fn rejected(&self) -> &[(FrameTicket, RejectReason)] {
        tail(&self.rejected, self.window)
    }

    /// Dropped tickets with their reasons.
    pub fn dropped(&self) -> &[(FrameTicket, DropReason)] {
        tail(&self.dropped, self.window)
    }

    /// Builds the aggregate report for a finished run described by `run`.
    pub fn report(
        &self,
        run: &RunInfo<'_>,
        session_names: &[String],
        session_hz: &[f64],
    ) -> ServeReport {
        let RunInfo { policy, devices, wall_cycles, utilization, clock_ghz } = *run;
        // Everything below reads the windowed slices, so the report is
        // exact over the retention window (the whole run by default).
        let (completed, rejected, dropped) = (self.completed(), self.rejected(), self.dropped());
        let cycles_per_ms = clock_ghz * 1e6;
        let mut latencies: Vec<u64> = completed.iter().map(FrameRecord::latency).collect();
        latencies.sort_unstable();
        let wall_seconds = wall_cycles as f64 / (clock_ghz * 1e9);
        let missed = completed.iter().filter(|r| r.missed()).count();
        let generated = completed.len() + rejected.len() + dropped.len();

        let count_reject = |r: RejectReason| rejected.iter().filter(|(_, why)| *why == r).count();
        let count_drop = |r: DropReason| dropped.iter().filter(|(_, why)| *why == r).count();
        let reject_reasons = RejectBreakdown {
            queue_full: count_reject(RejectReason::QueueFull),
            unmeetable: count_reject(RejectReason::Unmeetable),
            unknown_session: count_reject(RejectReason::UnknownSession),
            quota_exceeded: count_reject(RejectReason::QuotaExceeded),
        };
        let sharded = self.sharded();
        let sharding = (!sharded.is_empty()).then(|| ShardingReport {
            frames: sharded.to_vec(),
            mean_imbalance: sharded.iter().map(|r| r.imbalance).sum::<f64>() / sharded.len() as f64,
            max_imbalance: sharded.iter().map(|r| r.imbalance).fold(f64::MIN, f64::max),
        });
        let drop_reasons = DropBreakdown {
            deadline: count_drop(DropReason::Deadline),
            session_detached: count_drop(DropReason::SessionDetached),
            gated: count_drop(DropReason::Gated),
        };
        let requeued = self.requeued();
        let count_requeue = |r: RequeueReason| requeued.iter().filter(|(_, why)| *why == r).count();
        let requeue_reasons = RequeueBreakdown {
            lane_failed: count_requeue(RequeueReason::LaneFailed),
            lane_retired: count_requeue(RequeueReason::LaneRetired),
        };

        let sessions = session_names
            .iter()
            .enumerate()
            .map(|(s, name)| {
                let mine: Vec<&FrameRecord> =
                    completed.iter().filter(|r| r.ticket.session.index() == s).collect();
                let rejected = rejected.iter().filter(|(t, _)| t.session.index() == s).count();
                let dropped = dropped.iter().filter(|(t, _)| t.session.index() == s).count();
                let missed = mine.iter().filter(|r| r.missed()).count();
                let mut lat: Vec<u64> = mine.iter().map(|r| r.latency()).collect();
                lat.sort_unstable();
                let p95 = percentile_ms(&lat, 0.95, cycles_per_ms);
                SessionReport {
                    name: name.clone(),
                    qos_hz: session_hz[s],
                    generated: mine.len() + rejected + dropped,
                    completed: mine.len(),
                    rejected,
                    dropped,
                    missed,
                    achieved_fps: if wall_seconds > 0.0 {
                        mine.len() as f64 / wall_seconds
                    } else {
                        0.0
                    },
                    p95_latency_ms: p95,
                }
            })
            .collect();

        ServeReport {
            policy: policy.to_string(),
            devices,
            lifetime: self.lifetime,
            generated,
            completed: completed.len(),
            rejected: rejected.len(),
            dropped: dropped.len(),
            missed,
            reject_reasons,
            drop_reasons,
            requeued: requeued.len(),
            requeue_reasons,
            migrated: self.migrated,
            lane_churn: self.lane_churn,
            throughput_fps: if wall_seconds > 0.0 {
                completed.len() as f64 / wall_seconds
            } else {
                0.0
            },
            p50_latency_ms: percentile_ms(&latencies, 0.50, cycles_per_ms),
            p95_latency_ms: percentile_ms(&latencies, 0.95, cycles_per_ms),
            p99_latency_ms: percentile_ms(&latencies, 0.99, cycles_per_ms),
            deadline_miss_rate: {
                // Voluntary departures are excused from the QoS figure:
                // a frame cancelled because its client detached, or
                // submitted for a session that does not exist, is not a
                // deadline the service failed to meet.
                let excused = drop_reasons.session_detached + reject_reasons.unknown_session;
                let accountable = generated - excused;
                let failed = missed
                    + (rejected.len() - reject_reasons.unknown_session)
                    + (dropped.len() - drop_reasons.session_detached);
                if accountable > 0 {
                    failed as f64 / accountable as f64
                } else {
                    0.0
                }
            },
            device_utilization: utilization,
            wall_seconds,
            preprocessing: self.prep,
            quality: self.quality,
            sharding,
            sessions,
        }
    }
}

/// Run-level facts needed to turn [`ServeMetrics`] into a
/// [`ServeReport`]: the policy label and pool size, plus the pool's
/// final clock and utilization and the cycle↔time mapping.
#[derive(Debug, Clone, Copy)]
pub struct RunInfo<'a> {
    /// Scheduler policy label.
    pub policy: &'a str,
    /// Pool size.
    pub devices: usize,
    /// Final wall clock of the run in cycles.
    pub wall_cycles: u64,
    /// Mean busy fraction across devices.
    pub utilization: f64,
    /// GBU clock in GHz (converts cycles to time).
    pub clock_ghz: f64,
}

/// Rejection counts by [`RejectReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectBreakdown {
    /// Rejected because the ready queue was full.
    pub queue_full: usize,
    /// Rejected by deadline-aware admission.
    pub unmeetable: usize,
    /// Submitted for a detached session. (Submissions for ids the engine
    /// never issued are reported to the caller but not recorded here.)
    pub unknown_session: usize,
    /// Rejected by the per-session queue quota
    /// ([`crate::ServeConfig::session_queue_quota`]).
    pub quota_exceeded: usize,
}

/// Shard-level slice of a [`ServeReport`] — present only when sharded
/// frames completed within the retention window.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingReport {
    /// Per-frame shard records (window-bounded, completion order).
    pub frames: Vec<ShardFrameRecord>,
    /// Mean measured imbalance over those frames.
    pub mean_imbalance: f64,
    /// Worst measured imbalance over those frames.
    pub max_imbalance: f64,
}

/// Drop counts by [`DropReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropBreakdown {
    /// Cancelled by the deadline-drop pass.
    pub deadline: usize,
    /// Cancelled because the owning session detached.
    pub session_detached: usize,
    /// Still queued when the run was sealed ([`DropReason::Gated`]).
    pub gated: usize,
}

/// Requeue counts by [`RequeueReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequeueBreakdown {
    /// Requeued because the lane was killed by fault injection.
    pub lane_failed: usize,
    /// Requeued because the autoscaler retired the lane.
    pub lane_retired: usize,
}

/// Per-session slice of a [`ServeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Session name.
    pub name: String,
    /// QoS target in Hz.
    pub qos_hz: f64,
    /// Frames this session generated (completed + rejected + dropped).
    pub generated: usize,
    /// Frames completed.
    pub completed: usize,
    /// Frames rejected at admission.
    pub rejected: usize,
    /// Frames dropped after admission.
    pub dropped: usize,
    /// Completed frames that missed their deadline.
    pub missed: usize,
    /// Completed frames per simulated second.
    pub achieved_fps: f64,
    /// 95th-percentile request-to-completion latency in milliseconds.
    pub p95_latency_ms: f64,
}

/// Aggregate results of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Scheduler policy label.
    pub policy: String,
    /// Pool size.
    pub devices: usize,
    /// Whole-run terminal totals, unaffected by any retention window
    /// (equal to the windowed counts under full retention).
    pub lifetime: LifetimeCounts,
    /// Frames generated by all sessions (completed + rejected + dropped)
    /// **within the retention window** — the whole run by default.
    pub generated: usize,
    /// Frames completed.
    pub completed: usize,
    /// Frames rejected at admission (backpressure / deadline-aware).
    pub rejected: usize,
    /// Admitted frames cancelled before completion.
    pub dropped: usize,
    /// Completed frames that blew their deadline.
    pub missed: usize,
    /// Rejections by reason.
    pub reject_reasons: RejectBreakdown,
    /// Drops by reason.
    pub drop_reasons: DropBreakdown,
    /// Requeue transitions within the retention window (non-terminal —
    /// not part of the conservation sum; see [`LifetimeCounts::requeued`]).
    pub requeued: usize,
    /// Requeues by reason.
    pub requeue_reasons: RequeueBreakdown,
    /// Fleet-controller session migrations over the whole run.
    pub migrated: usize,
    /// Lane up/down transitions over the whole run.
    pub lane_churn: usize,
    /// Completed frames per simulated second across all sessions.
    pub throughput_fps: f64,
    /// Median request-to-completion latency (ms).
    pub p50_latency_ms: f64,
    /// 95th-percentile latency (ms).
    pub p95_latency_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_latency_ms: f64,
    /// Fraction of *accountable* frames the service failed: misses,
    /// rejections and deadline drops over `generated`, with voluntary
    /// departures (session-detached drops, unknown-session rejects)
    /// excused from both numerator and denominator.
    pub deadline_miss_rate: f64,
    /// Mean busy fraction across devices.
    pub device_utilization: f64,
    /// Simulated run length in seconds.
    pub wall_seconds: f64,
    /// Host-GPU preprocessing charge/reuse totals (whole-run). All
    /// zeros when [`crate::ServeConfig::prep`] is `None`.
    pub preprocessing: PrepCounts,
    /// Quality-governor totals (whole-run): frames per quality side,
    /// counter-offers, shed/recover steps and saved device cycles. All
    /// zeros when [`crate::ServeConfig::quality`] is inactive.
    pub quality: QualityCounts,
    /// Shard-level breakdown — `None` unless sharded frames completed
    /// within the retention window (unsharded runs keep their report,
    /// and its JSON, unchanged).
    pub sharding: Option<ShardingReport>,
    /// Per-session breakdown (one entry per ever-attached session, in
    /// [`crate::SessionId`] order).
    pub sessions: Vec<SessionReport>,
}

/// `q`-th percentile of an ascending-sorted latency list, converted to
/// milliseconds (nearest-rank on the rounded index; 0 for an empty list).
fn percentile_ms(sorted: &[u64], q: f64, cycles_per_ms: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64 / cycles_per_ms
}

impl ServeReport {
    /// Serialises the report as one JSON object. Every reason, lifetime,
    /// preprocessing and quality key is always present; the `sharding`
    /// block appears only when sharded frames completed, so unsharded
    /// runs serialise exactly as they did before sharding existed.
    pub fn to_json(&self) -> String {
        let fixed6 = |v: f64| Fixed(v, 6);
        json::object(|o| {
            o.field("policy", &self.policy).field("devices", self.devices);
            let life = &self.lifetime;
            o.object("lifetime", |o| {
                o.field("generated", life.generated).field("completed", life.completed);
                o.field("rejected", life.rejected).field("dropped", life.dropped);
                o.field("missed", life.missed).field("requeued", life.requeued);
            });
            o.field("generated", self.generated).field("completed", self.completed);
            o.field("rejected", self.rejected).field("dropped", self.dropped);
            o.field("missed", self.missed);
            let rejects = &self.reject_reasons;
            o.object("reject_reasons", |o| {
                o.field("queue_full", rejects.queue_full).field("unmeetable", rejects.unmeetable);
                o.field("unknown_session", rejects.unknown_session);
                o.field("quota_exceeded", rejects.quota_exceeded);
            });
            let drops = &self.drop_reasons;
            o.object("drop_reasons", |o| {
                o.field("deadline", drops.deadline);
                o.field("session_detached", drops.session_detached).field("gated", drops.gated);
            });
            let requeues = &self.requeue_reasons;
            o.field("requeued", self.requeued).object("requeue_reasons", |o| {
                o.field("lane_failed", requeues.lane_failed);
                o.field("lane_retired", requeues.lane_retired);
            });
            o.field("migrated", self.migrated).field("lane_churn", self.lane_churn);
            o.field("throughput_fps", fixed6(self.throughput_fps));
            o.field("p50_latency_ms", fixed6(self.p50_latency_ms));
            o.field("p95_latency_ms", fixed6(self.p95_latency_ms));
            o.field("p99_latency_ms", fixed6(self.p99_latency_ms));
            o.field("deadline_miss_rate", fixed6(self.deadline_miss_rate));
            o.field("device_utilization", fixed6(self.device_utilization));
            o.field("wall_seconds", fixed6(self.wall_seconds));
            let prep = &self.preprocessing;
            o.object("preprocessing", |o| {
                o.field("frames_charged", prep.frames_charged);
                o.field("frames_shared", prep.frames_shared);
                o.field("cycles_charged", prep.cycles_charged);
                o.field("cycles_saved", prep.cycles_saved);
            });
            let q = &self.quality;
            o.object("quality", |o| {
                o.field("frames_exact", q.frames_exact).field("frames_degraded", q.frames_degraded);
                o.field("counter_offers", q.counter_offers).field("sheds", q.sheds);
                o.field("recoveries", q.recoveries).field("cycles_saved", q.cycles_saved);
            });
            if let Some(s) = &self.sharding {
                o.object("sharding", |o| {
                    o.field("mean_imbalance", fixed6(s.mean_imbalance));
                    o.field("max_imbalance", fixed6(s.max_imbalance));
                    o.objects("frames", &s.frames, |o, f| {
                        o.field("frame", f.ticket.id.index()).field("shards", f.shards);
                        o.field("critical_path_cycles", f.critical_path_cycles);
                        o.field("imbalance", fixed6(f.imbalance));
                    });
                });
            }
            o.objects("sessions", &self.sessions, |o, s| {
                o.field("name", &s.name).field("qos_hz", fixed6(s.qos_hz));
                o.field("generated", s.generated).field("completed", s.completed);
                o.field("rejected", s.rejected).field("dropped", s.dropped);
                o.field("missed", s.missed).field("achieved_fps", fixed6(s.achieved_fps));
                o.field("p95_latency_ms", fixed6(s.p95_latency_ms));
            });
        })
        .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FrameId, SessionId};

    fn ticket(session: u32, frame: u32, arrival: u64, deadline: u64) -> FrameTicket {
        FrameTicket {
            id: FrameId::from_index(u64::from(session) * 100 + u64::from(frame)),
            session: SessionId::from_index(session as usize),
            frame,
            arrival,
            deadline,
        }
    }

    fn sample_metrics() -> ServeMetrics {
        let mut m = ServeMetrics::default();
        // Session 0: two frames, one misses (deadline 100, completes 150).
        m.start(ticket(0, 0, 0, 100), 10);
        m.complete(ticket(0, 0, 0, 100), 90);
        m.start(ticket(0, 1, 50, 100), 60);
        m.complete(ticket(0, 1, 50, 100), 150);
        // Session 1: one frame on time, one rejected, one dropped from the
        // queue by the deadline pass.
        m.start(ticket(1, 0, 0, 400), 0);
        m.complete(ticket(1, 0, 0, 400), 200);
        m.reject(ticket(1, 1, 300, 700), RejectReason::QueueFull);
        m.drop_frame(ticket(1, 2, 350, 360), DropReason::Deadline);
        m
    }

    fn sample_report() -> ServeReport {
        sample_metrics().report(
            &RunInfo {
                policy: "fcfs",
                devices: 2,
                wall_cycles: 1000,
                utilization: 0.5,
                clock_ghz: 1.0,
            },
            &["a".to_string(), "b".to_string()],
            &[60.0, 90.0],
        )
    }

    #[test]
    fn counts_and_miss_rate() {
        let r = sample_report();
        assert_eq!(r.generated, 5);
        assert_eq!(r.completed, 3);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.missed, 1);
        assert_eq!(r.reject_reasons.queue_full, 1);
        assert_eq!(r.drop_reasons.deadline, 1);
        assert_eq!(r.drop_reasons.session_detached, 0);
        // (1 miss + 1 reject + 1 drop) / 5 generated.
        assert!((r.deadline_miss_rate - 0.6).abs() < 1e-12);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let r = sample_report();
        assert!(r.p50_latency_ms <= r.p95_latency_ms);
        assert!(r.p95_latency_ms <= r.p99_latency_ms);
        // Latencies are 90, 100, 200 cycles at 1 GHz -> ms = cycles/1e6.
        assert!((r.p50_latency_ms - 100.0 / 1e6).abs() < 1e-12);
        assert!((r.p99_latency_ms - 200.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn per_session_breakdown() {
        let r = sample_report();
        assert_eq!(r.sessions.len(), 2);
        assert_eq!(r.sessions[0].completed, 2);
        assert_eq!(r.sessions[0].missed, 1);
        assert_eq!(r.sessions[0].generated, 2);
        assert_eq!(r.sessions[1].rejected, 1);
        assert_eq!(r.sessions[1].dropped, 1);
        assert_eq!(r.sessions[1].generated, 3);
        for s in &r.sessions {
            assert_eq!(s.generated, s.completed + s.rejected + s.dropped);
        }
    }

    #[test]
    fn voluntary_departures_are_excused_from_miss_rate() {
        let mut m = sample_metrics();
        // A detached client's cancelled frame and a bogus-session reject
        // must not move the QoS figure (0.6 from `counts_and_miss_rate`).
        m.drop_frame(ticket(0, 9, 500, 900), DropReason::SessionDetached);
        m.reject(ticket(1, 9, 510, 910), RejectReason::UnknownSession);
        let r = m.report(
            &RunInfo {
                policy: "fcfs",
                devices: 2,
                wall_cycles: 1000,
                utilization: 0.5,
                clock_ghz: 1.0,
            },
            &["a".to_string(), "b".to_string()],
            &[60.0, 90.0],
        );
        assert_eq!(r.generated, 7, "generated still counts every frame");
        assert!((r.deadline_miss_rate - 0.6).abs() < 1e-12, "got {}", r.deadline_miss_rate);
    }

    #[test]
    fn dropping_an_in_flight_frame_retires_its_start() {
        let mut m = ServeMetrics::default();
        m.start(ticket(0, 0, 0, 100), 5);
        m.drop_frame(ticket(0, 0, 0, 100), DropReason::SessionDetached);
        assert_eq!(m.dropped().len(), 1);
        assert_eq!(m.dropped()[0].1, DropReason::SessionDetached);
        // A fresh frame of the same session still completes cleanly.
        m.start(ticket(0, 1, 10, 200), 15);
        m.complete(ticket(0, 1, 10, 200), 120);
        assert_eq!(m.completed().len(), 1);
    }

    /// Satellite: downstream diffing of `BENCH_*.json` must never see
    /// keys appear or disappear between runs — `reject_reasons` and
    /// `drop_reasons` always carry every known reason, zeroes included,
    /// and an all-zero report exposes the exact same top-level key set
    /// as a populated one.
    #[test]
    fn report_json_schema_is_stable() {
        let empty = ServeMetrics::default()
            .report(
                &RunInfo {
                    policy: "edf",
                    devices: 1,
                    wall_cycles: 0,
                    utilization: 0.0,
                    clock_ghz: 1.0,
                },
                &[],
                &[],
            )
            .to_json();
        assert!(empty.contains(
            "\"reject_reasons\":{\"queue_full\":0,\"unmeetable\":0,\"unknown_session\":0,\
             \"quota_exceeded\":0}"
        ));
        assert!(
            empty.contains("\"drop_reasons\":{\"deadline\":0,\"session_detached\":0,\"gated\":0}")
        );
        assert!(empty.contains("\"requeue_reasons\":{\"lane_failed\":0,\"lane_retired\":0}"));
        assert!(empty.contains("\"requeued\":0"));
        assert!(empty.contains("\"migrated\":0"));
        assert!(empty.contains("\"lane_churn\":0"));
        // The preprocessing block is always present — all zero when prep
        // modelling is off — so the report schema does not depend on
        // configuration.
        assert!(empty.contains(
            "\"preprocessing\":{\"frames_charged\":0,\"frames_shared\":0,\"cycles_charged\":0,\
             \"cycles_saved\":0}"
        ));
        // The quality block is always present too — all zero when the
        // governor is inactive.
        assert!(empty.contains(
            "\"quality\":{\"frames_exact\":0,\"frames_degraded\":0,\"counter_offers\":0,\
             \"sheds\":0,\"recoveries\":0,\"cycles_saved\":0}"
        ));
        let keys = |json: &str| {
            let mut k: Vec<String> =
                json.split('"').skip(1).step_by(2).map(str::to_string).collect();
            k.sort();
            k.dedup();
            k
        };
        let populated = sample_report().to_json();
        // The populated sample has per-session objects; dropping their
        // per-session-only keys must leave exactly the empty report's
        // key set — nothing else may come or go with the data.
        let empty_keys = keys(&empty);
        for k in keys(&populated) {
            let session_only = ["name", "qos_hz", "achieved_fps", "a", "b", "fcfs", "edf"];
            if !session_only.contains(&k.as_str()) {
                assert!(empty_keys.contains(&k), "key {k:?} appears only when populated");
            }
        }
    }

    /// Byte pins: the exact JSON of an empty report, the sample report,
    /// a sharded report, and a report whose non-finite figures print
    /// `null` and whose names need escaping.
    #[test]
    fn report_json_bytes_are_pinned() {
        let empty = ServeMetrics::default().report(
            &RunInfo {
                policy: "edf",
                devices: 1,
                wall_cycles: 0,
                utilization: 0.0,
                clock_ghz: 1.0,
            },
            &[],
            &[],
        );
        assert_eq!(
            empty.to_json(),
            r#"{"policy":"edf","devices":1,"lifetime":{"generated":0,"completed":0,"rejected":0,"dropped":0,"missed":0,"requeued":0},"generated":0,"completed":0,"rejected":0,"dropped":0,"missed":0,"reject_reasons":{"queue_full":0,"unmeetable":0,"unknown_session":0,"quota_exceeded":0},"drop_reasons":{"deadline":0,"session_detached":0,"gated":0},"requeued":0,"requeue_reasons":{"lane_failed":0,"lane_retired":0},"migrated":0,"lane_churn":0,"throughput_fps":0.000000,"p50_latency_ms":0.000000,"p95_latency_ms":0.000000,"p99_latency_ms":0.000000,"deadline_miss_rate":0.000000,"device_utilization":0.000000,"wall_seconds":0.000000,"preprocessing":{"frames_charged":0,"frames_shared":0,"cycles_charged":0,"cycles_saved":0},"quality":{"frames_exact":0,"frames_degraded":0,"counter_offers":0,"sheds":0,"recoveries":0,"cycles_saved":0},"sessions":[]}"#
        );
        assert_eq!(
            sample_report().to_json(),
            r#"{"policy":"fcfs","devices":2,"lifetime":{"generated":5,"completed":3,"rejected":1,"dropped":1,"missed":1,"requeued":0},"generated":5,"completed":3,"rejected":1,"dropped":1,"missed":1,"reject_reasons":{"queue_full":1,"unmeetable":0,"unknown_session":0,"quota_exceeded":0},"drop_reasons":{"deadline":1,"session_detached":0,"gated":0},"requeued":0,"requeue_reasons":{"lane_failed":0,"lane_retired":0},"migrated":0,"lane_churn":0,"throughput_fps":3000000.000000,"p50_latency_ms":0.000100,"p95_latency_ms":0.000200,"p99_latency_ms":0.000200,"deadline_miss_rate":0.600000,"device_utilization":0.500000,"wall_seconds":0.000001,"preprocessing":{"frames_charged":0,"frames_shared":0,"cycles_charged":0,"cycles_saved":0},"quality":{"frames_exact":0,"frames_degraded":0,"counter_offers":0,"sheds":0,"recoveries":0,"cycles_saved":0},"sessions":[{"name":"a","qos_hz":60.000000,"generated":2,"completed":2,"rejected":0,"dropped":0,"missed":1,"achieved_fps":2000000.000000,"p95_latency_ms":0.000100},{"name":"b","qos_hz":90.000000,"generated":3,"completed":1,"rejected":1,"dropped":1,"missed":0,"achieved_fps":1000000.000000,"p95_latency_ms":0.000200}]}"#
        );
        assert_eq!(
            sharded_report().to_json(),
            r#"{"policy":"edf","devices":4,"lifetime":{"generated":3,"completed":3,"rejected":0,"dropped":0,"missed":0,"requeued":0},"generated":3,"completed":3,"rejected":0,"dropped":0,"missed":0,"reject_reasons":{"queue_full":0,"unmeetable":0,"unknown_session":0,"quota_exceeded":0},"drop_reasons":{"deadline":0,"session_detached":0,"gated":0},"requeued":0,"requeue_reasons":{"lane_failed":0,"lane_retired":0},"migrated":0,"lane_churn":0,"throughput_fps":5000000.000000,"p50_latency_ms":0.000500,"p95_latency_ms":0.000600,"p99_latency_ms":0.000600,"deadline_miss_rate":0.000000,"device_utilization":0.500000,"wall_seconds":0.000001,"preprocessing":{"frames_charged":0,"frames_shared":0,"cycles_charged":0,"cycles_saved":0},"quality":{"frames_exact":0,"frames_degraded":0,"counter_offers":0,"sheds":0,"recoveries":0,"cycles_saved":0},"sharding":{"mean_imbalance":1.250000,"max_imbalance":1.500000,"frames":[{"frame":0,"shards":2,"critical_path_cycles":300,"imbalance":1.500000},{"frame":1,"shards":4,"critical_path_cycles":200,"imbalance":1.000000}]},"sessions":[{"name":"a","qos_hz":72.000000,"generated":2,"completed":2,"rejected":0,"dropped":0,"missed":0,"achieved_fps":3333333.333333,"p95_latency_ms":0.000500},{"name":"b","qos_hz":72.000000,"generated":1,"completed":1,"rejected":0,"dropped":0,"missed":0,"achieved_fps":1666666.666667,"p95_latency_ms":0.000600}]}"#
        );
        let mut odd = sample_report();
        odd.policy = "edf\"quoted\"".to_string();
        odd.throughput_fps = f64::NAN;
        odd.p99_latency_ms = f64::INFINITY;
        odd.sessions[0].name = "tab\tback\\slash\u{1}".to_string();
        odd.sessions[1].achieved_fps = f64::NEG_INFINITY;
        odd.sharding = Some(ShardingReport {
            frames: Vec::new(),
            mean_imbalance: f64::NAN,
            max_imbalance: 2.0,
        });
        assert_eq!(
            odd.to_json(),
            r#"{"policy":"edf\"quoted\"","devices":2,"lifetime":{"generated":5,"completed":3,"rejected":1,"dropped":1,"missed":1,"requeued":0},"generated":5,"completed":3,"rejected":1,"dropped":1,"missed":1,"reject_reasons":{"queue_full":1,"unmeetable":0,"unknown_session":0,"quota_exceeded":0},"drop_reasons":{"deadline":1,"session_detached":0,"gated":0},"requeued":0,"requeue_reasons":{"lane_failed":0,"lane_retired":0},"migrated":0,"lane_churn":0,"throughput_fps":null,"p50_latency_ms":0.000100,"p95_latency_ms":0.000200,"p99_latency_ms":null,"deadline_miss_rate":0.600000,"device_utilization":0.500000,"wall_seconds":0.000001,"preprocessing":{"frames_charged":0,"frames_shared":0,"cycles_charged":0,"cycles_saved":0},"quality":{"frames_exact":0,"frames_degraded":0,"counter_offers":0,"sheds":0,"recoveries":0,"cycles_saved":0},"sharding":{"mean_imbalance":null,"max_imbalance":2.000000,"frames":[]},"sessions":[{"name":"tab\tback\\slash\u0001","qos_hz":60.000000,"generated":2,"completed":2,"rejected":0,"dropped":0,"missed":1,"achieved_fps":2000000.000000,"p95_latency_ms":0.000100},{"name":"b","qos_hz":90.000000,"generated":3,"completed":1,"rejected":1,"dropped":1,"missed":0,"achieved_fps":null,"p95_latency_ms":0.000200}]}"#
        );
    }

    #[test]
    fn started_at_reads_in_flight_dispatches() {
        let mut m = ServeMetrics::default();
        let t = ticket(0, 0, 0, 100);
        assert_eq!(m.started_at(t), None);
        m.start(t, 42);
        assert_eq!(m.started_at(t), Some(42));
        m.complete(t, 90);
        assert_eq!(m.started_at(t), None, "completion retires the entry");
    }

    #[test]
    fn json_is_wellformed_enough() {
        let j = sample_report().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"policy\":\"fcfs\""));
        assert!(j.contains("\"sessions\":[{"));
        assert!(j.contains("\"reject_reasons\":{\"queue_full\":1"));
        assert!(j.contains("\"drop_reasons\":{\"deadline\":1,\"session_detached\":0,\"gated\":0}"));
        assert_eq!(j.matches("\"name\"").count(), 2);
        // Balanced braces.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    /// Two sharded completions and one unsharded one.
    fn sharded_report() -> ServeReport {
        let mut m = ServeMetrics::default();
        m.start(ticket(0, 0, 0, 1000), 0);
        m.complete_with_shards(ticket(0, 0, 0, 1000), 300, &[300, 100]);
        m.start(ticket(0, 1, 0, 1000), 300);
        m.complete_with_shards(ticket(0, 1, 0, 1000), 500, &[200, 200, 200, 200]);
        m.start(ticket(1, 0, 0, 1000), 500);
        m.complete(ticket(1, 0, 0, 1000), 600); // unsharded: no shard record
        assert_eq!(m.sharded().len(), 2);
        m.report(
            &RunInfo {
                policy: "edf",
                devices: 4,
                wall_cycles: 600,
                utilization: 0.5,
                clock_ghz: 1.0,
            },
            &["a".to_string(), "b".to_string()],
            &[72.0, 72.0],
        )
    }

    #[test]
    fn sharded_completions_build_the_sharding_report() {
        let r = sharded_report();
        let s = r.sharding.as_ref().expect("sharded frames completed");
        assert_eq!(s.frames.len(), 2);
        assert_eq!(s.frames[0].shards, 2);
        assert_eq!(s.frames[0].critical_path_cycles, 300);
        assert!((s.frames[0].imbalance - 1.5).abs() < 1e-12);
        assert!((s.frames[1].imbalance - 1.0).abs() < 1e-12);
        assert!((s.mean_imbalance - 1.25).abs() < 1e-12);
        assert!((s.max_imbalance - 1.5).abs() < 1e-12);
        let j = r.to_json();
        assert!(j.contains("\"sharding\":{\"mean_imbalance\":1.25"));
        assert!(j.contains("\"critical_path_cycles\":300"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn unsharded_reports_omit_the_sharding_block() {
        let r = sample_report();
        assert!(r.sharding.is_none());
        assert!(!r.to_json().contains("sharding"));
    }

    #[test]
    fn quota_rejections_are_broken_out() {
        let mut m = sample_metrics();
        m.reject(ticket(0, 8, 600, 700), RejectReason::QuotaExceeded);
        let r = m.report(
            &RunInfo {
                policy: "fcfs",
                devices: 1,
                wall_cycles: 1000,
                utilization: 0.5,
                clock_ghz: 1.0,
            },
            &["a".to_string(), "b".to_string()],
            &[60.0, 90.0],
        );
        assert_eq!(r.reject_reasons.quota_exceeded, 1);
        assert!(r.to_json().contains("\"quota_exceeded\":1"));
    }

    #[test]
    #[should_panic(expected = "completion without dispatch")]
    fn completion_requires_start() {
        let mut m = ServeMetrics::default();
        m.complete(ticket(0, 0, 0, 1), 5);
    }

    #[test]
    fn requeue_is_non_terminal_and_conservation_holds() {
        let mut m = ServeMetrics::default();
        let t = ticket(0, 0, 0, 1000);
        m.start(t, 10);
        m.requeue(t, RequeueReason::LaneFailed);
        assert_eq!(m.started_at(t), None, "requeue retires the start entry");
        assert_eq!(m.lifetime().generated, 0, "requeue is not a terminal event");
        assert_eq!(m.lifetime().requeued, 1);
        // The frame dispatches again and completes: exactly one terminal.
        m.start(t, 50);
        m.complete(t, 200);
        let life = m.lifetime();
        assert_eq!(life.generated, 1);
        assert_eq!(life.completed, 1);
        assert_eq!(life.requeued, 1);
        m.migrate();
        m.lane_transition();
        m.lane_transition();
        let r = m.report(
            &RunInfo {
                policy: "edf",
                devices: 2,
                wall_cycles: 200,
                utilization: 0.5,
                clock_ghz: 1.0,
            },
            &["a".to_string()],
            &[60.0],
        );
        assert_eq!(r.requeued, 1);
        assert_eq!(r.requeue_reasons.lane_failed, 1);
        assert_eq!(r.requeue_reasons.lane_retired, 0);
        assert_eq!(r.migrated, 1);
        assert_eq!(r.lane_churn, 2);
        let j = r.to_json();
        assert!(j.contains("\"requeued\":1"));
        assert!(j.contains("\"requeue_reasons\":{\"lane_failed\":1,\"lane_retired\":0}"));
        assert!(j.contains("\"migrated\":1"));
        assert!(j.contains("\"lane_churn\":2"));
        assert!(j.contains("\"requeued\":1}"), "lifetime block carries requeued");
    }

    #[test]
    #[should_panic(expected = "requeue without dispatch")]
    fn requeue_requires_start() {
        let mut m = ServeMetrics::default();
        m.requeue(ticket(0, 0, 0, 1), RequeueReason::LaneRetired);
    }

    #[test]
    fn window_pressure_tracks_failures_over_generated() {
        let mut m = ServeMetrics::default();
        assert_eq!(m.window_pressure(), 0.0, "idle service has zero pressure");
        // One on-time completion, one miss, one reject, one deadline
        // drop, one detach drop (excluded from the numerator).
        m.start(ticket(0, 0, 0, 100), 0);
        m.complete(ticket(0, 0, 0, 100), 90);
        m.start(ticket(0, 1, 0, 100), 0);
        m.complete(ticket(0, 1, 0, 100), 150);
        m.reject(ticket(0, 2, 0, 100), RejectReason::QueueFull);
        m.drop_frame(ticket(0, 3, 0, 100), DropReason::Deadline);
        m.drop_frame(ticket(0, 4, 0, 100), DropReason::SessionDetached);
        // (1 miss + 1 reject + 1 deadline drop) / 5 generated.
        assert!((m.window_pressure() - 0.6).abs() < 1e-12, "got {}", m.window_pressure());
    }

    #[test]
    fn window_bounds_records_and_keeps_lifetime_exact() {
        let mut m = ServeMetrics::windowed(3);
        for i in 0..10u32 {
            let t = ticket(0, i, u64::from(i) * 10, u64::from(i) * 10 + 5);
            m.start(t, u64::from(i) * 10);
            // Every other frame misses (completes 8 cycles after a
            // 5-cycle deadline offset).
            m.complete(t, u64::from(i) * 10 + if i % 2 == 0 { 4 } else { 8 });
        }
        for i in 0..5u32 {
            m.reject(ticket(1, i, 0, 1), RejectReason::QueueFull);
            m.drop_frame(ticket(2, i, 0, 1), DropReason::Deadline);
        }
        // The rings are bounded...
        assert_eq!(m.completed().len(), 3);
        assert_eq!(m.rejected().len(), 3);
        assert_eq!(m.dropped().len(), 3);
        // ...and hold the most recent records.
        assert_eq!(m.completed()[0].ticket.frame, 7);
        assert_eq!(m.completed()[2].ticket.frame, 9);
        // Lifetime totals survive the evictions.
        let life = m.lifetime();
        assert_eq!(life.generated, 20);
        assert_eq!(life.completed, 10);
        assert_eq!(life.rejected, 5);
        assert_eq!(life.dropped, 5);
        assert_eq!(life.missed, 5);
        // The report is exact within the window: of frames 7..10, the
        // odd ones (7 and 9) missed.
        let r = m.report(
            &RunInfo {
                policy: "fcfs",
                devices: 1,
                wall_cycles: 100,
                utilization: 0.5,
                clock_ghz: 1.0,
            },
            &["a".to_string(), "b".to_string(), "c".to_string()],
            &[60.0, 60.0, 60.0],
        );
        assert_eq!(r.generated, 9);
        assert_eq!(r.completed, 3);
        assert_eq!(r.missed, 2);
        assert_eq!(r.lifetime, life);
        assert!(r.to_json().contains("\"lifetime\":{\"generated\":20"));
    }

    #[test]
    fn full_retention_lifetime_equals_windowed_counts() {
        let r = sample_report();
        assert_eq!(r.lifetime.generated, r.generated);
        assert_eq!(r.lifetime.completed, r.completed);
        assert_eq!(r.lifetime.rejected, r.rejected);
        assert_eq!(r.lifetime.dropped, r.dropped);
        assert_eq!(r.lifetime.missed, r.missed);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn zero_window_is_rejected() {
        let _ = ServeMetrics::windowed(0);
    }
}
