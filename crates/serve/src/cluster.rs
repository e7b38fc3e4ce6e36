//! The serving engine's one execution backend: N [`DevicePool`] lanes
//! on a shared simulated clock, executing unsharded frames on one lane
//! and sharded frames fanned over several, merging the partial frame
//! buffers when the last shard lands.
//!
//! One heavy scene can exceed what a single device pool sustains at
//! AR/VR deadlines. A [`ClusterBackend`] can treat a frame as N
//! tile-range shards (planned by `gbu_render::shard::ShardPlan`): each
//! shard is submitted to its own lane through the tile-range-scoped
//! device entry point, so it charges only its range's D&B work and DRAM
//! feature traffic against *its own* lane's bandwidth budget — the
//! multi-GPU deployment where every lane is a separate edge SoC. All
//! lanes advance in lockstep on one wall clock; a sharded frame
//! completes only when every shard has landed, at which point the
//! partial frame buffers are reassembled into an image bit-identical to
//! the unsharded device render, and the per-shard service times are
//! reported as an imbalance figure (critical path over mean).
//!
//! [`crate::BackendKind::Single`] is a 1-lane cluster, so the classic
//! single-pool engine and the fleet runs share this one code path.

use crate::backend::{ExecCompletion, ExecMode, FrameDone};
use crate::event::SessionId;
use crate::pool::DevicePool;
use crate::scheduler::FrameTicket;
use crate::session::PreparedView;
use gbu_gpu::GpuConfig;
use gbu_hw::GbuConfig;
use gbu_render::shard::{ShardFeedback, ShardPlan, ShardStrategy};
use gbu_render::FrameBuffer;

/// Copies shard `shard`'s tile-row bands of `src` (that shard's device
/// image: full-size, background outside its rows) into `dst`.
fn copy_shard_rows(plan: &ShardPlan, shard: usize, src: &FrameBuffer, dst: &mut FrameBuffer) {
    let w = src.width() as usize;
    for &ty in &plan.shards[shard].rows {
        let y0 = ty * plan.tile_size;
        let y1 = ((ty + 1) * plan.tile_size).min(src.height());
        let lo = y0 as usize * w;
        let hi = y1 as usize * w;
        dst.pixels_mut()[lo..hi].copy_from_slice(&src.pixels()[lo..hi]);
    }
}

/// One sharded frame mid-flight on the cluster backend.
#[derive(Debug)]
struct PendingFrame {
    ticket: FrameTicket,
    plan: ShardPlan,
    submitted_at: u64,
    /// Lane each shard executes on (`lane_of_shard[s]`); a frame's
    /// shards occupy distinct lanes.
    lane_of_shard: Vec<usize>,
    /// Device occupancy (`max(D&B, Tile PE)` cycles) of each shard,
    /// read at submission — the contention-free measured service that
    /// feeds [`ShardStrategy::Measured`] replanning.
    occupancy_of_shard: Vec<u64>,
    /// Landing cycle of each shard, filled as lanes report completions.
    landed_at: Vec<Option<u64>>,
    /// Off-chip feature traffic of the shards landed so far.
    dram_bytes: u64,
    /// The frame's image so far: the first landed shard's device image,
    /// with each later landing's rows copied in as it lands, so a frame
    /// holds one image however many shards have landed. The plan's rows
    /// partition the frame, so once every shard has landed each row
    /// comes from its own shard whatever the landing order —
    /// bit-identical to the unsharded device render (the per-row
    /// kernels are the same code).
    image: Option<FrameBuffer>,
}

/// N independent [`DevicePool`] lanes on one lockstep wall clock,
/// executing [`ExecMode::Unsharded`] frames on a single lane and
/// [`ExecMode::Sharded`] frames fanned over the least-busy `shards`
/// lanes — mixed freely on one clock.
///
/// The clock is strictly monotone and advanced only by
/// [`ClusterBackend::advance`]; rates change only at submit/completion
/// boundaries, so advancing event-to-event
/// ([`ClusterBackend::next_completion_dt`]) is exact.
///
/// Sharded frames report one [`ExecCompletion::Shard`] per landed shard
/// before the merged [`ExecCompletion::Frame`]; per-session
/// [`ShardFeedback`] (shard rows + measured occupancies) is retained so
/// [`ShardStrategy::Measured`] can rebalance each next frame's plan.
#[derive(Debug)]
pub struct ClusterBackend {
    lanes: Vec<DevicePool>,
    devices_per_lane: usize,
    pending: Vec<PendingFrame>,
    /// Last executed plan + measured shard occupancies, by session index.
    feedback: Vec<Option<ShardFeedback>>,
    /// Which lanes are up. A dead lane is masked, never removed: its
    /// pool keeps ticking (idle) so the lockstep clock and stable lane
    /// indices survive any kill/restore schedule.
    alive: Vec<bool>,
    /// Restart generation per lane: 0 for the first lifetime, bumped on
    /// every restore.
    generation: Vec<u32>,
    /// Preferred home lane per session index (the fleet controller's
    /// migration lever); advisory — a dead or full home falls back to
    /// least-busy placement.
    affinity: Vec<Option<usize>>,
}

impl ClusterBackend {
    /// Creates a cluster of `lanes` pools with `devices_per_lane` GBUs
    /// each; every lane owns its own DRAM budget (`dram_share` of one
    /// host GPU's LPDDR bandwidth) — lanes model separate edge SoCs.
    ///
    /// # Panics
    ///
    /// Panics when `lanes == 0` (and transitively when
    /// `devices_per_lane == 0`).
    pub fn new(
        lanes: usize,
        devices_per_lane: usize,
        gbu: &GbuConfig,
        gpu: &GpuConfig,
        dram_share: f64,
    ) -> Self {
        assert!(lanes > 0, "a cluster needs at least one lane");
        Self {
            lanes: (0..lanes)
                .map(|_| DevicePool::new(devices_per_lane, gbu, gpu, dram_share))
                .collect(),
            devices_per_lane,
            pending: Vec::new(),
            feedback: Vec::new(),
            alive: vec![true; lanes],
            generation: vec![0; lanes],
            affinity: Vec::new(),
        }
    }

    /// The measured feedback retained for `session`, if any frame of its
    /// has completed sharded yet.
    pub fn session_feedback(&self, session: SessionId) -> Option<&ShardFeedback> {
        self.feedback.get(session.index()).and_then(Option::as_ref)
    }

    /// Live lanes with an idle device, ordered by (busy devices, lane
    /// index): the deterministic placement order for new frames.
    fn placement_order(&self) -> Vec<usize> {
        let mut open: Vec<usize> = (0..self.lanes.len())
            .filter(|&l| self.alive[l] && self.lanes[l].idle_device().is_some())
            .collect();
        open.sort_by_key(|&l| (self.lanes[l].busy_count(), l));
        open
    }

    /// Current wall cycle (all lanes advance in lockstep).
    pub fn clock(&self) -> u64 {
        self.lanes[0].clock()
    }

    /// Number of lanes, live or not.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Total GBU devices across all lanes.
    pub fn device_count(&self) -> usize {
        self.lanes.len() * self.devices_per_lane
    }

    /// Number of frames currently executing (a sharded frame counts once
    /// however many shards are still in flight).
    pub fn in_flight_frames(&self) -> usize {
        let shard_busy: usize =
            self.pending.iter().map(|p| p.landed_at.iter().filter(|at| at.is_none()).count()).sum();
        let busy: usize = self.lanes.iter().map(DevicePool::busy_count).sum();
        busy - shard_busy + self.pending.len()
    }

    /// Mean device utilization so far across all lanes.
    pub fn utilization(&self) -> f64 {
        self.lanes.iter().map(DevicePool::utilization).sum::<f64>() / self.lanes.len() as f64
    }

    /// Capacity probe: can a frame in `mode` be dispatched right now?
    /// (`Unsharded`: some live lane has an idle device;
    /// `Sharded { shards }`: at least `shards` live lanes each have one.)
    pub fn can_accept(&self, mode: ExecMode) -> bool {
        mode.fits(self.open_lane_count())
    }

    /// Dispatches `view` on behalf of `ticket` in `mode`. The frame first
    /// occupies its device(s) for `prep_cycles` device-cycles of host
    /// Step-❶/❷ work before GBU progress starts — how the engine models
    /// host-GPU preprocessing when [`crate::engine::PrepConfig`] is
    /// enabled (and the lever the cross-session reuse discount pulls by
    /// passing 0 for shared epochs). Returns the global device index the
    /// frame started on (sharded: the device running shard 0) for the
    /// `Started` event.
    ///
    /// # Panics
    ///
    /// Panics when fewer live lanes have an idle device than `mode`
    /// needs (check [`ClusterBackend::can_accept`] first), or when a
    /// sharded frame with the same ticket id is already in flight.
    pub fn submit(
        &mut self,
        view: &PreparedView,
        ticket: FrameTicket,
        mode: ExecMode,
        prep_cycles: u64,
    ) -> usize {
        match mode {
            ExecMode::Unsharded => {
                let home = self
                    .affinity
                    .get(ticket.session.index())
                    .copied()
                    .flatten()
                    .filter(|&l| self.alive[l] && self.lanes[l].idle_device().is_some());
                let lane = home.unwrap_or_else(|| {
                    *self
                        .placement_order()
                        .first()
                        .expect("submit requires a lane with an idle device")
                });
                let device =
                    self.lanes[lane].idle_device().expect("placement order holds open lanes");
                self.lanes[lane].submit(device, view, ticket, prep_cycles);
                lane * self.devices_per_lane + device
            }
            ExecMode::Sharded { shards, strategy } => {
                assert!(
                    self.pending.iter().all(|p| p.ticket.id != ticket.id),
                    "ticket {:?} already has shards in flight",
                    ticket.id
                );
                let order = self.placement_order();
                assert!(
                    shards >= 1 && shards <= order.len(),
                    "a {shards}-shard frame needs that many open lanes ({} open)",
                    order.len()
                );
                let lane_of_shard: Vec<usize> = order[..shards].to_vec();
                let feedback = match strategy {
                    ShardStrategy::Measured => self
                        .feedback
                        .get(ticket.session.index())
                        .and_then(Option::as_ref)
                        // A shard-count change invalidates the old plan's
                        // per-shard measurement mapping only partially
                        // (per-row costs still transfer); keep it.
                        .cloned(),
                    _ => None,
                };
                let plan =
                    ShardPlan::with_feedback(strategy, &view.bins, shards, feedback.as_ref());
                let submitted_at = self.clock();
                let mut occupancy_of_shard = Vec::with_capacity(shards);
                let mut first_device = 0;
                for (s, &lane) in lane_of_shard.iter().enumerate() {
                    let device =
                        self.lanes[lane].idle_device().expect("placement order holds open lanes");
                    let shard_bins = plan.shard_bins(&view.bins, s);
                    // Every shard waits for the host's full Step-❶/❷
                    // pass — prep is not divisible across shards.
                    self.lanes[lane].submit_scoped(
                        device,
                        &view.splats,
                        &shard_bins,
                        &view.camera,
                        ticket,
                        prep_cycles,
                    );
                    occupancy_of_shard.push(
                        self.lanes[lane]
                            .in_flight_occupancy(device)
                            .expect("shard was just submitted"),
                    );
                    if s == 0 {
                        first_device = lane * self.devices_per_lane + device;
                    }
                }
                self.pending.push(PendingFrame {
                    ticket,
                    plan,
                    submitted_at,
                    lane_of_shard,
                    occupancy_of_shard,
                    landed_at: vec![None; shards],
                    dram_bytes: 0,
                    image: None,
                });
                first_device
            }
        }
    }

    /// Cancels every in-flight frame belonging to `session` (all shards
    /// of sharded frames), freeing their devices immediately. Returns the
    /// cancelled tickets, one entry per frame.
    pub fn cancel_session(&mut self, session: SessionId) -> Vec<FrameTicket> {
        let mut cancelled = Vec::new();
        // Sharded frames first: cancel every unlanded shard on its lane,
        // discard landed partials, retire the pending entry.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].ticket.session != session {
                i += 1;
                continue;
            }
            let p = self.pending.remove(i);
            self.cancel_unlanded_shards(&p);
            cancelled.push(p.ticket);
        }
        // Then plain unsharded frames of the session.
        for lane in &mut self.lanes {
            for device in 0..lane.len() {
                if lane.active_ticket(device).is_some_and(|t| t.session == session) {
                    cancelled.push(lane.cancel(device).expect("active ticket was just observed"));
                }
            }
        }
        cancelled
    }

    /// Cancels every shard of `p` that has not landed yet, wherever it
    /// runs (landed partials are simply discarded with `p`).
    fn cancel_unlanded_shards(&mut self, p: &PendingFrame) {
        for (s, &lane) in p.lane_of_shard.iter().enumerate() {
            if p.landed_at[s].is_some() {
                continue; // this shard already landed
            }
            let pool = &mut self.lanes[lane];
            let device = (0..pool.len())
                .find(|&d| pool.active_ticket(d).is_some_and(|t| t.id == p.ticket.id))
                .expect("unlanded shard is active on its lane");
            pool.cancel(device).expect("active ticket was just observed");
        }
    }

    /// Wall cycles until the next completion (shard or frame) anywhere,
    /// or `None` when idle.
    pub fn next_completion_dt(&self) -> Option<u64> {
        self.lanes.iter().filter_map(DevicePool::next_completion_dt).min()
    }

    /// Advances every lane by `wall_dt` cycles in lockstep and returns
    /// what landed, shard completions strictly before the frame
    /// completions they belong to.
    ///
    /// # Panics
    ///
    /// Panics when `wall_dt == 0` (the clock must move forward).
    pub fn advance(&mut self, wall_dt: u64) -> Vec<ExecCompletion> {
        let mut shard_events = Vec::new();
        let mut unsharded_done = Vec::new();
        for (lane_idx, lane) in self.lanes.iter_mut().enumerate() {
            for completion in lane.advance(wall_dt) {
                let pending = self.pending.iter_mut().find(|p| p.ticket.id == completion.ticket.id);
                match pending {
                    Some(p) => {
                        let shard = p
                            .lane_of_shard
                            .iter()
                            .position(|&l| l == lane_idx)
                            .expect("completion lane is one of the frame's shard lanes");
                        debug_assert!(p.landed_at[shard].is_none(), "one completion per shard");
                        shard_events.push(ExecCompletion::Shard {
                            ticket: p.ticket,
                            shard,
                            lane: lane_idx,
                            at: completion.completed_at,
                            service_cycles: completion.completed_at - p.submitted_at,
                        });
                        p.landed_at[shard] = Some(completion.completed_at);
                        p.dram_bytes += completion.run.dram_bytes;
                        match &mut p.image {
                            Some(image) => {
                                copy_shard_rows(&p.plan, shard, &completion.run.image, image);
                            }
                            None => p.image = Some(completion.run.image),
                        }
                    }
                    None => unsharded_done.push(FrameDone {
                        ticket: completion.ticket,
                        completed_at: completion.completed_at,
                        dram_bytes: completion.run.dram_bytes,
                        image: completion.run.image,
                        shard_cycles: Vec::new(),
                    }),
                }
            }
        }

        // Seal sharded frames whose last shard just landed (in
        // submission order — all same-advance completions share one
        // timestamp, so any deterministic order is exact).
        let mut sharded_done = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].landed_at.iter().any(Option::is_none) {
                i += 1;
                continue;
            }
            let p = self.pending.remove(i);
            let landed: Vec<u64> =
                p.landed_at.iter().map(|at| at.expect("all shards landed")).collect();
            let completed_at = *landed.iter().max().expect("at least one shard");
            let shard_cycles: Vec<u64> = landed.iter().map(|at| at - p.submitted_at).collect();
            // Retain the measurement for the session's next Measured plan.
            let idx = p.ticket.session.index();
            if self.feedback.len() <= idx {
                self.feedback.resize_with(idx + 1, || None);
            }
            self.feedback[idx] = Some(ShardFeedback {
                rows: p.plan.shards.iter().map(|s| s.rows.clone()).collect(),
                measured_cycles: p.occupancy_of_shard,
            });
            sharded_done.push(FrameDone {
                ticket: p.ticket,
                completed_at,
                image: p.image.expect("a landed shard supplies the image"),
                shard_cycles,
                dram_bytes: p.dram_bytes,
            });
        }

        shard_events
            .into_iter()
            .chain(unsharded_done.into_iter().map(ExecCompletion::Frame))
            .chain(sharded_done.into_iter().map(ExecCompletion::Frame))
            .collect()
    }

    /// Per-lane, per-device optimistic backlog, written into `out`
    /// (cleared first): device-cycles of work still executing on each
    /// device (zero when idle), grouped by *live* lane — what lane-aware
    /// admission seeds its earliest-free schedule with. Taking a caller
    /// scratch buffer keeps the per-admission probe allocation-free once
    /// the buffer warms up.
    ///
    /// Live lanes only: a dead lane contributes no capacity, but leaving
    /// it out (rather than reporting it as infinitely backed up) keeps
    /// the admission estimate optimistic — a rejection stays a proof of
    /// unmeetability even if the lane is restored a cycle later.
    pub fn lane_backlogs_into(&self, out: &mut Vec<Vec<u64>>) {
        out.resize_with(self.live_lane_count(), Vec::new);
        let mut i = 0;
        for (lane, pool) in self.lanes.iter().enumerate() {
            if self.alive[lane] {
                pool.in_flight_backlog_into(&mut out[i]);
                i += 1;
            }
        }
    }

    /// Whether `lane` is currently up. Lanes go down under a fleet
    /// plan's fault injection or the autoscaler's scale-down.
    pub fn lane_alive(&self, lane: usize) -> bool {
        self.alive[lane]
    }

    /// Number of lanes currently up.
    pub fn live_lane_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Number of live lanes with at least one idle device — the
    /// dispatch headroom lane reservation budgets against.
    pub fn open_lane_count(&self) -> usize {
        (0..self.lanes.len())
            .filter(|&l| self.alive[l] && self.lanes[l].idle_device().is_some())
            .count()
    }

    /// Takes `lane` down: cancels every in-flight frame with work on it
    /// (all shards of a sharded frame, wherever they run) and refuses it
    /// new work until [`ClusterBackend::restore_lane`]. Returns the
    /// cancelled tickets, one entry per frame; killing a dead lane is a
    /// no-op.
    pub fn kill_lane(&mut self, lane: usize) -> Vec<FrameTicket> {
        if !self.alive[lane] {
            return Vec::new();
        }
        let mut cancelled = Vec::new();
        // Sharded frames with *any* shard on the dying lane lose the
        // whole frame: its partial framebuffer lives in the dead lane's
        // memory, so landed shards are as lost as in-flight ones. Cancel
        // every unlanded shard wherever it runs and retire the entry.
        let mut i = 0;
        while i < self.pending.len() {
            if !self.pending[i].lane_of_shard.contains(&lane) {
                i += 1;
                continue;
            }
            let p = self.pending.remove(i);
            self.cancel_unlanded_shards(&p);
            cancelled.push(p.ticket);
        }
        // Then the unsharded frames executing on the lane itself.
        for device in 0..self.lanes[lane].len() {
            if self.lanes[lane].active_ticket(device).is_some() {
                cancelled.push(
                    self.lanes[lane].cancel(device).expect("active ticket was just observed"),
                );
            }
        }
        self.alive[lane] = false;
        cancelled
    }

    /// Brings `lane` back up, starting a new
    /// [`ClusterBackend::lane_generation`] lifetime (no-op when it is
    /// already up).
    pub fn restore_lane(&mut self, lane: usize) {
        if self.alive[lane] {
            return;
        }
        self.alive[lane] = true;
        self.generation[lane] += 1;
        self.lanes[lane].set_lane_generation(self.generation[lane]);
    }

    /// Restart generation of `lane`: 0 for its first lifetime, bumped on
    /// every restore.
    pub fn lane_generation(&self, lane: usize) -> u32 {
        self.generation[lane]
    }

    /// Pins `session`'s future unsharded frames to prefer `lane` (or
    /// clears the pin with `None`) — the fleet controller's migration
    /// lever. Advisory: a dead or full home lane falls back to least-busy
    /// placement.
    pub fn set_lane_affinity(&mut self, session: SessionId, lane: Option<usize>) {
        let idx = session.index();
        if self.affinity.len() <= idx {
            if lane.is_none() {
                return;
            }
            self.affinity.resize(idx + 1, None);
        }
        self.affinity[idx] = lane;
    }

    /// Attaches a telemetry recorder: every lane records its
    /// `device_busy` spans and DRAM-arbitration stall gauge into it.
    pub fn set_telemetry(&mut self, recorder: &gbu_telemetry::Recorder) {
        for (lane, pool) in self.lanes.iter_mut().enumerate() {
            pool.attach_recorder(recorder.clone(), lane as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{prepare_view, Session, SessionContent, SessionSpec};
    use crate::QosTarget;
    use gbu_core::Gbu;
    use gbu_math::Vec3;
    use gbu_scene::{Camera, Gaussian3D, GaussianScene};

    fn prepared() -> Session {
        Session::prepare(
            SessionSpec {
                name: "cluster".into(),
                content: SessionContent::Synthetic { seed: 11, gaussians: 160 },
                qos: QosTarget::VR_72,
                frames: 2,
                phase: 0.0,
                exec: ExecMode::Unsharded,
            },
            &GbuConfig::paper(),
        )
    }

    fn ticket(n: u32) -> FrameTicket {
        FrameTicket {
            id: crate::FrameId::from_index(u64::from(n)),
            session: crate::SessionId::from_index(0),
            frame: n,
            arrival: 0,
            deadline: u64::MAX,
        }
    }

    fn unsharded_baseline(view: &PreparedView) -> FrameBuffer {
        let mut gbu = Gbu::new(GbuConfig::paper());
        gbu.render_image(&view.splats, &view.bins, &view.camera, Vec3::ZERO).unwrap();
        gbu.wait().expect("frame in flight").image
    }

    fn cluster_backend(lanes: usize, devices_per_lane: usize) -> ClusterBackend {
        ClusterBackend::new(
            lanes,
            devices_per_lane,
            &GbuConfig::paper(),
            &GpuConfig::orin_nx(),
            0.5,
        )
    }

    fn drain_backend(backend: &mut ClusterBackend) -> Vec<ExecCompletion> {
        let mut out = Vec::new();
        while let Some(dt) = backend.next_completion_dt() {
            out.extend(backend.advance(dt));
        }
        out
    }

    /// The frame completions of a fully drained backend, shard landings
    /// skipped.
    fn drain_frames(backend: &mut ClusterBackend) -> Vec<FrameDone> {
        drain_backend(backend)
            .into_iter()
            .filter_map(|c| match c {
                ExecCompletion::Frame(done) => Some(done),
                ExecCompletion::Shard { .. } => None,
            })
            .collect()
    }

    fn sharded(shards: usize, strategy: ShardStrategy) -> ExecMode {
        ExecMode::Sharded { shards, strategy }
    }

    #[test]
    fn sharded_frame_is_bit_identical_to_single_device() {
        // The session's view, an empty 64x48 scene, and a one-Gaussian
        // 64x32 frame with 2 tile rows (fewer than 4 shards).
        let session = prepared();
        let gbu = GbuConfig::paper();
        let empty = prepare_view(
            &GaussianScene::new(),
            Camera::orbit(64, 48, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0),
            &gbu,
        );
        let one: GaussianScene =
            std::iter::once(Gaussian3D::isotropic(Vec3::ZERO, 0.2, Vec3::ONE, 0.9)).collect();
        let short = prepare_view(&one, Camera::orbit(64, 32, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0), &gbu);
        assert_eq!(short.bins.tiles_y, 2);
        // The unsharded path rides along: its image is the device run's
        // own, handed through the pool without a copy.
        let modes: Vec<ExecMode> = std::iter::once(ExecMode::Unsharded)
            .chain(ShardStrategy::all().into_iter().flat_map(|strategy| {
                [1usize, 2, 4].into_iter().map(move |shards| sharded(shards, strategy))
            }))
            .collect();
        for view in [session.view(0), &empty, &short] {
            let reference = unsharded_baseline(view);
            for &mode in &modes {
                let what = format!("{}x{} {mode:?}", view.camera.width, view.camera.height);
                let shards = match mode {
                    ExecMode::Unsharded => 0,
                    ExecMode::Sharded { shards, .. } => shards,
                };
                let mut backend = cluster_backend(shards.max(1), 1);
                assert!(backend.can_accept(mode));
                backend.submit(view, ticket(0), mode, 0);
                let mut done = drain_frames(&mut backend);
                assert_eq!(done.len(), 1, "{what}");
                let c = done.remove(0);
                assert_eq!(
                    c.image.pixels(),
                    reference.pixels(),
                    "{what}: merged image must be bit-identical"
                );
                assert_eq!(c.shard_cycles.len(), shards, "{what}");
                assert_eq!(c.imbalance().is_some(), shards > 0, "{what}");
                assert!(c.imbalance().is_none_or(|i| i >= 1.0 - 1e-12), "{what}");
                assert_eq!(c.dram_bytes > 0, !view.splats.is_empty(), "{what}");
            }
        }
    }

    #[test]
    fn frame_completes_only_when_all_shards_land() {
        let session = prepared();
        let mut backend = cluster_backend(4, 1);
        backend.submit(session.view(0), ticket(0), sharded(4, ShardStrategy::ContiguousRows), 0);
        assert_eq!(backend.in_flight_frames(), 1);
        // Advance to the first shard landing: unless every shard happens
        // to land on the same cycle, the frame must still be pending.
        let first = backend.next_completion_dt().expect("shards in flight");
        for c in backend.advance(first) {
            if let ExecCompletion::Frame(done) = c {
                // Degenerate (all shards equal): still a valid completion.
                assert_eq!(done.shard_cycles.len(), 4);
                return;
            }
        }
        assert_eq!(backend.in_flight_frames(), 1, "frame gates on the last shard");
        let done = drain_frames(&mut backend);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].completed_at, backend.clock());
        assert_eq!(backend.in_flight_frames(), 0);
    }

    #[test]
    fn sharding_shortens_the_critical_path() {
        let session = prepared();
        let unsharded_cycles = session.view(0).occupancy;
        let mut backend = cluster_backend(4, 1);
        backend.submit(session.view(0), ticket(0), sharded(4, ShardStrategy::CostBalanced), 0);
        let done = drain_frames(&mut backend);
        assert!(
            done[0].completed_at < unsharded_cycles,
            "4 shard lanes must beat one device: {} vs {unsharded_cycles}",
            done[0].completed_at
        );
    }

    #[test]
    fn lanes_pipeline_independent_frames() {
        let session = prepared();
        let mut backend = cluster_backend(2, 2);
        let mode = sharded(2, ShardStrategy::InterleavedRows);
        // Two sharded frames in flight at once: each lane has two devices.
        backend.submit(session.view(0), ticket(0), mode, 0);
        assert!(backend.can_accept(mode), "second device per lane is idle");
        backend.submit(session.view(1), ticket(1), mode, 0);
        assert!(!backend.can_accept(mode));
        assert_eq!(backend.in_flight_frames(), 2);
        let done = drain_frames(&mut backend);
        assert_eq!(done.len(), 2);
        let mut ids: Vec<u64> = done.iter().map(|c| c.ticket.id.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
        let u = backend.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    #[should_panic(expected = "open lanes")]
    fn oversubmission_panics() {
        let session = prepared();
        let mut backend = cluster_backend(2, 1);
        let mode = sharded(2, ShardStrategy::ContiguousRows);
        backend.submit(session.view(0), ticket(0), mode, 0);
        backend.submit(session.view(1), ticket(1), mode, 0);
    }

    #[test]
    fn backend_mixes_sharded_and_unsharded_frames() {
        let session = prepared();
        let reference = unsharded_baseline(session.view(0));
        let mut backend = cluster_backend(3, 1);
        assert_eq!(backend.lane_count(), 3);
        assert_eq!(backend.device_count(), 3);

        let mode = sharded(2, ShardStrategy::CostBalanced);
        assert!(backend.can_accept(mode));
        backend.submit(session.view(0), ticket(0), mode, 0);
        assert!(backend.can_accept(ExecMode::Unsharded), "one lane still open");
        assert!(!backend.can_accept(mode), "only one open lane left");
        backend.submit(session.view(0), ticket(1), ExecMode::Unsharded, 0);
        assert!(!backend.can_accept(ExecMode::Unsharded));
        assert_eq!(backend.in_flight_frames(), 2);

        let completions = drain_backend(&mut backend);
        let shard_events: Vec<_> =
            completions.iter().filter(|c| matches!(c, ExecCompletion::Shard { .. })).collect();
        assert_eq!(shard_events.len(), 2, "one event per shard of the sharded frame");
        let frames: Vec<&FrameDone> = completions
            .iter()
            .filter_map(|c| match c {
                ExecCompletion::Frame(done) => Some(done),
                ExecCompletion::Shard { .. } => None,
            })
            .collect();
        assert_eq!(frames.len(), 2);
        for done in frames {
            assert_eq!(
                done.image.pixels(),
                reference.pixels(),
                "both modes must produce the identical image"
            );
            match done.ticket.id.index() {
                0 => {
                    assert_eq!(done.shard_cycles.len(), 2);
                    assert!(done.imbalance().expect("sharded") >= 1.0 - 1e-12);
                }
                _ => assert!(done.shard_cycles.is_empty()),
            }
        }
        assert_eq!(backend.in_flight_frames(), 0);
    }

    #[test]
    fn shard_events_precede_their_frame_completion() {
        let session = prepared();
        let mut backend = cluster_backend(4, 1);
        backend.submit(session.view(0), ticket(0), sharded(4, ShardStrategy::ContiguousRows), 0);
        let completions = drain_backend(&mut backend);
        let frame_pos = completions
            .iter()
            .position(|c| matches!(c, ExecCompletion::Frame(_)))
            .expect("frame completed");
        let shard_positions: Vec<usize> = completions
            .iter()
            .enumerate()
            .filter_map(|(i, c)| matches!(c, ExecCompletion::Shard { .. }).then_some(i))
            .collect();
        assert_eq!(shard_positions.len(), 4);
        assert!(shard_positions.iter().all(|&p| p < frame_pos), "shards land before the frame");
    }

    #[test]
    fn backend_cancel_session_reclaims_all_shards() {
        let session = prepared();
        let mut backend = cluster_backend(2, 1);
        let mode = sharded(2, ShardStrategy::InterleavedRows);
        backend.submit(session.view(0), ticket(0), mode, 0);
        assert_eq!(backend.in_flight_frames(), 1);
        let cancelled = backend.cancel_session(crate::SessionId::from_index(0));
        assert_eq!(cancelled.len(), 1, "one frame, however many shards");
        assert_eq!(backend.in_flight_frames(), 0);
        assert!(backend.next_completion_dt().is_none());
        assert!(backend.can_accept(mode));
        // Other sessions' frames survive a cancel.
        backend.submit(session.view(0), ticket(1), ExecMode::Unsharded, 0);
        assert!(backend.cancel_session(crate::SessionId::from_index(9)).is_empty());
        assert_eq!(backend.in_flight_frames(), 1);
    }

    #[test]
    fn measured_feedback_is_retained_per_session() {
        let session = prepared();
        let mut backend = cluster_backend(2, 1);
        let mode = sharded(2, ShardStrategy::Measured);
        let sid = crate::SessionId::from_index(0);
        assert!(backend.session_feedback(sid).is_none(), "no history before the first frame");
        backend.submit(session.view(0), ticket(0), mode, 0);
        drain_backend(&mut backend);
        let fb = backend.session_feedback(sid).expect("feedback after first completion");
        assert_eq!(fb.rows.len(), 2);
        assert_eq!(fb.measured_cycles.len(), 2);
        assert!(fb.measured_cycles.iter().all(|&c| c > 0));
        // A second frame replans with the measurement and still merges
        // bit-identically.
        let reference = unsharded_baseline(session.view(0));
        backend.submit(session.view(0), ticket(1), mode, 0);
        let done = drain_frames(&mut backend);
        assert_eq!(done[0].image.pixels(), reference.pixels());
    }

    #[test]
    fn kill_lane_reclaims_whole_sharded_frames() {
        let session = prepared();
        let mut backend = cluster_backend(3, 1);
        let mode = sharded(2, ShardStrategy::ContiguousRows);
        backend.submit(session.view(0), ticket(0), mode, 0);
        backend.submit(session.view(0), ticket(1), ExecMode::Unsharded, 0);
        assert_eq!(backend.in_flight_frames(), 2);

        // The sharded frame occupies lanes 0 and 1; killing lane 1 must
        // reclaim the whole frame (including its shard on lane 0) while
        // the unsharded frame on lane 2 survives.
        let cancelled = backend.kill_lane(1);
        assert_eq!(cancelled.len(), 1);
        assert_eq!(cancelled[0].id.index(), 0);
        assert_eq!(backend.in_flight_frames(), 1);
        assert!(!backend.lane_alive(1));
        assert_eq!(backend.live_lane_count(), 2);
        let mut backlogs = Vec::new();
        backend.lane_backlogs_into(&mut backlogs);
        assert_eq!(backlogs.len(), 2, "dead lanes leave the backlog view");
        assert!(!backend.can_accept(mode), "one open live lane left");
        assert!(backend.can_accept(ExecMode::Unsharded));

        // Killing a dead lane is a no-op; restoring bumps its generation.
        assert!(backend.kill_lane(1).is_empty());
        assert_eq!(backend.lane_generation(1), 0);
        backend.restore_lane(1);
        assert!(backend.lane_alive(1));
        assert_eq!(backend.lane_generation(1), 1);
        assert!(backend.can_accept(mode));

        // The survivor still completes after the churn.
        assert_eq!(drain_frames(&mut backend).len(), 1);
    }

    #[test]
    fn dead_lanes_keep_the_lockstep_clock() {
        let session = prepared();
        let mut backend = cluster_backend(2, 1);
        // Lane 0 is the clock source; kill it and run a frame on lane 1.
        backend.kill_lane(0);
        backend.submit(session.view(0), ticket(0), ExecMode::Unsharded, 0);
        assert_eq!(drain_frames(&mut backend).len(), 1);
        let t = backend.clock();
        assert!(t > 0, "dead lane 0 still ticks the shared clock");
        // A restored lane rejoins at the shared clock, not at zero.
        backend.restore_lane(0);
        backend.submit(session.view(0), ticket(1), ExecMode::Unsharded, 0);
        let done = drain_frames(&mut backend);
        assert_eq!(done.len(), 1);
        assert!(done[0].completed_at > t, "restored lane completes in the shared time domain");
    }

    #[test]
    fn affinity_steers_unsharded_placement() {
        let session = prepared();
        let mut backend = cluster_backend(2, 1);
        let sid = crate::SessionId::from_index(0);
        // Least-busy placement would pick lane 0; affinity overrides.
        backend.set_lane_affinity(sid, Some(1));
        let device = backend.submit(session.view(0), ticket(0), ExecMode::Unsharded, 0);
        assert_eq!(device, 1, "home lane 1, device 0 of 1 per lane");
        drain_backend(&mut backend);
        // A dead home lane falls back to least-busy placement.
        backend.kill_lane(1);
        let device = backend.submit(session.view(0), ticket(1), ExecMode::Unsharded, 0);
        assert_eq!(device, 0);
        drain_backend(&mut backend);
        // Clearing the pin restores least-busy placement.
        backend.restore_lane(1);
        backend.set_lane_affinity(sid, None);
        let device = backend.submit(session.view(0), ticket(2), ExecMode::Unsharded, 0);
        assert_eq!(device, 0);
    }

    #[test]
    fn measured_feedback_survives_lane_churn() {
        let session = prepared();
        let mut backend = cluster_backend(2, 1);
        let mode = sharded(2, ShardStrategy::Measured);
        let sid = crate::SessionId::from_index(0);
        backend.submit(session.view(0), ticket(0), mode, 0);
        drain_backend(&mut backend);
        assert!(backend.session_feedback(sid).is_some());
        backend.kill_lane(0);
        backend.restore_lane(0);
        assert!(
            backend.session_feedback(sid).is_some(),
            "feedback is per-session state, not per-lane state"
        );
    }
}
