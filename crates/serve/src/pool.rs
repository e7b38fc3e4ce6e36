//! A pool of GBU devices advanced on one simulated clock with
//! shared-DRAM bandwidth contention.
//!
//! Each device is a [`gbu_core::Gbu`] driven through the paper's
//! asynchronous `GBU_render_image` / `GBU_check_status` programming model.
//! The pool owns the *wall* clock; every busy device makes progress at a
//! rate `≤ 1` device-cycle per wall-cycle. When the sum of the active
//! frames' feature-fetch bandwidths exceeds the GBUs' share of LPDDR
//! bandwidth (the paper's Limitation 2 — the GBU shares DRAM with the
//! GPU), every active device is slowed by the same factor, exactly like
//! fair-share memory throttling. Rates only change at submit/completion
//! boundaries, so advancing event-to-event is exact, not a discretisation.

use crate::scheduler::FrameTicket;
use crate::session::PreparedView;
use gbu_core::Gbu;
use gbu_gpu::GpuConfig;
use gbu_hw::{GbuConfig, GbuRunResult};
use gbu_math::Vec3;
use gbu_render::binning::TileBins;
use gbu_render::Splat2D;
use gbu_scene::Camera;

/// A frame completed by the pool, tagged with its ticket and wall-clock
/// completion time.
#[derive(Debug)]
pub struct PoolCompletion {
    /// The admitted request this frame fulfilled.
    pub ticket: FrameTicket,
    /// Index of the device that rendered it.
    pub device: usize,
    /// Wall cycle at which it completed.
    pub completed_at: u64,
    /// The device run: the rendered image (`run.image`, the only copy —
    /// collected with [`Gbu::try_collect_run`]) and its hardware
    /// counters.
    pub run: GbuRunResult,
}

#[derive(Debug)]
struct ActiveFrame {
    ticket: FrameTicket,
    /// Feature-fetch bandwidth demand in bytes per *device* cycle.
    demand: f64,
    /// Fractional device-cycle accumulator (contention rates are not
    /// integer, the device clock is).
    residue: f64,
    /// Wall cycle the frame was submitted at (start of the busy segment
    /// telemetry records on completion).
    started: u64,
    /// Host-preprocessing device-cycles still to burn before the GBU
    /// makes progress — the Step-❶/❷ charge passed to
    /// [`DevicePool::submit`]. The slot is occupied (and busy, and
    /// subject to DRAM contention) while the host GPU produces the
    /// frame's artifacts; 0 when no prep is charged.
    prep: u64,
}

/// N GBU devices on one simulated clock with a shared DRAM budget.
#[derive(Debug)]
pub struct DevicePool {
    devices: Vec<Gbu>,
    active: Vec<Option<ActiveFrame>>,
    clock: u64,
    /// DRAM bytes per wall cycle available to the pool (the GBUs' share
    /// of the edge SoC's LPDDR bandwidth).
    bytes_per_cycle: f64,
    busy_device_cycles: u64,
    /// Device-cycles lost to DRAM fair-share arbitration so far: busy
    /// wall time each device spent *not* progressing because the
    /// contention rate was below 1.
    dram_stall_cycles: f64,
    recorder: gbu_telemetry::Recorder,
    /// Cluster lane this pool serves as, for span and gauge labels.
    lane: u32,
    /// Restart generation of this pool's lane: 0 for the first lifetime,
    /// bumped by the cluster on every fleet restore so `device_busy`
    /// spans distinguish pre- and post-restart work.
    lane_generation: u32,
    /// Registry handle acquired once at attach (gauge updates on the
    /// advance path are then an atomic store).
    stall_gauge: gbu_telemetry::Gauge,
}

impl DevicePool {
    /// Creates a pool of `devices` GBUs. The pool's DRAM budget is
    /// `dram_share` of the host GPU's LPDDR bandwidth (the co-simulation
    /// charges the GPU's preprocessing streams the rest; `gbu_core::system`
    /// uses 0.5 for one device).
    pub fn new(devices: usize, gbu: &GbuConfig, gpu: &GpuConfig, dram_share: f64) -> Self {
        assert!(devices > 0, "a pool needs at least one device");
        assert!(dram_share > 0.0 && dram_share <= 1.0, "dram_share in (0, 1]");
        let bytes_per_cycle = gpu.dram_bytes_per_s() * dram_share / (gbu.clock_ghz * 1e9);
        Self {
            devices: (0..devices).map(|_| Gbu::new(gbu.clone())).collect(),
            active: (0..devices).map(|_| None).collect(),
            clock: 0,
            bytes_per_cycle,
            busy_device_cycles: 0,
            dram_stall_cycles: 0.0,
            recorder: gbu_telemetry::Recorder::disabled(),
            lane: 0,
            lane_generation: 0,
            stall_gauge: gbu_telemetry::Gauge::default(),
        }
    }

    /// Sets the lane restart generation stamped onto future
    /// `device_busy` spans (0 until the cluster first restores the lane).
    pub fn set_lane_generation(&mut self, generation: u32) {
        self.lane_generation = generation;
    }

    /// Attaches a telemetry recorder for cluster lane `lane`: every
    /// frame completion records a `device_busy` span `[submit,
    /// completion]` labelled with the lane, and DRAM-arbitration stalls
    /// accumulate into a `serve.lane{lane}.dram_stall_cycles` gauge (one
    /// per lane, so lanes don't clobber each other).
    pub fn attach_recorder(&mut self, recorder: gbu_telemetry::Recorder, lane: u32) {
        self.stall_gauge = recorder.gauge(&format!("serve.lane{lane}.dram_stall_cycles"));
        self.recorder = recorder;
        self.lane = lane;
    }

    /// Device-cycles lost to DRAM fair-share arbitration so far
    /// (busy wall time at a contention rate below 1).
    pub fn dram_stall_cycles(&self) -> f64 {
        self.dram_stall_cycles
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` when the pool has no devices (never; pools are non-empty).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Current wall cycle.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Index of an idle device, if any.
    pub fn idle_device(&self) -> Option<usize> {
        self.active.iter().position(Option::is_none)
    }

    /// Number of devices currently rendering.
    pub fn busy_count(&self) -> usize {
        self.active.iter().filter(|a| a.is_some()).count()
    }

    /// Mean device utilization so far: busy device-cycles over available
    /// device-cycles.
    pub fn utilization(&self) -> f64 {
        if self.clock == 0 {
            return 0.0;
        }
        self.busy_device_cycles as f64 / (self.clock as f64 * self.devices.len() as f64)
    }

    /// Submits `view` to device `device` (must be idle) on behalf of
    /// `ticket`, with an up-front host-preprocessing charge: the frame
    /// occupies `device` for `prep_cycles` additional device-cycles (the
    /// host GPU's Step-❶/❷ time, converted to device cycles by the
    /// engine; 0 for none) before GBU progress starts.
    ///
    /// # Panics
    ///
    /// Panics if the device still has a frame in flight — the engine only
    /// dispatches to [`DevicePool::idle_device`] slots.
    pub fn submit(
        &mut self,
        device: usize,
        view: &PreparedView,
        ticket: FrameTicket,
        prep_cycles: u64,
    ) {
        self.devices[device]
            .render_image(&view.splats, &view.bins, &view.camera, Vec3::ZERO)
            .expect("engine dispatches only to idle devices");
        self.track(device, ticket, prep_cycles);
    }

    /// Submits one *shard* of a frame to device `device` (must be idle):
    /// `bins` is a tile-range restriction of the frame's bins, executed
    /// through the device's scoped entry point
    /// ([`gbu_core::Gbu::render_scoped`]) so the shard charges only its
    /// tile range's D&B work and DRAM feature traffic. `prep_cycles` is
    /// the host-preprocessing charge, as in [`DevicePool::submit`].
    ///
    /// # Panics
    ///
    /// Panics if the device still has a frame in flight.
    pub fn submit_scoped(
        &mut self,
        device: usize,
        splats: &[Splat2D],
        bins: &TileBins,
        camera: &Camera,
        ticket: FrameTicket,
        prep_cycles: u64,
    ) {
        self.devices[device]
            .render_scoped(splats, bins, camera, Vec3::ZERO)
            .expect("cluster dispatches only to idle devices");
        self.track(device, ticket, prep_cycles);
    }

    /// Registers the just-submitted frame on `device` as active, with its
    /// feature traffic streamed over its whole duration (prep included:
    /// the host writes the frame's artifacts over the same window it
    /// occupies the slot).
    fn track(&mut self, device: usize, ticket: FrameTicket, prep: u64) {
        let gbu = &self.devices[device];
        let duration = gbu.in_flight_remaining().expect("frame was just submitted");
        let bytes = gbu.in_flight_dram_bytes().expect("frame was just submitted");
        let demand = bytes as f64 / (duration + prep).max(1) as f64;
        self.active[device] =
            Some(ActiveFrame { ticket, demand, residue: 0.0, started: self.clock, prep });
    }

    /// Device-cycles of work still executing on each device (zero for
    /// idle ones) — the per-device backlog the in-flight-aware admission
    /// estimate seeds its earliest-free schedule with. Optimistic
    /// (device cycles, not contention-stretched wall cycles), so a
    /// rejection remains a proof of unmeetability. Clears `out` and
    /// fills it in device order, reusing its capacity across admission
    /// probes.
    pub fn in_flight_backlog_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.devices.iter().zip(&self.active).map(|(gbu, slot)| match slot {
            Some(a) => a.prep + gbu.in_flight_remaining().unwrap_or(0),
            None => 0,
        }));
    }

    /// The ticket currently rendering on `device`, if any.
    pub fn active_ticket(&self, device: usize) -> Option<&FrameTicket> {
        self.active[device].as_ref().map(|a| &a.ticket)
    }

    /// Full device occupancy (`max(D&B, Tile PE)` cycles) of the frame
    /// in flight on `device`, fixed at submission — `None` when idle.
    /// The cluster backend records this per shard as the
    /// measured-service feedback behind
    /// `gbu_render::shard::ShardStrategy::Measured`.
    pub fn in_flight_occupancy(&self, device: usize) -> Option<u64> {
        self.active[device].as_ref()?;
        self.devices[device].in_flight_occupancy()
    }

    /// Cancels the frame in flight on `device` through the device's
    /// `cancel_in_flight` hook, freeing the slot immediately. Returns the
    /// cancelled ticket, or `None` when the device was idle (no-op-safe).
    ///
    /// Device cycles already spent on the cancelled frame stay counted as
    /// busy time — cancellation reclaims the future, not the past.
    pub fn cancel(&mut self, device: usize) -> Option<FrameTicket> {
        let a = self.active[device].take()?;
        let was_in_flight = self.devices[device].cancel_in_flight();
        debug_assert!(was_in_flight, "active slot implies an in-flight frame");
        Some(a.ticket)
    }

    /// Progress rate (device-cycles per wall-cycle) of every busy device
    /// under the current contention: 1 when aggregate demand fits the
    /// DRAM budget, uniformly scaled down otherwise.
    fn rate(&self) -> f64 {
        let total: f64 = self.active.iter().flatten().map(|a| a.demand).sum();
        if total <= self.bytes_per_cycle {
            1.0
        } else {
            self.bytes_per_cycle / total
        }
    }

    /// Wall cycles until the earliest in-flight frame completes at the
    /// current rates, or `None` when every device is idle.
    pub fn next_completion_dt(&self) -> Option<u64> {
        let rate = self.rate();
        self.active
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let a = slot.as_ref()?;
                let remaining =
                    (a.prep + self.devices[i].in_flight_remaining()?) as f64 - a.residue;
                Some((remaining / rate).ceil().max(1.0) as u64)
            })
            .min()
    }

    /// Advances the wall clock by `wall_dt` cycles, progressing every busy
    /// device at the shared contention rate, and collects any frames that
    /// complete. The wall clock is strictly monotone: `wall_dt == 0` is
    /// rejected.
    ///
    /// Between two arbitration points the contention rate is constant and
    /// the devices are independent, so the busy devices advance
    /// concurrently on the global `gbu_par` pool; their completions are
    /// merged back in device order, keeping the simulated-cycle results
    /// identical to a serial sweep at any thread count (the regenerated
    /// `BENCH_serve.json` pins this).
    pub fn advance(&mut self, wall_dt: u64) -> Vec<PoolCompletion> {
        assert!(wall_dt > 0, "the simulated clock must move forward");
        let rate = self.rate();
        self.clock += wall_dt;
        let clock = self.clock;

        struct AdvanceJob<'a> {
            device: usize,
            gbu: &'a mut Gbu,
            slot: &'a mut Option<ActiveFrame>,
            busy: u64,
            started: u64,
            completion: Option<PoolCompletion>,
        }
        let mut jobs: Vec<AdvanceJob> = self
            .devices
            .iter_mut()
            .zip(self.active.iter_mut())
            .enumerate()
            .filter(|(_, (_, slot))| slot.is_some())
            .map(|(i, (gbu, slot))| AdvanceJob {
                device: i,
                gbu,
                slot,
                busy: 0,
                started: 0,
                completion: None,
            })
            .collect();

        gbu_par::global().for_each_mut(&mut jobs, |_, job| {
            let a = job.slot.as_mut().expect("jobs hold busy devices only");
            job.started = a.started;
            // Busy credit stops when the frame finishes, even if the
            // caller overshoots the completion event.
            let remaining =
                (a.prep + job.gbu.in_flight_remaining().unwrap_or(0)) as f64 - a.residue;
            let needed_wall = (remaining / rate).ceil().max(0.0) as u64;
            job.busy = wall_dt.min(needed_wall);
            let progress = wall_dt as f64 * rate + a.residue;
            let whole = progress.floor();
            a.residue = progress - whole;
            // Host-prep cycles burn first; only the surplus progresses
            // the GBU.
            let prep_burn = (whole as u64).min(a.prep);
            a.prep -= prep_burn;
            job.gbu.advance(whole as u64 - prep_burn);
            if let Some(run) = job.gbu.try_collect_run() {
                let ticket = a.ticket;
                *job.slot = None;
                job.completion =
                    Some(PoolCompletion { ticket, device: job.device, completed_at: clock, run });
            }
        });

        let mut done = Vec::new();
        let mut total_busy = 0u64;
        for job in jobs {
            self.busy_device_cycles += job.busy;
            total_busy += job.busy;
            if let Some(c) = job.completion {
                if self.recorder.is_enabled() {
                    let labels = gbu_telemetry::Labels {
                        lane: Some(self.lane),
                        lane_generation: Some(self.lane_generation),
                        device: Some(c.device as u32),
                        session: Some(c.ticket.session.index() as u32),
                        frame: Some(c.ticket.id.index()),
                        ..gbu_telemetry::Labels::default()
                    };
                    self.recorder.span(
                        "device_busy",
                        gbu_telemetry::Domain::Cycles,
                        job.started,
                        c.completed_at,
                        None,
                        labels,
                    );
                }
                done.push(c);
            }
        }
        // Fair-share arbitration below rate 1 means every busy wall
        // cycle progressed the device by only `rate` device-cycles.
        if rate < 1.0 {
            self.dram_stall_cycles += total_busy as f64 * (1.0 - rate);
            self.stall_gauge.set(self.dram_stall_cycles as u64);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExecMode;
    use crate::session::{Session, SessionContent, SessionSpec};
    use crate::QosTarget;

    fn prepared() -> Session {
        Session::prepare(
            SessionSpec {
                name: "t".into(),
                content: SessionContent::Synthetic { seed: 3, gaussians: 80 },
                qos: QosTarget::VR_72,
                frames: 4,
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

    #[test]
    fn single_frame_completes_at_base_duration() {
        let session = prepared();
        let mut pool = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        pool.submit(0, session.view(0), ticket(0), 0);
        let dt = pool.next_completion_dt().expect("one frame in flight");
        let done = pool.advance(dt);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].completed_at, pool.clock());
        assert!(pool.idle_device().is_some());
    }

    #[test]
    fn clock_is_monotone_and_utilization_bounded() {
        let session = prepared();
        let mut pool = DevicePool::new(2, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        pool.submit(0, session.view(0), ticket(0), 0);
        pool.submit(1, session.view(1), ticket(1), 0);
        let mut last = pool.clock();
        let mut completions = 0;
        while pool.busy_count() > 0 {
            let dt = pool.next_completion_dt().unwrap();
            completions += pool.advance(dt).len();
            assert!(pool.clock() > last, "clock must advance");
            last = pool.clock();
        }
        assert_eq!(completions, 2);
        let u = pool.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn prep_cycles_extend_completion_exactly() {
        let session = prepared();
        let mut plain = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        plain.submit(0, session.view(0), ticket(0), 0);
        let base_dt = plain.next_completion_dt().expect("one frame in flight");

        // The same frame with an up-front host-preprocessing charge
        // completes exactly `prep` wall cycles later (uncontended pool:
        // one wall cycle burns one device cycle).
        let prep = 12_345u64;
        let mut charged = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        charged.submit(0, session.view(0), ticket(0), prep);
        let charged_dt = charged.next_completion_dt().expect("one frame in flight");
        assert_eq!(charged_dt, base_dt + prep);

        // Advancing by only the prep burns the charge without touching
        // the GBU frame: the remaining time is the uncharged duration.
        let none = charged.advance(prep);
        assert!(none.is_empty());
        assert_eq!(charged.next_completion_dt().expect("still in flight"), base_dt);
        let done = charged.advance(base_dt);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn starved_bandwidth_slows_completion() {
        let session = prepared();
        // A pool whose DRAM share is tiny: the same frame must take
        // longer in wall cycles than on an uncontended pool.
        let mut fat = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        fat.submit(0, session.view(0), ticket(0), 0);
        let fat_dt = fat.next_completion_dt().unwrap();

        let mut starved = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 1e-6);
        starved.submit(0, session.view(0), ticket(0), 0);
        let starved_dt = starved.next_completion_dt().unwrap();
        assert!(
            starved_dt > fat_dt,
            "bandwidth starvation must stretch the frame: {starved_dt} vs {fat_dt}"
        );
    }

    #[test]
    fn contention_couples_devices() {
        let session = prepared();
        // Low-bandwidth pool: two concurrent frames must each take longer
        // than the same frame alone.
        let share = 1e-4;
        let mut solo = DevicePool::new(2, &GbuConfig::paper(), &GpuConfig::orin_nx(), share);
        solo.submit(0, session.view(0), ticket(0), 0);
        let solo_dt = solo.next_completion_dt().unwrap();

        let mut pair = DevicePool::new(2, &GbuConfig::paper(), &GpuConfig::orin_nx(), share);
        pair.submit(0, session.view(0), ticket(0), 0);
        pair.submit(1, session.view(0), ticket(1), 0);
        let pair_dt = pair.next_completion_dt().unwrap();
        assert!(
            pair_dt > solo_dt,
            "two frames sharing starved DRAM must both slow down: {pair_dt} vs {solo_dt}"
        );
    }

    #[test]
    fn overshoot_does_not_inflate_utilization() {
        let session = prepared();
        let mut pool = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        pool.submit(0, session.view(0), ticket(0), 0);
        let needed = pool.next_completion_dt().unwrap();
        // Step 100x past the completion event: the device was busy for
        // only ~1% of the interval and utilization must say so.
        let done = pool.advance(needed * 100);
        assert_eq!(done.len(), 1);
        let u = pool.utilization();
        assert!(u <= 0.02, "overshoot must not count as busy time: {u}");
    }

    #[test]
    fn cancel_frees_the_device_and_returns_the_ticket() {
        let session = prepared();
        let mut pool = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        // Idle device: no-op.
        assert!(pool.cancel(0).is_none());
        pool.submit(0, session.view(0), ticket(7), 0);
        assert_eq!(pool.active_ticket(0).unwrap().frame, 7);
        let dt = pool.next_completion_dt().unwrap();
        // Render half the frame, then cancel it.
        pool.advance((dt / 2).max(1));
        let cancelled = pool.cancel(0).expect("frame was in flight");
        assert_eq!(cancelled.frame, 7);
        assert!(pool.active_ticket(0).is_none());
        assert_eq!(pool.idle_device(), Some(0), "slot is free immediately");
        assert!(pool.next_completion_dt().is_none());
        // The spent cycles still count as busy time.
        assert!(pool.utilization() > 0.0);
        // The freed device accepts new work.
        pool.submit(0, session.view(1), ticket(8), 0);
        let done = pool.advance(pool.next_completion_dt().unwrap());
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].ticket.frame, 8);
    }

    #[test]
    #[should_panic(expected = "clock must move forward")]
    fn zero_advance_is_rejected() {
        let mut pool = DevicePool::new(1, &GbuConfig::paper(), &GpuConfig::orin_nx(), 0.5);
        pool.advance(0);
    }
}
