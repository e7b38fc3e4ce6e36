//! The GBU device object — the paper's programming model (Sec. V-F).
//!
//! Listing 1 exposes two calls: `GBU_render_image`, which kicks off
//! asynchronous rendering of one frame, and `GBU_check_status`, which
//! polls (or blocks on) completion. The GBU does not synchronise with any
//! CUDA stream; the host uses `check_status` to build the GBU-GPU frame
//! pipeline. This module reproduces those semantics over the cycle-level
//! simulator: `render_image` returns immediately with the frame enqueued,
//! a simulated clock advances via [`Gbu::advance`], and `check_status`
//! polls or blocks exactly like the C++ interface.

use gbu_hw::cache::Policy;
use gbu_hw::{dnb, GbuConfig, GbuRunResult, TileEngine};
use gbu_math::Vec3;
use gbu_render::binning::TileBins;
use gbu_render::{FrameBuffer, Splat2D};
use gbu_scene::Camera;

/// Execution status returned by [`Gbu::check_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GbuStatus {
    /// No frame in flight.
    Idle,
    /// A frame is being rendered.
    InExecution,
}

/// Errors returned by the device interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// `render_image` was called while a frame was still in flight —
    /// the hardware has a single frame context.
    Busy,
    /// The bins' tile size is not the rows the Row PEs cover.
    TileSize {
        /// [`GbuConfig::covered_rows`] of the device.
        expected: u32,
        /// Tile size the bins were built with.
        got: u32,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Busy => write!(f, "a frame is already in execution"),
            DeviceError::TileSize { expected, got } => {
                write!(f, "{got}-px tiles do not fit Row PEs covering {expected} rows")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// A completed frame: the image plus the run's hardware statistics.
///
/// Built when [`Gbu::try_collect`] / [`Gbu::wait`] hands the frame out:
/// the device holds only the [`GbuRunResult`] while the frame is in
/// flight, and the image is copied once, at collection, out of
/// `run.image`. Hosts that need no second copy take the run itself with
/// [`Gbu::try_collect_run`].
#[derive(Debug, Clone)]
pub struct CompletedFrame {
    /// The rendered image.
    pub image: FrameBuffer,
    /// Hardware counters of the run.
    pub run: GbuRunResult,
}

#[derive(Debug)]
struct InFlight {
    /// The run, image included; no copy of the image exists until the
    /// frame is collected.
    run: GbuRunResult,
    completion_cycle: u64,
    /// Full device occupancy of the frame (`max(D&B, Tile PE)` cycles),
    /// fixed at submission.
    occupancy: u64,
}

/// The GBU device.
///
/// A frame in flight holds one image, inside its [`GbuRunResult`];
/// [`Gbu::try_collect`] and [`Gbu::wait`] copy it once, at collection,
/// into the returned [`CompletedFrame`].
///
/// # Example
///
/// ```
/// use gbu_core::Gbu;
/// use gbu_hw::GbuConfig;
/// use gbu_math::Vec3;
/// use gbu_render::{binning, preprocess};
/// use gbu_scene::{Camera, Gaussian3D, GaussianScene};
///
/// let mut gbu = Gbu::new(GbuConfig::paper());
/// let cam = Camera::orbit(64, 64, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0);
/// let scene: GaussianScene =
///     std::iter::once(Gaussian3D::isotropic(Vec3::ZERO, 0.2, Vec3::ONE, 0.9)).collect();
/// let (splats, _) = preprocess::project_scene(&scene, &cam);
/// let (bins, _) = binning::bin_splats(&splats, &cam, 16);
///
/// gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
/// // Blocking wait, like GBU_check_status(true).
/// let frame = gbu.wait().expect("frame in flight");
/// assert_eq!(frame.image.width(), 64);
/// ```
#[derive(Debug)]
pub struct Gbu {
    engine: TileEngine,
    clock: u64,
    in_flight: Option<InFlight>,
}

impl Gbu {
    /// Creates a device with the given hardware configuration.
    pub fn new(config: GbuConfig) -> Self {
        Self { engine: TileEngine::new(config), clock: 0, in_flight: None }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &GbuConfig {
        &self.engine.config
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> u64 {
        self.clock
    }

    /// `GBU_render_image`: starts rendering one frame from preprocessed,
    /// depth-sorted inputs (the outputs of Rendering Steps ❶/❷).
    ///
    /// Returns immediately; completion is observed through
    /// [`Gbu::check_status`] / [`Gbu::wait`].
    ///
    /// # Errors
    ///
    /// [`DeviceError::Busy`] when a frame is already in execution;
    /// [`DeviceError::TileSize`] when `bins.tile_size` is not the rows
    /// the Row PEs cover.
    pub fn render_image(
        &mut self,
        splats: &[Splat2D],
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
    ) -> Result<(), DeviceError> {
        self.start_frame(splats, bins, camera, background, false)
    }

    /// [`Gbu::render_image`] for one shard of a multi-device frame:
    /// `bins` has been restricted to the shard's tile rows
    /// (`gbu_render::shard::ShardPlan::shard_bins`), so the device
    /// executes — and charges DRAM feature traffic and D&B cycles for —
    /// only that tile range (`gbu_hw::dnb::run_scoped`). Rows outside the
    /// shard render as background; the cluster host merges the partial
    /// frame buffers.
    ///
    /// # Errors
    ///
    /// As [`Gbu::render_image`].
    pub fn render_scoped(
        &mut self,
        splats: &[Splat2D],
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
    ) -> Result<(), DeviceError> {
        self.start_frame(splats, bins, camera, background, true)
    }

    fn start_frame(
        &mut self,
        splats: &[Splat2D],
        bins: &TileBins,
        camera: &Camera,
        background: Vec3,
        scoped: bool,
    ) -> Result<(), DeviceError> {
        if self.in_flight.is_some() {
            return Err(DeviceError::Busy);
        }
        let expected = self.engine.config.covered_rows();
        if bins.tile_size != expected {
            return Err(DeviceError::TileSize { expected, got: bins.tile_size });
        }
        let d = if scoped {
            dnb::run_scoped(splats, bins, &self.engine.config)
        } else {
            dnb::run(splats, bins, &self.engine.config)
        };
        let run = self.engine.render(splats, &d, bins, camera, background, Policy::ReuseDistance);
        // Chunk-level pipeline (Fig. 13 bottom): D&B overlaps the Tile PE,
        // so the frame occupies max(D&B, Tile PE) cycles.
        let duration = d.cycles.max(run.compute_cycles);
        self.in_flight =
            Some(InFlight { run, completion_cycle: self.clock + duration, occupancy: duration });
        Ok(())
    }

    /// Advances the simulated clock (models GPU-side work happening while
    /// the GBU renders).
    pub fn advance(&mut self, cycles: u64) {
        self.clock += cycles;
    }

    /// Device cycles left until the in-flight frame completes (`None` when
    /// idle, `Some(0)` when finished but not yet collected).
    ///
    /// Multi-device hosts (`gbu_serve::DevicePool`) use this to find the
    /// next completion event without collecting the frame.
    pub fn in_flight_remaining(&self) -> Option<u64> {
        self.in_flight.as_ref().map(|f| f.completion_cycle.saturating_sub(self.clock))
    }

    /// Off-chip feature traffic (bytes) of the in-flight frame — the
    /// device's share of DRAM bandwidth while it renders. `None` when idle.
    pub fn in_flight_dram_bytes(&self) -> Option<u64> {
        self.in_flight.as_ref().map(|f| f.run.dram_bytes)
    }

    /// Full device occupancy (`max(D&B, Tile PE)` cycles) of the
    /// in-flight frame, independent of how far it has progressed —
    /// `None` when idle. Execution backends use this to record what a
    /// frame (or one shard of it) actually costs in device cycles, e.g.
    /// as the measured-service feedback behind
    /// `gbu_render::shard::ShardStrategy::Measured`.
    pub fn in_flight_occupancy(&self) -> Option<u64> {
        self.in_flight.as_ref().map(|f| f.occupancy)
    }

    /// Aborts the in-flight frame, if any, discarding its result and
    /// freeing the frame context immediately — the preemption hook a
    /// serving host uses to cancel work whose deadline already passed or
    /// whose client detached. Returns whether a frame was cancelled.
    ///
    /// Safe to call on an idle device (a no-op returning `false`), and
    /// safe to call on a frame that has finished but was not yet
    /// collected (the result is discarded). The clock is not moved.
    pub fn cancel_in_flight(&mut self) -> bool {
        self.in_flight.take().is_some()
    }

    /// `GBU_check_status(blocking = false)`: polls the execution status.
    pub fn check_status(&mut self) -> GbuStatus {
        match &self.in_flight {
            Some(f) if self.clock < f.completion_cycle => GbuStatus::InExecution,
            Some(_) => GbuStatus::Idle, // finished; frame ready to collect
            None => GbuStatus::Idle,
        }
    }

    /// Collects the finished frame's run, image included, without
    /// copying the image — `None` while the frame is still executing or
    /// when the device is idle. Multi-device hosts
    /// (`gbu_serve::DevicePool`) collect through this.
    pub fn try_collect_run(&mut self) -> Option<GbuRunResult> {
        match &self.in_flight {
            Some(f) if self.clock >= f.completion_cycle => {
                Some(self.in_flight.take().expect("checked above").run)
            }
            _ => None,
        }
    }

    /// Collects the completed frame if the in-flight frame has finished:
    /// [`Gbu::try_collect_run`] plus the one copy of the image that
    /// [`CompletedFrame::image`] holds.
    pub fn try_collect(&mut self) -> Option<CompletedFrame> {
        self.try_collect_run().map(|run| CompletedFrame { image: run.image.clone(), run })
    }

    /// `GBU_check_status(blocking = true)`: blocks (advances the clock to
    /// the completion cycle) and returns the frame, or `None` when no
    /// frame is in flight.
    pub fn wait(&mut self) -> Option<CompletedFrame> {
        let completion = self.in_flight.as_ref()?.completion_cycle;
        self.clock = self.clock.max(completion);
        self.try_collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbu_render::{binning, preprocess};
    use gbu_scene::{Gaussian3D, GaussianScene};

    fn inputs() -> (Vec<Splat2D>, TileBins, Camera) {
        let cam = Camera::orbit(64, 64, 1.0, Vec3::ZERO, 3.0, 0.0, 0.0);
        let scene: GaussianScene = (0..20)
            .map(|i| {
                let a = i as f32 * 0.5;
                Gaussian3D::isotropic(
                    Vec3::new(a.cos() * 0.5, a.sin() * 0.4, 0.0),
                    0.06,
                    Vec3::splat(0.7),
                    0.8,
                )
            })
            .collect();
        let (splats, _) = preprocess::project_scene(&scene, &cam);
        let (bins, _) = binning::bin_splats(&splats, &cam, 16);
        (splats, bins, cam)
    }

    #[test]
    fn render_is_asynchronous() {
        let (splats, bins, cam) = inputs();
        let mut gbu = Gbu::new(GbuConfig::paper());
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        assert_eq!(gbu.check_status(), GbuStatus::InExecution);
        assert!(gbu.try_collect().is_none(), "not finished yet");
        let frame = gbu.wait().expect("frame in flight");
        assert!(frame.run.compute_cycles > 0);
        assert_eq!(gbu.check_status(), GbuStatus::Idle);
    }

    #[test]
    fn double_submit_is_rejected() {
        let (splats, bins, cam) = inputs();
        let mut gbu = Gbu::new(GbuConfig::paper());
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        let err = gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap_err();
        assert_eq!(err, DeviceError::Busy);
        gbu.wait();
        // After completion a new frame is accepted.
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
    }

    #[test]
    fn bins_that_do_not_fit_the_row_pes_are_rejected() {
        let (splats, _, cam) = inputs();
        let mut gbu = Gbu::new(GbuConfig::paper());
        for tile_size in [8, 32] {
            let (bins, _) = binning::bin_splats(&splats, &cam, tile_size);
            let want = DeviceError::TileSize { expected: 16, got: tile_size };
            assert_eq!(gbu.render_image(&splats, &bins, &cam, Vec3::ZERO), Err(want.clone()));
            assert_eq!(gbu.render_scoped(&splats, &bins, &cam, Vec3::ZERO), Err(want));
            assert_eq!(gbu.check_status(), GbuStatus::Idle, "a rejected frame never starts");
        }
    }

    #[test]
    fn polling_observes_completion_after_advance() {
        let (splats, bins, cam) = inputs();
        let mut gbu = Gbu::new(GbuConfig::paper());
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        // Advance far beyond any plausible frame duration.
        gbu.advance(u64::MAX / 2);
        assert_eq!(gbu.check_status(), GbuStatus::Idle);
        assert!(gbu.try_collect().is_some());
    }

    #[test]
    fn in_flight_accessors_track_progress() {
        let (splats, bins, cam) = inputs();
        let mut gbu = Gbu::new(GbuConfig::paper());
        assert_eq!(gbu.in_flight_remaining(), None);
        assert_eq!(gbu.in_flight_dram_bytes(), None);
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        let total = gbu.in_flight_remaining().expect("frame in flight");
        assert!(total > 0);
        assert_eq!(gbu.in_flight_occupancy(), Some(total));
        let bytes = gbu.in_flight_dram_bytes().expect("frame in flight");
        assert!(bytes > 0);
        gbu.advance(total / 2);
        assert_eq!(gbu.in_flight_remaining(), Some(total - total / 2));
        assert_eq!(gbu.in_flight_occupancy(), Some(total), "occupancy is fixed at submit");
        gbu.advance(total); // overshoot saturates at zero
        assert_eq!(gbu.in_flight_remaining(), Some(0));
        assert!(gbu.try_collect().is_some());
        assert_eq!(gbu.in_flight_remaining(), None);
    }

    #[test]
    fn cancel_in_flight_is_noop_safe() {
        let (splats, bins, cam) = inputs();
        let mut gbu = Gbu::new(GbuConfig::paper());
        // Idle device: cancelling is a no-op.
        assert!(!gbu.cancel_in_flight());
        assert_eq!(gbu.check_status(), GbuStatus::Idle);
        // In-flight frame: cancelled, context freed, clock untouched.
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        let clock = gbu.cycle();
        assert!(gbu.cancel_in_flight());
        assert_eq!(gbu.cycle(), clock);
        assert_eq!(gbu.check_status(), GbuStatus::Idle);
        assert!(gbu.try_collect().is_none(), "cancelled result is discarded");
        // The freed context accepts a new frame immediately.
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        assert!(gbu.wait().is_some());
    }

    #[test]
    fn wait_on_idle_device_is_none() {
        let mut gbu = Gbu::new(GbuConfig::paper());
        assert!(gbu.wait().is_none());
        assert_eq!(gbu.check_status(), GbuStatus::Idle);
    }

    #[test]
    fn collected_run_carries_the_image_collect_copies() {
        let (splats, bins, cam) = inputs();
        let mut copied = Gbu::new(GbuConfig::paper());
        let mut moved = Gbu::new(GbuConfig::paper());
        copied.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        moved.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        assert!(moved.try_collect_run().is_none(), "not finished yet");
        let frame = copied.wait().expect("frame in flight");
        assert_eq!(frame.image.max_abs_diff(&frame.run.image), 0.0);
        moved.advance(moved.in_flight_remaining().expect("frame in flight"));
        let run = moved.try_collect_run().expect("frame finished");
        assert_eq!(run.image.max_abs_diff(&frame.image), 0.0);
        assert_eq!(run.compute_cycles, frame.run.compute_cycles);
        assert_eq!(run.dram_bytes, frame.run.dram_bytes);
        assert!(moved.try_collect().is_none(), "the run was handed out once");
    }

    #[test]
    fn completed_image_matches_direct_engine_run() {
        let (splats, bins, cam) = inputs();
        let cfg = GbuConfig::paper();
        let mut gbu = Gbu::new(cfg.clone());
        gbu.render_image(&splats, &bins, &cam, Vec3::ZERO).unwrap();
        let frame = gbu.wait().unwrap();
        let d = gbu_hw::dnb::run(&splats, &bins, &cfg);
        let direct = TileEngine::new(cfg).render(
            &splats,
            &d,
            &bins,
            &cam,
            Vec3::ZERO,
            Policy::ReuseDistance,
        );
        assert_eq!(frame.image.max_abs_diff(&direct.image), 0.0);
    }
}
