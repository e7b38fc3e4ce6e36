//! Public GBU API: device interface, GPU+GBU system co-simulation,
//! application pipelines and ablation designs.
//!
//! This crate is the top of the stack — what a downstream user of the
//! reproduction interacts with:
//!
//! - [`device`]: the [`Gbu`] device object exposing the
//!   paper's programming model (Listing 1: `GBU_render_image` /
//!   `GBU_check_status`) over the hardware simulator;
//! - [`system`]: the integrated edge system — an Orin-NX-class GPU with
//!   the GBU attached — including the steady-state frame time of Fig. 13's
//!   frame-level GPU∥GBU pipeline and chunk-level D&B∥Tile-PE pipeline,
//!   DRAM bandwidth contention, and the ablation designs of Tab. V;
//! - [`apps`]: the three AR/VR application pipelines (static scenes,
//!   dynamic scenes, avatars) mapped onto the system;
//! - [`reports`]: plain-text table formatting used by the `repro` harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub mod device;
pub mod reports;
pub mod system;

pub use device::Gbu;
pub use system::{Design, SystemConfig, SystemEvaluation};
