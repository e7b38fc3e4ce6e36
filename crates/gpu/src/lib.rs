//! Edge-GPU timing, utilization and power simulator.
//!
//! Stands in for the paper's Jetson Orin NX measurements and its
//! GPGPU-Sim-based emulator (Sec. VI-A). The model is *event-driven*: the
//! functional renderer counts fragments, instances, rows and bytes, and
//! this crate converts those counts into kernel times on a SIMT machine
//! calibrated to the Orin NX's published specifications (8 SMs × 128 fp32
//! lanes at 918 MHz, ~102 GB/s of LPDDR5). Every kernel is modelled as
//! `max(compute time, memory time)` — the standard roofline treatment.
//!
//! Three kernels cover the rendering pipeline of Sec. II-B:
//!
//! - **Step ❶ preprocessing** — per-Gaussian projection + SH (compute
//!   bound),
//! - **Step ❷ sorting** — radix passes over (key, payload) pairs (memory
//!   bound),
//! - **Step ❸ blending** — tile-based rasterisation under either the PFS
//!   mapping (256 lockstep lanes per instance) or the IRSS mapping (16
//!   row-lanes per instance, warp latency set by the slowest row —
//!   Limitation 1 of Sec. V-A).
//!
//! The absolute calibration targets the paper's Fig. 4 (7-17 FPS on static
//! scenes) when fed paper-scale workloads; at reduced benchmark scale the
//! [`workload::WorkloadScale`] extrapolation reconstructs paper-scale event
//! counts (derivation and calibration anchors in
//! [`workload::WorkloadScale`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
pub mod power;
pub mod timing;
pub mod workload;

pub use config::GpuConfig;
pub use timing::{GpuFrameTime, Step3Mapping};
pub use workload::{FrameWorkload, WorkloadScale};
