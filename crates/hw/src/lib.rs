//! Cycle-level model of the Gaussian Blending Unit (GBU) hardware.
//!
//! Implements the paper's Sec. V microarchitecture:
//!
//! - [`dnb`]: the Decomposition & Binning engine — per-Gaussian EVD /
//!   two-step-transform parameter computation, Gaussian-tile intersection
//!   tests and reuse-distance precomputation (Fig. 12(a));
//! - [`cache`]: the Gaussian Reuse Cache with the precomputed
//!   reuse-distance replacement policy (Fig. 12(b)), plus LRU/FIFO
//!   baselines for comparison;
//! - [`tile_engine`]: the Row-Centric Tile Engine — a Row Generation
//!   Engine feeding 8 Row PEs (2 rows each) through FIFOs, one fragment
//!   per Row PE per cycle (Fig. 10/11). Its queue model is a tally on
//!   `gbu_render::irss`'s tile-row kernel: one walk per frame times it
//!   ([`FrameCost`]) and blends the image on the Row PE's FP-16 datapath,
//!   which reproduces Tab. IV's quality numbers, or only times it;
//! - [`area`]: the area/power model calibrated to the paper's synthesis
//!   results (Tab. II/III) — we cannot run RTL synthesis, so the
//!   per-module constants are taken from the paper and combined with
//!   simulated activity;
//! - [`standalone`]: GBU-Standalone, the paper's Tab. VI/VII variant with
//!   dedicated preprocessing/sorting units for single-application use.
//!
//! The tile engine's timing and image come from the software IRSS
//! dataflow's own walk (`gbu_render::irss`), so functional output and
//! event counts stay consistent between the GPU and GBU paths by
//! construction.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod cache;
mod config;
pub mod dnb;
pub mod standalone;
pub mod tile_engine;

pub use config::GbuConfig;
pub use tile_engine::{FrameCost, GbuRunResult, TileEngine};
