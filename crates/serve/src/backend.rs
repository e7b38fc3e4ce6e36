//! The execution vocabulary the [`crate::ServeEngine`] and its one
//! backend, the multi-lane [`crate::ClusterBackend`], share.
//!
//! The paper's GBU is a plug-in behind a stable host interface: the GPU
//! does not care whether one blending unit or a sharded cluster of them
//! services a frame. On the serving side that interface is the
//! [`crate::ClusterBackend`]: every engine runs on one, sized by
//! [`BackendKind`] ([`BackendKind::Single`] is a 1-lane cluster), and
//! each *session* picks its [`ExecMode`], so sharded and unsharded
//! sessions coexist on one simulated clock.
//!
//! The backend reports progress as [`ExecCompletion`]s: sharded frames
//! yield one [`ExecCompletion::Shard`] per landed shard (which the engine
//! surfaces as [`crate::ServeEvent::ShardCompleted`]) before the final
//! [`ExecCompletion::Frame`]; unsharded frames yield only the latter.

use crate::scheduler::FrameTicket;
use gbu_render::shard::ShardStrategy;
use gbu_render::FrameBuffer;

/// How one session's frames execute on the backend.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ExecMode {
    /// The whole frame renders on one device (the classic path).
    #[default]
    Unsharded,
    /// The frame is split into `shards` tile-row shards
    /// (`gbu_render::shard::ShardPlan`) fanned over that many cluster
    /// lanes; the frame completes when its last shard lands. Requires a
    /// backend with at least `shards` lanes.
    Sharded {
        /// Number of tile-row shards (= lanes the frame occupies).
        shards: usize,
        /// How the tile rows are split.
        strategy: ShardStrategy,
    },
}

impl ExecMode {
    /// Number of lanes a frame in this mode occupies at once.
    pub fn lanes_needed(self) -> usize {
        match self {
            ExecMode::Unsharded => 1,
            ExecMode::Sharded { shards, .. } => shards,
        }
    }

    /// Whether a frame in this mode can dispatch when `open_lanes` live
    /// lanes have an idle device: it needs `1 <= lanes_needed() <=
    /// open_lanes`.
    pub fn fits(self, open_lanes: usize) -> bool {
        (1..=open_lanes).contains(&self.lanes_needed())
    }

    /// Optimistic service-time lower bound for this mode, derived from
    /// the unsharded bound: blending cycles partition exactly over
    /// shards and D&B work can only duplicate across them, so the
    /// critical-path shard costs at least `unsharded / shards` cycles.
    /// Staying a provable lower bound keeps deadline-aware rejection a
    /// proof of unmeetability.
    pub fn min_service(self, unsharded_min_service: u64) -> u64 {
        match self {
            ExecMode::Unsharded => unsharded_min_service,
            ExecMode::Sharded { shards, .. } => {
                (unsharded_min_service / shards.max(1) as u64).max(1)
            }
        }
    }
}

/// The shape of the [`crate::ClusterBackend`] a [`crate::ServeEngine`]
/// is built over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// One lane of [`crate::ServeConfig::devices`] GBUs — the classic
    /// single-pool engine, as a 1-lane cluster.
    Single,
    /// `lanes` independent [`crate::DevicePool`]s of `devices_per_lane`
    /// GBUs each on one lockstep clock, accepting both
    /// [`ExecMode::Unsharded`] frames (placed on the least-busy lane) and
    /// [`ExecMode::Sharded`] frames (fanned over the least-busy `shards`
    /// lanes).
    Cluster {
        /// Number of shard lanes.
        lanes: usize,
        /// GBU devices per lane.
        devices_per_lane: usize,
    },
}

/// A frame fully executed by the backend.
#[derive(Debug)]
pub struct FrameDone {
    /// The request this frame fulfilled.
    pub ticket: FrameTicket,
    /// Wall cycle at which it completed (sharded: when the *last* shard
    /// landed).
    pub completed_at: u64,
    /// The rendered image. For sharded frames the merged partials —
    /// bit-identical to the unsharded render (pinned upstream).
    pub image: FrameBuffer,
    /// Wall-cycle service time of each shard (submit → land), indexed by
    /// shard; empty for unsharded frames.
    pub shard_cycles: Vec<u64>,
    /// Off-chip feature traffic, summed over shards. Each shard fetches
    /// only its tile range, so a sharded frame tracks (and, where
    /// Gaussians straddle shard boundaries, slightly exceeds) the
    /// unsharded frame's traffic.
    pub dram_bytes: u64,
}

impl FrameDone {
    /// Measured shard imbalance: max shard service over mean (`None`
    /// for unsharded frames, `1.0` floor otherwise).
    pub fn imbalance(&self) -> Option<f64> {
        shard_imbalance(&self.shard_cycles)
    }
}

/// Measured imbalance of a set of per-shard service cycles: max over
/// mean (1.0 = perfectly balanced; 1.0 for an all-zero measurement,
/// `None` for an empty one). The single definition behind
/// [`FrameDone::imbalance`] and the metrics' per-frame shard records.
pub fn shard_imbalance(shard_cycles: &[u64]) -> Option<f64> {
    let max = *shard_cycles.iter().max()?;
    let mean = shard_cycles.iter().sum::<u64>() as f64 / shard_cycles.len() as f64;
    Some(if mean > 0.0 { max as f64 / mean } else { 1.0 })
}

/// One unit of backend progress returned by
/// [`crate::ClusterBackend::advance`].
#[derive(Debug)]
pub enum ExecCompletion {
    /// One shard of a sharded frame landed; the frame itself is still
    /// pending until its last shard does. Never emitted for unsharded
    /// frames.
    Shard {
        /// The frame the shard belongs to.
        ticket: FrameTicket,
        /// Shard index within the frame's plan.
        shard: usize,
        /// Lane the shard executed on.
        lane: usize,
        /// Wall cycle the shard landed at.
        at: u64,
        /// Wall cycles from frame submission to this shard landing.
        service_cycles: u64,
    },
    /// A frame finished (sharded: all shards landed and merged).
    Frame(FrameDone),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FrameId, SessionId};

    #[test]
    fn exec_mode_accessors() {
        assert_eq!(ExecMode::default(), ExecMode::Unsharded);
        assert_eq!(ExecMode::Unsharded.lanes_needed(), 1);
        let sharded = ExecMode::Sharded { shards: 4, strategy: ShardStrategy::CostBalanced };
        assert_eq!(sharded.lanes_needed(), 4);
        assert!(!ExecMode::Unsharded.fits(0) && ExecMode::Unsharded.fits(1));
        assert!(!sharded.fits(3) && sharded.fits(4) && sharded.fits(9));
        let degenerate = ExecMode::Sharded { shards: 0, strategy: ShardStrategy::CostBalanced };
        assert!(!degenerate.fits(4), "a frame needs at least one lane");
        assert_eq!(ExecMode::Unsharded.min_service(1000), 1000);
        assert_eq!(sharded.min_service(1000), 250);
        assert_eq!(sharded.min_service(2), 1, "bound never collapses to zero");
    }

    #[test]
    fn frame_done_imbalance() {
        let done = |shard_cycles: Vec<u64>| FrameDone {
            ticket: FrameTicket {
                id: FrameId::from_index(0),
                session: SessionId::from_index(0),
                frame: 0,
                arrival: 0,
                deadline: u64::MAX,
            },
            completed_at: 0,
            image: FrameBuffer::new(1, 1, gbu_math::Vec3::ZERO),
            shard_cycles,
            dram_bytes: 0,
        };
        assert_eq!(done(vec![]).imbalance(), None);
        assert_eq!(done(vec![100, 100]).imbalance(), Some(1.0));
        let i = done(vec![300, 100]).imbalance().expect("sharded");
        assert!((i - 1.5).abs() < 1e-12);
    }
}
