//! The fleet control plane: fault-injection schedules, session
//! migration policy and miss-rate autoscaling over a
//! [`crate::ClusterBackend`]'s lanes.
//!
//! A production cluster is not a fixed set of healthy lanes. Lanes die
//! (fault injection via [`FleetPlan`]), capacity should follow demand
//! (grow/shrink via [`AutoscaleConfig`]), and sessions should follow
//! capacity (home-lane migration via [`MigrationConfig`]). This module
//! holds the *policy* types; the mechanism lives in the engine
//! ([`crate::ServeEngine`] applies the plan between its event steps) and
//! the backend ([`crate::ClusterBackend::kill_lane`] /
//! [`crate::ClusterBackend::restore_lane`] drain and revive lanes).
//!
//! Everything here is plain data with a deterministic interpretation:
//! plan events fire at absolute engine cycles and autoscale decisions
//! happen on a fixed cycle grid, so a step-sliced run sees exactly the
//! churn a one-shot drain sees (pinned by `tests/api_equivalence.rs`).

/// One scheduled lane intervention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAction {
    /// Kill the lane: drain its in-flight frames back to the ready queue
    /// ([`crate::ServeEvent::Requeued`]) and refuse it new work.
    Kill(usize),
    /// Restore the lane, starting a new generation.
    Restore(usize),
}

impl FleetAction {
    /// The lane the action targets.
    pub fn lane(self) -> usize {
        match self {
            FleetAction::Kill(lane) | FleetAction::Restore(lane) => lane,
        }
    }
}

/// A lane intervention pinned to an absolute engine cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEvent {
    /// Engine cycle at (or after) which the action applies.
    pub at: u64,
    /// What happens to which lane.
    pub action: FleetAction,
}

/// A fault-injection schedule: lane kills and restores pinned to
/// absolute cycles, applied in time order as the engine's clock passes
/// them. The schedule is data, not callbacks, so cloning a
/// [`crate::ServeConfig`] replays the identical churn.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetPlan {
    events: Vec<FleetEvent>,
}

impl FleetPlan {
    /// Builds a plan from `events`, sorted by cycle (ties keep their
    /// given order, so "kill then restore at t" means exactly that).
    pub fn new(mut events: Vec<FleetEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        Self { events }
    }

    /// The schedule in time order.
    pub fn events(&self) -> &[FleetEvent] {
        &self.events
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Miss-rate autoscaling policy: on a fixed cycle grid, compare the
/// metrics window's pressure ([`crate::ServeMetrics::window_pressure`])
/// against two thresholds and park or restore lanes. Hysteresis comes
/// from the threshold gap plus a cooldown after every action, so the
/// scaler cannot thrash a lane up and down on alternating ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Cycles between scaling decisions.
    pub interval: u64,
    /// Grow (restore a parked lane) when window pressure is at or above
    /// this fraction.
    pub grow_pressure: f64,
    /// Shrink (park a lane) only when window pressure is at or below
    /// this fraction — keep it well under `grow_pressure`.
    pub shrink_pressure: f64,
    /// Shrink only when mean work per live lane (queued + in-flight
    /// frames over live lanes) is below this, so a busy-but-meeting-
    /// deadlines fleet is not drained.
    pub shrink_occupancy: f64,
    /// Never park below this many live lanes.
    pub min_lanes: usize,
    /// Decision ticks to sit out after any scale action.
    pub cooldown_ticks: u32,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            interval: 2_000_000,
            grow_pressure: 0.10,
            shrink_pressure: 0.01,
            shrink_occupancy: 0.5,
            min_lanes: 1,
            cooldown_ticks: 2,
        }
    }
}

/// Session-migration policy. Migration assigns every unsharded session
/// a *home lane* (mirrored into the backend as a placement affinity),
/// moves sessions off dying lanes the moment they go down, and —
/// optionally — rebalances one session per autoscale tick from the most
/// crowded home to the least.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationConfig {
    /// Also rebalance between healthy lanes on every autoscale tick
    /// (off: migrate only off dead lanes).
    pub rebalance: bool,
}

/// The full fleet-control configuration carried by
/// [`crate::ServeConfig`]. The default is entirely inactive — no plan,
/// no autoscaler, no migration, no reservation — and an inactive fleet
/// config leaves the engine's behaviour byte-identical to a build
/// without this module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetConfig {
    /// Scheduled lane kills/restores (fault injection).
    pub plan: FleetPlan,
    /// Miss-rate autoscaler, when `Some`.
    pub autoscale: Option<AutoscaleConfig>,
    /// Session home-lane migration, when `Some`.
    pub migration: Option<MigrationConfig>,
    /// Reserve open lanes for the widest queued sharded frame, so
    /// unsharded backfill stops starving wide frames of lanes under
    /// overload.
    pub lane_reservation: bool,
}

impl FleetConfig {
    /// `true` when any fleet mechanism is switched on. An inactive
    /// config costs nothing on the engine's event loop.
    pub fn is_active(&self) -> bool {
        !self.plan.is_empty()
            || self.autoscale.is_some()
            || self.migration.is_some()
            || self.lane_reservation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_cycle_and_keeps_tie_order() {
        let plan = FleetPlan::new(vec![
            FleetEvent { at: 500, action: FleetAction::Restore(1) },
            FleetEvent { at: 100, action: FleetAction::Kill(1) },
            FleetEvent { at: 500, action: FleetAction::Kill(0) },
        ]);
        let at: Vec<u64> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(at, vec![100, 500, 500]);
        assert_eq!(plan.events()[1].action, FleetAction::Restore(1), "stable sort keeps tie order");
        assert_eq!(plan.events()[2].action.lane(), 0);
        assert!(!plan.is_empty());
        assert!(FleetPlan::default().is_empty());
    }

    #[test]
    fn default_config_is_inactive() {
        let cfg = FleetConfig::default();
        assert!(!cfg.is_active());
        assert!(FleetConfig { lane_reservation: true, ..FleetConfig::default() }.is_active());
        assert!(FleetConfig {
            autoscale: Some(AutoscaleConfig::default()),
            ..FleetConfig::default()
        }
        .is_active());
        assert!(FleetConfig {
            migration: Some(MigrationConfig::default()),
            ..FleetConfig::default()
        }
        .is_active());
        assert!(FleetConfig {
            plan: FleetPlan::new(vec![FleetEvent { at: 0, action: FleetAction::Kill(0) }]),
            ..FleetConfig::default()
        }
        .is_active());
    }

    #[test]
    fn autoscale_default_has_hysteresis_headroom() {
        let a = AutoscaleConfig::default();
        assert!(a.shrink_pressure < a.grow_pressure, "thresholds must not overlap");
        assert!(a.cooldown_ticks > 0);
        assert!(a.min_lanes >= 1);
    }
}
