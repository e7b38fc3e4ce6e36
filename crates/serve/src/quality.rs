//! The quality governor: a serving policy layer that sheds *quality*
//! before it sheds *frames*.
//!
//! Under overload, a [`crate::ServeEngine`] without this module has two
//! levers: refuse the frame at admission (reject) or cancel it once its
//! deadline is provably gone (drop). Both ship nothing. The
//! contribution-aware render modes ([`gbu_render::contrib`]) add a third
//! lever: ship a *cheaper* frame — the same viewpoint blended from only
//! its highest-contribution splats, priced at genuinely fewer modeled
//! device cycles.
//!
//! This module holds the *policy* (a degradation ladder plus hysteresis
//! thresholds); the engine prices and dispatches each view's degraded
//! sibling, which [`crate::PreparedView::degraded`] builds once and keeps
//! on the view. Two independent mechanisms hang off one config:
//!
//! - **Counter-offer admission** ([`QualityGovernor::counter_offer`]):
//!   when deadline-aware admission proves a frame unmeetable at exact
//!   quality, re-test it at the *deepest* ladder rung and admit it
//!   degraded ([`crate::ServeEvent::Degraded`]) instead of rejecting.
//! - **Pressure shedding** ([`QualityGovernor::shed_on_pressure`]): on a
//!   fixed cycle grid, step the global quality level one rung deeper when
//!   [`crate::ServeMetrics::window_pressure`] reaches
//!   [`QualityGovernor::shed_pressure`], and one rung back toward
//!   [`gbu_render::QualityLevel::Exact`] when it falls to
//!   [`QualityGovernor::recover_pressure`] — the same
//!   hysteresis-threshold-plus-cooldown shape as the fleet autoscaler,
//!   so the governor cannot thrash between rungs on alternating ticks.
//!
//! Like [`crate::FleetConfig`], the default is entirely inactive and an
//! inactive governor leaves the engine byte-identical to a build without
//! this module.

use gbu_render::QualityLevel;

/// The serving quality-governor configuration carried by
/// [`crate::ServeConfig`]. Inactive by default: an empty ladder (or both
/// mechanisms off) costs nothing on the engine's event loop.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityGovernor {
    /// Degradation ladder, mildest first. Rung `i` (1-based in events
    /// and telemetry) is what the engine serves at global level `i`;
    /// counter-offers use the deepest rung. Every entry must be a
    /// non-`Exact` level (`Exact` is "level 0", the absence of
    /// degradation). Empty = governor off.
    pub ladder: Vec<QualityLevel>,
    /// Let admission counter-offer the deepest rung instead of rejecting
    /// an [`crate::RejectReason::Unmeetable`] frame.
    pub counter_offer: bool,
    /// Run the pressure tick: shed quality under deadline pressure,
    /// recover toward exact when load falls.
    pub shed_on_pressure: bool,
    /// Cycles between shed/recover decisions.
    pub interval: u64,
    /// Shed one rung when window pressure is at or above this fraction.
    pub shed_pressure: f64,
    /// Recover one rung only when window pressure is at or below this
    /// fraction — keep it well under `shed_pressure` for hysteresis.
    pub recover_pressure: f64,
    /// Decision ticks to sit out after any shed/recover step.
    pub cooldown_ticks: u32,
}

impl Default for QualityGovernor {
    fn default() -> Self {
        Self {
            ladder: Vec::new(),
            counter_offer: false,
            shed_on_pressure: false,
            interval: 2_000_000,
            shed_pressure: 0.10,
            recover_pressure: 0.01,
            cooldown_ticks: 2,
        }
    }
}

impl QualityGovernor {
    /// The standard three-rung ladder: keep the top 75%, 50%, then 25%
    /// of splats by contribution score.
    pub fn default_ladder() -> Vec<QualityLevel> {
        vec![
            QualityLevel::TopK { fraction: 0.75 },
            QualityLevel::TopK { fraction: 0.50 },
            QualityLevel::TopK { fraction: 0.25 },
        ]
    }

    /// `true` when the governor can ever change a served frame. An
    /// inactive config leaves the engine byte-identical to one without a
    /// quality subsystem.
    pub fn is_active(&self) -> bool {
        !self.ladder.is_empty() && (self.counter_offer || self.shed_on_pressure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inactive() {
        let cfg = QualityGovernor::default();
        assert!(!cfg.is_active());
        // A ladder alone does nothing until a mechanism is switched on …
        let laddered = QualityGovernor { ladder: QualityGovernor::default_ladder(), ..cfg.clone() };
        assert!(!laddered.is_active());
        // … and a mechanism alone does nothing without rungs to serve.
        assert!(!QualityGovernor { counter_offer: true, ..cfg.clone() }.is_active());
        assert!(!QualityGovernor { shed_on_pressure: true, ..cfg }.is_active());
        assert!(QualityGovernor { counter_offer: true, ..laddered.clone() }.is_active());
        assert!(QualityGovernor { shed_on_pressure: true, ..laddered }.is_active());
    }

    #[test]
    fn default_thresholds_have_hysteresis_headroom() {
        let g = QualityGovernor::default();
        assert!(g.recover_pressure < g.shed_pressure, "thresholds must not overlap");
        assert!(g.cooldown_ticks > 0);
        assert!(g.interval > 0);
    }

    #[test]
    fn default_ladder_degrades_monotonically() {
        let ladder = QualityGovernor::default_ladder();
        assert!(!ladder.is_empty());
        let mut last = 1.0f32;
        for level in ladder {
            assert!(!level.is_exact(), "ladder rungs are degraded levels");
            level.validate();
            let QualityLevel::TopK { fraction } = level else {
                panic!("default ladder is TopK-based")
            };
            assert!(fraction < last, "deeper rungs keep strictly fewer splats");
            last = fraction;
        }
    }
}
