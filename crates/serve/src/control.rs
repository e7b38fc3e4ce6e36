//! The pressure loop shared by the fleet autoscaler and the quality
//! governor: on a fixed cycle grid, compare the metrics window's pressure
//! against a hysteresis band, decide at most once per tick, and sit out a
//! cooldown after every action. Each user brings only its action.

/// Where a due tick's signal fell: inside the band or cooling down
/// (`Hold`), at or above its upper edge (`Up`), at or below its lower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Hold,
    Up,
    Down,
}

/// A tick grid, a cooldown and a hysteresis band.
#[derive(Debug)]
pub(crate) struct Controller {
    /// Cycles between decisions.
    interval: u64,
    /// The next decision cycle.
    next_tick: u64,
    /// Decision ticks to sit out after an action.
    cooldown_ticks: u32,
    /// Ticks still to sit out.
    cooldown: u32,
    /// [`Verdict::Down`] at or below this signal.
    low: f64,
    /// [`Verdict::Up`] at or above this signal (checked first).
    high: f64,
}

impl Controller {
    /// A controller whose first decision falls at cycle `interval`.
    pub(crate) fn new(interval: u64, low: f64, high: f64, cooldown_ticks: u32) -> Self {
        Self { interval, next_tick: interval, cooldown_ticks, cooldown: 0, low, high }
    }

    /// The decision due at `now`, or `None` when the next tick lies
    /// beyond it. A due tick moves the grid to `now + interval`, so a
    /// tick that fell behind (say, while the engine sat idle) catches up
    /// with this one decision rather than replaying the missed grid. A
    /// tick spent cooling down is a [`Verdict::Hold`]; otherwise
    /// `signal()` is compared against the band.
    pub(crate) fn tick(&mut self, now: u64, signal: impl FnOnce() -> f64) -> Option<Verdict> {
        if self.next_tick > now {
            return None;
        }
        self.next_tick = now.saturating_add(self.interval);
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return Some(Verdict::Hold);
        }
        let s = signal();
        Some(if s >= self.high {
            Verdict::Up
        } else if s <= self.low {
            Verdict::Down
        } else {
            Verdict::Hold
        })
    }

    /// Arms the cooldown: the caller acted on the last verdict.
    pub(crate) fn acted(&mut self) {
        self.cooldown = self.cooldown_ticks;
    }

    /// The cycle at which the controller wants the event loop to stop:
    /// its next tick, offered only while `work_pending()` holds. An idle
    /// engine must not chase the tick grid forever, or
    /// [`crate::ServeEngine::drain`] would never return.
    pub(crate) fn next_time(&self, work_pending: impl FnOnce() -> bool) -> Option<u64> {
        work_pending().then_some(self.next_tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_late_tick_catches_up_with_one_decision() {
        let mut c = Controller::new(100, 0.1, 0.5, 0);
        assert_eq!(c.tick(99, || 1.0), None);
        assert_eq!(c.tick(1_000, || 1.0), Some(Verdict::Up));
        // The grid restarts from the late tick, not from 200.
        assert_eq!(c.tick(1_099, || 1.0), None);
        assert_eq!(c.tick(1_100, || 0.0), Some(Verdict::Down));
    }

    #[test]
    fn the_band_and_the_cooldown_hold() {
        let mut c = Controller::new(10, 0.1, 0.5, 2);
        assert_eq!(c.tick(10, || 0.3), Some(Verdict::Hold), "inside the band");
        assert_eq!(c.tick(20, || 0.5), Some(Verdict::Up), "the upper edge counts");
        c.acted();
        // Two ticks sit out without reading the signal.
        assert_eq!(c.tick(30, || unreachable!()), Some(Verdict::Hold));
        assert_eq!(c.tick(40, || unreachable!()), Some(Verdict::Hold));
        assert_eq!(c.tick(50, || 0.1), Some(Verdict::Down), "the lower edge counts");
        assert_eq!(c.tick(60, || f64::NAN), Some(Verdict::Hold));
    }

    #[test]
    fn an_idle_engine_is_not_offered_ticks() {
        let c = Controller::new(10, 0.1, 0.5, 0);
        assert_eq!(c.next_time(|| true), Some(10));
        assert_eq!(c.next_time(|| false), None);
    }
}
