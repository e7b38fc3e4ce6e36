//! Folding a `gbu_telemetry` trace into per-layer metrics: stage means,
//! self time (span minus the part its children cover) and the check that
//! the benchmark's own timers agree with the recorder's wall spans.

use gbu_telemetry::{Domain, Recorder, Span, SpanId, Trace, TraceSummary, Verbosity};
use std::collections::HashMap;

/// A recorder for a layer: enabled when any of its operations is traced.
pub fn recorder(enabled: bool) -> Recorder {
    if enabled {
        Recorder::enabled(Verbosity::Normal)
    } else {
        Recorder::disabled()
    }
}

/// Makes `recorder` the global one (what the render pipeline, the pool
/// and the scene store record into) until dropped, then disables it.
#[derive(Debug)]
pub struct Global;

impl Global {
    /// Installs `recorder` when `traced`; otherwise makes sure the global
    /// recorder is off.
    pub fn install(recorder: &Recorder, traced: bool) -> Self {
        gbu_telemetry::set_global(if traced { recorder.clone() } else { Recorder::disabled() });
        Self
    }
}

impl Drop for Global {
    fn drop(&mut self) {
        gbu_telemetry::set_global(Recorder::disabled());
    }
}

/// `(span count, total, mean)` of a stage, in milliseconds for the wall
/// domain and in cycles for the cycle domain; zeros when absent.
pub fn stage(summary: &TraceSummary, name: &str, domain: Domain) -> (u64, f64, f64) {
    let scale = match domain {
        Domain::Wall => 1e-6,
        Domain::Cycles => 1.0,
    };
    match summary.stage(name, domain) {
        Some(s) => (s.count, s.total as f64 * scale, s.mean() * scale),
        None => (0, 0.0, 0.0),
    }
}

/// Summed self time of every span named `name`: each span's duration
/// minus the union of its direct children's intervals (clipped to it).
/// Same unit as the spans (ns for wall, cycles for cycles).
pub fn self_time(trace: &Trace, name: &str) -> u64 {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in &trace.spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    trace
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() - covered(s, children.get(&s.id).map_or(&[][..], Vec::as_slice)))
        .sum()
}

/// Length of the union of `intervals` inside `span`.
fn covered(span: &Span, intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(span.start), b.min(span.end)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Whether an outside timer total and the recorder's span total for the
/// same calls agree: the span runs inside the timed call, so it may not
/// exceed the timer, and it must cover all but a small per-call margin.
pub fn reconciles(outside_ms: f64, span_ms: f64, calls: u64) -> bool {
    let slack = 0.05 * outside_ms + 0.25 * calls as f64;
    span_ms <= outside_ms * 1.001 + 0.01 && outside_ms - span_ms <= slack
}

/// Value of counter `name` in `trace` (0 when never registered).
pub fn counter(trace: &Trace, name: &str) -> f64 {
    trace.counter(name).unwrap_or(0) as f64
}

/// Sum of every gauge whose name starts with `prefix` and ends with
/// `suffix` (per-lane gauges share a prefix and a suffix).
pub fn gauge_sum(trace: &Trace, prefix: &str, suffix: &str) -> f64 {
    trace
        .gauges
        .iter()
        .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
        .map(|(_, v)| *v as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbu_telemetry::Labels;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let r = Recorder::enabled(Verbosity::Normal);
        let p = r.span("bin", Domain::Cycles, 0, 100, None, Labels::default());
        // Overlapping children cover [10, 50) and [60, 70): 50 cycles.
        r.span("bin_expand", Domain::Cycles, 10, 40, p, Labels::default());
        r.span("bin_sort", Domain::Cycles, 30, 50, p, Labels::default());
        r.span("bin_sort", Domain::Cycles, 60, 70, p, Labels::default());
        let q = r.span("bin", Domain::Cycles, 200, 230, None, Labels::default());
        // A grandchild does not count against the grandparent.
        let c = r.span("bin_expand", Domain::Cycles, 200, 210, q, Labels::default());
        r.span("leaf", Domain::Cycles, 200, 205, c, Labels::default());
        let t = r.snapshot();
        assert_eq!(self_time(&t, "bin"), 50 + 20);
        assert_eq!(self_time(&t, "bin_expand"), 30 + 5);
        assert_eq!(self_time(&t, "absent"), 0);
    }

    #[test]
    fn reconciliation_allows_only_a_small_outside_margin() {
        assert!(reconciles(100.0, 98.0, 10));
        assert!(!reconciles(100.0, 101.0, 10), "span longer than its timed call");
        assert!(!reconciles(100.0, 50.0, 10), "span misses half the call");
    }
}
