//! [`TraceSummary`]: folds a [`Trace`] into per-stage and per-lane time
//! breakdowns, and validates the structural invariants the serving
//! stack's instrumentation promises (well-nested span trees, per-frame
//! children that account for the frame exactly).

use crate::json::{self, Fixed};
use crate::recorder::Trace;
use crate::span::{Domain, Span, SpanId};
use std::collections::HashMap;

/// Aggregate over every span sharing one name within one clock domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStat {
    /// Span name ("project", "service", ...).
    pub name: String,
    /// Clock domain the spans live on.
    pub domain: Domain,
    /// Number of spans.
    pub count: u64,
    /// Summed duration (cycles or nanoseconds, per `domain`).
    pub total: u64,
    /// Longest single span.
    pub max: u64,
}

impl StageStat {
    /// Mean duration (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }
}

/// Per-lane fold of the cycle-domain spans a cluster run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStat {
    /// Lane index.
    pub lane: u32,
    /// Summed `device_busy` span cycles across the lane's devices.
    pub busy_cycles: u64,
    /// Number of `device_busy` spans.
    pub busy_spans: u64,
    /// Summed `shard` span service cycles completed on this lane.
    pub shard_cycles: u64,
    /// Number of shards completed on this lane.
    pub shards: u64,
}

/// One frame's cycle-accounting, read off its span subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameStat {
    /// Owning session.
    pub session: u32,
    /// Engine-issued frame id.
    pub frame: u64,
    /// `frame` span duration — by construction the frame's
    /// completion-minus-arrival latency, reconcilable against
    /// `ServeMetrics` to the cycle.
    pub latency_cycles: u64,
    /// `queue_wait` child duration.
    pub queue_wait_cycles: u64,
    /// `service` child duration.
    pub service_cycles: u64,
}

/// Per-stage / per-lane / per-frame fold of one [`Trace`].
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// One entry per completed frame, in span order.
    pub frames: Vec<FrameStat>,
    /// Per-(name, domain) stage aggregates, sorted by domain then name.
    pub stages: Vec<StageStat>,
    /// Per-lane aggregates, sorted by lane.
    pub lanes: Vec<LaneStat>,
    /// Counter values carried over from the trace.
    pub counters: Vec<(String, u64)>,
}

impl TraceSummary {
    /// Folds `trace` into stage/lane/frame aggregates.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut stages: HashMap<(&str, Domain), StageStat> = HashMap::new();
        for s in &trace.spans {
            let stat = stages.entry((s.name, s.domain)).or_insert_with(|| StageStat {
                name: s.name.to_string(),
                domain: s.domain,
                count: 0,
                total: 0,
                max: 0,
            });
            stat.count += 1;
            stat.total += s.duration();
            stat.max = stat.max.max(s.duration());
        }
        let mut stages: Vec<StageStat> = stages.into_values().collect();
        stages.sort_by(|a, b| {
            let key = |s: &StageStat| (matches!(s.domain, Domain::Wall) as u8, s.name.clone());
            key(a).cmp(&key(b))
        });

        let mut lanes: HashMap<u32, LaneStat> = HashMap::new();
        for s in trace.spans.iter().filter(|s| s.domain == Domain::Cycles) {
            let Some(lane) = s.labels.lane else { continue };
            let stat = lanes.entry(lane).or_insert(LaneStat {
                lane,
                busy_cycles: 0,
                busy_spans: 0,
                shard_cycles: 0,
                shards: 0,
            });
            match s.name {
                "device_busy" => {
                    stat.busy_cycles += s.duration();
                    stat.busy_spans += 1;
                }
                "shard" => {
                    stat.shard_cycles += s.duration();
                    stat.shards += 1;
                }
                _ => {}
            }
        }
        let mut lanes: Vec<LaneStat> = lanes.into_values().collect();
        lanes.sort_by_key(|l| l.lane);

        let mut frames = Vec::new();
        for s in trace.spans.iter().filter(|s| s.name == "frame") {
            let mut queue_wait = 0;
            let mut service = 0;
            for c in trace.spans.iter().filter(|c| c.parent == Some(s.id)) {
                match c.name {
                    "queue_wait" => queue_wait += c.duration(),
                    "service" => service += c.duration(),
                    _ => {}
                }
            }
            frames.push(FrameStat {
                session: s.labels.session.unwrap_or(0),
                frame: s.labels.frame.unwrap_or(0),
                latency_cycles: s.duration(),
                queue_wait_cycles: queue_wait,
                service_cycles: service,
            });
        }

        Self { frames, stages, lanes, counters: trace.counters.clone() }
    }

    /// Number of completed frames the trace saw.
    pub fn frame_count(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Stage aggregate by name and domain, when present.
    pub fn stage(&self, name: &str, domain: Domain) -> Option<&StageStat> {
        self.stages.iter().find(|s| s.name == name && s.domain == domain)
    }

    /// Renders the summary as a JSON object (stable key order) for
    /// embedding in `BENCH_trace.json`.
    pub fn to_json(&self) -> String {
        let total = |f: fn(&FrameStat) -> u64| self.frames.iter().map(f).sum::<u64>();
        json::object(|o| {
            o.object("frames", |o| {
                o.field("count", self.frames.len())
                    .field("latency_cycles_total", total(|f| f.latency_cycles))
                    .field("queue_wait_cycles_total", total(|f| f.queue_wait_cycles))
                    .field("service_cycles_total", total(|f| f.service_cycles));
            });
            o.objects("stages", &self.stages, |o, s| {
                o.field("name", &s.name).field("domain", s.domain.label());
                o.field("count", s.count).field("total", s.total).field("max", s.max);
                o.field("mean", Fixed(s.mean(), 3));
            });
            o.objects("lanes", &self.lanes, |o, l| {
                o.field("lane", l.lane).field("busy_cycles", l.busy_cycles);
                o.field("busy_spans", l.busy_spans).field("shard_cycles", l.shard_cycles);
                o.field("shards", l.shards);
            });
            o.object("counters", |o| {
                for (name, v) in &self.counters {
                    o.field(name, *v);
                }
            });
        })
        .0
    }
}

/// Checks the structural invariants instrumented code promises:
///
/// 1. every parent link resolves, stays in one clock domain, and the
///    child's interval lies within its parent's (well-nestedness);
/// 2. every `frame` span is partitioned *exactly* by its `queue_wait`
///    and `service` children: wait starts at arrival, service ends at
///    completion, and the two durations sum to the frame's latency.
///
/// Returns the first violation as an error message.
pub fn validate(trace: &Trace) -> Result<(), String> {
    let by_id: HashMap<SpanId, &Span> = trace.spans.iter().map(|s| (s.id, s)).collect();
    for s in &trace.spans {
        let Some(pid) = s.parent else { continue };
        let p = by_id.get(&pid).ok_or_else(|| {
            format!("span {} '{}' links to missing parent {}", s.id.0, s.name, pid.0)
        })?;
        if p.domain != s.domain {
            return Err(format!(
                "span {} '{}' ({}) crosses domains with parent '{}' ({})",
                s.id.0,
                s.name,
                s.domain.label(),
                p.name,
                p.domain.label()
            ));
        }
        if s.start < p.start || s.end > p.end {
            return Err(format!(
                "span {} '{}' [{}, {}] escapes parent '{}' [{}, {}]",
                s.id.0, s.name, s.start, s.end, p.name, p.start, p.end
            ));
        }
    }
    for f in trace.spans.iter().filter(|s| s.name == "frame") {
        let children: Vec<&Span> = trace.spans.iter().filter(|c| c.parent == Some(f.id)).collect();
        let wait = children.iter().find(|c| c.name == "queue_wait");
        let service = children.iter().find(|c| c.name == "service");
        let (Some(wait), Some(service)) = (wait, service) else {
            return Err(format!("frame span {} lacks queue_wait/service children", f.id.0));
        };
        if wait.start != f.start || wait.end != service.start || service.end != f.end {
            return Err(format!(
                "frame span {} is not partitioned: wait [{}, {}], service [{}, {}], frame [{}, {}]",
                f.id.0, wait.start, wait.end, service.start, service.end, f.start, f.end
            ));
        }
        if wait.duration() + service.duration() != f.duration() {
            return Err(format!(
                "frame span {}: wait {} + service {} != latency {}",
                f.id.0,
                wait.duration(),
                service.duration(),
                f.duration()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::span::{Labels, Verbosity};

    fn frame(r: &Recorder, session: u32, frame_id: u64, arrival: u64, started: u64, done: u64) {
        let labels = Labels::frame(session, frame_id);
        let f = r.span("frame", Domain::Cycles, arrival, done, None, labels);
        r.span("queue_wait", Domain::Cycles, arrival, started, f, labels);
        let s = r.span("service", Domain::Cycles, started, done, f, labels);
        let shard = Labels { lane: Some(0), shard: Some(0), ..labels };
        r.span("shard", Domain::Cycles, started, done, s, shard);
    }

    /// Two frames on lane 0 and one `device_busy` span.
    fn sample() -> Trace {
        let r = Recorder::enabled(Verbosity::Normal);
        frame(&r, 0, 0, 0, 100, 600);
        frame(&r, 1, 1, 50, 600, 1000);
        r.span(
            "device_busy",
            Domain::Cycles,
            100,
            1000,
            None,
            Labels { lane: Some(0), device: Some(0), ..Labels::default() },
        );
        r.snapshot()
    }

    #[test]
    fn summary_folds_frames_stages_and_lanes() {
        let trace = sample();
        validate(&trace).unwrap();
        let sum = TraceSummary::from_trace(&trace);
        assert_eq!(sum.frame_count(), 2);
        assert_eq!(sum.frames[0].latency_cycles, 600);
        assert_eq!(sum.frames[0].queue_wait_cycles + sum.frames[0].service_cycles, 600);
        let svc = sum.stage("service", Domain::Cycles).unwrap();
        assert_eq!(svc.count, 2);
        assert_eq!(svc.total, 500 + 400);
        assert_eq!(sum.lanes.len(), 1);
        assert_eq!(sum.lanes[0].busy_cycles, 900);
        assert_eq!(sum.lanes[0].shards, 2);
        let json = sum.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"count\":2"));
    }

    #[test]
    fn summary_json_is_byte_pinned() {
        assert_eq!(
            TraceSummary::from_trace(&sample()).to_json(),
            r#"{"frames":{"count":2,"latency_cycles_total":1550,"queue_wait_cycles_total":650,"service_cycles_total":900},"stages":[{"name":"device_busy","domain":"cycles","count":1,"total":900,"max":900,"mean":900.000},{"name":"frame","domain":"cycles","count":2,"total":1550,"max":950,"mean":775.000},{"name":"queue_wait","domain":"cycles","count":2,"total":650,"max":550,"mean":325.000},{"name":"service","domain":"cycles","count":2,"total":900,"max":500,"mean":450.000},{"name":"shard","domain":"cycles","count":2,"total":900,"max":500,"mean":450.000}],"lanes":[{"lane":0,"busy_cycles":900,"busy_spans":1,"shard_cycles":900,"shards":2}],"counters":{}}"#
        );
    }

    #[test]
    fn validate_rejects_escaping_children() {
        let r = Recorder::enabled(Verbosity::Normal);
        let p = r.span("frame", Domain::Cycles, 100, 200, None, Labels::default());
        r.span("queue_wait", Domain::Cycles, 100, 150, p, Labels::default());
        r.span("service", Domain::Cycles, 150, 200, p, Labels::default());
        r.span("oops", Domain::Cycles, 90, 150, p, Labels::default());
        let err = validate(&r.snapshot()).unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");
    }

    #[test]
    fn validate_rejects_unpartitioned_frames() {
        let r = Recorder::enabled(Verbosity::Normal);
        let p = r.span("frame", Domain::Cycles, 0, 100, None, Labels::default());
        r.span("queue_wait", Domain::Cycles, 0, 40, p, Labels::default());
        r.span("service", Domain::Cycles, 50, 100, p, Labels::default());
        let err = validate(&r.snapshot()).unwrap_err();
        assert!(err.contains("not partitioned"), "{err}");
    }
}
