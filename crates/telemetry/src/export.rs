//! Timeline exporters: Chrome `trace_event` JSON and a JSONL span log,
//! both written with [`crate::json`].
//!
//! The Chrome format is the common denominator of `chrome://tracing`
//! and Perfetto: one `"ph":"X"` complete event per span, one `"ph":"i"`
//! instant per mark, timestamps in microseconds. The two clock domains
//! land on separate pids (1 = simulated cycles, 2 = host wall clock) so
//! their tracks never interleave; within a pid the tid is the lane
//! (cycles) or worker (wall) so each lane/worker reads as its own
//! swimlane.

use crate::json::{self, Fixed, Object};
use crate::recorder::Trace;
use crate::span::{Domain, Labels};

/// Microseconds a timestamp maps to in the Chrome timeline: cycles are
/// scaled by the simulated clock (`clock_ghz` GHz ⇒ `clock_ghz·1000`
/// cycles per µs), wall nanoseconds divide by 1000.
fn to_us(domain: Domain, t: u64, clock_ghz: f64) -> f64 {
    match domain {
        Domain::Cycles => t as f64 / (clock_ghz * 1e3),
        Domain::Wall => t as f64 / 1e3,
    }
}

fn pid(domain: Domain) -> u32 {
    match domain {
        Domain::Cycles => 1,
        Domain::Wall => 2,
    }
}

fn tid(domain: Domain, labels: &Labels) -> u32 {
    match domain {
        Domain::Cycles => labels.lane.map_or(0, |l| l + 1),
        Domain::Wall => labels.worker.map_or(0, |w| w + 1),
    }
}

/// Adds the labels that are set, in declaration order.
fn label_fields(o: &mut Object<'_>, labels: &Labels) {
    let wide = |v: Option<u32>| v.map(u64::from);
    for (key, value) in [
        ("lane", wide(labels.lane)),
        ("lane_generation", wide(labels.lane_generation)),
        ("device", wide(labels.device)),
        ("session", wide(labels.session)),
        ("frame", labels.frame),
        ("shard", wide(labels.shard)),
        ("worker", wide(labels.worker)),
        ("row", wide(labels.row)),
    ] {
        if let Some(value) = value {
            o.field(key, value);
        }
    }
}

/// Renders `trace` as a Chrome `trace_event` JSON document. Load the
/// file in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(trace: &Trace, clock_ghz: f64) -> String {
    let mut events = Vec::with_capacity(trace.spans.len() + trace.marks.len() + 2);
    for (pid, name) in [(1u32, "simulated cycles"), (2, "host wall clock")] {
        events.push(json::object(|o| {
            o.field("name", "process_name").field("ph", "M").field("pid", pid).field("tid", 0u32);
            o.object("args", |o| {
                o.field("name", name);
            });
        }));
    }
    for s in &trace.spans {
        let ts = to_us(s.domain, s.start, clock_ghz);
        let dur = to_us(s.domain, s.end, clock_ghz) - ts;
        events.push(json::object(|o| {
            o.field("name", s.name).field("ph", "X").field("pid", pid(s.domain));
            o.field("tid", tid(s.domain, &s.labels));
            o.field("ts", Fixed(ts, 3)).field("dur", Fixed(dur, 3)).object("args", |o| {
                label_fields(o, &s.labels);
                o.field("span_id", s.id.0);
            });
        }));
    }
    for m in &trace.marks {
        events.push(json::object(|o| {
            o.field("name", m.name).field("ph", "i").field("s", "t");
            o.field("pid", pid(m.domain)).field("tid", tid(m.domain, &m.labels));
            o.field("ts", Fixed(to_us(m.domain, m.at, clock_ghz), 3));
            o.object("args", |o| label_fields(o, &m.labels));
        }));
    }
    let doc = json::object(|o| {
        o.field("displayTimeUnit", "ms").field("traceEvents", &events[..]);
    });
    doc.0 + "\n"
}

/// Renders `trace` as a JSONL span log: one JSON object per line, spans
/// first (`"kind":"span"`), then marks, then one `"kind":"counters"`
/// tail line — greppable and stream-parseable without a JSON reader.
pub fn jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    let mut line = |doc: json::Json| {
        out.push_str(&doc.0);
        out.push('\n');
    };
    for s in &trace.spans {
        line(json::object(|o| {
            o.field("kind", "span").field("id", s.id.0).field("parent", s.parent.map(|p| p.0));
            o.field("name", s.name).field("domain", s.domain.label());
            o.field("start", s.start).field("end", s.end);
            o.object("labels", |o| label_fields(o, &s.labels));
        }));
    }
    for m in &trace.marks {
        line(json::object(|o| {
            o.field("kind", "mark").field("name", m.name).field("domain", m.domain.label());
            o.field("at", m.at).object("labels", |o| label_fields(o, &m.labels));
        }));
    }
    line(json::object(|o| {
        o.field("kind", "counters").object("values", |o| {
            for (name, v) in &trace.counters {
                o.field(name, *v);
            }
        });
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::span::Verbosity;

    fn sample() -> Trace {
        let r = Recorder::enabled(Verbosity::Normal);
        let frame = r.span("frame", Domain::Cycles, 0, 1000, None, Labels::frame(1, 2));
        r.span("service", Domain::Cycles, 200, 1000, frame, Labels::lane(3));
        r.mark("admit", Domain::Cycles, 0, Labels::frame(1, 2));
        r.counter("frames").add(1);
        r.snapshot()
    }

    #[test]
    fn chrome_trace_is_balanced_and_scaled() {
        let doc = chrome_trace(&sample(), 1.0); // 1 GHz: 1000 cycles == 1 µs
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"frame\""));
        assert!(doc.contains("\"dur\":1.000"), "1000 cycles at 1 GHz is 1 µs: {doc}");
        assert!(doc.contains("\"tid\":4"), "lane 3 maps to tid 4");
        assert!(doc.contains("\"ph\":\"i\""));
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let log = jsonl(&sample());
        let lines: Vec<_> = log.lines().collect();
        assert_eq!(lines.len(), 2 + 1 + 1, "2 spans + 1 mark + counters tail");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":1"));
        assert!(lines[3].contains("\"frames\":1"));
    }

    /// One wall-clock span carrying every label, a mark without labels,
    /// and names that need escaping.
    fn labelled() -> Trace {
        let r = Recorder::enabled(Verbosity::Normal);
        let all = Labels {
            lane: Some(1),
            lane_generation: Some(2),
            device: Some(3),
            session: Some(4),
            frame: Some(5),
            shard: Some(6),
            worker: Some(7),
            row: Some(8),
        };
        r.span("blend \"row\"", Domain::Wall, 1500, 4250, None, all);
        r.mark("tick", Domain::Wall, 2000, Labels::default());
        r.counter("odd \"name\"").add(3);
        r.snapshot()
    }

    #[test]
    fn exports_are_byte_pinned() {
        let head = r#"{"displayTimeUnit":"ms","traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"simulated cycles"}},{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"host wall clock"}},"#;
        assert_eq!(
            chrome_trace(&sample(), 1.0),
            format!(
                "{head}{}\n",
                r#"{"name":"frame","ph":"X","pid":1,"tid":0,"ts":0.000,"dur":1.000,"args":{"session":1,"frame":2,"span_id":1}},{"name":"service","ph":"X","pid":1,"tid":4,"ts":0.200,"dur":0.800,"args":{"lane":3,"span_id":2}},{"name":"admit","ph":"i","s":"t","pid":1,"tid":0,"ts":0.000,"args":{"session":1,"frame":2}}]}"#
            )
        );
        assert_eq!(
            chrome_trace(&sample(), 0.7),
            format!(
                "{head}{}\n",
                r#"{"name":"frame","ph":"X","pid":1,"tid":0,"ts":0.000,"dur":1.429,"args":{"session":1,"frame":2,"span_id":1}},{"name":"service","ph":"X","pid":1,"tid":4,"ts":0.286,"dur":1.143,"args":{"lane":3,"span_id":2}},{"name":"admit","ph":"i","s":"t","pid":1,"tid":0,"ts":0.000,"args":{"session":1,"frame":2}}]}"#
            )
        );
        assert_eq!(
            chrome_trace(&labelled(), 1.0),
            format!(
                "{head}{}\n",
                r#"{"name":"blend \"row\"","ph":"X","pid":2,"tid":8,"ts":1.500,"dur":2.750,"args":{"lane":1,"lane_generation":2,"device":3,"session":4,"frame":5,"shard":6,"worker":7,"row":8,"span_id":1}},{"name":"tick","ph":"i","s":"t","pid":2,"tid":0,"ts":2.000,"args":{}}]}"#
            )
        );
        assert_eq!(
            jsonl(&sample()),
            [
                r#"{"kind":"span","id":1,"parent":null,"name":"frame","domain":"cycles","start":0,"end":1000,"labels":{"session":1,"frame":2}}"#,
                r#"{"kind":"span","id":2,"parent":1,"name":"service","domain":"cycles","start":200,"end":1000,"labels":{"lane":3}}"#,
                r#"{"kind":"mark","name":"admit","domain":"cycles","at":0,"labels":{"session":1,"frame":2}}"#,
                r#"{"kind":"counters","values":{"frames":1}}"#,
                "",
            ]
            .join("\n")
        );
        assert_eq!(
            jsonl(&labelled()),
            [
                r#"{"kind":"span","id":1,"parent":null,"name":"blend \"row\"","domain":"wall","start":1500,"end":4250,"labels":{"lane":1,"lane_generation":2,"device":3,"session":4,"frame":5,"shard":6,"worker":7,"row":8}}"#,
                r#"{"kind":"mark","name":"tick","domain":"wall","at":2000,"labels":{}}"#,
                r#"{"kind":"counters","values":{"odd \"name\"":3}}"#,
                "",
            ]
            .join("\n")
        );
        assert_eq!(
            crate::summary::TraceSummary::from_trace(&labelled()).to_json(),
            r#"{"frames":{"count":0,"latency_cycles_total":0,"queue_wait_cycles_total":0,"service_cycles_total":0},"stages":[{"name":"blend \"row\"","domain":"wall","count":1,"total":2750,"max":2750,"mean":2750.000}],"lanes":[],"counters":{"odd \"name\"":3}}"#
        );
    }
}
