//! `gbu_telemetry` — dependency-free structured tracing, profiling and
//! timeline export for the GBU serving stack.
//!
//! The serving engine, cluster backend, render pipeline and thread pool
//! all record into a [`Recorder`]: typed [`Span`]s with parent links and
//! lane/device/session/frame/shard labels, instant [`Mark`]s, and a
//! registry of counters/gauges/log-bucketed histograms. Spans carry
//! timestamps on one of two clock [`Domain`]s — exact simulated *cycles*
//! (the serving engine's clock, reconcilable against `ServeMetrics` to
//! the cycle) or host *wall-clock* nanoseconds (the render hot path).
//! A disabled recorder costs a branch per call site, so instrumentation
//! is threaded unconditionally.
//!
//! Downstream, a [`Trace`] snapshot exports as a Chrome `trace_event`
//! timeline ([`chrome_trace`], openable in `chrome://tracing` or
//! Perfetto) or a JSONL span log ([`jsonl`]), and folds into a
//! [`TraceSummary`] of per-stage/per-lane breakdowns whose structural
//! invariants [`validate`] checks. All of them are written with [`json`].
//!
//! Enable tracing for any binary in the workspace with `GBU_TRACE=1`
//! (stage/frame/lane spans) or `GBU_TRACE=2` (adds per-tile-row and
//! per-worker detail); `GBU_TRACE_OUT=<path>` picks where instrumented
//! examples write their Chrome trace.
//!
//! ```
//! use gbu_telemetry::{chrome_trace, validate, Domain, Labels, Recorder, TraceSummary, Verbosity};
//!
//! let rec = Recorder::enabled(Verbosity::Normal);
//! // The engine records retroactively with exact cycle timestamps:
//! let frame = rec.span("frame", Domain::Cycles, 0, 900, None, Labels::frame(0, 1));
//! rec.span("queue_wait", Domain::Cycles, 0, 200, frame, Labels::frame(0, 1));
//! rec.span("service", Domain::Cycles, 200, 900, frame, Labels::frame(0, 1));
//! rec.counter("serve.admitted").add(1);
//!
//! let trace = rec.snapshot();
//! validate(&trace).expect("span tree is well-nested and frames are partitioned");
//! let summary = TraceSummary::from_trace(&trace);
//! assert_eq!(summary.frame_count(), 1);
//! assert_eq!(summary.frames[0].queue_wait_cycles + summary.frames[0].service_cycles, 900);
//! assert!(chrome_trace(&trace, 1.0).contains("\"traceEvents\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod json;
pub mod meta;
pub mod metrics;
pub mod recorder;
pub mod span;
pub mod summary;

pub use export::{chrome_trace, jsonl};
pub use meta::{host_threads, iso8601_utc, run_info_json, THREADS_ENV};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use recorder::{
    global, set_global, trace_out_path, Recorder, Trace, WallSpan, TRACE_ENV, TRACE_OUT_ENV,
};
pub use span::{Domain, Labels, Mark, Span, SpanId, Verbosity};
pub use summary::{validate, FrameStat, LaneStat, StageStat, TraceSummary};
