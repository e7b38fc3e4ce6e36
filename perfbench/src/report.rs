//! Metric collection shared by the workload loops.

use crate::stats::Pct;

/// Which operations of a layer run with the `gbu_telemetry` recorder on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// None (the end-to-end run).
    Off,
    /// Every operation.
    All,
    /// Every other operation, so traced and untraced operations see the
    /// same host conditions and the difference is the tracing overhead.
    Alternate,
}

impl Tracing {
    fn traced(self, op: usize) -> bool {
        match self {
            Tracing::Off => false,
            Tracing::All => true,
            Tracing::Alternate => op.is_multiple_of(2),
        }
    }
}

/// A resumable workload loop.
pub trait Layer {
    /// Runs one operation, with the recorder on when `traced`, and
    /// returns the host seconds it took.
    fn op(&mut self, traced: bool) -> f64;
    /// Operations every run performs whatever its time budget.
    fn min_ops(&self) -> usize;
    /// Checks and summarizes everything measured. Host timings are
    /// summarized over the operations `keep` marks (indexed by operation).
    fn finish(self: Box<Self>, keep: &[bool]) -> Out;
}

/// Share of a run's rounds whose host timings are kept: the quietest
/// ones by their median operation time. Neighbouring tenants slow this
/// host's memory-bound work by up to 2x for seconds at a time; over
/// whole runs that moved medians by 20-30%, while the quiet rounds of
/// different runs agree closely.
pub const QUIET_SHARE: f64 = 0.3;

/// Runs a [`Layer`] in slices of loop time, so the three layers of a run
/// can take turns and all see the same host conditions.
pub struct Runner<'a> {
    layer: Box<dyn Layer + 'a>,
    tracing: Tracing,
    spent: f64,
    allowance: f64,
    /// Per operation: the slice (round) it ran in, its host ms and
    /// whether it was traced.
    ops: Vec<(usize, f64, bool)>,
    round: usize,
}

impl<'a> Runner<'a> {
    /// Wraps `layer`.
    pub fn new(layer: Box<dyn Layer + 'a>, tracing: Tracing) -> Self {
        Self { layer, tracing, spent: 0.0, allowance: 0.0, ops: Vec::new(), round: 0 }
    }

    /// Adds `seconds` of loop time and runs operations until the total
    /// spent catches up (an operation that overshoots is paid back by
    /// the next slice). Each call is one round.
    pub fn run_for(&mut self, seconds: f64) {
        self.allowance += seconds;
        while self.spent < self.allowance {
            self.step();
        }
        self.round += 1;
    }

    fn step(&mut self) {
        let traced = self.tracing.traced(self.ops.len());
        let s = self.layer.op(traced);
        self.spent += s;
        self.ops.push((self.round, s * 1e3, traced));
    }

    /// Tops up to the layer's minimum operation count and summarizes
    /// over the quiet rounds; under [`Tracing::Alternate`] also reports
    /// the tracing overhead.
    pub fn finish(mut self) -> Out {
        let min = self.layer.min_ops().max(if self.tracing == Tracing::Alternate { 2 } else { 0 });
        while self.ops.len() < min {
            self.step();
        }
        let rounds: Vec<(usize, f64)> = self.ops.iter().map(|&(r, ms, _)| (r, ms)).collect();
        let keep = crate::stats::quiet(&rounds, QUIET_SHARE);
        let mut out = self.layer.finish(&keep);
        if self.tracing == Tracing::Alternate {
            let side = |traced: bool| -> Vec<f64> {
                let ops: Vec<(usize, f64)> = self
                    .ops
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, _, t))| *t == traced)
                    .map(|(i, (_, ms, _))| (i, *ms))
                    .collect();
                kept_or_all(&ops, &keep)
            };
            let (plain, traced) = (side(false), side(true));
            let (a, b) = (crate::stats::median(&plain), crate::stats::median(&traced));
            out.layer.note(
                "telemetry.overhead_pct",
                (b / a - 1.0) * 100.0,
                format!(
                    "p50 op traced {b:.4} ms (n={}) vs untraced {a:.4} ms (n={})",
                    traced.len(),
                    plain.len()
                ),
            );
        }
        out
    }
}

/// One named value, with a human note such as its sample count.
#[derive(Debug, Clone)]
pub struct Item {
    /// Metric name as registered in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Free-form note printed next to the value.
    pub note: String,
}

/// An ordered bag of metric values.
#[derive(Debug, Clone, Default)]
pub struct Sink {
    /// Values in insertion order.
    pub items: Vec<Item>,
}

impl Sink {
    /// Records `value` under `name`.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.note(name, value, String::new());
    }

    /// Records `value` under `name` with a note.
    pub fn note(&mut self, name: &'static str, value: f64, note: String) {
        self.items.push(Item { name, value, note });
    }

    /// Records a percentile with its rank and sample count.
    pub fn pct(&mut self, name: &'static str, p: Pct) {
        self.note(name, p.value, format!("p{} of n={}", p.q, p.n));
    }

    /// Records a median of `samples` with its sample count.
    pub fn median(&mut self, name: &'static str, samples: &[f64]) {
        self.pct(name, crate::stats::p50(samples));
    }

    /// Moves every item of `other` into `self`.
    pub fn extend(&mut self, other: Sink) {
        self.items.extend(other.items);
    }
}

/// What one layer's loop produced over a run.
#[derive(Debug, Default)]
pub struct Out {
    /// End-to-end metrics of this layer.
    pub e2e: Sink,
    /// Per-layer metrics of this layer.
    pub layer: Sink,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub problems: Vec<String>,
    /// Digest over the fixed, seed-determined part of the output.
    pub digest: String,
    /// Extra human-readable lines.
    pub info: Vec<String>,
}

impl Out {
    /// Records a failed check.
    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }
}

/// The entries of `v` (one per operation) that `keep` marks.
pub fn kept(v: &[f64], keep: &[bool]) -> Vec<f64> {
    v.iter().zip(keep).filter(|(_, k)| **k).map(|(x, _)| *x).collect()
}

/// The values of `(operation, value)` pairs whose operation `keep`
/// marks, or all of them when the quiet rounds hold none.
pub fn kept_or_all(v: &[(usize, f64)], keep: &[bool]) -> Vec<f64> {
    let quiet: Vec<f64> = v.iter().filter(|(op, _)| keep[*op]).map(|(_, x)| *x).collect();
    if quiet.is_empty() {
        v.iter().map(|(_, x)| *x).collect()
    } else {
        quiet
    }
}

/// Milliseconds between two instants.
pub fn ms(from: std::time::Instant, to: std::time::Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}
