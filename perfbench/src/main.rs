//! The repository benchmark. One process builds three layers of work —
//! a head-pose walk through the render pipeline, the Listing-1 device
//! loop with the Tab. V ladder, and an overloaded serving fleet — from
//! `--seed`, runs the named workload's layer for `--seconds` and the
//! other two as short fixed companion passes, checks every output, and
//! prints its metrics.
//!
//! ```text
//! perfbench --workload <render_walk|device_ladder|serve_fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run
//! (the `gbu_telemetry` global recorder on, plus the benchmark's own
//! timers around each layer call). See `README.md`.

mod device_ladder;
mod render_walk;
mod report;
mod serve_fleet;
mod stats;
mod trace;

use report::{Layer, Out, Runner, Sink, Tracing};
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics and their units, in output order.
const E2E: [(&str, &str); 16] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("irss_frame_ms_p50", "ms"),
    ("irss_frame_ms_p95", "ms"),
    ("pfs_frame_ms_p50", "ms"),
    ("pfs_frame_ms_p95", "ms"),
    ("device_frame_ms_p50", "ms"),
    ("device_frame_ms_p95", "ms"),
    ("ladder_fps_gbu_full", "fps"),
    ("ladder_energy_eff_gbu_full", "x"),
    ("serve_frames_per_host_s", "1/s"),
    ("serve_step_ms_p50", "ms"),
    ("serve_step_ms_p95", "ms"),
    ("serve_ontime_frac", "frac"),
    ("serve_latency_ms_p50", "ms"),
    ("serve_latency_ms_p99", "ms"),
];

/// Per-layer metrics and their units, in output order.
const PER_LAYER: [(&str, &str); 77] = [
    ("scene.build_ms", "ms"),
    ("par.threads", "count"),
    ("telemetry.overhead_pct", "%"),
    ("render.project_ms", "ms"),
    ("render.bin_ms", "ms"),
    ("render.bin_expand_ms", "ms"),
    ("render.bin_sort_ms", "ms"),
    ("render.incremental_rebin_ms", "ms"),
    ("render.blend_irss_ms", "ms"),
    ("render.blend_pfs_ms", "ms"),
    ("render.splats", "count"),
    ("render.culled_frac", "frac"),
    ("render.pairs", "count"),
    ("render.sort_passes", "count"),
    ("render.bincache_hit_frac", "frac"),
    ("render.irss.fragments_evaluated", "count"),
    ("render.pfs.fragments_evaluated", "count"),
    ("render.irss.significant_frac", "frac"),
    ("render.pfs.significant_frac", "frac"),
    ("render.irss.rows_skipped_frac", "frac"),
    ("trace.project_ms", "ms"),
    ("trace.bin_ms", "ms"),
    ("trace.bin_self_ms", "ms"),
    ("trace.blend_ms", "ms"),
    ("trace.blend_share_frac", "frac"),
    ("counter.bin_cache.hits", "count"),
    ("counter.bin_cache.misses", "count"),
    ("hw.dnb_ms", "ms"),
    ("hw.tile_engine_ms", "ms"),
    ("core.device_residual_ms", "ms"),
    ("hw.dnb_cycles", "cycles"),
    ("hw.tile_pe_cycles", "cycles"),
    ("hw.occupancy_cycles", "cycles"),
    ("hw.dnb_bound_frac", "frac"),
    ("hw.dram_bytes", "bytes"),
    ("hw.cache_hit_rate", "frac"),
    ("hw.pe_utilization", "frac"),
    ("gpu.step1_ms", "ms"),
    ("gpu.step2_ms", "ms"),
    ("gpu.step3_ms", "ms"),
    ("core.ladder_fps.gpu_pfs", "fps"),
    ("core.ladder_fps.gpu_irss", "fps"),
    ("core.ladder_fps.gbu_tile_engine", "fps"),
    ("core.ladder_fps.gbu_dnb", "fps"),
    ("core.ladder_fps.gbu_full", "fps"),
    ("serve.attach_ms", "ms"),
    ("serve.detach_ms", "ms"),
    ("serve.step_ms", "ms"),
    ("serve.report_ms", "ms"),
    ("serve.generated", "count"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.dropped", "count"),
    ("serve.missed", "count"),
    ("serve.completed", "count"),
    ("serve.degraded_frac", "frac"),
    ("serve.counter_offers", "count"),
    ("serve.prep_shared_frac", "frac"),
    ("serve.queue_wait_cycles_p50", "cycles"),
    ("serve.queue_wait_cycles_p99", "cycles"),
    ("serve.service_cycles_p50", "cycles"),
    ("serve.device_utilization", "frac"),
    ("serve.dram_stall_cycles", "cycles"),
    ("serve.shard_imbalance_mean", "frac"),
    ("trace.device_busy_cycles", "cycles"),
    ("trace.queue_wait_cycles", "cycles"),
    ("trace.service_cycles", "cycles"),
    ("trace.service_self_cycles", "cycles"),
    ("counter.serve.admitted", "count"),
    ("counter.serve.completed", "count"),
    ("counter.serve.dispatched", "count"),
    ("counter.serve.prep.shared", "count"),
    ("counter.serve.prep.charged", "count"),
    ("counter.serve.quality.degraded", "count"),
    ("counter.serve.quality.counter_offers", "count"),
    ("counter.scene_store.hits", "count"),
    ("counter.scene_store.misses", "count"),
];

/// Workers of the global `gbu_par` pool. One: on a shared 2-vCPU host a
/// two-worker pool made whole runs' medians drift by up to 25% with the
/// neighbours' load, against a few percent for one worker.
const POOL_THREADS: usize = 1;

/// Rounds a run is cut into; every round gives each layer its share.
const ROUNDS: usize = 20;

/// Share of `--seconds` each of the two layers a workload does not
/// stress gets: they still run, so every run reports every metric.
const COMPANION_SHARE: f64 = 0.1;

/// Set-ups per run: at least this many, and more until
/// [`SETUP_MIN_SECONDS`] have been spent; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Set-up time a run spends at least. A render or serving set-up takes
/// well under 0.1 s, so the median is taken over a few dozen of them.
const SETUP_MIN_SECONDS: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RenderWalk,
    DeviceLadder,
    ServeFleet,
}

impl Workload {
    const ALL: [Workload; 3] = [Self::RenderWalk, Self::DeviceLadder, Self::ServeFleet];

    fn name(self) -> &'static str {
        match self {
            Self::RenderWalk => "render_walk",
            Self::DeviceLadder => "device_ladder",
            Self::ServeFleet => "serve_fleet",
        }
    }

    /// The layer this workload stresses (prefix of its output lines).
    fn layer(self) -> &'static str {
        match self {
            Self::RenderWalk => "render",
            Self::DeviceLadder => "device",
            Self::ServeFleet => "serve",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <render_walk|device_ladder|serve_fleet> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Inputs of all three layers: the workload's own at full size, the
/// other two at companion size.
struct Inputs {
    walk: render_walk::Walk,
    ladder: device_ladder::Ladder,
    fleet: serve_fleet::Fleet,
}

fn setup(w: Workload, seed: u64) -> Inputs {
    let walk = render_walk::setup(
        seed,
        if w == Workload::RenderWalk { render_walk::PRIMARY } else { render_walk::COMPANION },
    );
    let ladder = device_ladder::setup(
        seed,
        if w == Workload::DeviceLadder {
            gbu_scene::ScaleProfile::Bench
        } else {
            gbu_scene::ScaleProfile::Test
        },
    );
    let fleet = serve_fleet::setup(
        seed,
        if w == Workload::ServeFleet { serve_fleet::PRIMARY } else { serve_fleet::COMPANION },
    );
    Inputs { walk, ladder, fleet }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Pins the calling thread — the whole benchmark, as the pool runs its
/// one worker inline — to `cpu`, so it never migrates mid-run (unpinned
/// runs on a 2-vCPU host differed by up to 30% depending on where they
/// ran). Returns whether the pin took.
fn pin_to_cpu(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else { return false };
    *word |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread; `mask` is a live array of
    // exactly `cpusetsize` bytes that the call only reads.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    gbu_telemetry::set_global(gbu_telemetry::Recorder::disabled());
    // Before the global pool's first use, which sizes it from this.
    std::env::set_var(gbu_par::THREADS_ENV, POOL_THREADS.to_string());
    let cores = gbu_telemetry::host_threads();
    // The last CPU: interrupts usually land on CPU 0.
    let cpu = cores - 1;
    let pinned = pin_to_cpu(cpu);
    let threads = gbu_par::global().threads();
    if threads != POOL_THREADS {
        eprintln!("perfbench: the gbu_par pool has {threads} threads on {cores} cores");
        return ExitCode::from(2);
    }

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    while setups.len() < SETUP_REPS || setups.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(setup(args.workload, args.seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one setup");

    // The three layers take turns in rounds, the workload's own layer
    // with most of each round, so all of them sample the same stretch of
    // host conditions.
    let w = args.workload;
    let mut runners: Vec<(Workload, Runner)> = Workload::ALL
        .into_iter()
        .map(|l| {
            let tracing = match (args.trace, l == w) {
                (false, _) => Tracing::Off,
                (true, true) => Tracing::Alternate,
                (true, false) => Tracing::All,
            };
            let traced = tracing != Tracing::Off;
            let layer: Box<dyn Layer> = match l {
                Workload::RenderWalk => Box::new(render_walk::Run::new(&inputs.walk, traced)),
                Workload::DeviceLadder => Box::new(device_ladder::Run::new(&inputs.ladder, traced)),
                Workload::ServeFleet => Box::new(serve_fleet::Run::new(&inputs.fleet)),
            };
            (l, Runner::new(layer, tracing))
        })
        .collect();
    for _ in 0..ROUNDS {
        for (l, runner) in &mut runners {
            let share = if *l == w { 1.0 - 2.0 * COMPANION_SHARE } else { COMPANION_SHARE };
            runner.run_for(args.seconds * share / ROUNDS as f64);
        }
    }
    let outs: Vec<(&str, Out)> =
        runners.into_iter().map(|(l, d)| (l.layer(), d.finish())).collect();

    let mut e2e = Sink::default();
    e2e.note(
        "setup_s",
        stats::median(&setups),
        format!(
            "median of {} set-ups, {:.3}..{:.3} s",
            setups.len(),
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            setups.iter().copied().fold(0.0, f64::max),
        ),
    );
    e2e.put("peak_rss_mb", peak_rss_mb());
    let mut per_layer = Sink::default();
    per_layer.put("scene.build_ms", inputs.walk.build_ms + inputs.ladder.build_ms);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    let mut digests = Vec::new();
    for (name, out) in outs {
        attempted += out.attempted;
        failed += out.failed;
        problems.extend(out.problems.iter().map(|p| format!("{name}: {p}")));
        digests.push(format!("{name}={}", out.digest));
        for line in &out.info {
            println!("{line}");
        }
        e2e.extend(out.e2e);
        per_layer.extend(out.layer);
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={threads} cores={cores} \
         pinned_cpu={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if pinned { cpu.to_string() } else { "none".into() },
    );
    println!("digest {}", digests.join(" "));
    let (registry, sink): (&[(&str, &str)], &Sink) =
        if args.trace { (&PER_LAYER, &per_layer) } else { (&E2E, &e2e) };
    let shown = if args.trace { &per_layer.items[..] } else { &[] };
    for item in e2e.items.iter().chain(shown) {
        println!("  {:<40} {:>16.6}  {}", item.name, item.value, item.note);
    }
    for p in &problems {
        println!("CHECK FAILED {p}");
    }
    let mut fields = Vec::with_capacity(registry.len());
    let mut correct = problems.is_empty();
    for (name, unit) in registry {
        let found: Vec<_> = sink.items.iter().filter(|i| i.name == *name).collect();
        assert_eq!(found.len(), 1, "metric {name} reported {} times", found.len());
        let mut v = found[0].value;
        if !v.is_finite() {
            println!("CHECK FAILED metric {name} is {v}");
            correct = false;
            v = 0.0;
        }
        fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    assert_eq!(sink.items.len(), registry.len(), "every reported metric is registered");
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` registers exactly the metrics this binary prints.
    #[test]
    fn registry_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in E2E.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = json.matches("\"name\":").count();
        // Three workloads plus every metric.
        assert_eq!(names, 3 + E2E.len() + PER_LAYER.len());
    }
}
