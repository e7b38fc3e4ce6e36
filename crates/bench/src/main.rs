//! `repro` — regenerates every table and figure of the GBU paper.
//!
//! Usage: `repro [--profile test|bench|full] <experiment>|all`
//!
//! Experiments: fig1 tab1 fig4 fig5 challenges fig6 fig8 fig9 irss_gpu
//! limits_gpu tab2 tab3 fig14 fig15 tab4 tab5 fig16 fig17 tab6 tab7
//! limitations, plus `serve` — the multi-session serving sweep
//! (sessions × policy × pool size), which writes `BENCH_serve.json`,
//! `render` — the render hot-path wall-clock sweep (serial vs. parallel
//! at 1/2/4/8 threads), which writes `BENCH_render.json`, and `shard` —
//! the multi-pool scene-sharding sweep (shard count × strategy), which
//! writes `BENCH_shard.json`, and `cluster` — the cluster-mode serving
//! sweep (ExecMode shard width × strategy × lane-aware admission), which
//! writes `BENCH_cluster.json`, and `trace` — the per-stage/per-lane
//! telemetry profile (staged render + cluster serving under a
//! `gbu_telemetry` recorder, self-validated against `ServeMetrics`),
//! which writes `BENCH_trace.json`, and `fleet` — the fault-injected
//! fleet resilience sweep (lane churn, session migration, miss-rate
//! autoscaling), which writes `BENCH_fleet.json`, and `share` — the
//! scene-store / preprocessing-reuse / bin-cache sweep (cached binning
//! validated bit-identical against cold, shared Step-❶/❷ charging
//! validated strictly better than per-frame charging), which writes
//! `BENCH_share.json`, and `quality` — the contribution-aware quality
//! sweep (degradation-ladder PSNR/cycle validation plus the governed
//! overload sweep where shedding quality must beat shedding frames),
//! which writes `BENCH_quality.json`.
//! Run with `--release`; the default `bench` profile renders
//! half-resolution scenes with ~25k Gaussians and extrapolates workloads
//! to paper scale (see `gbu_gpu::workload::WorkloadScale`).

mod common;
mod experiments;

use common::Ctx;
use gbu_scene::ScaleProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = ScaleProfile::Bench;
    let mut cmds: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--profile" => {
                let v = it.next().unwrap_or_default();
                profile = match v.as_str() {
                    "test" => ScaleProfile::Test,
                    "bench" => ScaleProfile::Bench,
                    "full" => ScaleProfile::Full,
                    other => {
                        eprintln!("unknown profile '{other}' (use test|bench|full)");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            cmd => cmds.push(cmd.to_string()),
        }
    }
    if cmds.is_empty() {
        print_help();
        std::process::exit(2);
    }

    let ctx = Ctx::new(profile);
    println!("GBU reproduction harness — profile {profile:?}\n");
    for cmd in &cmds {
        run(&ctx, cmd);
    }
}

fn print_help() {
    println!(
        "repro [--profile test|bench|full] <experiment>...|all\n\n\
         experiments:\n  \
         fig1 tab1 fig4 fig5 challenges fig6 fig8 fig9 irss_gpu limits_gpu\n  \
         tab2 tab3 fig14 fig15 tab4 tab5 fig16 fig17 tab6 tab7 limitations all\n  \
         serve   (multi-session serving sweep; writes BENCH_serve.json)\n  \
         render  (render hot-path wall-clock sweep; writes BENCH_render.json)\n  \
         shard   (multi-pool scene-sharding sweep; writes BENCH_shard.json)\n  \
         cluster (cluster-mode serving sweep; writes BENCH_cluster.json)\n  \
         trace   (per-stage/per-lane telemetry profile; writes BENCH_trace.json)\n  \
         fleet   (fault-injected fleet churn/migration/autoscale sweep; writes BENCH_fleet.json)\n  \
         share   (scene store + prep reuse + bin cache sweep; writes BENCH_share.json)\n  \
         quality (degradation ladder + governed overload sweep; writes BENCH_quality.json)"
    );
}

fn run(ctx: &Ctx, cmd: &str) {
    match cmd {
        "tab1" => experiments::tab1(ctx),
        "fig1" => experiments::fig1(ctx),
        "fig4" => experiments::fig4(ctx),
        "fig5" => experiments::fig5(ctx),
        "challenges" => experiments::challenges(ctx),
        "fig6" => experiments::fig6(ctx),
        "fig8" => experiments::fig8(ctx),
        "fig9" => experiments::fig9(ctx),
        "irss_gpu" => experiments::irss_gpu(ctx),
        "limits_gpu" => experiments::limits_gpu(ctx),
        "tab2" => experiments::tab2(ctx),
        "tab3" => experiments::tab3(ctx),
        "fig14" => experiments::fig14(ctx),
        "fig15" => experiments::fig15(ctx),
        "tab4" => experiments::tab4(ctx),
        "tab5" => experiments::tab5(ctx),
        "fig16" => experiments::fig16(ctx),
        "fig17" => experiments::fig17(ctx),
        "tab6" => experiments::tab6(ctx),
        "tab7" => experiments::tab7(ctx),
        "limitations" => experiments::limitations(ctx),
        "serve" => experiments::serve(ctx),
        "render" => experiments::render(ctx),
        "shard" => experiments::shard(ctx),
        "cluster" => experiments::cluster(ctx),
        "trace" => experiments::trace(ctx),
        "fleet" => experiments::fleet(ctx),
        "share" => experiments::share(ctx),
        "quality" => experiments::quality(ctx),
        "calib" => experiments::calib(ctx),
        "debug" => experiments::debug(ctx),
        "all" => {
            for c in [
                "tab1",
                "fig4",
                "fig5",
                "challenges",
                "fig6",
                "fig8",
                "fig9",
                "irss_gpu",
                "limits_gpu",
                "tab2",
                "tab3",
                "fig14",
                "fig15",
                "tab4",
                "tab5",
                "fig16",
                "fig17",
                "tab6",
                "tab7",
                "limitations",
                "fig1",
                "serve",
                "render",
                "shard",
                "cluster",
                "trace",
                "fleet",
                "share",
                "quality",
            ] {
                run(ctx, c);
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            print_help();
            std::process::exit(2);
        }
    }
}
