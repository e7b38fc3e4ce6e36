//! One function per paper table/figure. Each prints the regenerated
//! rows/series next to the paper's reported values where applicable.

use crate::common::{run_info, Ctx, Gate};
use gbu_core::apps::{self, FrameScenario};
use gbu_core::reports::{bar, fmt_f, fmt_pct, fmt_x, table};
use gbu_core::system::{self, Design, FrameMeasurement};
use gbu_gpu::timing::{self, Step3Mapping};
use gbu_hw::area;
use gbu_hw::cache::{simulate_trace, Policy};
use gbu_hw::standalone::{self, GbuStandalone};
use gbu_math::{Sym2, Vec2, Vec3};
use gbu_render::irss::{IrssSplat, RowOutcome};
use gbu_render::{binning, preprocess, Splat2D};
use gbu_scene::{DatasetScene, SceneKind};
use gbu_telemetry::json::{self, Fixed, Json};

/// Tab. I: algorithm and dataset setup.
pub fn tab1(ctx: &Ctx) {
    println!("== Tab. I: Algorithm and dataset setup ==");
    let rows: Vec<Vec<String>> = DatasetScene::all()
        .iter()
        .map(|d| {
            vec![
                d.kind.label().to_string(),
                d.name.to_string(),
                format!("{} x {}", d.width, d.height),
                format!("{}k", d.gaussian_count(ctx.profile) / 1000),
                format!("{}k", d.paper_gaussians_k),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "Scene Type",
                "Scene",
                "Resolution (Tab. I)",
                "Gaussians (profile)",
                "Gaussians (paper ckpt)"
            ],
            &rows
        )
    );
}

/// Fig. 4: end-to-end baseline rendering time per scene, with the 60-FPS
/// line.
pub fn fig4(ctx: &Ctx) {
    println!("== Fig. 4: End-to-end rendering time on the baseline edge GPU ==");
    println!("   (red line of the paper: 16.7 ms = 60 FPS)");
    let mut rows = Vec::new();
    for m in ctx.measure_all() {
        let e = system::evaluate(&ctx.sys, &m.measured.measurement, Design::GpuPfs);
        let ms = e.frame_seconds * 1e3;
        rows.push(vec![
            m.ds.name.to_string(),
            m.ds.kind.label().to_string(),
            fmt_f(ms, 1),
            fmt_f(e.fps, 1),
            bar(ms, 120.0, 40),
        ]);
    }
    println!("{}", table(&["Scene", "Type", "Time (ms)", "FPS", "0 ......... 120 ms"], &rows));
    println!("Paper: 7-17 FPS static, ~18 FPS dynamic, ~41 FPS avatars; none real-time.\n");
}

/// Fig. 5: rendering-time breakdown into the three steps.
pub fn fig5(ctx: &Ctx) {
    println!("== Fig. 5: Rendering time breakdown (baseline GPU) ==");
    let mut rows = Vec::new();
    for m in ctx.measure_all() {
        let e = system::evaluate(&ctx.sys, &m.measured.measurement, Design::GpuPfs);
        let (b1, b2, b3) = e.breakdown();
        rows.push(vec![m.ds.name.to_string(), fmt_pct(b1), fmt_pct(b2), fmt_pct(b3)]);
    }
    println!(
        "{}",
        table(&["Scene", "Step 1: Preprocess", "Step 2: Sorting", "Step 3: Blending"], &rows)
    );
    println!("Paper: Step 3 = 70-78% (static), 62-65% (dynamic), 48-51% (avatar);");
    println!("       Step 2 = 14-24% across all types.\n");
}

/// Sec. III-B challenge statistics.
pub fn challenges(ctx: &Ctx) {
    println!("== Sec. III-B: Challenge statistics ==");
    let mut rows = Vec::new();
    for kind in [SceneKind::Static, SceneKind::Dynamic, SceneKind::Avatar] {
        let scenes: Vec<_> = DatasetScene::all().into_iter().filter(|d| d.kind == kind).collect();
        let (mut fr, mut sig, mut n) = (0.0, 0.0, 0.0);
        for d in &scenes {
            let m = ctx.measure(d.name);
            let b = &m.measured.pfs.blend;
            fr += b.fragments_per_gaussian(m.measured.pfs.preprocess.output_splats);
            sig += b.significant_fraction();
            n += 1.0;
        }
        let paper = match kind {
            SceneKind::Static => ("541:1", "7.6%"),
            SceneKind::Dynamic => ("161:1", "13.7%"),
            SceneKind::Avatar => ("688:1", "9.9%"),
        };
        rows.push(vec![
            kind.label().to_string(),
            format!("{:.0}:1", fr / n),
            paper.0.to_string(),
            fmt_pct(sig / n),
            paper.1.to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &["Type", "frag:Gaussian (ours)", "(paper)", "significant frags (ours)", "(paper)"],
            &rows
        )
    );
    // The 1.1-TFLOPs anchor: Eq. 7 FLOPs at 60 FPS on static scenes.
    let m = ctx.measure("bicycle");
    let w = &m.measured.measurement.workload;
    let tflops = w.fragments_pfs * 11.0 * 60.0 / 1e12;
    let peak = ctx.sys.gpu.peak_flops() / 1e12;
    println!(
        "Eq. 7 alone at 60 FPS (bicycle, paper scale): {:.2} TFLOP/s = {:.0}% of the
Orin NX's {:.2} TFLOPS peak (paper: 1.1 TFLOPs = 58%).\n",
        tflops,
        100.0 * tflops / peak,
        peak
    );
}

/// Fig. 6: per-fragment computational cost, PFS vs IRSS.
pub fn fig6(ctx: &Ctx) {
    println!("== Fig. 6: Computational complexity, PFS vs IRSS ==");
    let mut rows = Vec::new();
    for m in ctx.measure_all() {
        let pfs = &m.measured.pfs.blend;
        let irss = &m.measured.irss.blend;
        let saved = 1.0 - (irss.q_flops + irss.setup_flops) as f64 / pfs.q_flops.max(1) as f64;
        rows.push(vec![
            m.ds.name.to_string(),
            fmt_f(pfs.q_flops_per_fragment(), 1),
            fmt_f(irss.q_flops_per_fragment(), 2),
            fmt_pct(1.0 - irss.fragments_evaluated as f64 / pfs.fragments_evaluated.max(1) as f64),
            fmt_pct(saved),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "Scene",
                "PFS FLOPs/frag",
                "IRSS FLOPs/frag",
                "fragments skipped",
                "Eq.7 FLOPs saved",
            ],
            &rows
        )
    );
    println!("Paper: 11 FLOPs -> 2 FLOPs per fragment; up to 93% of the blending");
    println!("workload skipped (92.3% quoted for the best case).\n");
}

/// Fig. 8: step-by-step IRSS trace on one 2D Gaussian.
pub fn fig8(_ctx: &Ctx) {
    println!("== Fig. 8: IRSS row-marching trace (illustrative) ==");
    let opacity = 0.9f32;
    let splat = Splat2D {
        mean: Vec2::new(8.5, 6.0),
        conic: Sym2::new(0.16, 0.09, 0.30),
        cov: Sym2::new(0.16, 0.09, 0.30).inverse().unwrap(),
        color: Vec3::ONE,
        opacity,
        depth: 1.0,
        threshold: 2.0 * (opacity * 255.0f32).ln(),
        source: 0,
    };
    let isp = IrssSplat::new(&splat);
    println!(
        "2D Gaussian at {} with conic {} (Th = {:.2})",
        splat.mean, splat.conic, splat.threshold
    );
    for y in 0..16 {
        match isp.row_outcome(y, 0, 16) {
            RowOutcome::SkippedY => println!("row {y:>2}: skipped by y''^2 > Th (Step-1)"),
            RowOutcome::Miss { search_iters: 0 } => {
                println!("row {y:>2}: miss (sign test, Step-3 early-out)")
            }
            RowOutcome::Miss { search_iters } => {
                println!("row {y:>2}: miss after {search_iters} binary-search iterations")
            }
            RowOutcome::Span(span) => {
                let mut cells = ['.'; 16];
                let cost = isp.march(&span, 16, |x, _| cells[x as usize] = '#');
                let skipped_left = span.first_x;
                println!(
                    "row {y:>2}: {}  first={} search_iters={} shaded={} (left-skip {})",
                    cells.iter().collect::<String>(),
                    span.first_x,
                    span.search_iters,
                    cost.inside,
                    skipped_left
                );
            }
        }
    }
    println!();
}

/// Fig. 9: per-row rendering workload of the busiest tile.
pub fn fig9(ctx: &Ctx) {
    println!("== Fig. 9: Per-row workload (busiest tile, static scene) ==");
    let m = ctx.measure("counter");
    let rw = &m.measured.irss.blend.row_workload;
    let busiest = rw
        .iter()
        .enumerate()
        .max_by_key(|(_, rows)| rows.iter().sum::<u32>())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let rows = &rw[busiest];
    let max = *rows.iter().max().unwrap_or(&1) as f64;
    for (y, &count) in rows.iter().enumerate() {
        println!("row {y:>2}: {:>6} fragments |{}", count, bar(count as f64, max, 40));
    }
    let tile_util = m.measured.irss.blend.row_lane_utilization();
    let warp_util = m.measured.raw_workload.irss_lane_utilization;
    println!("\nTile-aggregate row balance (whole-frame): {}", fmt_pct(tile_util));
    println!(
        "Per-instance SIMT lane utilization (each warp waits for its slowest row): {}",
        fmt_pct(warp_util)
    );
    println!(
        "Paper: the per-instance imbalance yields only 18.9% GPU lane utilization (Sec. V-A).\n"
    );
}

/// Sec. IV-D: IRSS deployed directly on the GPU.
pub fn irss_gpu(ctx: &Ctx) {
    println!("== Sec. IV-D: IRSS dataflow directly on the GPU ==");
    let mut rows = Vec::new();
    for m in ctx.measure_static() {
        let pfs = system::evaluate(&ctx.sys, &m.measured.measurement, Design::GpuPfs);
        let irss = system::evaluate(&ctx.sys, &m.measured.measurement, Design::GpuIrss);
        rows.push(vec![
            m.ds.name.to_string(),
            fmt_f(pfs.fps, 1),
            fmt_f(irss.fps, 1),
            fmt_x(irss.fps / pfs.fps),
            fmt_pct(1.0 - irss.step3 / pfs.step3),
        ]);
    }
    println!(
        "{}",
        table(&["Scene", "PFS FPS", "IRSS FPS", "speedup", "Step-3 latency cut"], &rows)
    );
    println!("Paper: 13 -> 22 FPS (1.71-1.72x), 59% Step-3 latency reduction;");
    println!("still short of the 60-FPS real-time bar.\n");
}

/// Sec. V-A: the two GPU limitations motivating dedicated hardware.
pub fn limits_gpu(ctx: &Ctx) {
    println!("== Sec. V-A: GPU limitations under IRSS ==");
    let mut rows = Vec::new();
    for m in ctx.measure_static() {
        let util = m.measured.raw_workload.irss_lane_utilization;
        let t = timing::frame_time(
            &m.measured.measurement.workload,
            &ctx.sys.gpu,
            Step3Mapping::Pfs,
            m.measured.measurement.sh_degree,
        );
        rows.push(vec![
            m.ds.name.to_string(),
            fmt_pct(util),
            fmt_pct(t.step3_bw_fraction_at(60.0, &ctx.sys.gpu)),
        ]);
    }
    println!(
        "{}",
        table(&["Scene", "IRSS lane utilization (L1)", "Step-3 DRAM BW @60FPS (L2)"], &rows)
    );
    println!("Paper: 18.9% lane utilization; 62.1% of DRAM bandwidth;");
    println!("the BW pressure costs 13.5% end-to-end when pipelined.\n");
}

/// Tab. II: GBU vs Orin NX specification.
pub fn tab2(_ctx: &Ctx) {
    println!("== Tab. II: Specification of GBU and Jetson Orin NX ==");
    let rows: Vec<Vec<String>> = area::table2_specs()
        .iter()
        .map(|d| {
            vec![
                d.name.to_string(),
                if d.sram_kb >= 1024.0 {
                    format!("{:.0} MB", d.sram_kb / 1024.0)
                } else {
                    format!("{:.0} KB", d.sram_kb)
                },
                format!("{} mm2", d.area_mm2),
                format!("{:.3} GHz", d.clock_ghz),
                format!("{} nm", d.technology_nm),
                format!("{} W", d.typical_power_w),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["Device", "SRAM", "Area", "Frequency", "Technology", "Typical Power"], &rows)
    );
}

/// Tab. III: GBU module area/power breakdown.
pub fn tab3(_ctx: &Ctx) {
    println!("== Tab. III: Area and power breakdown of GBU modules ==");
    let model = area::GbuAreaModel::paper();
    let mut rows: Vec<Vec<String>> = model
        .modules()
        .iter()
        .map(|m| vec![m.name.to_string(), fmt_f(m.area_mm2, 2), fmt_f(m.power_w, 2)])
        .collect();
    rows.push(vec![
        "Total".to_string(),
        fmt_f(model.total_area_mm2(), 2),
        fmt_f(model.total_power_w(), 2),
    ]);
    println!("{}", table(&["Module", "Area (mm2)", "Power (W)"], &rows));
}

/// Fig. 14: rendering speed, baseline vs GBU-enhanced, all 12 scenes.
pub fn fig14(ctx: &Ctx) {
    println!("== Fig. 14: Rendering speed, Orin NX vs Orin NX + GBU ==");
    let mut rows = Vec::new();
    let mut kind_acc: Vec<(SceneKind, f64, f64, f64)> = Vec::new();
    for m in ctx.measure_all() {
        let base = system::evaluate(&ctx.sys, &m.measured.measurement, Design::GpuPfs);
        let full = system::evaluate(&ctx.sys, &m.measured.measurement, Design::GbuFull);
        rows.push(vec![
            m.ds.name.to_string(),
            fmt_f(base.fps, 1),
            fmt_f(full.fps, 1),
            fmt_x(full.fps / base.fps),
            if full.fps >= 60.0 { "yes".into() } else { "NO".into() },
        ]);
        match kind_acc.iter_mut().find(|(k, _, _, _)| *k == m.ds.kind) {
            Some(acc) => {
                acc.1 += base.fps;
                acc.2 += full.fps;
                acc.3 += 1.0;
            }
            None => kind_acc.push((m.ds.kind, base.fps, full.fps, 1.0)),
        }
    }
    println!(
        "{}",
        table(&["Scene", "Orin NX FPS", "Orin NX + GBU FPS", "speedup", ">= 60 FPS"], &rows)
    );
    for (k, b, f, n) in kind_acc {
        println!("  {} average: {:.0} FPS -> {:.0} FPS", k.label(), b / n, f / n);
    }
    println!("Paper averages: static 13 -> 92, dynamic 18 -> 80, avatar 41 -> 102 FPS.\n");
}

/// Fig. 15: energy-efficiency improvement per scene.
pub fn fig15(ctx: &Ctx) {
    println!("== Fig. 15: Energy-efficiency improvement over the baseline ==");
    let mut rows = Vec::new();
    let mut kind_acc: Vec<(SceneKind, f64, f64, f64, f64)> = Vec::new();
    for m in ctx.measure_all() {
        let base = system::evaluate(&ctx.sys, &m.measured.measurement, Design::GpuPfs);
        let full = system::evaluate(&ctx.sys, &m.measured.measurement, Design::GbuFull);
        let ratio = base.energy_j / full.energy_j;
        rows.push(vec![
            m.ds.name.to_string(),
            fmt_f(base.energy_j * 60.0, 1),
            fmt_f(full.energy_j * 60.0, 1),
            fmt_x(ratio),
            bar(ratio, 15.0, 30),
        ]);
        match kind_acc.iter_mut().find(|(k, ..)| *k == m.ds.kind) {
            Some(acc) => {
                acc.1 += ratio;
                acc.2 += 1.0;
                acc.3 += base.energy_j * 60.0;
                acc.4 += full.energy_j * 60.0;
            }
            None => {
                kind_acc.push((m.ds.kind, ratio, 1.0, base.energy_j * 60.0, full.energy_j * 60.0))
            }
        }
    }
    println!(
        "{}",
        table(&["Scene", "Base J/60 frames", "GBU J/60 frames", "improvement", "0 ... 15x"], &rows)
    );
    for (k, r, n, bj, fj) in kind_acc {
        println!(
            "  {} average: {:.1}x  ({:.0} J -> {:.0} J per 60 frames)",
            k.label(),
            r / n,
            bj / n,
            fj / n
        );
    }
    println!("Paper: 10.8x / 4.4x / 2.5x; 76/52/23 J -> 7/12/9 J per 60 frames.\n");
}

/// Tab. IV: rendering quality (FP32 3D-GS vs FP16 GBU) against the
/// anti-aliased pseudo ground truth.
pub fn tab4(ctx: &Ctx) {
    println!("== Tab. IV: Rendering quality benchmark ==");
    println!("   (reference: 2x-supersampled PFS render; paper uses held-out photos,");
    println!("    so absolute dB differ — the comparison is the FP16 delta)");
    let mut rows = Vec::new();
    for kind in [SceneKind::Static, SceneKind::Dynamic, SceneKind::Avatar] {
        let scene = DatasetScene::all()
            .into_iter()
            .find(|d| d.kind == kind)
            .expect("registry covers all kinds");
        let m = ctx.measure(scene.name);
        let gt = apps::pseudo_ground_truth(&m.scenario);
        let q32 = apps::quality(&gt, &m.measured.pfs.image);
        let q16 = apps::quality(&gt, &m.measured.gbu.image);
        rows.push(vec![
            format!("{} ({})", kind.label(), scene.name),
            fmt_f(q32.psnr, 2),
            fmt_f(q32.lpips_proxy, 4),
            fmt_f(q16.psnr, 2),
            fmt_f(q16.lpips_proxy, 4),
            fmt_f(q32.psnr - q16.psnr, 3),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "Scene type",
                "3D-GS PSNR",
                "3D-GS lpips*",
                "GBU PSNR",
                "GBU lpips*",
                "FP16 PSNR loss",
            ],
            &rows
        )
    );
    println!("Paper: < 0.1 dB PSNR and < 0.001 LPIPS degradation from FP16.\n");
}

/// Tab. V: the ablation ladder, averaged over static scenes.
pub fn tab5(ctx: &Ctx) {
    println!("== Tab. V: Ablation — adding techniques one by one (static scenes) ==");
    let measures = ctx.measure_static();
    let mut rows = Vec::new();
    let paper = [12.8, 22.0, 66.1, 80.6, 91.5];
    let paper_eff = [1.0, 1.71, 7.22, 9.40, 10.8];
    let mut base_energy = 0.0;
    for (i, design) in Design::ladder().into_iter().enumerate() {
        let (mut fps, mut energy) = (0.0, 0.0);
        for m in &measures {
            let e = system::evaluate(&ctx.sys, &m.measured.measurement, design);
            fps += e.fps;
            energy += e.energy_j;
        }
        fps /= measures.len() as f64;
        energy /= measures.len() as f64;
        if i == 0 {
            base_energy = energy;
        }
        rows.push(vec![
            design.label().to_string(),
            fmt_f(fps, 1),
            fmt_f(paper[i], 1),
            fmt_x(base_energy / energy),
            fmt_x(paper_eff[i]),
        ]);
    }
    println!(
        "{}",
        table(&["Design", "FPS (ours)", "FPS (paper)", "energy eff. (ours)", "(paper)"], &rows)
    );
}

/// Fig. 16: performance scaling with rendering resolution (dynamic
/// scenes at 676x507 / 1352x1014 / 2704x2028).
pub fn fig16(ctx: &Ctx) {
    println!("== Fig. 16: Rendering speed vs resolution (dynamic scenes) ==");
    let mut rows = Vec::new();
    for d in DatasetScene::dynamic_scenes() {
        let m = ctx.measure(d.name);
        for (label, factor) in [("676x507", 0.25), ("1352x1014", 1.0), ("2704x2028", 4.0)] {
            // Re-scale the pixel-dependent workload relative to the
            // paper-scale measurement (footprints grow with resolution).
            let mm = FrameMeasurement {
                workload: m.measured.measurement.workload.scaled_resolution(factor),
                gbu_tile_cycles: m.measured.measurement.gbu_tile_cycles * factor,
                ..m.measured.measurement.clone()
            };
            let base = system::evaluate(&ctx.sys, &mm, Design::GpuPfs);
            let full = system::evaluate(&ctx.sys, &mm, Design::GbuFull);
            rows.push(vec![
                d.name.to_string(),
                label.to_string(),
                fmt_f(base.fps, 1),
                fmt_f(full.fps, 1),
                fmt_x(full.fps / base.fps),
            ]);
        }
    }
    println!("{}", table(&["Scene", "Resolution", "Orin NX FPS", "+GBU FPS", "speedup"], &rows));
    println!("Paper: 3.7-4.1x speedup at 676x507 growing to 9.5-13.2x at 2704x2028.\n");
}

/// Fig. 17: Gaussian Reuse Cache hit rate vs capacity.
pub fn fig17(ctx: &Ctx) {
    println!("== Fig. 17: Cache hit rate vs capacity (reuse-distance policy) ==");
    let sizes_kib = [0u32, 2, 4, 8, 16, 32, 64];
    let mut rows = Vec::new();
    for kind in [SceneKind::Static, SceneKind::Dynamic, SceneKind::Avatar] {
        let scenes: Vec<_> = DatasetScene::all().into_iter().filter(|d| d.kind == kind).collect();
        let mut per_size = vec![0.0f64; sizes_kib.len()];
        for d in &scenes {
            let m = ctx.measure(d.name);
            let (splats, _) = preprocess::project_scene(&m.scenario.scene, &m.scenario.camera);
            let (bins, _) = binning::bin_splats(&splats, &m.scenario.camera, 16);
            for (i, &kib) in sizes_kib.iter().enumerate() {
                let lines = (kib as usize * 1024) / gbu_render::GBU_FEATURE_BYTES as usize;
                per_size[i] +=
                    simulate_trace(&bins.entries, lines, Policy::ReuseDistance).hit_rate();
            }
        }
        let mut row = vec![kind.label().to_string()];
        for (i, _) in sizes_kib.iter().enumerate() {
            row.push(fmt_pct(per_size[i] / scenes.len() as f64));
        }
        rows.push(row);
    }
    println!(
        "{}",
        table(&["Type", "0 KB", "2 KB", "4 KB", "8 KB", "16 KB", "32 KB", "64 KB"], &rows)
    );
    println!("Paper: saturation around 32 KB; 59.7% / 47.4% / 37.7% at 64 KB.");

    // Policy ablation at the chosen 32 KB size (design-choice bench).
    println!("\n-- Replacement-policy ablation at 32 KB (static scenes) --");
    let mut prow = Vec::new();
    for policy in [Policy::ReuseDistance, Policy::Lru, Policy::Fifo] {
        let mut acc = 0.0;
        let scenes = DatasetScene::static_scenes();
        for d in &scenes {
            let m = ctx.measure(d.name);
            let (splats, _) = preprocess::project_scene(&m.scenario.scene, &m.scenario.camera);
            let (bins, _) = binning::bin_splats(&splats, &m.scenario.camera, 16);
            let lines = 32 * 1024 / gbu_render::GBU_FEATURE_BYTES as usize;
            acc += simulate_trace(&bins.entries, lines, policy).hit_rate();
        }
        prow.push(vec![format!("{policy:?}"), fmt_pct(acc / 6.0)]);
    }
    println!("{}", table(&["Policy", "hit rate"], &prow));
}

/// Tab. VI: GBU-Standalone vs GSCore.
pub fn tab6(ctx: &Ctx) {
    println!("== Tab. VI: GBU-Standalone vs GSCore ==");
    let rows: Vec<Vec<String>> = standalone::table6()
        .iter()
        .map(|r| {
            vec![
                format!("{}{}", r.device, if r.reported { " (reported)" } else { "" }),
                format!("{:.0} KB", r.sram_kb),
                format!("{:.2} mm2", r.area_mm2),
                format!("{:.2} W", r.power_w),
                format!("{:.2} mm2", r.step3_area_mm2),
                format!("{:.2} W", r.step3_power_w),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["Device", "SRAM", "Area", "Power", "Step-3 PE area", "Step-3 PE power"], &rows)
    );
    // Measured standalone throughput on the static scenes.
    let sa = GbuStandalone { gbu: ctx.gbu().clone(), ..Default::default() };
    let mut acc = 0.0;
    let measures = ctx.measure_static();
    for m in &measures {
        let w = &m.measured.measurement.workload;
        let tile_s = m.measured.measurement.gbu_tile_cycles / (ctx.gbu().clock_ghz * 1e9);
        let fe_cycles = w.splats / sa.front_end.gaussians_per_cycle
            + w.instances / sa.front_end.instances_per_cycle;
        let fe_s = fe_cycles / (ctx.gbu().clock_ghz * 1e9);
        acc += 1.0 / fe_s.max(tile_s);
    }
    println!(
        "GBU-Standalone modelled throughput on the static scenes: {:.0} FPS average\n",
        acc / measures.len() as f64
    );
}

/// Tab. VII: comparison with NeRF accelerators on a NeRF-Synthetic-class
/// object scene.
pub fn tab7(ctx: &Ctx) {
    println!("== Tab. VII: Benchmark vs NeRF accelerators (NeRF-Synthetic-class) ==");
    // Synthesize an 800x800 single-object scene (NeRF-Synthetic style).
    let scene = gbu_scene::synth::SceneBuilder::new(777)
        .ellipsoid_cloud(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.8, 0.9, 0.8),
            6000,
            Vec3::new(0.8, 0.7, 0.3),
            0.2,
        )
        .sphere_shell(Vec3::ZERO, 1.1, 2000, Vec3::new(0.4, 0.4, 0.5))
        .build();
    let res = (800.0 * ctx.profile.resolution_scale()) as u32;
    let camera = gbu_scene::Camera::orbit(res, res, 0.7, Vec3::ZERO, 3.6, 0.5, 0.3);
    let scenario = FrameScenario { scene, camera, sh_degree: 1, step1_extra_flops: 0.0 };
    let scale = gbu_gpu::WorkloadScale {
        gaussians: 300_000.0 / scenario.scene.len() as f64,
        pixels: (800.0 * 800.0) / (f64::from(res) * f64::from(res)),
    };
    let m = apps::measure_frame(&scenario, ctx.gbu(), scale);
    let gt = apps::pseudo_ground_truth(&scenario);
    let q = apps::quality(&gt, &m.gbu.image);
    let sa = GbuStandalone { gbu: ctx.gbu().clone(), ..Default::default() };
    let w = &m.measurement.workload;
    let tile_s = m.measurement.gbu_tile_cycles / (ctx.gbu().clock_ghz * 1e9);
    let fe_s = (w.splats / sa.front_end.gaussians_per_cycle
        + w.instances / sa.front_end.instances_per_cycle)
        / (ctx.gbu().clock_ghz * 1e9);
    let fps = 1.0 / fe_s.max(tile_s);

    let mut rows: Vec<Vec<String>> = standalone::table7_reference()
        .iter()
        .map(|r| {
            vec![
                format!("{} (reported)", r.device),
                r.algorithm.to_string(),
                fmt_f(r.psnr_db, 2),
                format!("{} nm", r.technology_nm),
                r.area_mm2.map_or("N/A".into(), |a| format!("{a} mm2")),
                format!("{} W", r.power_w),
                fmt_f(r.fps, 2),
            ]
        })
        .collect();
    rows.push(vec![
        "GBU-Standalone (ours, measured)".to_string(),
        "3D-GS".to_string(),
        format!("{:.2}*", q.psnr),
        "28 nm".to_string(),
        "1.78 mm2".to_string(),
        "0.78 W".to_string(),
        fmt_f(fps, 0),
    ]);
    println!("{}", table(&["Device", "Algorithm", "PSNR", "Tech", "Area", "Power", "FPS"], &rows));
    println!("* PSNR vs the 2x-supersampled pseudo ground truth (paper: 33.26 dB vs");
    println!("  held-out renders). Paper's GBU-Standalone row: 172 FPS.\n");
}

/// Sec. VI-F: limitation study — distant camera poses shrink the IRSS
/// advantage.
pub fn limitations(ctx: &Ctx) {
    println!("== Sec. VI-F: Limitation — distant camera poses ==");
    let ds = DatasetScene::by_name("counter").unwrap();
    let mut rows = Vec::new();
    for (label, dist) in [("1x distance", 1.0f32), ("4x distance", 4.0)] {
        let base_scenario = FrameScenario::from_dataset(&ds, ctx.profile);
        let center = base_scenario.scene.centroid().unwrap_or(Vec3::ZERO);
        let camera = base_scenario.camera.with_distance_scaled(center, dist);
        let scenario = FrameScenario { camera, ..base_scenario };
        let scale = scenario.paper_scale(&ds);
        let m = apps::measure_frame(&scenario, ctx.gbu(), scale);
        let base = system::evaluate(&ctx.sys, &m.measurement, Design::GpuPfs);
        let full = system::evaluate(&ctx.sys, &m.measurement, Design::GbuFull);
        let frags_per_row = m.raw_workload.fragments_irss / m.raw_workload.rows_irss.max(1.0);
        rows.push(vec![
            label.to_string(),
            fmt_f(frags_per_row, 2),
            fmt_f(base.fps, 1),
            fmt_f(full.fps, 1),
            fmt_x(full.fps / base.fps),
        ]);
    }
    println!(
        "{}",
        table(&["Camera", "IRSS frags/row", "Orin NX FPS", "+GBU FPS", "speedup"], &rows)
    );
    println!("Paper: 4x camera distance reduces the end-to-end speedup from 10.8x to 4.7x");
    println!("because Gaussians cover fewer pixels per row (less compute sharing).\n");
}

/// Fig. 1: speed/quality Pareto across representation families.
pub fn fig1(ctx: &Ctx) {
    println!("== Fig. 1: Rendering speed vs quality across representations ==");
    let m = ctx.measure("bonsai");
    let gt = apps::pseudo_ground_truth(&m.scenario);
    let gpu = &ctx.sys.gpu;

    // 3DGS: quality from the PFS render, speed from the baseline model.
    let q_gs = apps::quality(&gt, &m.measured.pfs.image);
    let e_gs = system::evaluate(&ctx.sys, &m.measured.measurement, Design::GpuPfs);

    // Voxel NeRF: fit + ray march.
    let grid = gbu_baselines::VoxelGrid::from_scene(&m.scenario.scene, 96);
    let (img_vox, samples_vox) = grid.render(&m.scenario.camera, 128, Vec3::ZERO);
    let q_vox = apps::quality(&gt, &img_vox);
    // Extrapolate sample count to paper resolution.
    let px_scale = f64::from(m.ds.width) * f64::from(m.ds.height)
        / (f64::from(m.scenario.camera.width) * f64::from(m.scenario.camera.height));
    let fps_vox = gbu_baselines::cost::fps(
        (samples_vox as f64 * px_scale) as u64,
        gbu_baselines::cost::VOXEL_SAMPLE,
        gpu,
    );

    // MLP-NeRF family: a higher-capacity field stands in for network
    // expressiveness (quality proxy), billed at MLP per-sample cost.
    let fine = gbu_baselines::VoxelGrid::from_scene(&m.scenario.scene, 192);
    let (img_mlp, samples_mlp) = fine.render(&m.scenario.camera, 192, Vec3::ZERO);
    let q_mlp = apps::quality(&gt, &img_mlp);
    let fps_mlp = gbu_baselines::cost::fps(
        (samples_mlp as f64 * px_scale) as u64,
        gbu_baselines::cost::MLP_SAMPLE,
        gpu,
    );

    // Tensor-factorized family (supplementary row): tri-plane fields
    // underfit cluttered 360-degree scenes badly (axis smearing), which
    // its PSNR shows.
    let field = gbu_baselines::TriPlaneField::from_scene(&m.scenario.scene, 192);
    let (img_tp, samples_tp) = field.render(&m.scenario.camera, 128, Vec3::ZERO);
    let q_tp = apps::quality(&gt, &img_tp);
    let fps_tp = gbu_baselines::cost::fps(
        (samples_tp as f64 * px_scale) as u64,
        gbu_baselines::cost::TRIPLANE_SAMPLE,
        gpu,
    );

    let rows = vec![
        vec!["Voxel-based NeRF (dense grid)".to_string(), fmt_f(q_vox.psnr, 1), fmt_f(fps_vox, 2)],
        vec![
            "MLP-based NeRF (fine field, MLP decode cost)".to_string(),
            fmt_f(q_mlp.psnr, 1),
            fmt_f(fps_mlp, 3),
        ],
        vec![
            "3D Gaussians (3DGS, this pipeline)".to_string(),
            fmt_f(q_gs.psnr, 1),
            fmt_f(e_gs.fps, 1),
        ],
        vec![
            "(suppl.) tri-plane factorized field".to_string(),
            fmt_f(q_tp.psnr, 1),
            fmt_f(fps_tp, 2),
        ],
    ];
    println!("{}", table(&["Representation", "PSNR (vs pseudo GT)", "FPS (edge GPU)"], &rows));
    println!("Shape to match Fig. 1: 3D Gaussians sit top-right (best quality AND speed);");
    println!("voxel NeRFs are faster but lossier; MLP NeRFs approach 3DGS quality at ~0 FPS.\n");
}

/// Calibration diagnostic: one scene per kind, raw bench-scale stats.
pub fn calib(ctx: &Ctx) {
    println!("== Calibration: workload statistics per kind (bench scale) ==");
    for name in ["counter", "flame_steak", "male-3"] {
        let m = ctx.measure(name);
        let b = &m.measured.pfs.blend;
        let ir = &m.measured.irss.blend;
        let pre = &m.measured.pfs.preprocess;
        println!(
            "{:>12}: visible {:.0}% frag:g {:.0}:1 sig {:.1}% irss/pfs {:.2} rows/inst {:.1} \
inst/splat {:.2} util {:.3} hit {:.2}",
            name,
            100.0 * pre.output_splats as f64 / pre.input_gaussians as f64,
            b.fragments_per_gaussian(pre.output_splats),
            100.0 * b.significant_fraction(),
            ir.fragments_evaluated as f64 / b.fragments_evaluated as f64,
            ir.rows_considered as f64 / ir.instances.max(1) as f64,
            m.measured.pfs.binning.instances as f64 / pre.output_splats.max(1) as f64,
            m.measured.raw_workload.irss_lane_utilization,
            m.measured.measurement.cache_hit_rate,
        );
    }
}

/// Debug: per-design time components for one static scene.
pub fn debug(ctx: &Ctx) {
    println!("== Debug: system time components (counter, paper scale) ==");
    let m = ctx.measure("counter");
    let mm = &m.measured.measurement;
    let w = &mm.workload;
    println!(
        "workload: gauss {:.2e} splats {:.2e} inst {:.2e} frag_pfs {:.2e} frag_irss {:.2e}",
        w.gaussians, w.splats, w.instances, w.fragments_pfs, w.fragments_irss
    );
    println!(
        "gbu: tile_cycles {:.2e} pe_util {:.2} hit_rate {:.2}",
        mm.gbu_tile_cycles, mm.gbu_pe_utilization, mm.cache_hit_rate
    );
    for design in Design::ladder() {
        let e = system::evaluate(&ctx.sys, mm, design);
        println!(
            "{:<20} fps {:>6.1}  s1 {:>6.2}ms s2 {:>6.2}ms s3 {:>6.2}ms mem3 {:>7.1}MB E {:>6.3}J",
            design.label(),
            e.fps,
            e.step1 * 1e3,
            e.step2 * 1e3,
            e.step3 * 1e3,
            e.step3_dram_bytes / 1e6,
            e.energy_j
        );
    }
}

/// Best-of-`reps` wall milliseconds of `f` (one warm-up call first).
fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The one span of `trace` without a parent.
fn root_span(trace: &gbu_telemetry::Trace) -> &gbu_telemetry::Span {
    let mut roots = trace.spans.iter().filter(|s| s.parent.is_none());
    let root = roots.next().expect("a root span");
    assert!(roots.next().is_none(), "a job record has exactly one root span");
    root
}

/// The job record [`critical_path_ms`] models: `run` traced under a
/// fresh `Verbosity::High` global recorder inside a root span, keeping
/// the run with the shortest root span out of `reps.max(5)` — pool
/// stages are microseconds long, so one scheduler stall would otherwise
/// poison the record. `run` must use a 1-thread pool: it runs every job
/// inline, so each job span nests under the stage that issued it.
fn job_record(reps: usize, mut run: impl FnMut()) -> gbu_telemetry::Trace {
    use gbu_telemetry::{Labels, Recorder, Verbosity};
    let mut best: Option<gbu_telemetry::Trace> = None;
    for _ in 0..reps.max(5) {
        let recorder = Recorder::enabled(Verbosity::High);
        let previous = gbu_telemetry::set_global(recorder.clone());
        {
            let _root = recorder.wall_span("job_record", Labels::default());
            run();
        }
        gbu_telemetry::set_global(previous);
        let trace = recorder.snapshot();
        if best.as_ref().is_none_or(|b| root_span(&trace).duration() < root_span(b).duration()) {
            best = Some(trace);
        }
    }
    best.expect("at least one run")
}

/// Modeled wall milliseconds of a [`job_record`] run at `workers`
/// workers. Its jobs are the leaf spans below the root; a stage is the
/// set of jobs sharing a parent span and a name (one pool dispatch, a
/// barrier after it). The model is the serial residue (root span minus
/// its jobs) plus each stage's jobs list-scheduled onto `workers` — in
/// order, each to the first free worker, exactly the pool's stealing
/// discipline. At one worker it is the root span's duration.
fn critical_path_ms(trace: &gbu_telemetry::Trace, workers: usize) -> f64 {
    use std::collections::{BTreeMap, HashSet};
    let parents: HashSet<_> = trace.spans.iter().filter_map(|s| s.parent).collect();
    let mut stages: BTreeMap<_, Vec<u64>> = BTreeMap::new();
    for s in trace.spans.iter().filter(|s| !parents.contains(&s.id)) {
        if let Some(parent) = s.parent {
            stages.entry((parent, s.name)).or_default().push(s.duration());
        }
    }
    let jobs: u64 = stages.values().flatten().sum();
    let mut nanos =
        root_span(trace).duration().checked_sub(jobs).expect("jobs nest inside the root span");
    for jobs in stages.values() {
        let mut free = vec![0u64; workers.max(1)];
        for &n in jobs {
            let w = (0..free.len()).min_by_key(|&w| free[w]).expect("non-empty");
            free[w] += n;
        }
        nanos += free.into_iter().max().unwrap_or(0);
    }
    nanos as f64 / 1e6
}

/// Render-performance trajectory: host wall-clock of the Step-❶/❷/❸ hot
/// path, serial vs. parallel at 1/2/4/8 threads on small and large
/// synthetic scenes, emitting `BENCH_render.json` — the render-side
/// counterpart of `BENCH_serve.json`, so every future PR can be checked
/// for render-perf regressions.
///
/// Two numbers are reported per (stage, thread count):
///
/// - `wall_ms` — measured wall-clock on this host (best of the reps);
/// - `critical_path_ms` — the serial run's `GBU_TRACE=2` job spans (tile
///   rows for blending; batch, copy and radix-chunk stages for binning)
///   list-scheduled onto N workers exactly the way the pool's
///   work-stealing claims jobs, plus the serial residue around them
///   ([`critical_path_ms`]). On an unloaded N-core host the two
///   agree; on a single-core CI container `wall_ms` cannot drop below
///   serial (there is one core) while `critical_path_ms` still tracks
///   the parallel structure, which is what the regression trajectory
///   needs to be deterministic.
///
/// The `binning` block additionally gates the parallel Step ❷
/// byte-identical to the serial `bin_splats` and requires its 4-thread
/// critical-path speedup to beat 1x (1.5x on the large scene at bench
/// scale) — the stage this trajectory exists to keep parallel.
///
/// The experiment validates its own output (finite, non-zero times and
/// throughputs) and exits non-zero otherwise — CI runs it as a smoke
/// test in the `test` profile.
pub fn render(ctx: &Ctx) {
    use gbu_par::ThreadPool;
    use gbu_render::{irss, pfs, BinScratch, BlendScratch, FrameBuffer, RenderConfig};
    use gbu_scene::synth::SceneBuilder;
    use gbu_scene::{Camera, ScaleProfile};

    const THREADS: [usize; 4] = [1, 2, 4, 8];

    // Scene scale and repetitions by profile: `test` is the CI smoke
    // configuration, `bench`/`full` the tracked trajectory.
    let (small, large, reps) = match ctx.profile {
        ScaleProfile::Test => ((600usize, 160u32, 96u32), (2_500usize, 320u32, 192u32), 1usize),
        _ => ((1_500, 256, 192), (12_000, 896, 512), 3),
    };

    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("== Render hot-path wall-clock: serial vs. parallel ==");
    println!("   host cores: {host_cores}; threads swept: {THREADS:?}; reps: {reps}");
    if host_cores < 4 {
        println!(
            "   NOTE: fewer host cores than swept threads — wall_ms cannot beat serial\n\
             \x20        here; the critical-path column carries the parallel trajectory."
        );
    }

    let pools: Vec<(usize, ThreadPool)> =
        THREADS.iter().map(|&t| (t, ThreadPool::new(t))).collect();

    fn per_thread_json(pairs: &[(usize, f64)]) -> Json {
        json::object(|o| {
            for (t, ms) in pairs {
                o.field(&t.to_string(), Fixed(*ms, 4));
            }
        })
    }

    let gate = Gate::new("render bench");

    let mut scene_jsons = Vec::new();
    let mut rows = Vec::new();
    for (scene_name, (gaussians, width, height)) in [("small", small), ("large", large)] {
        let scene = SceneBuilder::new(97)
            .ellipsoid_cloud(
                gbu_math::Vec3::ZERO,
                gbu_math::Vec3::new(0.9, 0.7, 0.9),
                gaussians * 3 / 4,
                gbu_math::Vec3::new(0.7, 0.5, 0.3),
                0.25,
            )
            .sphere_shell(
                gbu_math::Vec3::ZERO,
                1.2,
                gaussians / 4,
                gbu_math::Vec3::new(0.3, 0.4, 0.6),
            )
            .build();
        let camera = Camera::orbit(width, height, 0.9, gbu_math::Vec3::ZERO, 3.4, 0.4, 0.2);
        let cfg = RenderConfig::default();

        let serial = &pools[0].1;
        let (splats, bounds, _) =
            gbu_render::preprocess::project_scene_bounded(serial, &scene, &camera);
        let (bins, bin_stats) = gbu_render::binning::bin_splats(&splats, &camera, cfg.tile_size);
        let isplats = irss::precompute_pooled(serial, &splats);

        // Step ❶ stages, per thread count.
        let mut pre_ms = Vec::new();
        let mut xform_ms = Vec::new();
        for (t, pool) in &pools {
            let ms = best_ms(reps, || {
                let _ = gbu_render::preprocess::project_scene_bounded(pool, &scene, &camera);
            });
            gate.positive(&format!("{scene_name}/preprocess@{t}"), ms);
            pre_ms.push((*t, ms));
            let ms = best_ms(reps, || {
                let _ = irss::precompute_pooled(pool, &splats);
            });
            gate.positive(&format!("{scene_name}/precompute@{t}"), ms);
            xform_ms.push((*t, ms));
        }

        // Step ❷: the historically serial stage, now parallel. Serial
        // reference is `bin_splats` (the exact pre-parallel path);
        // per-thread walls run `bin_into` on warm scratch with Step ❶'s
        // carried bounds; the critical path is modeled from the 1-thread
        // job record. Every parallel run is gated byte-identical to the
        // serial reference.
        let bin_serial_ms = best_ms(reps, || {
            let _ = gbu_render::binning::bin_splats(&splats, &camera, cfg.tile_size);
        });
        gate.positive(&format!("{scene_name}/binning/serial"), bin_serial_ms);
        let mut bin_scratch = BinScratch::new();
        let mut bin_out = bins.clone();
        let mut bin = |pool: &ThreadPool| {
            let par_stats = gbu_render::binning::bin_into(
                pool,
                &splats,
                Some(&bounds),
                &camera,
                cfg.tile_size,
                &mut bin_scratch,
                &mut bin_out,
            );
            let t = pool.threads();
            gate.check(
                bin_out.offsets == bins.offsets && bin_out.entries == bins.entries,
                format_args!("{scene_name}/binning@{t}: parallel bins diverge from serial"),
            );
            gate.check(
                par_stats == bin_stats,
                format_args!("{scene_name}/binning@{t}: stats diverge from serial"),
            );
        };
        let bin_record = job_record(reps, || bin(serial));
        let mut bin_wall = Vec::new();
        let mut bin_cp = Vec::new();
        let mut bin_4t = [0.0f64; 2]; // [wall, critical path] at 4 threads
        for (t, pool) in &pools {
            let ms = best_ms(reps, || bin(pool));
            gate.positive(&format!("{scene_name}/binning@{t}"), ms);
            let cp = critical_path_ms(&bin_record, *t);
            gate.positive(&format!("{scene_name}/binning/critical_path@{t}"), cp);
            bin_wall.push((*t, ms));
            bin_cp.push((*t, cp));
            if *t == 4 {
                bin_4t = [ms, cp];
            }
        }
        let bin_speedup_wall = bin_serial_ms / bin_4t[0];
        let bin_speedup_cp = bin_serial_ms / bin_4t[1];
        // The gate: parallel binning must beat the old serial stage on
        // the critical path at 4 threads — decisively (>1.5x) on the
        // large scene at the tracked trajectory scale. The test-profile
        // small scene bins in tens of microseconds, timer-noise order,
        // so only finiteness is pinned there.
        let cp_floor = match (scene_name, ctx.profile == ScaleProfile::Test) {
            ("large", false) => 1.5,
            (_, false) | ("large", true) => 1.0,
            _ => 0.0,
        };
        gate.check(
            bin_speedup_cp > cp_floor,
            format_args!(
                "{scene_name}/binning: critical-path speedup at 4 threads \
                 {bin_speedup_cp:.3}x <= {cp_floor}x"
            ),
        );
        let bin_mpairs = bin_stats.instances as f64 / (bin_serial_ms / 1e3) / 1e6;
        gate.positive(&format!("{scene_name}/binning/pairs"), bin_stats.instances as f64);
        gate.positive(&format!("{scene_name}/binning/mpairs_per_s"), bin_mpairs);
        rows.push(vec![
            scene_name.to_string(),
            "binning".to_string(),
            fmt_f(bin_serial_ms, 2),
            fmt_f(bin_4t[0], 2),
            fmt_f(bin_4t[1], 2),
            fmt_x(bin_speedup_cp),
            fmt_f(bin_mpairs, 1),
        ]);
        let binning_json = json::object(|o| {
            o.field("serial_ms", Fixed(bin_serial_ms, 4));
            o.field("wall_ms", per_thread_json(&bin_wall));
            o.field("critical_path_ms", per_thread_json(&bin_cp));
            o.field("pairs", bin_stats.instances).field("sort_passes", bin_stats.sort_passes);
            o.field("mpairs_per_s_serial", Fixed(bin_mpairs, 2)).object("speedup_4t", |o| {
                o.field("wall", Fixed(bin_speedup_wall, 3));
                o.field("critical_path", Fixed(bin_speedup_cp, 3));
            });
        });

        // Step ❸, both dataflows, through the allocation-free reuse path.
        let mut image = FrameBuffer::new(camera.width, camera.height, cfg.background);
        let mut stats = gbu_render::stats::BlendStats::default();
        let mut scratch = BlendScratch::new();
        let mut dataflow_jsons = Vec::new();
        let mut serial_sums = [0.0f64; 2];
        let mut four_thread = [[0.0f64; 2]; 2]; // [dataflow][wall|model] at 4 threads
        for (di, dataflow) in ["pfs", "irss"].into_iter().enumerate() {
            let mut blend = |pool: &ThreadPool| match dataflow {
                "pfs" => pfs::blend_into(
                    pool,
                    &splats,
                    &bins,
                    &camera,
                    &cfg,
                    &mut scratch,
                    &mut image,
                    &mut stats,
                ),
                _ => irss::blend_precomputed_into(
                    pool,
                    &splats,
                    &isplats,
                    &bins,
                    &camera,
                    &cfg,
                    &mut scratch,
                    &mut image,
                    &mut stats,
                ),
            };
            let record = job_record(reps, || blend(serial));
            let mut wall = Vec::new();
            let mut model = Vec::new();
            for (t, pool) in &pools {
                let ms = best_ms(reps, || blend(pool));
                gate.positive(&format!("{scene_name}/{dataflow}@{t}"), ms);
                if *t == 1 {
                    serial_sums[di] = ms;
                }
                let cp = critical_path_ms(&record, *t);
                gate.positive(&format!("{scene_name}/{dataflow}/critical_path@{t}"), cp);
                wall.push((*t, ms));
                model.push((*t, cp));
                if *t == 4 {
                    four_thread[di] = [ms, cp];
                }
            }
            let throughput = stats.fragments_evaluated as f64 / (serial_sums[di] / 1e3) / 1e6;
            gate.positive(&format!("{scene_name}/{dataflow}/throughput"), throughput);
            let fragments = stats.fragments_evaluated;
            gate.positive(&format!("{scene_name}/{dataflow}/fragments"), fragments as f64);
            rows.push(vec![
                scene_name.to_string(),
                dataflow.to_string(),
                fmt_f(serial_sums[di], 2),
                fmt_f(four_thread[di][0], 2),
                fmt_f(four_thread[di][1], 2),
                fmt_x(serial_sums[di] / four_thread[di][1]),
                fmt_f(throughput, 1),
            ]);
            dataflow_jsons.push(json::object(|o| {
                o.field("serial_ms", Fixed(serial_sums[di], 4));
                o.field("wall_ms", per_thread_json(&wall));
                o.field("critical_path_ms", per_thread_json(&model));
                o.field("fragments", fragments).field("mfrag_per_s_serial", Fixed(throughput, 2));
            }));
        }

        let blend_serial = serial_sums[0] + serial_sums[1];
        let speedup_wall = blend_serial / (four_thread[0][0] + four_thread[1][0]);
        let speedup_cp = blend_serial / (four_thread[0][1] + four_thread[1][1]);
        gate.positive(&format!("{scene_name}/blend_speedup_4t"), speedup_cp);
        println!(
            "   {scene_name}: PFS+IRSS blend speedup at 4 threads: {:.2}x wall, {:.2}x critical-path",
            speedup_wall, speedup_cp
        );

        scene_jsons.push(json::object(|o| {
            o.field("name", scene_name).field("gaussians", scene.len());
            o.field("splats", splats.len()).field("width", width).field("height", height);
            o.field("occupied_tiles", bin_stats.occupied_tiles);
            o.field("preprocess_wall_ms", per_thread_json(&pre_ms));
            o.field("irss_precompute_wall_ms", per_thread_json(&xform_ms));
            o.field("binning", &binning_json);
            o.field("pfs", &dataflow_jsons[0]).field("irss", &dataflow_jsons[1]);
            o.object("blend_speedup_4t", |o| {
                o.field("wall", Fixed(speedup_wall, 3));
                o.field("critical_path", Fixed(speedup_cp, 3));
            });
        }));
    }

    println!(
        "{}",
        table(
            &[
                "scene",
                "dataflow",
                "serial ms",
                "4T wall ms",
                "4T crit-path ms",
                "4T speedup (cp)",
                "Mfrag|pair/s (serial)"
            ],
            &rows
        )
    );

    let doc = json::object(|o| {
        o.field("experiment", "render_bench").field("profile", format!("{:?}", ctx.profile));
        o.field("run_info", run_info()).field("host_cores", host_cores);
        o.field("threads", &THREADS[..]).field("reps", reps).field("scenes", &scene_jsons[..]);
    });
    gate.finish(ctx.profile, "BENCH_render", doc, None);
}

/// Serving sweep: session count × scheduler variant × pool size on the
/// heterogeneous-QoS workload, emitting `BENCH_serve.json` so later PRs
/// can track the serving-performance trajectory.
///
/// Four variants run per coordinate: the three scheduling policies with
/// default admission, plus a deadline-aware EDF — `reject_unmeetable`
/// admission (frames whose deadline is provably unmeetable are refused
/// up front) combined with the `drop_unmeetable` queue pass (queued
/// frames whose deadline became hopeless are cancelled instead of
/// burning a device to miss).
///
/// The GBU clock is calibrated once — 16 sessions saturating a 2-device
/// pool — and held fixed across the sweep, so growing the session count
/// genuinely raises load instead of being normalised away.
pub fn serve(ctx: &Ctx) {
    use gbu_hw::GbuConfig;
    use gbu_serve::{calibrated_clock_ghz, run_sessions, workload, Policy, ServeConfig};

    const SESSIONS_SWEEP: [usize; 3] = [8, 16, 32];
    const DEVICES_SWEEP: [usize; 3] = [1, 2, 4];
    const FRAMES: u32 = 8;

    println!("== Serving sweep: sessions x variant x pool size ==");
    let max_sessions = *SESSIONS_SWEEP.iter().max().expect("non-empty sweep");
    let all =
        workload::prepare_all(workload::synthetic_mix(max_sessions, FRAMES), &GbuConfig::paper());
    // Reference point: 16 sessions fully load 2 devices.
    let clock_ghz = calibrated_clock_ghz(&all[..16], 2, 1.0);
    println!("calibrated GBU clock: {:.4} GHz (16 sessions = 2 saturated devices)\n", clock_ghz);

    let variants: [(&str, Policy, bool); 4] = [
        ("fcfs", Policy::Fcfs, false),
        ("round_robin", Policy::RoundRobin, false),
        ("edf", Policy::Edf, false),
        ("edf+deadline_aware", Policy::Edf, true),
    ];
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for &n in &SESSIONS_SWEEP {
        for &devices in &DEVICES_SWEEP {
            for &(variant, policy, deadline_aware) in &variants {
                let mut cfg = ServeConfig {
                    devices,
                    policy,
                    drop_unmeetable: deadline_aware,
                    ..ServeConfig::default()
                };
                cfg.admission.reject_unmeetable = deadline_aware;
                cfg.gbu.clock_ghz = clock_ghz;
                let r = run_sessions(cfg, &all[..n]);
                rows.push(vec![
                    n.to_string(),
                    devices.to_string(),
                    variant.to_string(),
                    fmt_f(r.throughput_fps, 0),
                    fmt_f(r.p50_latency_ms, 2),
                    fmt_f(r.p95_latency_ms, 2),
                    fmt_f(r.p99_latency_ms, 2),
                    format!("{}/{}", r.rejected, r.dropped),
                    fmt_pct(r.deadline_miss_rate),
                    fmt_pct(r.device_utilization),
                ]);
                // Wrap the report with its sweep coordinate instead of
                // splicing into its serialised form.
                runs.push(json::object(|o| {
                    o.field("session_count", n).field("variant", variant);
                    o.field("report", Json(r.to_json()));
                }));
            }
        }
    }
    println!(
        "{}",
        table(
            &[
                "sessions", "GBUs", "variant", "fps", "p50 ms", "p95 ms", "p99 ms", "rej/drop",
                "miss", "util"
            ],
            &rows
        )
    );

    let doc = json::object(|o| {
        o.field("experiment", "serve_sweep").field("run_info", run_info());
        o.field("frames_per_session", FRAMES).field("clock_ghz", Fixed(clock_ghz, 6));
        o.object("reference", |o| {
            o.field("sessions", 16u32).field("devices", 2u32);
            o.field("target_utilization", Fixed(1.0, 1));
        });
        o.field("runs", &runs[..]);
    });
    Gate::new("serve sweep").finish(ctx.profile, "BENCH_serve", doc, Some(rows.len()));
}

/// Multi-pool scene-sharding sweep: shard counts {1, 2, 4} × every
/// [`gbu_render::shard::ShardStrategy`] on the large synthetic scene,
/// each run one sharded frame on a fresh [`gbu_serve::ClusterBackend`]
/// of single-device lanes, emitting `BENCH_shard.json`.
///
/// Reported per coordinate:
///
/// - `completion_cycles` — wall cycles until the *last* shard lands (the
///   frame's critical path through the cluster);
/// - `critical_path_speedup` — unsharded single-device occupancy over
///   the sharded completion;
/// - `imbalance` — measured max-shard-service over mean (1.0 = balanced),
///   next to the plan's predicted figure;
/// - `dram_overhead` — summed shard traffic over the unsharded frame's
///   (boundary Gaussians are fetched by every shard that touches them).
///
/// A `host_frontend` block reports the host-side Step-❷ cost the
/// sharding host pays once per frame before fan-out (wall at 1 and 4
/// threads, modeled 4-thread critical path), now that binning runs on
/// the pool.
///
/// The experiment validates itself: every merged image must be
/// bit-identical to the unsharded device render and every figure finite,
/// else it exits non-zero — CI runs it in the `test` profile as the
/// sharding smoke gate.
pub fn shard(ctx: &Ctx) {
    use gbu_core::Gbu;
    use gbu_gpu::GpuConfig;
    use gbu_hw::GbuConfig;
    use gbu_render::pipeline;
    use gbu_render::shard::{ShardPlan, ShardStrategy};
    use gbu_scene::synth::SceneBuilder;
    use gbu_scene::{Camera, ScaleProfile};
    use gbu_serve::{
        ClusterBackend, ExecCompletion, ExecMode, FrameId, FrameTicket, PreparedView, SessionId,
    };

    const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

    let (gaussians, width, height) = match ctx.profile {
        ScaleProfile::Test => (2_500usize, 320u32, 192u32),
        _ => (12_000, 896, 512),
    };
    println!("== Multi-pool scene sharding: shard count x strategy ==");
    println!("   large synthetic scene: {gaussians} Gaussians at {width}x{height}");

    let scene = SceneBuilder::new(97)
        .ellipsoid_cloud(
            gbu_math::Vec3::ZERO,
            gbu_math::Vec3::new(0.9, 0.7, 0.9),
            gaussians * 3 / 4,
            gbu_math::Vec3::new(0.7, 0.5, 0.3),
            0.25,
        )
        .sphere_shell(gbu_math::Vec3::ZERO, 1.2, gaussians / 4, gbu_math::Vec3::new(0.3, 0.4, 0.6))
        .build();
    let camera = Camera::orbit(width, height, 0.9, gbu_math::Vec3::ZERO, 3.4, 0.4, 0.2);
    let projected = pipeline::project(&scene, &camera);
    let binned = pipeline::bin(&projected, 16);
    let gate = Gate::new("shard sweep");

    // Host frontend: the sharding host runs Step ❷ once per frame before
    // fanning shards out, so its cost now rides the parallel binning
    // path. Wall at 1 and 4 threads, plus the 4-thread critical path
    // modeled from the 1-thread job record; the 4-thread bins are gated
    // byte-identical to the frame's own bins.
    let mut bin_scratch = gbu_render::BinScratch::new();
    let mut bin_out = binned.bins.clone();
    let mut bin = |pool: &gbu_par::ThreadPool| {
        gbu_render::binning::bin_into(
            pool,
            &projected.splats,
            Some(&projected.bounds),
            &camera,
            16,
            &mut bin_scratch,
            &mut bin_out,
        );
    };
    let (serial, four) = (gbu_par::ThreadPool::new(1), gbu_par::ThreadPool::new(4));
    let host_bin_cp4 = critical_path_ms(&job_record(3, || bin(&serial)), 4);
    // Wall ms at 1 and 4 threads.
    let host_bin = [best_ms(3, || bin(&serial)), best_ms(3, || bin(&four))];
    gate.check(
        bin_out.offsets == binned.bins.offsets && bin_out.entries == binned.bins.entries,
        "host-frontend parallel bins diverge from the frame's bins",
    );
    for (label, v) in
        [("bin_wall_1t", host_bin[0]), ("bin_wall_4t", host_bin[1]), ("bin_cp_4t", host_bin_cp4)]
    {
        gate.positive(&format!("host_frontend/{label}"), v);
    }
    println!(
        "   host frontend (Step \u{2777}): {:.2} ms serial-pool, {:.2} ms at 4 threads \
         ({:.2} ms critical path, {:.2}x)",
        host_bin[0],
        host_bin[1],
        host_bin_cp4,
        host_bin[0] / host_bin_cp4
    );

    // Unsharded baseline: one frame on one uncontended device.
    let gbu_cfg = GbuConfig::paper();
    let view = PreparedView::new(
        projected.splats.clone(),
        binned.bins.clone(),
        camera.clone(),
        gbu_serve::ViewPrepStats {
            gaussians: scene.gaussians.len() as u64,
            instances: binned.stats.instances,
            sort_passes: binned.stats.sort_passes,
        },
        &gbu_cfg,
    );
    let base_cycles = view.occupancy;
    let mut gbu = Gbu::new(gbu_cfg.clone());
    gbu.render_image(&view.splats, &view.bins, &camera, gbu_math::Vec3::ZERO)
        .expect("baseline device is idle");
    let base = gbu.wait().expect("frame in flight");
    println!(
        "   unsharded device occupancy: {:.2} Mcycles, {:.2} MB feature traffic",
        base_cycles as f64 / 1e6,
        base.run.dram_bytes as f64 / 1e6
    );
    let ticket = FrameTicket {
        id: FrameId::from_index(0),
        session: SessionId::from_index(0),
        frame: 0,
        arrival: 0,
        deadline: u64::MAX,
    };

    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for strategy in ShardStrategy::all() {
        for &shards in &SHARD_COUNTS {
            let mut cluster = ClusterBackend::new(shards, 1, &gbu_cfg, &GpuConfig::orin_nx(), 0.5);
            cluster.submit(&view, ticket, ExecMode::Sharded { shards, strategy }, 0);
            // The plan the backend builds for a session's first frame.
            let planned_imbalance =
                ShardPlan::new(strategy, &view.bins, shards).planned_imbalance();
            let mut done = Vec::new();
            while let Some(dt) = cluster.next_completion_dt() {
                done.extend(cluster.advance(dt).into_iter().filter_map(|c| match c {
                    ExecCompletion::Frame(frame) => Some(frame),
                    ExecCompletion::Shard { .. } => None,
                }));
            }
            assert_eq!(done.len(), 1, "one frame in, one frame out");
            let c = done.remove(0);
            let imbalance = c.imbalance().expect("sharded frame");

            let bit_identical = c.image.pixels() == base.image.pixels();
            let at = format!("{}/{shards}", strategy.label());
            gate.check(bit_identical, format_args!("{at}: merged image diverged"));
            let speedup = base_cycles as f64 / c.completed_at.max(1) as f64;
            let dram_overhead = c.dram_bytes as f64 / base.run.dram_bytes.max(1) as f64;
            for (label, v) in [
                ("speedup", speedup),
                ("imbalance", imbalance),
                ("planned_imbalance", planned_imbalance),
                ("dram_overhead", dram_overhead),
            ] {
                gate.positive(&format!("{at}: {label}"), v);
            }

            rows.push(vec![
                strategy.label().to_string(),
                shards.to_string(),
                fmt_f(c.completed_at as f64 / 1e6, 2),
                fmt_x(speedup),
                fmt_f(imbalance, 3),
                fmt_f(planned_imbalance, 3),
                fmt_x(dram_overhead),
            ]);
            runs.push(json::object(|o| {
                o.field("strategy", strategy.label()).field("shards", shards);
                o.field("completion_cycles", c.completed_at);
                o.field("critical_path_speedup", Fixed(speedup, 4));
                o.field("imbalance", Fixed(imbalance, 4));
                o.field("planned_imbalance", Fixed(planned_imbalance, 4));
                o.field("shard_cycles", &c.shard_cycles[..]).field("dram_bytes", c.dram_bytes);
                o.field("dram_overhead", Fixed(dram_overhead, 4));
                o.field("bit_identical", bit_identical);
            }));
        }
    }

    println!(
        "{}",
        table(
            &[
                "strategy",
                "shards",
                "completion Mcyc",
                "speedup",
                "imbalance",
                "planned",
                "DRAM ovh"
            ],
            &rows
        )
    );

    let doc = json::object(|o| {
        o.field("experiment", "shard_sweep").field("profile", format!("{:?}", ctx.profile));
        o.field("run_info", run_info()).object("scene", |o| {
            o.field("gaussians", scene.len()).field("splats", projected.splats.len());
            o.field("width", width).field("height", height);
            o.field("tile_rows", binned.bins.tiles_y);
            o.field("occupied_tiles", binned.stats.occupied_tiles);
        });
        o.object("unsharded", |o| {
            o.field("occupancy_cycles", base_cycles).field("dram_bytes", base.run.dram_bytes);
        });
        o.object("host_frontend", |o| {
            o.field("bin_wall_ms_1t", Fixed(host_bin[0], 4));
            o.field("bin_wall_ms_4t", Fixed(host_bin[1], 4));
            o.field("bin_critical_path_ms_4t", Fixed(host_bin_cp4, 4));
        });
        o.field("runs", &runs[..]);
    });
    gate.finish(ctx.profile, "BENCH_shard", doc, Some(rows.len()));
}

/// Cluster-serving sweep: one overloaded sharded session on a 4-lane
/// cluster engine, swept over `ExecMode` shard width × shard strategy ×
/// admission, emitting `BENCH_cluster.json`.
///
/// The scene is calibrated so an *unsharded* frame costs ~1.7 frame
/// periods on one lane — hopeless at 1 shard, comfortable at 4 — so the
/// deadline-miss rate must fall strictly as the shard width grows (the
/// run fails itself otherwise). Reported per coordinate:
///
/// - `deadline_miss_rate` / `p99_latency_ms` — the serving outcome;
/// - `mean_imbalance` — measured per-frame shard imbalance from the
///   report's sharding block ([`gbu_serve::ShardingReport`]), comparing
///   `measured` feedback replanning against pair-count LPT;
/// - the full `ServeReport` JSON (per-frame imbalance list included).
///
/// With `admission: lane_aware`, deadline-aware admission uses the
/// per-lane backlog estimate: rejections must only replace misses
/// (completed-on-time never decreases materially), pinned by the
/// self-validation.
pub fn cluster(ctx: &Ctx) {
    use gbu_hw::GbuConfig;
    use gbu_render::shard::ShardStrategy;
    use gbu_scene::ScaleProfile;
    use gbu_serve::{
        calibrated_clock_ghz, BackendKind, ExecMode, Policy, QosTarget, ServeConfig, ServeEngine,
        Session, SessionContent, SessionSpec,
    };

    const LANES: usize = 4;
    const SHARD_SWEEP: [usize; 3] = [1, 2, 4];
    const FRAMES: u32 = 18;
    /// Offered load of the *light* session's unsharded frame vs one
    /// lane's capacity; the heavy session costs ~1.7x more, so at 2
    /// shards the light client meets its deadline while the heavy one
    /// still misses — the miss rate falls strictly along the sweep
    /// instead of cliffing from all-miss to none.
    const OVERLOAD: f64 = 1.25;

    let (light_g, heavy_g, width, height) = match ctx.profile {
        ScaleProfile::Test => (500usize, 1_200usize, 256u32, 192u32),
        _ => (2_000, 4_800, 320, 240),
    };
    println!("== Cluster serving sweep: shard width x strategy x admission ==");
    println!(
        "   {LANES}-lane cluster, two sharded sessions ({light_g} + {heavy_g} Gaussians) \
         at {width}x{height},"
    );
    println!("   light unsharded frame ~{OVERLOAD}x its 72 Hz period on one lane");

    let spec = |name: &str, gaussians: usize, phase: f64, shards: usize, strategy| SessionSpec {
        name: name.into(),
        content: SessionContent::SyntheticHd { seed: 41, gaussians, width, height },
        qos: QosTarget::VR_72,
        frames: FRAMES,
        phase,
        exec: ExecMode::Sharded { shards, strategy },
    };
    // Prepare once (Steps 1/2 + probe) and retag the exec mode per run —
    // preparation is mode-independent.
    let light = Session::prepare(
        spec("hmd-light", light_g, 0.0, 1, ShardStrategy::CostBalanced),
        &GbuConfig::paper(),
    );
    let heavy = Session::prepare(
        spec("hmd-heavy", heavy_g, 0.5, 1, ShardStrategy::CostBalanced),
        &GbuConfig::paper(),
    );
    let clock_ghz = calibrated_clock_ghz(std::slice::from_ref(&light), 1, OVERLOAD);
    println!(
        "   calibrated GBU clock: {clock_ghz:.4} GHz; heavy/light frame-cost ratio {:.2}\n",
        heavy.mean_frame_cycles() / light.mean_frame_cycles()
    );

    let strategies = [ShardStrategy::CostBalanced, ShardStrategy::Measured];
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    let gate = Gate::new("cluster sweep");
    // miss-rate trajectory of (cost_balanced, admission off) over shards.
    let mut gate_misses: Vec<f64> = Vec::new();
    let mut imbalance_at_4 = [f64::NAN; 2];
    let mut off_on_time = 0usize;
    for (si, &strategy) in strategies.iter().enumerate() {
        for &shards in &SHARD_SWEEP {
            for lane_aware in [false, true] {
                let mut cfg = ServeConfig {
                    backend: BackendKind::Cluster { lanes: LANES, devices_per_lane: 1 },
                    policy: Policy::Edf,
                    ..ServeConfig::default()
                };
                cfg.admission.reject_unmeetable = lane_aware;
                cfg.gbu.clock_ghz = clock_ghz;
                let mut engine = ServeEngine::new(cfg);
                for (base, name, g, phase) in
                    [(&light, "hmd-light", light_g, 0.0), (&heavy, "hmd-heavy", heavy_g, 0.5)]
                {
                    let mut session = base.clone();
                    session.spec = spec(name, g, phase, shards, strategy);
                    engine.attach_session(session);
                }
                engine.drain();
                engine.finish();
                let r = engine.report();

                let mean_imbalance = r.sharding.as_ref().map_or(f64::NAN, |s| s.mean_imbalance);
                let admission = if lane_aware { "lane_aware" } else { "off" };
                let on_time = r.completed - r.missed;
                let at = format!("{}/{shards}", strategy.label());
                if !lane_aware {
                    for (label, v) in
                        [("miss_rate", r.deadline_miss_rate), ("imbalance", mean_imbalance)]
                    {
                        let what = format_args!("{at}/{admission}: {label} = {v}");
                        gate.check(v.is_finite() && v >= 0.0, what);
                    }
                    // The miss-rate gate rides the measurement-driven
                    // strategy: pair-count LPT's higher imbalance can
                    // leave the 4-shard cluster overloaded (that contrast
                    // is the point of the sweep, and visible in the JSON).
                    if strategy == ShardStrategy::Measured {
                        gate_misses.push(r.deadline_miss_rate);
                    }
                    if shards == 4 {
                        imbalance_at_4[si] = mean_imbalance;
                    }
                    off_on_time = on_time;
                } else {
                    // Lane-aware admission only converts guaranteed
                    // misses into up-front rejections: every rejection
                    // is provably unmeetable, so the on-time completion
                    // count must not fall vs the paired admission-off
                    // run.
                    gate.check(
                        on_time >= off_on_time,
                        format_args!(
                            "{at}: lane-aware admission lost on-time frames \
                             ({on_time} vs {off_on_time})"
                        ),
                    );
                }
                rows.push(vec![
                    strategy.label().to_string(),
                    shards.to_string(),
                    admission.to_string(),
                    r.completed.to_string(),
                    r.rejected.to_string(),
                    fmt_pct(r.deadline_miss_rate),
                    fmt_f(r.p99_latency_ms, 2),
                    fmt_f(mean_imbalance, 3),
                    fmt_pct(r.device_utilization),
                ]);
                runs.push(json::object(|o| {
                    o.field("strategy", strategy.label()).field("shards", shards);
                    o.field("admission", admission).field("report", Json(r.to_json()));
                }));
            }
        }
    }
    println!(
        "{}",
        table(
            &["strategy", "shards", "admission", "done", "rej", "miss", "p99 ms", "imbal", "util"],
            &rows
        )
    );

    // Self-validation 1: sharding must strictly cut the miss rate.
    for w in gate_misses.windows(2) {
        gate.check(
            w[1] < w[0],
            format_args!("miss rate must fall strictly with shard width, got {gate_misses:?}"),
        );
    }
    // Self-validation 2: measured feedback must not lose to pair-count
    // LPT on measured imbalance (it replans from real service cycles).
    let [bal, measured] = imbalance_at_4;
    println!(
        "4-shard imbalance: cost_balanced {:.3} vs measured {:.3} ({:+.1}%)",
        bal,
        measured,
        (measured / bal - 1.0) * 100.0
    );
    gate.check(
        measured <= bal * 1.02,
        format_args!("measured replanning regressed imbalance: {measured} vs {bal}"),
    );

    let doc = json::object(|o| {
        o.field("experiment", "cluster_sweep").field("profile", format!("{:?}", ctx.profile));
        o.field("run_info", run_info()).field("lanes", LANES).field("frames", FRAMES);
        o.field("overload", OVERLOAD).field("clock_ghz", Fixed(clock_ghz, 6));
        o.object("scene", |o| {
            o.field("light_gaussians", light_g).field("heavy_gaussians", heavy_g);
            o.field("width", width).field("height", height);
        });
        o.field("runs", &runs[..]);
    });
    gate.finish(ctx.profile, "BENCH_cluster", doc, Some(rows.len()));
}

/// Per-stage / per-lane trace profile: runs the staged render pipeline
/// under a wall-clock recorder and a mixed sharded/unsharded cluster
/// serving run under a cycle-domain recorder, folds both traces with
/// [`gbu_telemetry::TraceSummary`], and emits `BENCH_trace.json`.
///
/// Self-validating (the run fails itself otherwise):
///
/// 1. both traces are well-nested span trees
///    ([`gbu_telemetry::validate`]);
/// 2. every completed frame's span duration reconciles with the
///    engine's `Completed` event latency *exactly* in the cycle domain,
///    and its `queue_wait` + `service` children partition it;
/// 3. on the render side, stage wall times (`project` + `bin` +
///    `blend`) sum to within the enclosing `render` span.
pub fn trace(ctx: &Ctx) {
    use gbu_render::{pipeline, Dataflow, RenderConfig};
    use gbu_scene::ScaleProfile;
    use gbu_serve::{
        calibrated_clock_ghz, BackendKind, ExecMode, Policy, ServeConfig, ServeEngine, ServeEvent,
        SessionContent, SessionSpec,
    };
    use gbu_serve::{QosTarget, Session};
    use gbu_telemetry::{validate, Recorder, TraceSummary, Verbosity};

    println!("== Trace profile: staged render + cluster serving telemetry ==");
    let gate = Gate::new("trace profile");

    // -- Part 1: wall-clock trace of the staged render pipeline. --------
    let (gaussians, width, height) = match ctx.profile {
        ScaleProfile::Test => (800usize, 256u32, 192u32),
        _ => (8_000, 640, 480),
    };
    let scene = gbu_scene::synth::SceneBuilder::new(41)
        .ellipsoid_cloud(Vec3::ZERO, Vec3::splat(1.0), gaussians, Vec3::new(0.7, 0.4, 0.3), 0.1)
        .build();
    let camera = gbu_scene::Camera::orbit(width, height, 1.0, Vec3::ZERO, 3.0, 0.4, 0.2);
    let previous = gbu_telemetry::set_global(Recorder::enabled(Verbosity::Normal));
    let _ = pipeline::render(&scene, &camera, Dataflow::Irss, &RenderConfig::default());
    let render_trace = gbu_telemetry::global().snapshot();
    gbu_telemetry::set_global(previous);

    if let Err(e) = validate(&render_trace) {
        gate.check(false, format_args!("render trace: {e}"));
    }
    let render_summary = TraceSummary::from_trace(&render_trace);
    let stage_cycles =
        |name: &str| render_summary.stage(name, gbu_telemetry::Domain::Wall).map_or(0, |s| s.total);
    let (total, staged) = (
        stage_cycles("render"),
        stage_cycles("project") + stage_cycles("bin") + stage_cycles("blend"),
    );
    gate.check(
        staged <= total,
        format_args!("stage wall times ({staged} ns) exceed the render span ({total} ns)"),
    );
    let mut rows = Vec::new();
    for name in ["render", "project", "bin", "blend"] {
        if let Some(s) = render_summary.stage(name, gbu_telemetry::Domain::Wall) {
            rows.push(vec![
                name.to_string(),
                s.count.to_string(),
                fmt_f(s.total as f64 / 1e6, 3),
                fmt_pct(if total > 0 { s.total as f64 / total as f64 } else { 0.0 }),
            ]);
        }
    }
    println!("{}", table(&["stage", "spans", "wall ms", "of render"], &rows));

    // -- Part 2: cycle-domain trace of a mixed cluster serving run. -----
    const LANES: usize = 3;
    let (n_sessions, frames) = match ctx.profile {
        ScaleProfile::Test => (4usize, 3u32),
        _ => (6, 6),
    };
    let sessions: Vec<Session> = (0..n_sessions)
        .map(|i| {
            Session::prepare(
                SessionSpec {
                    name: format!("s{i}"),
                    content: SessionContent::Synthetic {
                        seed: 90 + i as u64,
                        gaussians: 30 + 40 * (i % 3),
                    },
                    qos: [QosTarget::AR_60, QosTarget::VR_72, QosTarget::VR_90][i % 3],
                    frames,
                    phase: (i as f64 * 0.37).fract(),
                    exec: match i % 3 {
                        0 => ExecMode::Unsharded,
                        _ => ExecMode::Sharded {
                            shards: 2,
                            strategy: gbu_render::shard::ShardStrategy::CostBalanced,
                        },
                    },
                },
                &gbu_hw::GbuConfig::paper(),
            )
        })
        .collect();
    let recorder = Recorder::enabled(Verbosity::Normal);
    let mut cfg = ServeConfig {
        backend: BackendKind::Cluster { lanes: LANES, devices_per_lane: 1 },
        policy: Policy::Edf,
        telemetry: recorder.clone(),
        ..ServeConfig::default()
    };
    let clock_ghz = calibrated_clock_ghz(&sessions, LANES, 1.1);
    cfg.gbu.clock_ghz = clock_ghz;
    let mut engine = ServeEngine::new(cfg);
    for s in &sessions {
        engine.attach_session(s.clone());
    }
    let mut events = engine.drain();
    events.extend(engine.finish());
    let report = engine.report();
    let serve_trace = recorder.snapshot();

    if let Err(e) = validate(&serve_trace) {
        gate.check(false, format_args!("serve trace: {e}"));
    }
    let serve_summary = TraceSummary::from_trace(&serve_trace);
    let (spans, completed) = (serve_summary.frame_count(), report.lifetime.completed);
    gate.check(
        spans == completed as u64,
        format_args!("trace saw {spans} frame spans, metrics completed {completed}"),
    );
    for e in &events {
        let ServeEvent::Completed { frame, session, latency_cycles, .. } = e else { continue };
        let id = frame.index();
        let session = session.index() as u32;
        let stat = serve_summary.frames.iter().find(|f| f.frame == id && f.session == session);
        match stat.map(|f| f.latency_cycles) {
            Some(span) => {
                let what = format_args!(
                    "frame {id} span duration {span} != event latency {latency_cycles}"
                );
                gate.check(span == *latency_cycles, what);
            }
            None => gate.check(false, format_args!("completed frame {id} has no frame span")),
        }
    }
    let lane_rows: Vec<Vec<String>> = serve_summary
        .lanes
        .iter()
        .map(|l| {
            vec![
                l.lane.to_string(),
                l.busy_spans.to_string(),
                fmt_f(l.busy_cycles as f64 / 1e6, 3),
                l.shards.to_string(),
                fmt_f(l.shard_cycles as f64 / 1e6, 3),
            ]
        })
        .collect();
    println!("{}", table(&["lane", "busy spans", "busy Mcyc", "shards", "shard Mcyc"], &lane_rows));
    println!(
        "frames: {} completed, latency reconciles with ServeMetrics to the cycle",
        serve_summary.frame_count()
    );

    let doc = json::object(|o| {
        o.field("experiment", "trace_profile").field("profile", format!("{:?}", ctx.profile));
        o.field("run_info", run_info()).field("clock_ghz", Fixed(clock_ghz, 6));
        o.object("render", |o| {
            o.field("gaussians", gaussians).field("width", width).field("height", height);
            o.field("summary", Json(render_summary.to_json()));
        });
        o.object("serve", |o| {
            o.field("lanes", LANES).field("sessions", n_sessions).field("frames", frames);
            o.field("completed", completed).field("summary", Json(serve_summary.to_json()));
        });
    });
    gate.finish(ctx.profile, "BENCH_trace", doc, None);
}

/// `report` as JSON with its per-session and per-frame shard records
/// emptied — `BENCH_fleet.json` keeps aggregates only.
fn aggregate_json(mut report: gbu_serve::ServeReport) -> String {
    report.sessions.clear();
    if let Some(sharding) = report.sharding.as_mut() {
        sharding.frames.clear();
    }
    report.to_json()
}

/// Fleet resilience sweep: a wide cluster under sustained overload with
/// fault-injected lane churn, with and without the fleet controller
/// (session migration + lane reservation), plus a load-wave autoscaling
/// run. Emits `BENCH_fleet.json`.
///
/// Self-validating (the run fails itself otherwise):
///
/// 1. **Conservation under churn** — in every run,
///    `completed + rejected + dropped == generated`, with requeues
///    strictly non-terminal bookkeeping on top (baseline requeues
///    exactly zero; churn runs at least one);
/// 2. **Bounded + recovering degradation** — per-window badness
///    (missed completions + deadline drops over terminals) during the
///    churn window does not make the post-restore window worse: the
///    post window returns to within a margin of the pre-kill window;
/// 3. **Controller sanity** — the controller run actually migrates
///    sessions and its recovery is no worse than the uncontrolled churn
///    run's (within a margin);
/// 4. **Autoscaler round trip** — the load-wave run parks lanes while
///    idle and restores at least one under pressure.
pub fn fleet(ctx: &Ctx) {
    use gbu_render::shard::ShardStrategy;
    use gbu_scene::ScaleProfile;
    use gbu_serve::{
        calibrated_clock_ghz, AutoscaleConfig, BackendKind, ExecMode, FleetAction, FleetConfig,
        FleetEvent, FleetPlan, MigrationConfig, Policy, QosTarget, ServeConfig, ServeEngine,
        ServeEvent, Session, SessionContent, SessionSpec,
    };

    /// Offered load vs full-fleet capacity: sustained overload, so the
    /// drop pass is always shedding and churn bites a loaded system.
    const OVERLOAD: f64 = 1.3;

    let (lanes, n_sessions, frames) = match ctx.profile {
        ScaleProfile::Test => (8usize, 24usize, 3u32),
        _ => (192, 2400, 4),
    };
    let killed = lanes / 4;
    println!("== Fleet resilience: lane churn, migration, autoscaling ==");
    println!(
        "   {lanes}-lane cluster, {n_sessions} sessions at {OVERLOAD}x offered load; \
         fault plan kills {killed} lanes mid-run"
    );

    // A small pool of distinct prepared scenes, instantiated n_sessions
    // times with varied QoS/phase/exec — preparation cost stays bounded
    // while the serving plane sees thousands of independent sessions.
    let base: Vec<Session> = (0..12)
        .map(|i| {
            Session::prepare(
                SessionSpec {
                    name: format!("base-{i}"),
                    content: SessionContent::Synthetic {
                        seed: 300 + i as u64,
                        gaussians: 24 + 8 * (i % 4),
                    },
                    qos: QosTarget::VR_72,
                    frames,
                    phase: 0.0,
                    exec: ExecMode::Unsharded,
                },
                &gbu_hw::GbuConfig::paper(),
            )
        })
        .collect();
    let instances: Vec<Session> = (0..n_sessions)
        .map(|i| {
            let mut s = base[i % base.len()].clone();
            s.spec.name = format!("hmd-{i}");
            s.spec.qos = [QosTarget::AR_60, QosTarget::VR_72, QosTarget::VR_90][i % 3];
            s.spec.phase = (i as f64 * 0.618).fract();
            // Every 6th session fans its frames over 4 lanes; half of
            // those replan from measured shard feedback, which must
            // survive lane churn.
            s.spec.exec = if i % 6 == 5 {
                ExecMode::Sharded {
                    shards: 4,
                    strategy: if i % 12 == 5 {
                        ShardStrategy::Measured
                    } else {
                        ShardStrategy::CostBalanced
                    },
                }
            } else {
                ExecMode::Unsharded
            };
            s
        })
        .collect();
    let clock_ghz = calibrated_clock_ghz(&instances, lanes, OVERLOAD);
    let period = QosTarget::AR_60.period_cycles(clock_ghz);
    let kill_at = period + period / 5;
    let restore_at = 2 * period + 2 * period / 5;
    println!(
        "   calibrated GBU clock {clock_ghz:.4} GHz; churn window [{kill_at}, {restore_at}]\n"
    );

    let plan = FleetPlan::new(
        (0..killed)
            .flat_map(|l| {
                [
                    FleetEvent { at: kill_at + l as u64, action: FleetAction::Kill(l) },
                    FleetEvent { at: restore_at + l as u64, action: FleetAction::Restore(l) },
                ]
            })
            .collect(),
    );
    let make_cfg = |fleet: FleetConfig| {
        let mut cfg = ServeConfig {
            backend: BackendKind::Cluster { lanes, devices_per_lane: 1 },
            policy: Policy::Edf,
            drop_unmeetable: true,
            metrics_window: Some(512),
            fleet,
            ..ServeConfig::default()
        };
        cfg.admission.max_queue_depth = n_sessions * 2;
        cfg.gbu.clock_ghz = clock_ghz;
        cfg
    };

    // Badness of a time window: late terminals (missed completions +
    // deadline drops) over all completions/deadline drops in it.
    let window_badness = |events: &[ServeEvent], lo: u64, hi: u64| -> f64 {
        let mut bad = 0usize;
        let mut terminals = 0usize;
        for e in events {
            let at = e.at();
            if at < lo || at >= hi {
                continue;
            }
            match e {
                ServeEvent::Completed { missed, .. } => {
                    terminals += 1;
                    bad += usize::from(*missed);
                }
                ServeEvent::Dropped { reason, .. }
                    if *reason == gbu_serve::DropReason::Deadline =>
                {
                    terminals += 1;
                    bad += 1;
                }
                _ => {}
            }
        }
        if terminals == 0 {
            0.0
        } else {
            bad as f64 / terminals as f64
        }
    };

    let gate = Gate::new("fleet sweep");
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    let mut recovery = [0.0f64; 3]; // post-window badness per churn-suite run
    for (ri, (label, fleet)) in [
        ("baseline", FleetConfig::default()),
        ("churn", FleetConfig { plan: plan.clone(), ..FleetConfig::default() }),
        (
            "churn_controller",
            FleetConfig {
                plan: plan.clone(),
                migration: Some(MigrationConfig { rebalance: true }),
                lane_reservation: true,
                ..FleetConfig::default()
            },
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let mut engine = ServeEngine::new(make_cfg(fleet));
        for s in &instances {
            engine.attach_session(s.clone());
        }
        let mut events = engine.drain();
        events.extend(engine.finish());
        let r = engine.report();

        let pre = window_badness(&events, 0, kill_at);
        let churn = window_badness(&events, kill_at, restore_at);
        let post = window_badness(&events, restore_at, u64::MAX);
        recovery[ri] = post;

        // Gate 1: conservation, requeues non-terminal. `lifetime` is the
        // whole-run tally (the windowed report only covers the last
        // `metrics_window` records per category).
        let life = r.lifetime;
        conserves(&gate, label, &life);
        let requeue_events =
            events.iter().filter(|e| matches!(e, ServeEvent::Requeued { .. })).count();
        gate.check(
            requeue_events == life.requeued,
            format_args!("{label}: {requeue_events} requeue events, report {}", life.requeued),
        );
        if label == "baseline" {
            gate.check(
                life.requeued == 0 && r.lane_churn == 0,
                format_args!(
                    "baseline saw churn: {} requeues, {} transitions",
                    life.requeued, r.lane_churn
                ),
            );
        } else {
            gate.check(
                life.requeued > 0,
                format_args!("{label}: killing {killed} loaded lanes requeued nothing"),
            );
            gate.check(
                r.lane_churn == 2 * killed,
                format_args!(
                    "{label}: lane_churn {} != plan's {} transitions",
                    r.lane_churn,
                    2 * killed
                ),
            );
            // Gate 2: bounded + recovering.
            gate.check(
                post <= churn + 1e-9,
                format_args!("{label}: post-restore badness {post:.3} above churn {churn:.3}"),
            );
            gate.check(
                post <= pre + 0.15,
                format_args!(
                    "{label}: post-restore badness {post:.3} not within 0.15 of pre-kill {pre:.3}"
                ),
            );
        }
        // Gate 3: the controller actually controls.
        if label == "churn_controller" {
            gate.check(
                r.migrated > 0,
                format_args!("controller run migrated no sessions off {killed} dead lanes"),
            );
        }

        rows.push(vec![
            label.to_string(),
            life.completed.to_string(),
            life.dropped.to_string(),
            life.requeued.to_string(),
            r.migrated.to_string(),
            r.lane_churn.to_string(),
            fmt_pct(pre),
            fmt_pct(churn),
            fmt_pct(post),
            fmt_f(r.p99_latency_ms, 2),
        ]);
        runs.push(json::object(|o| {
            o.field("scenario", label).object("badness", |o| {
                o.field("pre", Fixed(pre, 6)).field("churn", Fixed(churn, 6));
                o.field("post", Fixed(post, 6));
            });
            o.field("report", Json(aggregate_json(r)));
        }));
    }
    gate.check(
        recovery[2] <= recovery[1] + 0.05,
        format_args!(
            "controller recovery {:.3} worse than uncontrolled {:.3}",
            recovery[2], recovery[1]
        ),
    );

    // Load-wave autoscaling: an eighth of the fleet's sessions trickle
    // in first (the scaler parks idle lanes), then the full wave lands
    // and windowed pressure must grow the fleet back.
    {
        let autoscale = AutoscaleConfig {
            interval: period / 8,
            grow_pressure: 0.05,
            shrink_pressure: 0.01,
            shrink_occupancy: 0.5,
            min_lanes: (lanes / 8).max(1),
            cooldown_ticks: 0,
        };
        let fleet = FleetConfig { autoscale: Some(autoscale), ..FleetConfig::default() };
        let mut engine = ServeEngine::new(make_cfg(fleet));
        let wave2_at = period + period / 2;
        for s in instances.iter().step_by(8) {
            engine.attach_session(s.clone());
        }
        let mut events = engine.step_until(wave2_at);
        for (i, s) in instances.iter().enumerate() {
            if i % 8 != 0 {
                engine.attach_session(s.clone());
            }
        }
        events.extend(engine.drain());
        events.extend(engine.finish());
        let r = engine.report();
        let parked = events.iter().filter(|e| matches!(e, ServeEvent::LaneDown { .. })).count();
        let grown = events.iter().filter(|e| matches!(e, ServeEvent::LaneUp { .. })).count();
        // Gate 4: a full scale round trip.
        gate.check(
            parked > 0 && grown > 0,
            format_args!("autoscale run parked {parked} and restored {grown} lanes"),
        );
        let life = r.lifetime;
        conserves(&gate, "autoscale", &life);
        rows.push(vec![
            "autoscale".to_string(),
            life.completed.to_string(),
            life.dropped.to_string(),
            life.requeued.to_string(),
            r.migrated.to_string(),
            r.lane_churn.to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            fmt_f(r.p99_latency_ms, 2),
        ]);
        runs.push(json::object(|o| {
            o.field("scenario", "autoscale").field("parked", parked).field("grown", grown);
            o.field("report", Json(aggregate_json(r)));
        }));
        println!("autoscale: parked {parked} lanes while light, restored {grown} under the wave\n");
    }

    println!(
        "{}",
        table(
            &[
                "scenario",
                "done",
                "drop",
                "requeue",
                "migrate",
                "churn",
                "bad pre",
                "bad churn",
                "bad post",
                "p99 ms",
            ],
            &rows
        )
    );
    let doc = json::object(|o| {
        o.field("experiment", "fleet_resilience").field("profile", format!("{:?}", ctx.profile));
        o.field("run_info", run_info()).field("lanes", lanes);
        o.field("sessions", n_sessions).field("frames", frames).field("overload", OVERLOAD);
        o.field("clock_ghz", Fixed(clock_ghz, 6)).field("killed_lanes", killed);
        o.field("kill_at", kill_at).field("restore_at", restore_at).field("runs", &runs[..]);
    });
    gate.finish(ctx.profile, "BENCH_fleet", doc, Some(rows.len()));
}

/// Gate: a serving run's lifetime counts conserve frames
/// (`completed + rejected + dropped == generated`).
fn conserves(gate: &Gate, label: &str, life: &gbu_serve::LifetimeCounts) {
    gate.check(
        life.generated == life.completed + life.rejected + life.dropped,
        format_args!(
            "{label}: {} generated != {} + {} + {}",
            life.generated, life.completed, life.rejected, life.dropped
        ),
    );
}

/// Scene store + cross-session preprocessing reuse + view-coherence bin
/// cache sweep, emitting `BENCH_share.json`.
///
/// Three self-validating sections (any failed gate exits non-zero — CI
/// runs the `test` profile as the sharing smoke gate):
///
/// - **A — bin cache**: a coherent head-pose walk re-binned frame by
///   frame through [`gbu_render::BinCache`] next to cold binning. Gate:
///   every cached `TileBins` bit-identical to the cold one AND the walk
///   actually took the incremental path.
/// - **B — preprocessing reuse**: a many-sessions-few-scenes mix,
///   prepared once through a [`gbu_serve::SceneStore`], served with host
///   Step-❶/❷ charging on — share OFF vs share ON at the same load.
///   Gate: ON strictly better (more completed frames, or strictly fewer
///   deadline misses) with saved cycles accounted in the report.
/// - **C — zero-config equivalence**: the same mix prepared classically
///   vs through the store with prep modelling off. Gate: byte-identical
///   report JSON.
pub fn share(ctx: &Ctx) {
    use gbu_hw::GbuConfig;
    use gbu_render::{pipeline, BinCache, BinCacheConfig};
    use gbu_scene::synth::SceneBuilder;
    use gbu_scene::{Camera, ScaleProfile};
    use gbu_serve::{
        calibrated_clock_ghz, run_sessions, workload, ExecMode, PrepConfig, QosTarget, SceneStore,
        ServeConfig, SessionContent, SessionSpec,
    };
    use std::time::Instant;

    let (walk_gaussians, width, height, walk_steps, sessions_per_scene, frames) = match ctx.profile
    {
        ScaleProfile::Test => (1_500usize, 256u32, 160u32, 12usize, 6usize, 4u32),
        _ => (10_000, 640, 384, 40, 16, 6),
    };
    let gate = Gate::new("share sweep");

    // --- Section A: view-coherence bin cache along a head-pose walk ---
    println!("== Shared scene store, preprocessing reuse and bin cache ==");
    println!(
        "   A: {walk_steps}-step head-pose walk over {walk_gaussians} Gaussians \
         at {width}x{height}"
    );
    let scene = SceneBuilder::new(41)
        .ellipsoid_cloud(
            Vec3::ZERO,
            Vec3::new(0.9, 0.7, 0.9),
            walk_gaussians * 3 / 4,
            Vec3::new(0.6, 0.5, 0.4),
            0.2,
        )
        .sphere_shell(Vec3::ZERO, 1.2, walk_gaussians / 4, Vec3::new(0.3, 0.4, 0.6))
        .build();
    let mut cache = BinCache::new(BinCacheConfig::default());
    let (mut cold_ns, mut cached_ns, mut cold_instances) = (0u128, 0u128, 0u64);
    for step in 0..walk_steps {
        // Saccade-scale motion: well under the incremental threshold.
        let yaw = 0.45 + step as f32 * 0.004;
        let pitch = 0.18 + step as f32 * 0.002;
        let camera = Camera::orbit(width, height, 0.9, Vec3::ZERO, 3.2, yaw, pitch);
        let projected = pipeline::project(&scene, &camera);
        let t0 = Instant::now();
        let cold = pipeline::bin(&projected, 16);
        cold_ns += t0.elapsed().as_nanos();
        let t1 = Instant::now();
        let cached = pipeline::bin_cached(&mut cache, &projected, 16);
        cached_ns += t1.elapsed().as_nanos();
        gate.check(
            cached.bins.offsets == cold.bins.offsets && cached.bins.entries == cold.bins.entries,
            format_args!("walk step {step}: cached binning diverged from cold"),
        );
        cold_instances += cold.stats.instances;
    }
    let cs = cache.stats();
    gate.check(cs.hits > 0, "a coherent walk never took the incremental path");
    let rebin_speedup = cold_ns as f64 / (cached_ns as f64).max(1.0);
    println!(
        "   cache: {} hits / {} misses; resorted {} tiles, retiled {} of {} instances; \
         rebin wall speedup {:.2}x\n",
        cs.hits, cs.misses, cs.resorted_tiles, cs.retiled_instances, cold_instances, rebin_speedup
    );

    // --- Section B: cross-session preprocessing reuse under load ---
    const SCENES: usize = 3;
    let n_sessions = SCENES * sessions_per_scene;
    println!(
        "   B: {n_sessions} sessions over {SCENES} scenes, {frames} frames each, \
         host Step-1/2 charging on"
    );
    let specs: Vec<SessionSpec> = (0..n_sessions)
        .map(|i| {
            let scene_id = i % SCENES;
            SessionSpec {
                name: format!("viewer-{i}"),
                content: SessionContent::Synthetic {
                    seed: 500 + scene_id as u64,
                    gaussians: 120 + 60 * scene_id,
                },
                // Same-scene viewers share a QoS class, so their frames
                // co-schedule into the same share windows.
                qos: [QosTarget::AR_60, QosTarget::VR_72, QosTarget::VR_90][scene_id],
                frames,
                phase: 0.0,
                exec: ExecMode::Unsharded,
            }
        })
        .collect();
    let store = SceneStore::new();
    let sessions = workload::prepare_all_shared(specs.clone(), &GbuConfig::paper(), &store);
    let store_stats = store.stats();
    println!(
        "   store after preparation: {} scenes / {} views interned, {} of {} lookups hit",
        store.scene_count(),
        store.view_count(),
        store_stats.scene_hits + store_stats.view_hits,
        store_stats.scene_hits
            + store_stats.view_hits
            + store_stats.scene_misses
            + store_stats.view_misses,
    );
    gate.check(
        store.scene_count() == SCENES,
        format_args!("{} scenes interned for {SCENES} contents", store.scene_count()),
    );
    // GBU side comfortably provisioned: the pressure in this section is
    // the host preprocessing charge, not Step ❸.
    let clock_ghz = calibrated_clock_ghz(&sessions, 2, 0.6);
    // The synthetic scenes are orders of magnitude below the paper's
    // (hundreds of thousands of Gaussians), which would make the host's
    // Step-❶/❷ share of a frame period unrepresentatively small. Scale
    // the modelled host GPU down by the same order so preprocessing
    // keeps its real-world weight relative to the 60-90 Hz periods.
    let host = gbu_gpu::GpuConfig {
        sm_count: 1,
        lanes_per_sm: 4,
        clock_ghz: 0.1,
        dram_bw_gbps: 0.05,
        ..gbu_gpu::GpuConfig::orin_nx()
    };
    let run = |share: bool| {
        let mut cfg = ServeConfig {
            devices: 2,
            scene_store: Some(store.clone()),
            prep: Some(PrepConfig { share, ..PrepConfig::default() }),
            gpu: host.clone(),
            ..ServeConfig::default()
        };
        cfg.gbu.clock_ghz = clock_ghz;
        run_sessions(cfg, &sessions)
    };
    let off = run(false);
    let on = run(true);
    let rows = [&off, &on]
        .iter()
        .zip(["share off", "share on"])
        .map(|(r, label)| {
            vec![
                label.to_string(),
                r.completed.to_string(),
                r.missed.to_string(),
                fmt_pct(r.deadline_miss_rate),
                fmt_f(r.p95_latency_ms, 2),
                r.preprocessing.frames_charged.to_string(),
                r.preprocessing.frames_shared.to_string(),
                fmt_f(r.preprocessing.cycles_saved as f64 / 1e6, 2),
            ]
        })
        .collect::<Vec<_>>();
    println!(
        "{}",
        table(
            &[
                "variant",
                "completed",
                "missed",
                "miss rate",
                "p95 ms",
                "charged",
                "shared",
                "saved Mcyc"
            ],
            &rows
        )
    );
    let strictly_better =
        on.completed > off.completed || (on.completed == off.completed && on.missed < off.missed);
    gate.check(
        strictly_better,
        format_args!(
            "sharing not strictly better: completed {} vs {}, missed {} vs {}",
            on.completed, off.completed, on.missed, off.missed
        ),
    );
    gate.check(
        on.preprocessing.frames_shared > 0 && on.preprocessing.cycles_saved > 0,
        "share-on run never shared a preprocessing charge",
    );
    gate.check(off.preprocessing.frames_shared == 0, "share-off run recorded shared frames");

    // --- Section C: zero-config byte-identity ---
    let classic = workload::prepare_all(specs, &GbuConfig::paper());
    let plain = |sessions: &[gbu_serve::Session]| {
        let mut cfg = ServeConfig { devices: 2, ..ServeConfig::default() };
        cfg.gbu.clock_ghz = clock_ghz;
        run_sessions(cfg, sessions)
    };
    let zero_config_identical = plain(&classic).to_json() == plain(&sessions).to_json();
    gate.check(zero_config_identical, "store-prepared sessions changed the prep-off report");
    println!("   C: zero-config path byte-identical: {zero_config_identical}\n");

    // The gates block records what `gate` enforced: the file is only
    // written when every check passed.
    let doc = json::object(|o| {
        o.field("experiment", "share_reuse").field("profile", format!("{:?}", ctx.profile));
        o.field("run_info", run_info()).object("bin_cache", |o| {
            o.field("walk_steps", walk_steps).field("gaussians", walk_gaussians);
            o.field("bit_identical", true).field("hits", cs.hits).field("misses", cs.misses);
            o.field("invalidations", cs.invalidations);
            o.field("resorted_tiles", cs.resorted_tiles);
            o.field("retiled_instances", cs.retiled_instances);
            o.field("cold_instances", cold_instances);
            o.field("cold_ms", Fixed(cold_ns as f64 / 1e6, 3));
            o.field("cached_ms", Fixed(cached_ns as f64 / 1e6, 3));
            o.field("rebin_speedup", Fixed(rebin_speedup, 3));
        });
        o.object("serving", |o| {
            o.field("scenes", SCENES).field("sessions", n_sessions).field("frames", frames);
            o.field("clock_ghz", Fixed(clock_ghz, 6)).object("store", |o| {
                o.field("scenes", store.scene_count()).field("views", store.view_count());
                o.field("scene_hits", store_stats.scene_hits);
                o.field("scene_misses", store_stats.scene_misses);
                o.field("view_hits", store_stats.view_hits);
                o.field("view_misses", store_stats.view_misses);
                o.field("hit_rate_pct", store_stats.hit_rate_pct());
            });
            o.field("share_off", Json(off.to_json())).field("share_on", Json(on.to_json()));
        });
        o.object("gates", |o| {
            o.field("bin_cache_bit_identical", true).field("sharing_strictly_better", true);
            o.field("zero_config_identical", true);
        });
    });
    gate.finish(ctx.profile, "BENCH_share", doc, None);
}

/// Contribution-aware quality sweep, emitting `BENCH_quality.json`.
///
/// Two self-validating sections (any failed gate exits non-zero — CI
/// runs the `test` profile as the quality smoke gate):
///
/// - **A — degradation ladder**: one synthetic scene rendered Exact and
///   at every rung of the governor's default ladder, both dataflows.
///   Gates: `QualityLevel::Exact` byte-identical to the plain blend;
///   every rung strictly cheaper than the one above it in modeled
///   device-occupancy cycles (max of D&B and tile-PE time of the
///   compacted frame — the same probe serving load calibration uses);
///   per-rung PSNR against the exact render at or above a pinned floor.
/// - **B — governed overload sweep**: the same overloaded session mix
///   served three ways at one calibrated clock — reject-only admission,
///   deadline-drop, and the quality governor (degraded counter-offers +
///   pressure shedding on top of both). Gates: frame conservation in
///   every run; the governed run actually degrades (and saves modeled
///   cycles); it delivers **strictly more on-time frames** than both
///   baselines, with every degraded dispatch drawn from the rung ladder
///   section A just validated.
pub fn quality(ctx: &Ctx) {
    use gbu_render::{pipeline, QualityLevel, RenderConfig};
    use gbu_scene::synth::SceneBuilder;
    use gbu_scene::{Camera, ScaleProfile};
    use gbu_serve::{
        calibrated_clock_ghz, run_sessions, workload, AdmissionControl, Policy, PreparedView,
        QosTarget, QualityGovernor, ServeConfig, ViewPrepStats,
    };

    /// Offered load vs pool capacity in section B: enough pressure that
    /// exact-only serving must miss, not so much that nothing helps.
    const OVERLOAD: f64 = 1.8;
    /// Pinned PSNR floors (dB) for the governor's default ladder — the
    /// worse dataflow must clear these on the section-A scene.
    const PSNR_FLOORS: [f64; 3] = [30.0, 24.0, 18.0];

    let (gaussians, width, height, n_sessions, frames) = match ctx.profile {
        ScaleProfile::Test => (1_500usize, 256u32, 160u32, 6usize, 6u32),
        _ => (10_000, 640, 384, 12, 8),
    };
    let gate = Gate::new("quality sweep");

    // --- Section A: the degradation ladder on one projected frame ---
    println!("== Contribution-aware quality: ladder validation, governed serving ==");
    println!("   A: {gaussians} Gaussians at {width}x{height}, ladder vs exact render");
    let scene = SceneBuilder::new(73)
        .ellipsoid_cloud(
            Vec3::ZERO,
            Vec3::new(0.9, 0.7, 0.9),
            gaussians * 3 / 4,
            Vec3::new(0.6, 0.5, 0.4),
            0.2,
        )
        .sphere_shell(Vec3::ZERO, 1.2, gaussians / 4, Vec3::new(0.3, 0.4, 0.6))
        .build();
    let cam = Camera::orbit(width, height, 1.0, Vec3::ZERO, 3.0, 0.35, 0.25);
    let rcfg = RenderConfig::default();
    let frame = pipeline::project(&scene, &cam);
    let binned = pipeline::bin(&frame, rcfg.tile_size);
    let gbu_cfg = gbu_hw::GbuConfig::paper();

    // Gate 1: Exact is a true no-op for both dataflows.
    let dataflows = [pipeline::Dataflow::Pfs, pipeline::Dataflow::Irss];
    let exact_images: Vec<_> = dataflows
        .iter()
        .map(|&df| {
            let (plain, _) = pipeline::blend(&frame, &binned, df, &rcfg);
            let (exact, _) = pipeline::blend_with_quality_pooled(
                gbu_par::global(),
                &frame,
                &binned,
                df,
                &rcfg,
                QualityLevel::Exact,
            );
            let what = format_args!("Exact {df:?} diverges from the plain blend");
            gate.check(exact.pixels() == plain.pixels(), what);
            plain
        })
        .collect();
    // Priced as the governor prices it: the exact view and its siblings.
    let (splats, bins) = (frame.splats.clone(), binned.bins.clone());
    let exact = PreparedView::new(splats, bins, cam.clone(), ViewPrepStats::default(), &gbu_cfg);
    let exact_cycles = exact.occupancy;

    let ladder = QualityGovernor::default_ladder();
    let mut rows = vec![vec![
        "exact".to_string(),
        frame.splats.len().to_string(),
        exact_cycles.to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]];
    let mut ladder_json = Vec::new();
    let mut prev_cycles = exact_cycles;
    for (i, &level) in ladder.iter().enumerate() {
        let rung = exact.degraded(level);
        let (splats, cycles) = (&rung.splats, rung.occupancy);
        // Gate 2: every rung strictly cheaper than the one above it.
        gate.check(
            cycles < prev_cycles,
            format_args!(
                "{} costs {cycles} cycles, not below the previous {prev_cycles}",
                level.label()
            ),
        );
        prev_cycles = cycles;
        // Gate 3: PSNR floor on the worse dataflow.
        let psnrs: Vec<f64> = dataflows
            .iter()
            .zip(&exact_images)
            .map(|(&df, exact)| {
                let (img, _) = pipeline::blend_with_quality_pooled(
                    gbu_par::global(),
                    &frame,
                    &binned,
                    df,
                    &rcfg,
                    level,
                );
                gbu_render::metrics::psnr(&img, exact)
            })
            .collect();
        let worst = psnrs.iter().cloned().fold(f64::INFINITY, f64::min);
        let floor = PSNR_FLOORS[i];
        gate.check(
            worst >= floor,
            format_args!("{} PSNR {worst:.2} dB below the {floor} dB floor", level.label()),
        );
        rows.push(vec![
            level.label(),
            splats.len().to_string(),
            cycles.to_string(),
            fmt_f(psnrs[0], 2),
            fmt_f(psnrs[1], 2),
            fmt_f(floor, 1),
        ]);
        ladder_json.push(json::object(|o| {
            o.field("level", level.label()).field("splats", splats.len()).field("cycles", cycles);
            o.field("psnr_pfs", Fixed(psnrs[0], 4)).field("psnr_irss", Fixed(psnrs[1], 4));
            o.field("psnr_floor", floor);
        }));
    }
    println!(
        "{}",
        table(&["level", "splats", "device cycles", "PSNR pfs", "PSNR irss", "floor dB"], &rows)
    );

    // --- Section B: overloaded serving, three shedding disciplines ---
    println!(
        "   B: {n_sessions} sessions x {frames} frames at {OVERLOAD}x load, \
         reject vs drop vs governed"
    );
    let specs = workload::synthetic_mix(n_sessions, frames);
    let sessions = workload::prepare_all(specs, &gbu_cfg);
    let base = ServeConfig { policy: Policy::Edf, ..ServeConfig::default() };
    let clock = calibrated_clock_ghz(&sessions, base.total_devices(), OVERLOAD);
    // Pressure ticks scale with the calibrated clock, not a wall
    // constant: an eighth of the fastest session's frame period.
    let interval = (QosTarget::VR_90.period_cycles(clock) / 8).max(1);
    let governor = QualityGovernor {
        ladder: ladder.clone(),
        counter_offer: true,
        shed_on_pressure: true,
        interval,
        ..QualityGovernor::default()
    };
    let reject_admission = AdmissionControl { reject_unmeetable: true, ..base.admission };
    let scenarios = [
        ("reject", reject_admission, false, QualityGovernor::default()),
        ("drop", base.admission, true, QualityGovernor::default()),
        ("governed", reject_admission, true, governor),
    ];
    let mut sweep_rows = Vec::new();
    let mut sweep_json = Vec::new();
    let mut on_time = std::collections::BTreeMap::new();
    for (label, admission, drop_unmeetable, quality) in scenarios {
        let mut cfg = ServeConfig { admission, drop_unmeetable, quality, ..base.clone() };
        cfg.gbu.clock_ghz = clock;
        let r = run_sessions(cfg, &sessions);
        // Gate 4: frame conservation in every discipline (full retention:
        // the lifetime counts are the report's).
        conserves(&gate, label, &r.lifetime);
        let delivered = r.completed - r.missed;
        on_time.insert(label, delivered);
        let q = r.quality;
        if label == "governed" {
            // Gate 5: the governor actually governs, and degraded
            // dispatches are genuinely cheaper in modeled cycles.
            gate.check(
                q.frames_degraded > 0 && q.cycles_saved > 0,
                format_args!(
                    "governed run degraded {} frames saving {} cycles",
                    q.frames_degraded, q.cycles_saved
                ),
            );
        } else {
            gate.check(
                q == gbu_serve::QualityCounts::default(),
                format_args!("{label}: inactive governor reported quality activity"),
            );
        }
        sweep_rows.push(vec![
            label.to_string(),
            r.generated.to_string(),
            delivered.to_string(),
            r.missed.to_string(),
            r.rejected.to_string(),
            r.dropped.to_string(),
            q.frames_degraded.to_string(),
            q.cycles_saved.to_string(),
            fmt_f(r.p95_latency_ms, 2),
        ]);
        sweep_json.push(json::object(|o| {
            o.field("scenario", label).field("on_time", delivered);
            o.field("report", Json(r.to_json()));
        }));
    }
    // Gate 6: shedding quality beats shedding frames — strictly more
    // on-time deliveries than both baselines.
    let governed = on_time["governed"];
    for baseline in ["reject", "drop"] {
        gate.check(
            governed > on_time[baseline],
            format_args!(
                "governed delivered {governed} on-time frames, not above {baseline}'s {}",
                on_time[baseline]
            ),
        );
    }
    println!(
        "{}",
        table(
            &[
                "scenario",
                "gen",
                "on-time",
                "missed",
                "rejected",
                "dropped",
                "degraded",
                "cyc saved",
                "p95 ms",
            ],
            &sweep_rows
        )
    );

    // The gates block records what `gate` enforced: the file is only
    // written when every check passed.
    let doc = json::object(|o| {
        o.field("experiment", "quality").field("profile", format!("{:?}", ctx.profile));
        o.field("run_info", run_info()).object("scene", |o| {
            o.field("gaussians", gaussians).field("width", width).field("height", height);
        });
        o.object("exact", |o| {
            o.field("splats", frame.splats.len()).field("cycles", exact_cycles);
        });
        o.field("ladder", &ladder_json[..]);
        o.object("serving", |o| {
            o.field("sessions", n_sessions).field("frames", frames).field("overload", OVERLOAD);
            o.field("clock_ghz", Fixed(clock, 6)).field("governor_interval", interval);
            o.field("sweep", &sweep_json[..]);
        });
        o.object("gates", |o| {
            o.field("exact_bit_identical", true).field("cycles_strictly_decreasing", true);
            o.field("psnr_floors_met", true).field("governed_beats_baselines", true);
        });
    });
    gate.finish(ctx.profile, "BENCH_quality", doc, None);
}

#[cfg(test)]
mod tests {
    use super::critical_path_ms;
    use gbu_telemetry::{Domain, Labels, Recorder, SpanId, Verbosity};

    /// A hand-built 1000 ns job record: under `bin_expand`, a stage of
    /// three batch jobs and a stage of two copy jobs (one parent, two
    /// names); directly under the root, a stage of three row jobs. The
    /// jobs cover 650 ns, leaving a 350 ns serial residue.
    #[test]
    fn critical_path_is_residue_plus_scheduled_stages() {
        let rec = Recorder::enabled(Verbosity::High);
        let span = |name: &'static str, start: u64, end: u64, parent: Option<SpanId>| {
            rec.span(name, Domain::Wall, start, end, parent, Labels::default())
        };
        let root = span("job_record", 0, 1_000, None);
        let expand = span("bin_expand", 100, 500, root);
        for (start, end) in [(100, 200), (200, 350), (350, 400)] {
            span("bin_expand_batch", start, end, expand);
        }
        for (start, end) in [(400, 420), (420, 450)] {
            span("bin_concat_batch", start, end, expand);
        }
        for (start, end) in [(500, 600), (600, 700), (700, 800)] {
            span("blend_row", start, end, root);
        }
        let trace = rec.snapshot();

        // One worker replays the serial run: the root span's duration.
        assert_eq!(critical_path_ms(&trace, 1), 1_000.0 / 1e6);
        // Two workers: the three 100 ns rows take two rounds.
        assert_eq!(critical_path_ms(&trace, 2), (350.0 + 150.0 + 30.0 + 200.0) / 1e6);
        // Many workers: the residue plus each stage's longest job.
        assert_eq!(critical_path_ms(&trace, 64), (350.0 + 150.0 + 30.0 + 100.0) / 1e6);
    }
}
