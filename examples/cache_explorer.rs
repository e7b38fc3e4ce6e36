//! Explore the Gaussian Reuse Cache: sweep capacities and replacement
//! policies over a real frame's feature access trace (Fig. 12 / Fig. 17).
//!
//! Run with: `cargo run --release --example cache_explorer`

use gbu_hw::cache::{simulate_trace, Policy};
use gbu_render::{binning, preprocess, GBU_FEATURE_BYTES};
use gbu_scene::{DatasetScene, ScaleProfile};

fn main() {
    let ds = DatasetScene::by_name("kitchen").expect("registry scene");
    let scene = ds.build_static(ScaleProfile::Test);
    let camera = ds.camera(ScaleProfile::Test);

    // The bins' entries, tile by tile, are the feature access trace the
    // D&B engine feeds the cache (`simulate_trace` derives the next-use
    // positions the reuse-distance policy needs).
    let (splats, _) = preprocess::project_scene(&scene, &camera);
    let (bins, _) = binning::bin_splats(&splats, &camera, 16);
    let trace = &bins.entries;
    println!("frame: {} splats, {} (tile, Gaussian) accesses", splats.len(), trace.len());

    println!("\ncapacity sweep (reuse-distance policy):");
    for kib in [0usize, 2, 4, 8, 16, 32, 64] {
        let lines = kib * 1024 / GBU_FEATURE_BYTES as usize;
        let s = simulate_trace(trace, lines, Policy::ReuseDistance);
        println!(
            "  {kib:>2} KB ({lines:>4} lines): hit rate {:>5.1}%  -> {:>6} DRAM fetches",
            s.hit_rate() * 100.0,
            s.misses
        );
    }

    println!("\npolicy comparison at the paper's 32 KB:");
    let lines = 32 * 1024 / GBU_FEATURE_BYTES as usize;
    for policy in [Policy::ReuseDistance, Policy::Lru, Policy::Fifo] {
        let s = simulate_trace(trace, lines, policy);
        println!("  {policy:?}: hit rate {:.1}%", s.hit_rate() * 100.0);
    }
}
