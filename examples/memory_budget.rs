//! Memory-budget planning: ask whether the arena a session would reserve
//! for a training workload fits a GPU *before* running it — the paper's
//! Figure 11 scenario ("runs on an 8 GB RTX 2080 instead of a 24 GB
//! RTX 3090") as a library call.
//!
//! Run with `cargo run --release --example memory_budget`.

use gnnopt::core::{compile, CompileOptions, Preset};
use gnnopt::graph::datasets;
use gnnopt::models::{gat, GatConfig};
use gnnopt::sim::Device;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = datasets::reddit();
    let stats = ds.full_scale_stats();
    println!(
        "workload: 4-head GAT training on {} ({} vertices, {} edges, full scale)",
        ds.name,
        stats.num_vertices(),
        stats.num_edges()
    );

    for (preset, reorganized) in [(Preset::Dgl, true), (Preset::Ours, false)] {
        let mut cfg = GatConfig::ablation(64);
        cfg.reorganized = reorganized;
        let spec = gat(&cfg)?;
        let compiled = compile(&spec.ir, true, &CompileOptions::preset(preset))?;
        println!("\n{preset:?}:");
        for device in [Device::rtx3090(), Device::rtx2080()] {
            match compiled.plan.check_fits(&device, &stats) {
                Ok(peak) => {
                    let sim = compiled.plan.exec_stats(&device, &stats);
                    println!(
                        "  {:<9} fits: peak {:.2} GiB of {:.0} GiB usable, est. {:.0} ms/step",
                        device.name,
                        peak as f64 / (1u64 << 30) as f64,
                        device.usable_memory() as f64 / (1u64 << 30) as f64,
                        sim.latency * 1e3
                    );
                }
                Err(oom) => println!("  {:<9} OOM: {oom}", device.name),
            }
        }
    }
    Ok(())
}
