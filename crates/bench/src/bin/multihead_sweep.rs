//! Multi-head sweep: the paper's §7.2 remark — *"The memory saving will
//! be more significant if applying multi-head mechanism as in the
//! original paper"* — evaluated on the GPU model. GAT training on Reddit
//! with heads ∈ {1, 2, 4, 8}, DGL baseline vs. Ours; the eliminated
//! intermediates are `O(|E|·h)`, so the saving factor must grow with the
//! head count.
//!
//! Run with `cargo run --release -p gnnopt-bench --bin multihead_sweep`.

use gnnopt_bench::{gib, run_variant, smoke_scale, Workload};
use gnnopt_core::CompileOptions;
use gnnopt_graph::datasets;
use gnnopt_models::{gat, GatConfig};
use gnnopt_sim::Device;

fn main() {
    let device = Device::rtx3090();
    let ds = datasets::reddit();
    println!(
        "# Multi-head sweep — GAT training on {} ({}), f=64 per head",
        ds.name, device.name
    );
    println!(
        "{:>6} {:>14} {:>14} {:>12} {:>12}",
        "heads", "DGL mem (GiB)", "Ours mem (GiB)", "mem saving", "speedup"
    );

    for heads in smoke_scale(vec![1usize, 2, 4, 8], vec![1, 2]) {
        let cfg = GatConfig {
            in_dim: 64,
            layers: vec![(heads, 64)],
            negative_slope: 0.2,
            reorganized: true, // DGL's library form; Ours re-derives it
        };
        let spec = gat(&cfg).expect("gat builds");
        let wl = Workload {
            name: format!("GAT h={heads}"),
            ir: spec.ir.clone(),
            stats: ds.full_scale_stats(),
        };
        let dgl = run_variant(
            "DGL",
            &wl.ir,
            &wl.stats,
            &CompileOptions::dgl(),
            true,
            &device,
        )
        .expect("dgl variant");
        let ours = run_variant(
            "Ours",
            &wl.ir,
            &wl.stats,
            &CompileOptions::ours(),
            true,
            &device,
        )
        .expect("ours variant");
        println!(
            "{:>6} {:>14.2} {:>14.2} {:>11.2}x {:>11.2}x",
            heads,
            gib(dgl.stats.peak_memory),
            gib(ours.stats.peak_memory),
            dgl.stats.peak_memory as f64 / ours.stats.peak_memory as f64,
            dgl.stats.latency / ours.stats.latency,
        );
    }
}
