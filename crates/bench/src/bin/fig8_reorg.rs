//! Figure 8: ablation of propagation-postponed operator reorganization
//! (§4) — forward pass only, fusion disabled, so the effect of the
//! rewrite is isolated. Paper result: 1.68× latency, 3.06× IO, 1.30×
//! memory on average (GAT on Pubmed + EdgeConv; MoNet has no Scatter so
//! the pass does not apply).
//!
//! Run with `cargo run --release -p gnnopt-bench --bin fig8_reorg`
//! (`GNNOPT_SMOKE=1` shrinks the workloads to seconds).

use gnnopt_bench::{edgeconv_workload, gat_ablation, print_normalized, run_variant};
use gnnopt_core::{CompileOptions, ExecPolicy, FusionLevel, RecomputeScope};
use gnnopt_graph::datasets;
use gnnopt_models::EdgeConvConfig;
use gnnopt_sim::Device;

fn variant(reorg: bool) -> CompileOptions {
    CompileOptions {
        reorg,
        fusion: FusionLevel::None,
        mapping: Default::default(),
        recompute: RecomputeScope::None,
        recompute_threshold: 16.0,
        exec: ExecPolicy::auto(),
    }
}

fn main() {
    let device = Device::rtx3090();
    println!(
        "# Figure 8 — reorganization ablation, forward pass ({})",
        device.name
    );

    // GAT on Pubmed (the paper evaluates this ablation on Pubmed due to
    // device memory limits), naive vs reorganized.
    let wl = gat_ablation(&datasets::pubmed(), false).expect("workload");
    let rows = vec![
        run_variant(
            "baseline",
            &wl.ir,
            &wl.stats,
            &variant(false),
            false,
            &device,
        )
        .expect("baseline"),
        run_variant("reorg", &wl.ir, &wl.stats, &variant(true), false, &device)
            .expect("reorganized"),
    ];
    print_normalized("GAT / Pubmed (forward)", &rows);

    // EdgeConv: 1 layer × 64 features, k = 40, batch 64.
    let wl = edgeconv_workload(40, 64, &EdgeConvConfig::ablation()).expect("workload");
    let rows = vec![
        run_variant(
            "baseline",
            &wl.ir,
            &wl.stats,
            &variant(false),
            false,
            &device,
        )
        .expect("baseline"),
        run_variant("reorg", &wl.ir, &wl.stats, &variant(true), false, &device)
            .expect("reorganized"),
    ];
    print_normalized("EdgeConv k=40 b=64 (forward)", &rows);

    println!("\nMoNet: no Scatter before ApplyEdge — reorganization not applicable (§7.3).");
}
