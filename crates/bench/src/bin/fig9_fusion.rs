//! Figure 9: ablation of unified-thread-mapping fusion (§5) — forward
//! pass, reorganization enabled on both sides, fusion off vs unified.
//! Paper result: 1.68× latency, 1.16× IO (up to 5.45×), 4.92× memory on
//! average across GAT / EdgeConv / MoNet.
//!
//! Run with `cargo run --release -p gnnopt-bench --bin fig9_fusion`.

use gnnopt_bench::{
    edgeconv_workload, gat_ablation, monet_ablation, print_normalized, run_variant,
};
use gnnopt_core::{CompileOptions, ExecPolicy, FusionLevel, RecomputeScope};
use gnnopt_graph::datasets;
use gnnopt_models::EdgeConvConfig;
use gnnopt_sim::Device;

fn variant(fusion: FusionLevel) -> CompileOptions {
    CompileOptions {
        reorg: true,
        fusion,
        mapping: Default::default(),
        recompute: RecomputeScope::None,
        recompute_threshold: 16.0,
        exec: ExecPolicy::auto(),
    }
}

fn main() {
    let device = Device::rtx3090();
    println!(
        "# Figure 9 — unified-thread-mapping fusion ablation, forward pass ({})",
        device.name
    );

    let workloads = vec![
        (
            "GAT h=4 f=64 / Reddit",
            gat_ablation(&datasets::reddit(), false).expect("gat"),
        ),
        (
            "EdgeConv f=64 k=40 b=64",
            edgeconv_workload(40, 64, &EdgeConvConfig::ablation()).expect("edgeconv"),
        ),
        (
            "MoNet k=2 r=1 f=16 / Reddit",
            monet_ablation(&datasets::reddit()).expect("monet"),
        ),
    ];

    for (title, wl) in workloads {
        // "Unfused" keeps the standard built-in fused kernels (DGL's
        // gSpMM / edge-softmax) — the paper's system extends DGL, so its
        // fusion ablation disables only the *unified* fusion.
        let rows = vec![
            run_variant(
                "unfused",
                &wl.ir,
                &wl.stats,
                &variant(FusionLevel::DglBuiltin),
                false,
                &device,
            )
            .expect("unfused"),
            run_variant(
                "fused",
                &wl.ir,
                &wl.stats,
                &variant(FusionLevel::Unified),
                false,
                &device,
            )
            .expect("fused"),
        ];
        print_normalized(title, &rows);
    }
}
