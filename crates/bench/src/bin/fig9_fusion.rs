//! Figure 9: ablation of unified-thread-mapping fusion (§5) — forward
//! pass, reorganization enabled on both sides, fusion off vs unified.
//! Paper result: 1.68× latency, 1.16× IO (up to 5.45×), 4.92× memory on
//! average across GAT / EdgeConv / MoNet.
//!
//! Plus a *measured* section: the same model compiled with
//! `FusionLevel::None` and with `FusionLevel::Unified`, both executed on
//! the real CPU by the one executor — wall-clock and true
//! `peak_value_bytes`, demonstrating what fusion saves on hardware rather
//! than only in the analytical model.
//!
//! Run with `cargo run --release -p gnnopt-bench --bin fig9_fusion`.

use gnnopt_bench::{
    edgeconv_workload, gat_ablation, gib, monet_ablation, print_normalized, run_real, run_variant,
    smoke_scale,
};
use gnnopt_core::{CompileOptions, ExecPolicy, FusionLevel, RecomputeScope};
use gnnopt_graph::{datasets, generators, Graph};
use gnnopt_models::{gat, EdgeConvConfig, GatConfig};
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

    measured_fused_exec_section();
}

/// Real CPU execution of one GAT training step on an RMAT-14 graph
/// (~262k edges): the `Ours` pipeline with fusion off (one kernel per op,
/// every intermediate materialized) vs unified fusion, on the same
/// executor.
fn measured_fused_exec_section() {
    let scale = smoke_scale(14u32, 8);
    let graph = Graph::from_edge_list(&generators::rmat(scale, 16, 0.57, 0.19, 0.19, 7));
    let spec = gat(&GatConfig {
        in_dim: 32,
        layers: vec![(4, 16)],
        negative_slope: 0.2,
        reorganized: true,
    })
    .expect("gat builds");
    let opts = |fusion| CompileOptions {
        fusion,
        ..CompileOptions::ours()
    };
    println!(
        "\n# Measured fused execution — GAT training step, RMAT-{scale} ({} vertices, {} edges)",
        graph.num_vertices(),
        graph.num_edges()
    );
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>13} {:>12} {:>9}",
        "fusion", "fwd (s)", "bwd (s)", "peak (GiB)", "planned(GiB)", "scratch(MiB)", "kernels"
    );
    // Warmup pays one-time allocation/page-in costs outside the timings.
    run_real(&spec, &graph, &opts(FusionLevel::None), 0, true, 11).expect("warmup");
    let mut peaks = (0u64, 0u64);
    for (label, fusion) in [
        ("none", FusionLevel::None),
        ("unified", FusionLevel::Unified),
    ] {
        let s = run_real(&spec, &graph, &opts(fusion), 0, true, 11).expect("step runs");
        // The static memory planner's promise next to reality: measured
        // peak must sit at or below the planned arena on every row.
        assert!(
            s.planned_peak_bytes == 0 || s.peak_value_bytes <= s.planned_peak_bytes,
            "{label}: measured peak {} exceeds planned {}",
            s.peak_value_bytes,
            s.planned_peak_bytes
        );
        println!(
            "{:<10} {:>10.4} {:>10.4} {:>12.4} {:>13.4} {:>12.2} {:>9}",
            label,
            s.forward_seconds,
            s.backward_seconds,
            gib(s.peak_value_bytes),
            gib(s.planned_peak_bytes),
            s.scratch_bytes as f64 / (1u64 << 20) as f64,
            s.fused_kernels,
        );
        if fusion == FusionLevel::Unified {
            peaks.1 = s.peak_value_bytes;
        } else {
            peaks.0 = s.peak_value_bytes;
        }
    }
    println!("peak reduction: {:.2}x", peaks.0 as f64 / peaks.1 as f64);
}
