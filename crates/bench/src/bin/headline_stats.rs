//! The paper's §1 headline measurements:
//!
//! * redundant neural-operator computation = **92.4 %** of EdgeConv's
//!   operator FLOPs (eliminated by reorganization);
//! * intermediate data = **91.9 %** of GAT's training memory (eliminated
//!   by fusion + recomputation).
//!
//! Run with `cargo run --release -p gnnopt-bench --bin headline_stats`.

use gnnopt_bench::{edgeconv_workload, gat_ablation};
use gnnopt_core::{compile, CompileOptions, ExecPolicy, FusionLevel, RecomputeScope};
use gnnopt_graph::datasets;
use gnnopt_models::EdgeConvConfig;
use gnnopt_sim::Device;

fn main() {
    let device = Device::rtx3090();

    // (1) EdgeConv redundancy: FLOPs with and without reorganization.
    let wl = edgeconv_workload(
        40,
        gnnopt_bench::smoke_scale(64, 8),
        &EdgeConvConfig::paper(),
    )
    .expect("edgeconv");
    let base = CompileOptions {
        reorg: false,
        fusion: FusionLevel::None,
        mapping: Default::default(),
        recompute: RecomputeScope::None,
        recompute_threshold: 16.0,
        exec: ExecPolicy::auto(),
    };
    let naive = compile(&wl.ir, false, &base).expect("naive");
    let reorg = compile(
        &wl.ir,
        false,
        &CompileOptions {
            reorg: true,
            ..base
        },
    )
    .expect("reorganized");
    let naive_flops = naive.plan.exec_stats(&device, &wl.stats).flops;
    let reorg_flops = reorg.plan.exec_stats(&device, &wl.stats).flops;
    let redundant = 1.0 - reorg_flops as f64 / naive_flops as f64;
    println!("EdgeConv (k=40, batch=64, 4 layers):");
    println!("  naive operator FLOPs:        {naive_flops}");
    println!("  reorganized operator FLOPs:  {reorg_flops}");
    println!(
        "  redundant computation:       {:.1}%   (paper: 92.4%)",
        redundant * 100.0
    );

    // (2) GAT intermediate-data share of training memory under DGL.
    let ds = datasets::reddit();
    let wl = gat_ablation(&ds, true).expect("gat");
    let dgl = compile(&wl.ir, true, &CompileOptions::dgl()).expect("dgl");
    let stats = dgl.plan.exec_stats(&device, &wl.stats);
    // Inputs + parameters are the non-intermediate residents.
    let mut persistent = 0u64;
    for n in dgl.plan.ir.nodes() {
        use gnnopt_core::OpKind;
        if matches!(
            n.kind,
            OpKind::InputVertex | OpKind::InputEdge | OpKind::Param | OpKind::GradSeed
        ) {
            let rows = match n.space {
                gnnopt_core::Space::Vertex => wl.stats.num_vertices(),
                gnnopt_core::Space::Edge => wl.stats.num_edges(),
                gnnopt_core::Space::Param => n.dim.heads,
            } as u64;
            let cols = match n.space {
                gnnopt_core::Space::Param => n.dim.feat,
                _ => n.dim.total(),
            } as u64;
            persistent += rows * cols * 4;
        }
    }
    let intermediate = stats.peak_memory.saturating_sub(persistent);
    println!("\nGAT (h=4, f=64, Reddit) under DGL training:");
    println!(
        "  peak memory:        {:.3} GiB",
        gnnopt_bench::gib(stats.peak_memory)
    );
    println!(
        "  inputs+parameters:  {:.3} GiB",
        gnnopt_bench::gib(persistent)
    );
    println!(
        "  intermediate share: {:.1}%   (paper: 91.9%)",
        intermediate as f64 / stats.peak_memory as f64 * 100.0
    );
}
