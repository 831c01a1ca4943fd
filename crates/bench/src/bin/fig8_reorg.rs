//! Figure 8: ablation of propagation-postponed operator reorganization
//! (§4) — forward pass only, fusion disabled, so the effect of the
//! rewrite is isolated. Paper result: 1.68× latency, 3.06× IO, 1.30×
//! memory on average (GAT on Pubmed + EdgeConv; MoNet has no Scatter so
//! the pass does not apply).
//!
//! Plus a *measured* runtime-reordering section (§8): the same training
//! step executed on the real CPU with the session's vertex ids in
//! scrambled ingestion order vs relabeled by the auto-selected
//! reordering strategy — LRU hit-rate proxy of the gather reads, plus
//! wall-clock of both sides (user-facing results are identical; see
//! `tests/reorder_exec.rs`).
//!
//! Run with `cargo run --release -p gnnopt-bench --bin fig8_reorg`
//! (`GNNOPT_SMOKE=1` shrinks the workloads to seconds).

use gnnopt_bench::{
    edgeconv_workload, gat_ablation, print_normalized, run_real_reordered, run_variant,
    scramble_ids, smoke_scale,
};
use gnnopt_core::{CompileOptions, ExecPolicy, FusionLevel, RecomputeScope, ReorderPolicy};
use gnnopt_graph::{datasets, generators, Graph};
use gnnopt_models::{gat, gcn, EdgeConvConfig, GatConfig, GcnConfig, ModelSpec};
use gnnopt_reorder::locality;
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

    measured_reorder_section();
}

/// Real CPU execution of GAT and GCN training steps on a scrambled RMAT
/// graph: the measured side of runtime reordering. The session relabels
/// the graph once at build (`ExecPolicy::reorder`), so the LRU hit-rate
/// proxy of the gather reads rises and the step's wall-clock drops while
/// outputs and gradients keep the caller's vertex order. At the full
/// RMAT-16 size the vertex feature table (~8 MiB) overflows the cache
/// hierarchy, which is exactly when layout starts to matter.
fn measured_reorder_section() {
    let scale = smoke_scale(16u32, 8);
    let el = scramble_ids(
        &generators::rmat(scale, 16, 0.57, 0.19, 0.19, 7),
        0x9e37_79b9,
    );
    let graph = Graph::from_edge_list(&el);
    println!(
        "\n# Measured runtime reordering — RMAT-{scale} ({} vertices, {} edges), scrambled ids",
        graph.num_vertices(),
        graph.num_edges()
    );

    // LRU hit-rate proxy of the gather reads at an L2-ish capacity
    // (scaled with the graph so the cache-to-graph ratio stays fixed);
    // pick the strategy with the best measured proxy, the profiling-based
    // selection §8 argues runtime preprocessing can afford.
    let cache_rows = (graph.num_vertices() / 16).max(16);
    let hit_before = locality::lru_hit_rate(&el, cache_rows);
    let (strategy, hit_after) = [
        (
            ReorderPolicy::DegreeSort,
            gnnopt_reorder::strategies::degree_sort(&el),
        ),
        (ReorderPolicy::Bfs, gnnopt_reorder::strategies::bfs(&el, 0)),
        (ReorderPolicy::Rcm, gnnopt_reorder::strategies::rcm(&el)),
        (
            ReorderPolicy::Cluster,
            gnnopt_reorder::strategies::cluster(&el, ReorderPolicy::CLUSTER_SWEEPS),
        ),
    ]
    .into_iter()
    .map(|(s, p)| {
        (
            s,
            locality::lru_hit_rate(&p.apply_to_edges(&el), cache_rows),
        )
    })
    .max_by(|a, b| a.1.total_cmp(&b.1))
    .expect("four candidates");
    // Identity stays in the comparison: if no strategy beats the
    // scrambled order's proxy, reordering has nothing to sell at this
    // size and the wall-clock table would only measure noise.
    if hit_after <= hit_before {
        println!(
            "gather LRU hit-rate proxy ({cache_rows} cached rows): scrambled {:.1}% already \
             beats every strategy (best {:?} {:.1}%) — skipping the measured comparison",
            hit_before * 100.0,
            strategy,
            hit_after * 100.0
        );
        return;
    }
    println!(
        "gather LRU hit-rate proxy ({cache_rows} cached rows): scrambled {:.1}% → {:?} {:.1}%",
        hit_before * 100.0,
        strategy,
        hit_after * 100.0
    );

    println!(
        "{:<18} {:<10} {:>10} {:>10} {:>12} {:>10}",
        "model", "order", "fwd (s)", "bwd (s)", "preproc (s)", "speedup"
    );
    let workloads: Vec<(&str, ModelSpec)> = vec![
        (
            "GAT h=2 f=16",
            gat(&GatConfig {
                in_dim: 32,
                layers: vec![(2, 16)],
                negative_slope: 0.2,
                reorganized: true,
            })
            .expect("gat builds"),
        ),
        (
            "GCN 32-16-8",
            gcn(&GcnConfig {
                in_dim: 32,
                layer_dims: vec![16, 8],
            })
            .expect("gcn builds"),
        ),
    ];
    for (name, spec) in workloads {
        let opts = CompileOptions::ours();
        // Warmup pays one-time allocation/page-in outside the timings.
        run_real_reordered(&spec, &graph, &opts, 1, true, 11, ReorderPolicy::None).expect("warmup");
        // Min-of-5 per side: locality effects are small relative to OS
        // scheduling noise on shared CI hosts.
        let best = |reorder: ReorderPolicy| {
            (0..5)
                .map(|_| {
                    let s = run_real_reordered(&spec, &graph, &opts, 1, true, 11, reorder)
                        .expect("step runs");
                    (s.forward_seconds + s.backward_seconds, s)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("three runs")
        };
        let (base_wall, base) = best(ReorderPolicy::None);
        let (reord_wall, reord) = best(strategy);
        for (order, wall, s) in [
            ("scrambled", base_wall, &base),
            ("reordered", reord_wall, &reord),
        ] {
            println!(
                "{:<18} {:<10} {:>10.4} {:>10.4} {:>12.4} {:>9.2}x",
                name,
                order,
                s.forward_seconds,
                s.backward_seconds,
                s.reorder_seconds,
                base_wall / wall,
            );
        }
    }
    println!(
        "(speedup is reordered-vs-scrambled wall-clock; preprocessing is one-time and \
         amortizes over training steps; outputs and gradients keep the caller's vertex order)"
    );
}
