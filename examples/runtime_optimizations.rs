//! Runtime optimizations on top of the compiler: vertex reordering,
//! neighbor grouping, profile-driven mapping tuning, and a kernel
//! timeline trace.
//!
//! The paper separates computational-graph optimization (its
//! contribution) from runtime optimization à la GNNAdvisor (§8). This
//! example composes both: compile a GAT with the paper's three passes,
//! then (1) reorder the graph for gather locality, (2) flatten the degree
//! skew with neighbor grouping, (3) relabel graph and bindings once and
//! run an ordinary session on the result, (4) let the autotuner re-check
//! every kernel's thread mapping, and (5) dump the per-kernel timeline.
//!
//! Run with `cargo run --release --example runtime_optimizations`.

use gnnopt::core::{autotune_mappings, compile, CompileOptions};
use gnnopt::graph::{generators, EdgeList, Graph};
use gnnopt::models::{gat, GatConfig};
use gnnopt::reorder::{locality, strategies, NeighborGrouping};
use gnnopt::sim::{Device, KernelEffects, Timeline, TracePhase};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let el: EdgeList = generators::rmat(11, 24, 0.57, 0.19, 0.19, 3);
    let graph = Graph::from_edge_list(&el);
    let stats = graph.stats();
    let device = Device::rtx3090();
    println!(
        "graph: {} vertices, {} edges, max in-degree {}",
        graph.num_vertices(),
        graph.num_edges(),
        stats.degree_summary().max
    );

    // 1. Reordering: measure the gather hit rate of each vertex order.
    let cache_rows = 256;
    println!("\n-- gather locality ({cache_rows}-row cache) --");
    for (name, perm) in [
        ("rcm", strategies::rcm(&el)),
        ("cluster", strategies::cluster(&el, 4)),
    ] {
        let before = locality::lru_hit_rate(&el, cache_rows);
        let after = locality::lru_hit_rate(&perm.apply_to_edges(&el), cache_rows);
        println!(
            "  {name:<8} hit rate {:.1}% → {:.1}%",
            before * 100.0,
            after * 100.0
        );
    }

    // 2. Neighbor grouping: flatten the skew seen by vertex-balanced
    //    kernels.
    println!("\n-- neighbor grouping --");
    let before = stats.vertex_balanced_imbalance(device.thread_groups);
    let grouping = NeighborGrouping::build(&stats, 64);
    let after = grouping
        .grouped_stats()
        .vertex_balanced_imbalance(device.thread_groups);
    println!(
        "  imbalance {before:.2} → {after:.2} with {} groups (+{} merges)",
        grouping.num_groups(),
        grouping.merge_ops()
    );

    // 3. Reordering for real: the executor knows nothing of it. Relabel
    //    the graph and every vertex/edge-space binding once, run an
    //    ordinary session on the result, and move the output rows back.
    let spec = gat(&GatConfig {
        in_dim: 64,
        layers: vec![(4, 32)],
        negative_slope: 0.2,
        reorganized: false,
    })?;
    {
        use gnnopt::core::Space;
        use gnnopt::exec::{Bindings, Session};
        use gnnopt::reorder::Permutation;
        let compiled = compile(&spec.ir, true, &CompileOptions::ours())?;
        let values = spec.init_values(&graph, 7);

        let t0 = std::time::Instant::now();
        let perm = strategies::rcm(&el);
        let (relabeled, edge_map) = perm.apply_to_graph(&graph);
        let edge_perm = Permutation::from_new_of_old(edge_map)?;
        let mut bindings = Bindings::new();
        for (name, space, _) in &spec.inputs {
            let t = match space {
                Space::Vertex => perm.permute_tensor_rows(&values[name]),
                Space::Edge => edge_perm.permute_tensor_rows(&values[name]),
                Space::Param => values[name].clone(),
            };
            bindings.insert(name, t);
        }
        for (name, ..) in &spec.params {
            bindings.insert(name, values[name].clone());
        }
        let relabel_seconds = t0.elapsed().as_secs_f64();

        let mut sess = Session::builder(&compiled.plan, &relabeled).build()?;
        let out = perm.unpermute_tensor_rows(&sess.forward(&bindings)?[0]);
        println!(
            "\n-- relabeled once with rcm in {relabel_seconds:.3}s, forward {:.3}s, \
             output back in caller order: {} rows --",
            sess.stats().forward_seconds,
            out.rows(),
        );
    }

    // 4. Compile with the paper's passes, then autotune the mappings.
    let mut plan = compile(&spec.ir, true, &CompileOptions::ours())?.plan;
    let report = autotune_mappings(&mut plan, &device, &stats);
    println!(
        "\n-- mapping autotune: {}/{} kernels re-mapped, {:.2}x --",
        report.switched,
        report.considered,
        report.speedup()
    );

    // 5. Timeline: simulate each kernel and record a trace.
    let mut timeline = Timeline::new();
    let profiles = plan.profiles(&stats);
    for (kernel, profile) in plan.kernels.iter().zip(&profiles) {
        let phase = if plan.ir.node(kernel.nodes[0]).phase == gnnopt::core::Phase::Forward {
            TracePhase::Forward
        } else {
            TracePhase::Backward
        };
        // Fused graph kernels benefit from the reordered gather locality.
        let latency = if profile.mapping.is_graph() {
            device.kernel_latency_with(profile, &stats, &KernelEffects::locality(0.4, 0.7))
        } else {
            device.kernel_latency(profile, &stats)
        };
        let name = kernel
            .nodes
            .iter()
            .map(|&n| plan.ir.node(n).name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        timeline.record(name, phase, *profile, latency);
    }
    println!("\n{timeline}");
    let fwd = timeline.breakdown(TracePhase::Forward);
    let bwd = timeline.breakdown(TracePhase::Backward);
    println!(
        "\nforward {:.1} µs over {} kernels; backward {:.1} µs over {} kernels",
        fwd.latency * 1e6,
        fwd.kernels,
        bwd.latency * 1e6,
        bwd.kernels
    );
    // The JSON trace round-trips for external tooling.
    let json = timeline.to_json()?;
    assert_eq!(Timeline::from_json(&json)?, timeline);
    println!("trace JSON: {} bytes", json.len());
    Ok(())
}
