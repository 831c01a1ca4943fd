//! Figure 7: end-to-end training performance of GAT / EdgeConv / MoNet on
//! the four node-classification datasets (and the ModelNet40 sweep for
//! EdgeConv), normalized to DGL, on the RTX 3090 model — plus a real CPU
//! serial-vs-parallel scaling section on a million-edge graph
//! (`ExecPolicy` thread sweep; override the auto pool with
//! `GNNOPT_THREADS`).
//!
//! Run with `cargo run --release -p gnnopt-bench --bin fig7_end2end`.

use gnnopt_bench::{
    edgeconv_workload, figure7_systems, gat_figure7, monet_figure7, print_normalized, run_real,
    run_variant, smoke, smoke_scale, with_real_run,
};
use gnnopt_core::CompileOptions;
use gnnopt_graph::{datasets, generators, Graph};
use gnnopt_models::{gat, EdgeConvConfig, GatConfig};
use gnnopt_sim::Device;
use gnnopt_tensor::parallel::available_threads;

fn main() {
    let device = Device::rtx3090();
    println!(
        "# Figure 7 — end-to-end training, normalized to DGL ({})",
        device.name
    );

    // GAT: 2 × 128 hidden. DGL/fuseGNN run the hand-reorganized attention
    // from DGL's model zoo; "Ours" starts naive and relies on the pass.
    // GNNOPT_SMOKE=1 keeps one dataset and one sweep point per section.
    let mut figure7 = datasets::figure7_datasets();
    if smoke() {
        figure7.truncate(1);
    }
    for ds in figure7.clone() {
        let mut rows = Vec::new();
        for (label, opts) in figure7_systems() {
            let wl = gat_figure7(&ds, label != "Ours").expect("gat workload");
            rows.push(
                run_variant(label, &wl.ir, &wl.stats, &opts, true, &device).expect("variant runs"),
            );
        }
        print_normalized(&format!("GAT / {}", ds.name), &rows);
    }

    // EdgeConv sweep: k ∈ {20, 40} × batch ∈ {32, 64}; fuseGNN does not
    // implement EdgeConv (§7.1.2), so only DGL vs Ours.
    for k in smoke_scale(vec![20, 40], vec![20]) {
        for batch in smoke_scale(vec![32, 64], vec![32]) {
            let wl = edgeconv_workload(k, batch, &EdgeConvConfig::paper()).expect("workload");
            let mut rows = Vec::new();
            for (label, opts) in figure7_systems() {
                if label == "fuseGNN" {
                    continue;
                }
                rows.push(
                    run_variant(label, &wl.ir, &wl.stats, &opts, true, &device)
                        .expect("variant runs"),
                );
            }
            print_normalized(&wl.name, &rows);
        }
    }

    // MoNet: 2 × 16 hidden with per-dataset (K, r); DGL vs Ours.
    for ds in figure7 {
        let wl = monet_figure7(&ds).expect("workload");
        let mut rows = Vec::new();
        for (label, opts) in figure7_systems() {
            if label == "fuseGNN" {
                continue;
            }
            rows.push(
                run_variant(label, &wl.ir, &wl.stats, &opts, true, &device).expect("variant runs"),
            );
        }
        print_normalized(&wl.name, &rows);
    }

    real_scaling_section();
}

/// Real CPU execution of a GAT training step on a ≥1M-edge RMAT graph,
/// swept over executor thread counts: the "fast as the hardware allows"
/// axis the analytic model cannot show. The parallel backend is
/// bit-identical to serial, so the sweep only measures time.
fn real_scaling_section() {
    // RMAT scale 16 × edge factor 16 ≈ 1.05 M edges (scale 8 in smoke).
    let scale = smoke_scale(16u32, 8);
    let graph = Graph::from_edge_list(&generators::rmat(scale, 16, 0.57, 0.19, 0.19, 7));
    let spec = gat(&GatConfig {
        in_dim: 32,
        layers: vec![(2, 16)],
        negative_slope: 0.2,
        reorganized: true,
    })
    .expect("gat builds");
    println!(
        "\n# Real CPU execution — GAT training step, RMAT-{scale} ({} vertices, {} edges)",
        graph.num_vertices(),
        graph.num_edges()
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10}",
        "threads", "fwd (s)", "bwd (s)", "wall (s)", "speedup"
    );
    // The analytic record for the same workload; each measured run is
    // folded in so the report row carries its input (cpu_threads)
    // alongside the measurement (wall_seconds).
    let analytic = run_variant(
        "Ours",
        &spec.ir,
        &graph.stats(),
        &CompileOptions::ours(),
        true,
        &Device::rtx3090(),
    )
    .expect("analytic record");
    let auto = available_threads();
    let mut sweep = smoke_scale(vec![1, 2, 4], vec![1, 2]);
    if !smoke() && !sweep.contains(&auto) {
        sweep.push(auto);
    }
    // Warmup: pay one-time allocation/page-in costs outside the sweep so
    // the serial baseline is not inflated.
    run_real(&spec, &graph, &CompileOptions::ours(), 1, true, 11).expect("warmup run");
    let mut serial_total = 0.0f64;
    for threads in sweep {
        let run = run_real(&spec, &graph, &CompileOptions::ours(), threads, true, 11)
            .expect("real run compiles");
        let stats = with_real_run(analytic.stats, &run);
        if threads == 1 {
            serial_total = stats.wall_seconds;
        }
        println!(
            "{:>8} {:>12.3} {:>12.3} {:>12.3} {:>9.2}x",
            stats.cpu_threads,
            run.forward_seconds,
            run.backward_seconds,
            stats.wall_seconds,
            serial_total / stats.wall_seconds,
        );
    }
}
