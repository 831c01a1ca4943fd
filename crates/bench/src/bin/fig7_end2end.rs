//! Figure 7: end-to-end training performance of GAT / EdgeConv / MoNet on
//! the four node-classification datasets (and the ModelNet40 sweep for
//! EdgeConv), normalized to DGL, on the RTX 3090 model.
//!
//! Run with `cargo run --release -p gnnopt-bench --bin fig7_end2end`.

use gnnopt_bench::{
    edgeconv_workload, figure7_systems, gat_figure7, monet_figure7, print_normalized, run_variant,
    smoke, smoke_scale,
};
use gnnopt_graph::datasets;
use gnnopt_models::EdgeConvConfig;
use gnnopt_sim::Device;

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
}
