//! Figure 10: ablation of intermediate-data recomputation (§6) — full
//! training step, three variants: no fusion / fusion + stashing / fusion +
//! recomputation. Paper result: recomputation saves 2.21× memory on GAT
//! (at +7.1 % latency) and 1.55× on MoNet (−5.9 % latency); EdgeConv needs
//! no recomputation (its max-gather stashes only an O(|V|) argmax table).
//!
//! Run with `cargo run --release -p gnnopt-bench --bin fig10_recompute`.

use gnnopt_bench::{gat_ablation, gib, monet_ablation, run_variant, VariantResult};
use gnnopt_core::{CompileOptions, ExecPolicy, FusionLevel, RecomputeScope};
use gnnopt_graph::datasets;
use gnnopt_sim::Device;

fn variants() -> Vec<(&'static str, CompileOptions)> {
    let base = CompileOptions {
        reorg: true,
        fusion: FusionLevel::Unified,
        mapping: Default::default(),
        recompute: RecomputeScope::None,
        recompute_threshold: 16.0,
        exec: ExecPolicy::auto(),
    };
    vec![
        // "w/o fusion" retains the standard built-in fused kernels
        // (the paper's system extends DGL; its ablation disables only
        // the unified fusion).
        (
            "w/o fusion",
            CompileOptions {
                fusion: FusionLevel::DglBuiltin,
                ..base
            },
        ),
        ("fusion+stash", base),
        (
            "fusion+recompute",
            CompileOptions {
                recompute: RecomputeScope::All,
                ..base
            },
        ),
    ]
}

fn print_rows(title: &str, rows: &[VariantResult]) {
    println!("\n== {title} (training step) ==");
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>12}",
        "variant", "latency(ms)", "mem(GiB)", "stash(GiB)", "kernels"
    );
    for r in rows {
        println!(
            "{:<18} {:>12.3} {:>12.3} {:>12.3} {:>12}",
            r.system,
            r.stats.latency * 1e3,
            gib(r.stats.peak_memory),
            gib(r.stats.stashed_bytes),
            r.stats.kernels
        );
    }
    let stash = &rows[1];
    let rec = &rows[2];
    println!(
        "recomputation saves {:.2}x memory at {:+.1}% latency",
        stash.stats.peak_memory as f64 / rec.stats.peak_memory as f64,
        (rec.stats.latency / stash.stats.latency - 1.0) * 100.0
    );
}

fn main() {
    let device = Device::rtx3090();
    println!("# Figure 10 — recomputation ablation ({})", device.name);

    let ds = gnnopt_bench::smoke_scale(datasets::reddit(), datasets::pubmed());
    let gat_wl = gat_ablation(&ds, false).expect("gat");
    let rows: Vec<VariantResult> = variants()
        .into_iter()
        .map(|(label, opts)| {
            run_variant(label, &gat_wl.ir, &gat_wl.stats, &opts, true, &device).expect("variant")
        })
        .collect();
    print_rows("GAT h=4 f=64 / Reddit", &rows);

    let monet_wl = monet_ablation(&ds).expect("monet");
    let rows: Vec<VariantResult> = variants()
        .into_iter()
        .map(|(label, opts)| {
            run_variant(label, &monet_wl.ir, &monet_wl.stats, &opts, true, &device)
                .expect("variant")
        })
        .collect();
    print_rows("MoNet k=2 r=1 f=16 / Reddit", &rows);

    println!(
        "\nEdgeConv: Gather(max) stashes only the O(|V|) argmax table — \
         recomputation not applicable (§7.3)."
    );
}
