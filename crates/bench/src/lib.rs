//! Experiment harness reproducing every figure of the paper's evaluation
//! (§7): workload builders, the system-variant runner, the normalized
//! report printer, and the figures themselves ([`figures`]), which the
//! one `figures` binary runs by name (README, "Reproducing the paper's
//! figures", is the index). The figures are the paper's analytical GPU
//! model at paper scale; wall time on this host is `gnnbench`'s to
//! measure, nothing here times a CPU step.
//!
//! The analysis only figures read lives here too, not in the compiler or
//! the runtime crates: the mapping autotuner ([`tune`]), DNN segment
//! checkpointing ([`checkpoint`]) and neighbor grouping ([`grouping`]).

pub mod checkpoint;
pub mod figures;
pub mod grouping;
pub mod tune;

pub use grouping::NeighborGrouping;
pub use tune::{autotune_mappings, TuneReport};

use gnnopt_core::ir::Result as IrResult;
use gnnopt_core::{compile, CompileOptions, IrGraph};
use gnnopt_graph::datasets::DatasetSpec;
use gnnopt_graph::GraphStats;
use gnnopt_models::{edgeconv, gat, monet, EdgeConvConfig, GatConfig, MonetConfig};
use gnnopt_sim::{Device, ExecStats};
use serde::Serialize;

/// A named model + graph-statistics pair, ready to compile.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (figure row label).
    pub name: String,
    /// Forward model IR.
    pub ir: IrGraph,
    /// Graph statistics at the *paper's* scale (the simulator needs no
    /// edge arrays, so Reddit runs at its published 114.6 M edges).
    pub stats: GraphStats,
}

/// Result of compiling + simulating one system variant.
#[derive(Debug, Clone, Serialize)]
pub struct VariantResult {
    /// Variant label ("DGL", "fuseGNN", "Ours", …).
    pub system: String,
    /// Analytical statistics on the target device.
    pub stats: ExecStats,
    /// Peak memory if the plan fits the device, else the OOM message.
    pub fits: std::result::Result<u64, String>,
}

/// Compiles `wl` under each `(label, options)` variant and evaluates it
/// analytically on `device`: one result per variant, in order.
///
/// # Errors
///
/// Propagates IR/compile errors.
pub fn run_variants(
    wl: &Workload,
    variants: &[(&str, CompileOptions)],
    training: bool,
    device: &Device,
) -> IrResult<Vec<VariantResult>> {
    variants
        .iter()
        .map(|(label, opts)| {
            let plan = compile(&wl.ir, training, opts)?.plan;
            Ok(VariantResult {
                system: (*label).to_owned(),
                stats: plan.exec_stats(device, &wl.stats),
                fits: plan
                    .check_fits(device, &wl.stats)
                    .map_err(|e| e.to_string()),
            })
        })
        .collect()
}

/// GAT in the Figure 7 setting (2 layers × 128 hidden, single head, as
/// fuseGNN lacks multi-head support). The baselines use the
/// hand-reorganized attention DGL's library ships; "Ours" starts from the
/// naive formulation and relies on the reorganization pass.
///
/// # Errors
///
/// Propagates model-construction errors.
pub fn gat_figure7(ds: &DatasetSpec, reorganized_baseline: bool) -> IrResult<Workload> {
    let mut cfg = GatConfig::figure7(ds.feature_dim, ds.num_classes);
    cfg.reorganized = reorganized_baseline;
    Ok(Workload {
        name: format!("GAT/{}", ds.name),
        ir: gat(&cfg)?.ir,
        stats: ds.full_scale_stats(),
    })
}

/// GAT in the ablation setting (4 heads × 64).
///
/// # Errors
///
/// Propagates model-construction errors.
pub fn gat_ablation(ds: &DatasetSpec, reorganized: bool) -> IrResult<Workload> {
    let mut cfg = GatConfig::ablation(64);
    cfg.reorganized = reorganized;
    Ok(Workload {
        name: format!("GAT/{}", ds.name),
        ir: gat(&cfg)?.ir,
        stats: ds.full_scale_stats(),
    })
}

/// EdgeConv on a synthetic ModelNet40-like batch: `batch` clouds × 1024
/// points, kNN degree `k` (regular in-degree k by construction).
///
/// # Errors
///
/// Propagates model-construction errors.
pub fn edgeconv_workload(k: usize, batch: usize, cfg: &EdgeConvConfig) -> IrResult<Workload> {
    let n = batch * 1024;
    Ok(Workload {
        name: format!("EdgeConv(k={k},b={batch})"),
        ir: edgeconv(cfg)?.ir,
        stats: GraphStats::synthesize_power_law(n, k as f64, 0.0),
    })
}

/// MoNet in the Figure 7 setting with the paper's per-dataset `(K, r)`.
///
/// # Errors
///
/// Propagates model-construction errors.
pub fn monet_figure7(ds: &DatasetSpec) -> IrResult<Workload> {
    let (k, r) = match ds.name {
        "Cora" => (3, 2),
        "Pubmed" | "Citeseer" => (3, 3),
        _ => (2, 1), // Reddit
    };
    Ok(Workload {
        name: format!("MoNet/{}", ds.name),
        ir: monet(&MonetConfig::figure7(ds.feature_dim, ds.num_classes, k, r))?.ir,
        stats: ds.full_scale_stats(),
    })
}

/// MoNet in the ablation setting (K=2, r=1, f=16) on a dataset profile.
///
/// # Errors
///
/// Propagates model-construction errors.
pub fn monet_ablation(ds: &DatasetSpec) -> IrResult<Workload> {
    Ok(Workload {
        name: format!("MoNet/{}", ds.name),
        ir: monet(&MonetConfig {
            in_dim: 16,
            layer_dims: vec![16],
            kernels: 2,
            pseudo_dim: 1,
        })?
        .ir,
        stats: ds.full_scale_stats(),
    })
}

/// Formats bytes as GiB.
pub fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Prints a normalized comparison table (first row = 1.0 baseline), the
/// paper's Figure 7 presentation: higher is better for speedup, lower is
/// better shown as ×-less for IO and memory.
pub fn print_normalized(title: &str, rows: &[VariantResult]) {
    println!("\n== {title} ==");
    let base = &rows[0].stats;
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>9} {:>12} {:>12}",
        "system", "speedup", "io-saving", "mem-saving", "kernels", "latency(ms)", "mem(GiB)"
    );
    for r in rows {
        println!(
            "{:<10} {:>9.2}x {:>11.2}x {:>11.2}x {:>9} {:>12.3} {:>12.3}",
            r.system,
            base.latency / r.stats.latency,
            base.total_io() as f64 / r.stats.total_io() as f64,
            base.peak_memory as f64 / r.stats.peak_memory as f64,
            r.stats.kernels,
            r.stats.latency * 1e3,
            gib(r.stats.peak_memory),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnopt_graph::datasets;

    #[test]
    fn figure7_gat_ours_beats_dgl_on_reddit() {
        let ds = datasets::reddit();
        let device = Device::rtx3090();
        let dgl = &run_variants(
            &gat_figure7(&ds, true).unwrap(),
            &[("DGL", CompileOptions::dgl())],
            true,
            &device,
        )
        .unwrap()[0];
        let ours = &run_variants(
            &gat_figure7(&ds, false).unwrap(),
            &[("Ours", CompileOptions::ours())],
            true,
            &device,
        )
        .unwrap()[0];
        assert!(
            ours.stats.latency < dgl.stats.latency,
            "ours {} vs dgl {}",
            ours.stats.latency,
            dgl.stats.latency
        );
        assert!(ours.stats.peak_memory < dgl.stats.peak_memory);
        assert!(ours.stats.total_io() < dgl.stats.total_io());
    }

    #[test]
    fn edgeconv_memory_savings_are_large() {
        let wl = edgeconv_workload(40, 64, &EdgeConvConfig::paper()).unwrap();
        let rows = run_variants(
            &wl,
            &[
                ("DGL", CompileOptions::dgl()),
                ("Ours", CompileOptions::ours()),
            ],
            true,
            &Device::rtx3090(),
        )
        .unwrap();
        let saving = rows[0].stats.peak_memory as f64 / rows[1].stats.peak_memory as f64;
        assert!(saving > 2.0, "EdgeConv memory saving only {saving:.2}x");
    }
}
