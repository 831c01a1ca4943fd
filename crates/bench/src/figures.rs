//! The paper's figures, one function each, run by name from the
//! `figures` binary (`figures <name>|all`). Every figure prints its table
//! to stdout, at paper scale, from the analytical GPU model; the output
//! is deterministic.

use crate::checkpoint::{optimal_plan, CheckpointPlan, StageCost};
use crate::{
    autotune_mappings, edgeconv_workload, gat_ablation, gat_figure7, gib, monet_ablation,
    monet_figure7, print_normalized, run_variants, NeighborGrouping, Workload,
};
use gnnopt_core::fusion::MappingPolicy;
use gnnopt_core::ir::Result as IrResult;
use gnnopt_core::memplan::PERSISTENT;
use gnnopt_core::{
    compile, plan_memory, CompileOptions, FusionLevel, MemRegion, OpKind, Phase, RecomputeScope,
};
use gnnopt_graph::knn::PointCloud;
use gnnopt_graph::{datasets, EdgeList, Graph, GraphStats};
use gnnopt_models::{edgeconv, gat, EdgeConvConfig, GatConfig};
use gnnopt_reorder::{locality, strategies, Permutation};
use gnnopt_sim::{Device, KernelEffects, ThreadMapping};

/// A figure: prints its table, or fails on a model that does not compile.
pub type Figure = fn() -> IrResult<()>;

/// Every figure by name, in the order `all` runs them.
pub static FIGURES: [(&str, Figure); 13] = [
    ("fig7_end2end", fig7_end2end),
    ("fig8_reorg", fig8_reorg),
    ("fig9_fusion", fig9_fusion),
    ("fig10_recompute", fig10_recompute),
    ("fig11_gpus", fig11_gpus),
    ("headline_stats", headline_stats),
    ("cost_model_table", cost_model_table),
    ("dnn_checkpoint_compare", dnn_checkpoint_compare),
    ("mapping_ablation", mapping_ablation),
    ("multihead_sweep", multihead_sweep),
    ("recompute_threshold", recompute_threshold),
    ("reorder_ablation", reorder_ablation),
    ("tune_ablation", tune_ablation),
];

/// The figures `name` selects: the one of that name, every one for
/// `all`, `None` for anything else.
pub fn select(name: &str) -> Option<&'static [(&'static str, Figure)]> {
    if name == "all" {
        return Some(&FIGURES);
    }
    let i = FIGURES.iter().position(|(n, _)| *n == name)?;
    Some(&FIGURES[i..=i])
}

/// An ablation variant: the paper's pipeline with its three techniques
/// set one by one (mapping policy, recompute threshold and execution
/// policy stay the paper's).
fn ablation(reorg: bool, fusion: FusionLevel, recompute: RecomputeScope) -> CompileOptions {
    CompileOptions {
        reorg,
        fusion,
        recompute,
        ..CompileOptions::ours()
    }
}

/// §4's ablation, fusion and recomputation off: without, then with
/// reorganization.
fn reorg_variants() -> [(&'static str, CompileOptions); 2] {
    [("baseline", false), ("reorg", true)].map(|(label, reorg)| {
        (
            label,
            ablation(reorg, FusionLevel::None, RecomputeScope::None),
        )
    })
}

/// Figure 7: end-to-end training performance of GAT / EdgeConv / MoNet on
/// the four node-classification datasets (and the ModelNet40 sweep for
/// EdgeConv), normalized to DGL, on the RTX 3090 model.
fn fig7_end2end() -> IrResult<()> {
    let device = Device::rtx3090();
    println!(
        "# Figure 7 — end-to-end training, normalized to DGL ({})",
        device.name
    );
    let dgl = ("DGL", CompileOptions::dgl());
    let fusegnn = ("fuseGNN", CompileOptions::fusegnn());
    let ours = ("Ours", CompileOptions::ours());

    // GAT: 2 × 128 hidden. DGL/fuseGNN run the hand-reorganized attention
    // from DGL's model zoo; "Ours" starts naive and relies on the pass.
    for ds in datasets::figure7_datasets() {
        let rows = [
            run_variants(&gat_figure7(&ds, true)?, &[dgl, fusegnn], true, &device)?,
            run_variants(&gat_figure7(&ds, false)?, &[ours], true, &device)?,
        ]
        .concat();
        print_normalized(&format!("GAT / {}", ds.name), &rows);
    }

    // EdgeConv sweep: k ∈ {20, 40} × batch ∈ {32, 64}; fuseGNN does not
    // implement EdgeConv (§7.1.2), so only DGL vs Ours.
    for k in [20, 40] {
        for batch in [32, 64] {
            let wl = edgeconv_workload(k, batch, &EdgeConvConfig::paper())?;
            print_normalized(&wl.name, &run_variants(&wl, &[dgl, ours], true, &device)?);
        }
    }

    // MoNet: 2 × 16 hidden with per-dataset (K, r); DGL vs Ours.
    for ds in datasets::figure7_datasets() {
        let wl = monet_figure7(&ds)?;
        print_normalized(&wl.name, &run_variants(&wl, &[dgl, ours], true, &device)?);
    }
    Ok(())
}

/// Figure 8: ablation of propagation-postponed operator reorganization
/// (§4) — forward pass only, fusion disabled, so the effect of the
/// rewrite is isolated. Paper result: 1.68× latency, 3.06× IO, 1.30×
/// memory on average (GAT on Pubmed + EdgeConv; MoNet has no Scatter so
/// the pass does not apply).
fn fig8_reorg() -> IrResult<()> {
    let device = Device::rtx3090();
    println!(
        "# Figure 8 — reorganization ablation, forward pass ({})",
        device.name
    );
    let variants = reorg_variants();
    // GAT on Pubmed (the paper evaluates this ablation on Pubmed due to
    // device memory limits), naive vs reorganized; EdgeConv: 1 layer × 64
    // features, k = 40, batch 64.
    for (title, wl) in [
        (
            "GAT / Pubmed (forward)",
            gat_ablation(&datasets::pubmed(), false)?,
        ),
        (
            "EdgeConv k=40 b=64 (forward)",
            edgeconv_workload(40, 64, &EdgeConvConfig::ablation())?,
        ),
    ] {
        print_normalized(title, &run_variants(&wl, &variants, false, &device)?);
    }
    println!("\nMoNet: no Scatter before ApplyEdge — reorganization not applicable (§7.3).");
    Ok(())
}

/// Figure 9: ablation of unified-thread-mapping fusion (§5) — forward
/// pass, reorganization enabled on both sides, fusion off vs unified.
/// Paper result: 1.68× latency, 1.16× IO (up to 5.45×), 4.92× memory on
/// average across GAT / EdgeConv / MoNet.
fn fig9_fusion() -> IrResult<()> {
    let device = Device::rtx3090();
    println!(
        "# Figure 9 — unified-thread-mapping fusion ablation, forward pass ({})",
        device.name
    );
    // "Unfused" keeps the standard built-in fused kernels (DGL's gSpMM /
    // edge-softmax) — the paper's system extends DGL, so its fusion
    // ablation disables only the *unified* fusion.
    let variants = [
        (
            "unfused",
            ablation(true, FusionLevel::DglBuiltin, RecomputeScope::None),
        ),
        (
            "fused",
            ablation(true, FusionLevel::Unified, RecomputeScope::None),
        ),
    ];
    for (title, wl) in [
        (
            "GAT h=4 f=64 / Reddit",
            gat_ablation(&datasets::reddit(), false)?,
        ),
        (
            "EdgeConv f=64 k=40 b=64",
            edgeconv_workload(40, 64, &EdgeConvConfig::ablation())?,
        ),
        (
            "MoNet k=2 r=1 f=16 / Reddit",
            monet_ablation(&datasets::reddit())?,
        ),
    ] {
        print_normalized(title, &run_variants(&wl, &variants, false, &device)?);
    }
    Ok(())
}

/// Figure 10: ablation of intermediate-data recomputation (§6) — full
/// training step, three variants: no fusion / fusion + stashing / fusion +
/// recomputation. Paper result: recomputation saves 2.21× memory on GAT
/// (at +7.1 % latency) and 1.55× on MoNet (−5.9 % latency); EdgeConv needs
/// no recomputation (its max-gather stashes only an O(|V|) argmax table).
fn fig10_recompute() -> IrResult<()> {
    let device = Device::rtx3090();
    println!("# Figure 10 — recomputation ablation ({})", device.name);
    // "w/o fusion" retains the standard built-in fused kernels (the
    // paper's system extends DGL; its ablation disables only the unified
    // fusion).
    let variants = [
        (
            "w/o fusion",
            ablation(true, FusionLevel::DglBuiltin, RecomputeScope::None),
        ),
        (
            "fusion+stash",
            ablation(true, FusionLevel::Unified, RecomputeScope::None),
        ),
        (
            "fusion+recompute",
            ablation(true, FusionLevel::Unified, RecomputeScope::All),
        ),
    ];
    let ds = datasets::reddit();
    for (title, wl) in [
        ("GAT h=4 f=64 / Reddit", gat_ablation(&ds, false)?),
        ("MoNet k=2 r=1 f=16 / Reddit", monet_ablation(&ds)?),
    ] {
        let rows = run_variants(&wl, &variants, true, &device)?;
        println!("\n== {title} (training step) ==");
        println!(
            "{:<18} {:>12} {:>12} {:>12} {:>12}",
            "variant", "latency(ms)", "mem(GiB)", "stash(GiB)", "kernels"
        );
        for r in &rows {
            println!(
                "{:<18} {:>12.3} {:>12.3} {:>12.3} {:>12}",
                r.system,
                r.stats.latency * 1e3,
                gib(r.stats.peak_memory),
                gib(r.stats.stashed_bytes),
                r.stats.kernels
            );
        }
        let (stash, rec) = (&rows[1].stats, &rows[2].stats);
        println!(
            "recomputation saves {:.2}x memory at {:+.1}% latency",
            stash.peak_memory as f64 / rec.peak_memory as f64,
            (rec.latency / stash.latency - 1.0) * 100.0
        );
    }
    println!(
        "\nEdgeConv: Gather(max) stashes only the O(|V|) argmax table — \
         recomputation not applicable (§7.3)."
    );
    Ok(())
}

/// Figure 11: cross-GPU evaluation. The paper's claim: with all three
/// techniques, workloads that OOM on an RTX 2080 (8 GB) under DGL — and
/// need an RTX 3090 (24 GB) — run on the 2080 with comparable latency
/// (EdgeConv even 1.17× faster than DGL-on-3090).
fn fig11_gpus() -> IrResult<()> {
    println!("# Figure 11 — running 24 GB workloads on an 8 GB GPU");
    let (d3090, d2080) = (Device::rtx3090(), Device::rtx2080());
    let (dgl, ours) = (CompileOptions::dgl(), CompileOptions::ours());
    let reddit = datasets::reddit();
    let edgeconv = edgeconv_workload(40, 64, &EdgeConvConfig::paper())?;
    let monet = monet_ablation(&reddit)?;
    // DGL runs its hand-reorganized library GAT; ours starts naive.
    for (dgl_wl, ours_wl) in [
        (gat_ablation(&reddit, true)?, gat_ablation(&reddit, false)?),
        (edgeconv.clone(), edgeconv),
        (monet.clone(), monet),
    ] {
        let rows = [
            run_variants(&dgl_wl, &[("DGL@3090", dgl)], true, &d3090)?,
            run_variants(&dgl_wl, &[("DGL@2080", dgl)], true, &d2080)?,
            run_variants(&ours_wl, &[("Ours@3090", ours)], true, &d3090)?,
            run_variants(&ours_wl, &[("Ours@2080", ours)], true, &d2080)?,
        ]
        .concat();
        println!("\n== {} ==", ours_wl.name);
        println!(
            "{:<12} {:>12} {:>12} {:>8}",
            "system", "latency(ms)", "mem(GiB)", "fits?"
        );
        for r in &rows {
            println!(
                "{:<12} {:>12.3} {:>12.3} {:>8}",
                r.system,
                r.stats.latency * 1e3,
                gib(r.stats.peak_memory),
                if r.fits.is_ok() { "yes" } else { "OOM" }
            );
        }
        if rows[1].fits.is_err() && rows[3].fits.is_ok() {
            println!(
                "→ DGL needs the 24 GB RTX 3090; ours runs on the 8 GB RTX 2080 at {:.2}x \
                 DGL-on-3090 latency",
                rows[0].stats.latency / rows[3].stats.latency
            );
        }
    }
    Ok(())
}

/// The paper's §1 headline measurements:
///
/// * redundant neural-operator computation = **92.4 %** of EdgeConv's
///   operator FLOPs (eliminated by reorganization);
/// * intermediate data = **91.9 %** of GAT's training memory (eliminated
///   by fusion + recomputation).
fn headline_stats() -> IrResult<()> {
    let device = Device::rtx3090();

    // (1) EdgeConv redundancy: FLOPs with and without reorganization.
    let wl = edgeconv_workload(40, 64, &EdgeConvConfig::paper())?;
    let rows = run_variants(&wl, &reorg_variants(), false, &device)?;
    let (naive_flops, reorg_flops) = (rows[0].stats.flops, rows[1].stats.flops);
    let redundant = 1.0 - reorg_flops as f64 / naive_flops as f64;
    println!("EdgeConv (k=40, batch=64, 4 layers):");
    println!("  naive operator FLOPs:        {naive_flops}");
    println!("  reorganized operator FLOPs:  {reorg_flops}");
    println!(
        "  redundant computation:       {:.1}%   (paper: 92.4%)",
        redundant * 100.0
    );

    // (2) GAT intermediate-data share of training memory under DGL.
    let wl = gat_ablation(&datasets::reddit(), true)?;
    let plan = compile(&wl.ir, true, &CompileOptions::dgl())?.plan;
    let mem = plan_memory(&plan, wl.stats.num_vertices(), wl.stats.num_edges(), true);
    // The leaves (inputs, parameters, the gradient seed) are the
    // non-intermediate residents: the planner holds them to reset.
    let leaf = |r: &&MemRegion| r.death == PERSISTENT && plan.ir.node(r.node).inputs.is_empty();
    let persistent: u64 = mem.regions.iter().filter(leaf).map(|r| r.bytes).sum();
    let intermediate = mem.arena_bytes.saturating_sub(persistent);
    println!("\nGAT (h=4, f=64, Reddit) under DGL training:");
    println!("  peak memory:        {:.3} GiB", gib(mem.arena_bytes));
    println!("  inputs+parameters:  {:.3} GiB", gib(persistent));
    println!(
        "  intermediate share: {:.1}%   (paper: 91.9%)",
        intermediate as f64 / mem.arena_bytes as f64 * 100.0
    );
    Ok(())
}

/// The analytical cost examples of §4 and §5, symbolic vs measured:
///
/// * §4 (GAT attention computation): naive `6|E|f + |E|` FLOPs vs
///   reorganized `4|V|f + 2|E|`;
/// * §5 (GAT graph-kernel IO): unfused `|V|hf + 7|E|h + 3|E|hf` vs fused
///   `|V|hf + 5|E|h + 2|E|hf` (element counts).
///
/// Exact constants differ slightly from the paper (it counts feature
/// elements, this harness counts bytes and includes index arrays); the
/// table shows both so the correspondence is auditable.
fn cost_model_table() -> IrResult<()> {
    let v = 10_000u64;
    let stats = GraphStats::synthesize_power_law(v as usize, 20.0, 0.8);
    let e = stats.num_edges() as u64;
    let (h, f) = (1u64, 64u64);

    println!("# Cost-model cross-check on |V|={v}, |E|={e}, heads={h}, f={f}\n");

    // §4: attention-score computation.
    let naive_paper = 6 * e * f + e;
    let reorg_paper = 4 * v * f + 2 * e;
    let ir = gat(&GatConfig {
        in_dim: f as usize,
        layers: vec![(h as usize, f as usize)],
        negative_slope: 0.2,
        reorganized: false,
    })?
    .ir;
    // Count only the attention-score portion: everything except the
    // input projection (first Linear) and the aggregation — the kernels
    // that contain edge-space score math or a head-dot's `Mul` (by the
    // parameter it reads) and `FeatSum`.
    let attention_flops = |reorg: bool| -> IrResult<u64> {
        let opts = ablation(reorg, FusionLevel::None, RecomputeScope::None);
        let plan = compile(&ir, false, &opts)?.plan;
        let profiles = plan.profiles(&stats);
        Ok(plan
            .kernels
            .iter()
            .zip(&profiles)
            .filter(|(k, _)| {
                k.nodes.iter().any(|&n| {
                    let node = plan.ir.node(n);
                    let score = plan.ir.head_dot_operands(n).is_some()
                        || matches!(
                            node.kind,
                            OpKind::FeatSum | OpKind::Scatter(_) | OpKind::Unary(_)
                        );
                    node.phase == Phase::Forward && score && node.dim.feat <= 2 * f as usize
                })
            })
            .map(|(_, p)| p.flops)
            .sum())
    };
    let naive_measured = attention_flops(false)?;
    let reorg_measured = attention_flops(true)?;
    println!("§4 attention computation (FLOPs):");
    println!("  paper naive   6|E|f+|E|  = {naive_paper}");
    println!("  measured naive           = {naive_measured}");
    println!("  paper reorg   4|V|f+2|E| = {reorg_paper}");
    println!("  measured reorg           = {reorg_measured}");
    println!(
        "  reduction: paper {:.2}x, measured {:.2}x\n",
        naive_paper as f64 / reorg_paper as f64,
        naive_measured as f64 / reorg_measured as f64
    );

    // §5: graph-kernel IO in elements (divide bytes by 4).
    let unfused_paper = v * h * f + 7 * e * h + 3 * e * h * f;
    let fused_paper = v * h * f + 5 * e * h + 2 * e * h * f;
    let graph_io = |fusion: FusionLevel| -> IrResult<u64> {
        let opts = ablation(true, fusion, RecomputeScope::None);
        let plan = compile(&ir, false, &opts)?.plan;
        let profiles = plan.profiles(&stats);
        Ok(plan
            .kernels
            .iter()
            .zip(&profiles)
            .filter(|(k, _)| k.mapping != ThreadMapping::Dense)
            .map(|(_, p)| p.bytes_total() / 4)
            .sum())
    };
    let unfused_measured = graph_io(FusionLevel::None)?;
    let fused_measured = graph_io(FusionLevel::Unified)?;
    println!("§5 graph-kernel IO (elements):");
    println!("  paper unfused |V|hf+7|E|h+3|E|hf = {unfused_paper}");
    println!("  measured unfused                 = {unfused_measured}");
    println!("  paper fused   |V|hf+5|E|h+2|E|hf = {fused_paper}");
    println!("  measured fused                   = {fused_measured}");
    println!(
        "  saving: paper {:.2}x, measured {:.2}x",
        unfused_paper as f64 / fused_paper as f64,
        unfused_measured as f64 / fused_measured as f64
    );
    Ok(())
}

/// §8's recomputation comparison, quantified: *"unlike DNN recomputation,
/// which incurs roughly 30% of additional latency (Chen et al., 2016),
/// overhead by our proposed recomputation technique is <10%"*.
///
/// The DNN technique checkpoints segment boundaries of the kernel chain
/// and re-runs whole segments during backward (implemented faithfully in
/// [`crate::checkpoint`], √n heuristic + optimal DP); the paper's §6
/// technique instead recomputes only cheap graph operators inside the
/// fused backward kernels. Both are evaluated on the same GAT training
/// plan; the DNN rows use the checkpoint model over the forward kernels'
/// measured FLOPs/bytes, the "ours" row is the measured difference
/// between the stash-all and recompute compilations.
fn dnn_checkpoint_compare() -> IrResult<()> {
    let device = Device::rtx3090();
    let wl = gat_figure7(&datasets::reddit(), true)?;
    println!(
        "# DNN segment checkpointing vs §6 operator recomputation — GAT 2×128 / Reddit ({})",
        device.name
    );

    // Measured rows: the real compiler with and without §6.
    let rows = run_variants(
        &wl,
        &[
            (
                "stash",
                ablation(true, FusionLevel::Unified, RecomputeScope::None),
            ),
            ("ours", CompileOptions::ours()),
        ],
        true,
        &device,
    )?;
    let (stash, ours) = (&rows[0].stats, &rows[1].stats);

    // DNN rows: segment checkpointing over the *per-operator* forward
    // chain — DNN frameworks checkpoint module boundaries of an unfused
    // op graph, so the stages are the unfused kernels.
    let dnn_opts = ablation(true, FusionLevel::None, RecomputeScope::None);
    let plan = compile(&wl.ir, true, &dnn_opts)?.plan;
    let profiles = plan.profiles(&wl.stats);
    let stages: Vec<StageCost> = plan
        .kernels
        .iter()
        .zip(&profiles)
        .filter(|(k, _)| plan.ir.node(k.nodes[0]).phase == Phase::Forward)
        .map(|(_, p)| StageCost {
            flops: p.flops,
            activation_bytes: p.bytes_written,
        })
        .collect();
    let fwd_flops: u64 = stages.iter().map(|s| s.flops).sum();
    println!(
        "\nforward chain: {} kernels, {:.1} GFLOP, {:.2} GiB of activations",
        stages.len(),
        fwd_flops as f64 / 1e9,
        gib(stages.iter().map(|s| s.activation_bytes).sum())
    );

    println!(
        "\n{:<28} {:>12} {:>16}",
        "scheme", "mem (GiB)", "latency overhead"
    );
    let row = |scheme: &str, plan: &CheckpointPlan, note: &str| {
        println!(
            "{:<28} {:>12.2} {:>15.1}%{note}",
            scheme,
            gib(plan.peak_memory(&stages)),
            plan.overhead_ratio(&stages, 2.0) * 100.0
        );
    };
    let all = CheckpointPlan::stash_all(stages.len());
    row("stash everything", &all, "");
    row(
        "DNN checkpoint (sqrt-n)",
        &CheckpointPlan::sqrt_n(stages.len()),
        "",
    );
    // The best the DNN scheme can do at *any* budget is bounded below by
    // adjacent O(|E|) activations — segments cannot cut through a tensor,
    // and GAT's forward materializes two 56 GiB edge tensors back to
    // back. Bisect for the scheme's floor.
    let mut lo = 0u64;
    let mut hi = all.peak_memory(&stages);
    while hi - lo > (1 << 20) {
        let mid = lo + (hi - lo) / 2;
        if optimal_plan(&stages, mid).is_some() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    if let Some(floor) = optimal_plan(&stages, hi) {
        row(
            "DNN checkpoint (DP floor)",
            &floor,
            "   <- best any segmentation can do",
        );
    }
    match optimal_plan(&stages, ours.peak_memory) {
        Some(opt) => row("DNN checkpoint (DP, ours')", &opt, ""),
        None => println!(
            "{:<28} {:>12} {:>16}   <- no segmentation reaches ours' budget",
            "DNN checkpoint (DP, ours')", "infeasible", "-"
        ),
    }
    let measured_overhead = (ours.latency - stash.latency) / stash.latency;
    println!(
        "{:<28} {:>12.2} {:>15.1}%   <- §6, measured",
        "ours (operator recompute)",
        gib(ours.peak_memory),
        measured_overhead * 100.0
    );
    println!(
        "\npaper's §8 claim reproduced: segment checkpointing pays ≈30% latency and still \
         cannot drop\nbelow the largest O(|E|) tensor; §6's operator recomputation erases \
         those tensors entirely\nat <10% (here ≈0%) overhead."
    );
    Ok(())
}

/// Thread-mapping policy ablation (§5, Figure 5 discussion): the same
/// fused EdgeConv kernel under vertex-balanced vs edge-balanced mappings,
/// on a balanced graph (kNN-regular) and a skewed one (power-law).
///
/// Expected shape: vertex-balanced wins on balanced graphs (no atomics);
/// on skewed graphs its imbalance penalty grows while edge-balanced pays
/// the atomic penalty instead — the trade-off §5 proposes selecting by
/// profiling.
fn mapping_ablation() -> IrResult<()> {
    let device = Device::rtx3090();
    println!(
        "# Thread-mapping ablation (fused EdgeConv forward, {})",
        device.name
    );
    // EdgeConv has no softmax, so the kernel can genuinely run under
    // either mapping.
    let ir = edgeconv(&EdgeConvConfig::ablation())?.ir;
    let variants = [
        ("vertex", MappingPolicy::ForceVertex),
        ("edge", MappingPolicy::ForceEdge),
    ]
    .map(|(label, mapping)| {
        let opts = CompileOptions {
            mapping,
            ..CompileOptions::ours()
        };
        (label, opts)
    });
    println!(
        "\n{:<28} {:>16} {:>16} {:>12}",
        "graph", "vertex-bal (ms)", "edge-bal (ms)", "imbalance"
    );
    for (name, skew) in [
        ("regular (kNN, deg=40)", 0.0),
        ("skewed (power-law, deg=40)", 1.2),
    ] {
        let wl = Workload {
            name: name.to_owned(),
            ir: ir.clone(),
            stats: GraphStats::synthesize_power_law(65536, 40.0, skew),
        };
        let rows = run_variants(&wl, &variants, false, &device)?;
        println!(
            "{:<28} {:>16.3} {:>16.3} {:>11.2}x",
            name,
            rows[0].stats.latency * 1e3,
            rows[1].stats.latency * 1e3,
            wl.stats.vertex_balanced_imbalance(device.thread_groups)
        );
    }
    println!(
        "\nBoth mappings are IO-bound here, so latencies stay close — the paper's\n\
         §5 observation that the vertex-balanced imbalance \"is minor as long as we\n\
         have enough parallelism\" and \"worth taking if it enables kernel fusion\".\n\
         Auto policy picks vertex-balanced when a reduction/softmax is present and\n\
         edge-balanced otherwise."
    );
    Ok(())
}

/// Multi-head sweep: the paper's §7.2 remark — *"The memory saving will
/// be more significant if applying multi-head mechanism as in the
/// original paper"* — evaluated on the GPU model. GAT training on Reddit
/// with heads ∈ {1, 2, 4, 8}, DGL baseline vs. Ours; the eliminated
/// intermediates are `O(|E|·h)`, so the saving factor must grow with the
/// head count.
fn multihead_sweep() -> IrResult<()> {
    let device = Device::rtx3090();
    let ds = datasets::reddit();
    println!(
        "# Multi-head sweep — GAT training on {} ({}), f=64 per head",
        ds.name, device.name
    );
    println!(
        "{:>6} {:>14} {:>14} {:>12} {:>12}",
        "heads", "DGL mem (GiB)", "Ours mem (GiB)", "mem saving", "speedup"
    );
    for heads in [1usize, 2, 4, 8] {
        let cfg = GatConfig {
            in_dim: 64,
            layers: vec![(heads, 64)],
            negative_slope: 0.2,
            reorganized: true, // DGL's library form; Ours re-derives it
        };
        let wl = Workload {
            name: format!("GAT h={heads}"),
            ir: gat(&cfg)?.ir,
            stats: ds.full_scale_stats(),
        };
        let rows = run_variants(
            &wl,
            &[
                ("DGL", CompileOptions::dgl()),
                ("Ours", CompileOptions::ours()),
            ],
            true,
            &device,
        )?;
        let (dgl, ours) = (&rows[0].stats, &rows[1].stats);
        println!(
            "{:>6} {:>14.2} {:>14.2} {:>11.2}x {:>11.2}x",
            heads,
            gib(dgl.peak_memory),
            gib(ours.peak_memory),
            dgl.peak_memory as f64 / ours.peak_memory as f64,
            dgl.latency / ours.latency,
        );
    }
    Ok(())
}

/// Ablation of the §6 recomputation criterion
/// `ComputationCost / MemoryCost ≤ O(1)`.
///
/// The paper fixes the criterion at "no more than one FLOP-ish per
/// rebuilt element"; this sweep varies the threshold from
/// never-recompute (0) to recompute-everything-cheap (10⁶) and reports
/// the latency/memory trade-off curve on GAT and MoNet training. The
/// paper's operating point (≈16 FLOPs/element, admitting the edge-softmax
/// rebuild) should sit at the memory floor with single-digit-percent
/// latency overhead.
fn recompute_threshold() -> IrResult<()> {
    let device = Device::rtx3090();
    println!("# Recomputation-threshold sweep ({})", device.name);
    let thresholds = [0.0, 1.0, 4.0, 16.0, 64.0, 1e6];
    let variants = thresholds.map(|threshold| {
        let opts = CompileOptions {
            recompute: if threshold == 0.0 {
                RecomputeScope::None
            } else {
                RecomputeScope::All
            },
            recompute_threshold: threshold,
            ..CompileOptions::ours()
        };
        ("ours", opts)
    });
    let ds = datasets::reddit();
    for (title, wl) in [
        (
            format!("GAT h=4 f=64 / {} (training)", ds.name),
            gat_ablation(&ds, false)?,
        ),
        (
            format!("MoNet k=2 r=1 f=16 / {} (training)", ds.name),
            monet_ablation(&ds)?,
        ),
    ] {
        println!("\n== {title} ==");
        println!(
            "{:>12} {:>12} {:>12} {:>14} {:>10}",
            "threshold", "latency(ms)", "mem(GiB)", "stash(GiB)", "kernels"
        );
        let rows = run_variants(&wl, &variants, true, &device)?;
        for (threshold, r) in thresholds.iter().zip(&rows) {
            println!(
                "{:>12} {:>12.3} {:>12.3} {:>14.3} {:>10}",
                if *threshold == 0.0 {
                    "stash-all".to_owned()
                } else {
                    format!("{threshold}")
                },
                r.stats.latency * 1e3,
                gib(r.stats.peak_memory),
                gib(r.stats.stashed_bytes),
                r.stats.kernels,
            );
        }
    }
    Ok(())
}

/// The "ingestion order" baseline reordering experiments measure against:
/// a deterministic LCG-driven Fisher–Yates relabeling — real graph
/// loaders assign ids in arrival order, which carries no locality, while
/// synthetic generators often leak theirs.
fn scramble(el: &EdgeList) -> EdgeList {
    let n = el.num_vertices();
    let mut ids: Vec<u32> = (0..n as u32).collect();
    let mut state = 0x9e37_79b9u64;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        ids.swap(i, j);
    }
    Permutation::from_order(&ids)
        .expect("shuffled ids are a bijection")
        .apply_to_edges(el)
}

/// A graph's canonical edges as an edge list, in edge-id order.
fn edge_list(g: &Graph) -> EdgeList {
    let pairs: Vec<(u32, u32)> = (0..g.num_edges())
        .map(|e| (g.src(e) as u32, g.dst(e) as u32))
        .collect();
    EdgeList::from_pairs(g.num_vertices(), &pairs)
}

/// Runtime-optimization ablation: vertex reordering and GNNAdvisor-style
/// neighbor grouping (§8 related work) composed with the paper's fused
/// kernels.
///
/// Two effects are quantified on the fused GAT graph kernel:
///
/// * **Reordering** raises the L2 hit rate of gather reads (measured with
///   the exact LRU model on the executable scaled Reddit graph), which
///   shrinks the DRAM IO term of the roofline.
/// * **Neighbor grouping** flattens the degree skew seen by the
///   vertex-balanced mapping, trading a bounded number of cross-group
///   merges for the imbalance factor.
///
/// Both are preprocessing passes; the final table reports how many
/// training iterations amortize each preprocessing cost. The only slow
/// figure: it builds the ~7 M-edge scaled Reddit graph.
fn reorder_ablation() -> IrResult<()> {
    let device = Device::rtx3090();
    let ds = datasets::reddit();
    println!(
        "# Reordering + neighbor-grouping ablation — fused GAT kernel on {} ({})",
        ds.name, device.name
    );

    // ---------- Reordering: LRU hit rate on the executable graph ----------
    // Baseline is a *scrambled* id order: real graph ingestion assigns ids
    // in arrival order, which carries no locality. (The synthetic
    // generator's own order is shown too — RMAT ids are already skew-
    // sorted, which is why reordering papers always scramble first.)
    let generator_order = edge_list(&ds.build_graph(17));
    let el = scramble(&generator_order);
    // L2 capacity in feature rows: h=4, f=64 → 1 KiB per row. The
    // executable graph is `exec_scale` of full Reddit, so the cache is
    // scaled by the same factor to keep the cache-to-graph ratio of the
    // real device (a full-size L2 against a 1/16 graph would make every
    // ordering look perfect).
    let row_bytes = 4 * 64 * 4;
    let cache_rows = ((device.l2_bytes / row_bytes) as f64 * ds.exec_scale) as usize;

    println!(
        "\n== gather locality (L2 = {} rows of h·f floats) ==",
        cache_rows
    );
    println!("{:<14} {:>10} {:>12}", "order", "hit rate", "mean |u-v|");
    let orders = [
        ("scrambled", None),
        ("generator", None),
        ("degree-sort", Some(strategies::degree_sort(&el))),
        ("bfs", Some(strategies::bfs(&el, 0))),
        ("rcm", Some(strategies::rcm(&el))),
        ("cluster", Some(strategies::cluster(&el, 4))),
    ];
    let mut baseline = 0.0;
    let mut best = (0.0, "scrambled");
    for (name, perm) in orders {
        let relabeled;
        let ordered = match perm {
            Some(p) => {
                relabeled = p.apply_to_edges(&el);
                &relabeled
            }
            None if name == "generator" => &generator_order,
            None => &el,
        };
        let hit = locality::lru_hit_rate(ordered, cache_rows);
        let rep = locality::report(ordered);
        if name == "scrambled" {
            baseline = hit;
        }
        if hit > best.0 && name != "generator" {
            best = (hit, name);
        }
        println!("{:<14} {:>9.1}% {:>12.0}", name, hit * 100.0, rep.mean_gap);
    }

    // Effect on the fused kernel's modeled latency at paper scale: the
    // gather reads (≈70 % of graph-kernel reads) hit L2 at the measured
    // rate of each ordering.
    let wl = gat_ablation(&ds, false)?;
    let plan = compile(&wl.ir, true, &CompileOptions::ours())?.plan;
    let profiles = plan.profiles(&wl.stats);
    let latency_at = |hit: f64| -> f64 {
        profiles
            .iter()
            .map(|p| {
                if p.mapping.is_graph() {
                    device.kernel_latency_with(p, &wl.stats, &KernelEffects::locality(hit, 0.7))
                } else {
                    device.kernel_latency(p, &wl.stats)
                }
            })
            .sum()
    };
    let base = latency_at(baseline);
    let reordered = latency_at(best.0);
    println!(
        "\ntraining-step latency: scrambled {:.3} ms → {} {:.3} ms ({:.2}x)",
        base * 1e3,
        best.1,
        reordered * 1e3,
        base / reordered
    );

    // ---------- Reordering on a structured graph: EdgeConv kNN ----------
    // RMAT-folded Reddit has little community structure to recover; the
    // paper's other workload does: a point-cloud kNN graph is a spatial
    // mesh, the classic reordering win.
    let kg = PointCloud::synthetic(4, 1024, 23).knn_graph(20);
    let knn_scrambled = scramble(&edge_list(&kg));
    // f=64 rows, same scaled-cache reasoning (4×1024 points vs a 256-row
    // slice of L2 keeps the ratio of a full ModelNet batch).
    let knn_cache = 256;
    println!(
        "\n== gather locality, EdgeConv kNN (k=20, {} points, {} cached rows) ==",
        kg.num_vertices(),
        knn_cache
    );
    println!("{:<14} {:>10}", "order", "hit rate");
    for (name, ordered) in [
        ("scrambled", knn_scrambled.clone()),
        (
            "rcm",
            strategies::rcm(&knn_scrambled).apply_to_edges(&knn_scrambled),
        ),
        (
            "cluster",
            strategies::cluster(&knn_scrambled, 4).apply_to_edges(&knn_scrambled),
        ),
    ] {
        println!(
            "{:<14} {:>9.1}%",
            name,
            locality::lru_hit_rate(&ordered, knn_cache) * 100.0
        );
    }

    // ---------- Neighbor grouping: imbalance flattening ----------
    println!("\n== neighbor grouping (vertex-balanced imbalance, full-scale Reddit) ==");
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>14}",
        "group size", "groups", "imbalance", "merge ops", "preproc (MiB)"
    );
    let stats = ds.full_scale_stats();
    let workers = device.thread_groups;
    println!(
        "{:<12} {:>10} {:>12.2} {:>12} {:>14}",
        "ungrouped",
        stats.num_vertices(),
        stats.vertex_balanced_imbalance(workers),
        0,
        0
    );
    for gs in [1024usize, 256, 64, 16] {
        let grouping = NeighborGrouping::build(&stats, gs);
        println!(
            "{:<12} {:>10} {:>12.2} {:>12} {:>14.1}",
            gs,
            grouping.num_groups(),
            grouping.grouped_stats().vertex_balanced_imbalance(workers),
            grouping.merge_ops(),
            grouping.preprocessing_bytes() as f64 / (1 << 20) as f64,
        );
    }
    // Amortization: one preprocessing pass is ~2 edge-index scans.
    let grouping = NeighborGrouping::build(&stats, 64);
    let preproc_s = grouping.preprocessing_bytes() as f64 * 2.0 / device.bandwidth;
    let per_step_gain =
        base * (1.0 - 1.0 / stats.vertex_balanced_imbalance(workers).min(8.0)) * 0.3;
    println!(
        "\npreprocessing ≈ {:.3} ms, amortized after ~{} training steps",
        preproc_s * 1e3,
        (preproc_s / per_step_gain).ceil() as u64
    );
    Ok(())
}

/// Mapping-policy ablation with the §5 profiling alternative: static
/// Auto / ForceVertex / ForceEdge policies, each followed by the
/// profile-driven autotuner ([`crate::tune`]), on a skewed graph (Reddit)
/// and a regular one (EdgeConv kNN).
///
/// The paper: *"In general, we can select between vertex-balanced or
/// edge-balanced mapping based on performance profiling."* The tuner must
/// never lose to its starting policy, and it should repair a bad static
/// choice (ForceEdge on softmax-free kernels, ForceVertex on skew) up to
/// the best static row. Kernels containing an edge-softmax stay pinned
/// vertex-balanced, so GAT's fused kernels report 0 considered.
fn tune_ablation() -> IrResult<()> {
    let device = Device::rtx3090();
    println!("# Mapping-policy ablation, training step ({})", device.name);
    for (title, wl) in [
        (
            "GAT h=4 f=64 (skewed)",
            gat_ablation(&datasets::reddit(), false)?,
        ),
        (
            "EdgeConv f=64 k=40 (regular)",
            edgeconv_workload(40, 64, &EdgeConvConfig::ablation())?,
        ),
    ] {
        println!("\n== {title} ==");
        println!(
            "{:<14} {:>12} {:>12} {:>12}",
            "start policy", "static(ms)", "tuned(ms)", "re-mapped"
        );
        let mut best_static = f64::INFINITY;
        let mut best_tuned = f64::INFINITY;
        for (name, mapping) in [
            ("auto", MappingPolicy::Auto),
            ("force-vertex", MappingPolicy::ForceVertex),
            ("force-edge", MappingPolicy::ForceEdge),
        ] {
            let opts = CompileOptions {
                mapping,
                ..CompileOptions::ours()
            };
            let mut plan = compile(&wl.ir, true, &opts)?.plan;
            let static_lat = plan.exec_stats(&device, &wl.stats).latency;
            let report = autotune_mappings(&mut plan, &device, &wl.stats);
            let tuned_lat = plan.exec_stats(&device, &wl.stats).latency;
            assert!(
                tuned_lat <= static_lat * 1.0001,
                "the tuner must never lose to its starting policy"
            );
            best_static = best_static.min(static_lat);
            best_tuned = best_tuned.min(tuned_lat);
            println!(
                "{:<14} {:>12.3} {:>12.3} {:>9}/{}",
                name,
                static_lat * 1e3,
                tuned_lat * 1e3,
                report.switched,
                report.considered,
            );
        }
        assert!(
            best_tuned <= best_static * 1.0001,
            "tuning must reach the best static configuration"
        );
    }
    Ok(())
}
