//! `gnnopt-inspect` — the compiler's introspection CLI.
//!
//! Builds a named model, compiles it under a named preset, and dumps any
//! of: the (rewritten) IR, the kernel plan with stash/recompute decisions,
//! the compiled kernel programs (per stage the tile unit, streamed unit
//! or dense call a launch runs: each op's slot size, strip, aliases and
//! resolved operands, and which inputs are released after which stage),
//! the static memory plan (per-region offsets and `k<kernel>.<stage>`
//! lifetimes at Reddit scale), a Graphviz rendering, the
//! analytical per-kernel timeline on a device, or a JSON trace. The
//! tool a downstream user reaches for first when a plan does something
//! unexpected.
//!
//! ```text
//! cargo run --release --bin gnnopt-inspect -- gat ours plan
//! cargo run --release --bin gnnopt-inspect -- edgeconv dgl dot > plan.dot
//! cargo run --release --bin gnnopt-inspect -- monet ours timeline --device 2080
//! ```

use gnnopt::core::{compile, display, CompileOptions, Phase, Preset};
use gnnopt::graph::datasets;
use gnnopt::models::*;
use gnnopt::sim::{Device, Timeline, TracePhase};
use std::process::ExitCode;

const USAGE: &str =
    "usage: gnnopt-inspect <model> <preset> <view> [--device 3090|2080] [--inference] [--shards N]
  model:  gat | gatv2 | edgeconv | monet | gcn | sage | gin | appnp
  preset: dgl | fusegnn | ours
  view:   ir | plan | programs | memory | dot | timeline | json | shards
  shards: partitions an RMAT-14 graph into N edge-cut shards (default 4)
          and prints per-shard sizes, arenas, halo rows and the per-kernel
          exchange schedule of one training step";

fn model_ir(name: &str) -> Option<ModelSpec> {
    let spec = match name {
        "gat" => gat(&GatConfig::ablation(64)),
        "gatv2" => gatv2(&Gatv2Config::ablation(64)),
        "edgeconv" => edgeconv(&EdgeConvConfig::ablation()),
        "monet" => monet(&MonetConfig {
            in_dim: 16,
            layer_dims: vec![16],
            kernels: 2,
            pseudo_dim: 1,
        }),
        "gcn" => gcn(&GcnConfig::two_layer(64, 32, 7)),
        "sage" => sage(&SageConfig::mean(64, vec![32, 7])),
        "sage-pool" => sage(&SageConfig::max_pool(64, vec![32, 7])),
        "gin" => gin(&GinConfig {
            in_dim: 64,
            layer_dims: vec![32, 7],
            epsilon: 0.1,
        }),
        "appnp" => appnp(&AppnpConfig::standard(64, 32, 7)),
        _ => return None,
    };
    Some(spec.expect("model builders are infallible for valid configs"))
}

fn preset_of(name: &str) -> Option<Preset> {
    Some(match name {
        "dgl" => Preset::Dgl,
        "fusegnn" => Preset::FuseGnn,
        "ours" => Preset::Ours,
        _ => return None,
    })
}

/// Builds a sharded session over an RMAT-14 graph, runs one training
/// step, and prints per-shard sizes, arenas and the exchange schedule.
fn inspect_shards(spec: &ModelSpec, plan: &gnnopt::core::ExecutionPlan, k: usize) -> ExitCode {
    use gnnopt::exec::{Bindings, ShardedSession};
    use gnnopt::graph::{generators, Graph};
    use gnnopt::tensor::Tensor;

    let graph = Graph::from_edge_list(&generators::rmat(14, 16, 0.57, 0.19, 0.19, 7));
    let mut sess = match ShardedSession::builder(plan, &graph).shards(k).build() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sharded session failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut b = Bindings::new();
    for (name, v) in spec.init_values(&graph, 11) {
        b.insert(&name, v.clone());
    }
    let seed = Tensor::ones(&[graph.num_vertices(), spec.output_dim()]);
    if let Err(e) = sess.step(&b, &seed) {
        eprintln!("sharded step failed: {e}");
        return ExitCode::FAILURE;
    }
    let stats = sess.stats();
    println!(
        "sharded execution: {} shards over |V|={} |E|={} (rmat-14 ef16)",
        sess.num_shards(),
        graph.num_vertices(),
        graph.num_edges()
    );
    println!(
        "cut edges: {}  halo vertices: {}  comm: {} bytes in {} exchanges/step",
        stats.cut_edges, stats.halo_vertices, stats.comm_bytes, stats.halo_exchanges
    );
    // `dst_red` / `src_red`: the edges the shard's by-destination and
    // by-source reductions run over (those whose endpoint it owns).
    println!("\nshard  owned_v  local_v  local_e  dst_red  src_red  halo_rows  arena_bytes");
    for (s, sum) in sess.shard_summaries().iter().enumerate() {
        println!(
            "{s:>5}  {:>7}  {:>7}  {:>7}  {:>7}  {:>7}  {:>9}  {:>11}",
            sum.owned_vertices,
            sum.num_vertices,
            sum.num_edges,
            sum.dst_reduced_edges,
            sum.src_reduced_edges,
            sum.halo_rows,
            sum.arena_bytes
        );
    }
    if !sess.exchanges().is_empty() {
        println!("\nexchange schedule (one step):");
        println!("kernel  phase     kind           value                     rows       bytes");
        for r in sess.exchanges() {
            println!(
                "{:>6}  {:<8}  {:<13}  {:<24}  {:>8}  {:>10}",
                r.kernel,
                if r.backward { "backward" } else { "forward" },
                format!("{:?}", r.kind),
                r.value,
                r.rows,
                r.bytes
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 3 {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let (model_name, preset_name, view) = (&args[0], &args[1], &args[2]);
    let device = if args.iter().any(|a| a == "2080") {
        Device::rtx2080()
    } else {
        Device::rtx3090()
    };
    let training = !args.iter().any(|a| a == "--inference");

    let Some(spec) = model_ir(model_name) else {
        eprintln!("unknown model '{model_name}'\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(preset) = preset_of(preset_name) else {
        eprintln!("unknown preset '{preset_name}'\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let compiled = match compile(&spec.ir, training, &CompileOptions::preset(preset)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compile failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = datasets::reddit().full_scale_stats();

    match view.as_str() {
        "ir" => print!("{}", display::dump_ir(&compiled.plan.ir)),
        "plan" => {
            print!("{}", display::dump_plan(&compiled.plan));
            println!(
                "\nreorganization rewrites: {}; stash: {} tensors; aux stash: {}",
                compiled.reorg.rewrites,
                compiled.plan.stash.len(),
                compiled.plan.aux_stash.len()
            );
        }
        "programs" => print!("{}", display::dump_programs(&compiled.plan)),
        "memory" => {
            // The planner is graph-size-parametric; render at the
            // dataset's scale so offsets are the real ones.
            let (nv, ne) = (stats.num_vertices(), stats.num_edges());
            let mem = gnnopt::core::plan_memory(&compiled.plan, nv, ne, true);
            print!("{}", display::dump_memory(&compiled.plan, &mem));
        }
        "dot" => print!(
            "{}",
            display::to_dot(&compiled.plan.ir, Some(&compiled.plan))
        ),
        "shards" => {
            let k = args
                .iter()
                .position(|a| a == "--shards")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(4);
            return inspect_shards(&spec, &compiled.plan, k);
        }
        "timeline" | "json" => {
            let mut timeline = Timeline::new();
            let profiles = compiled.plan.profiles(&stats);
            for (kernel, profile) in compiled.plan.kernels.iter().zip(&profiles) {
                let phase = if compiled.plan.ir.node(kernel.nodes[0]).phase == Phase::Forward {
                    TracePhase::Forward
                } else {
                    TracePhase::Backward
                };
                let name = kernel
                    .nodes
                    .iter()
                    .map(|&n| compiled.plan.ir.node(n).name.as_str())
                    .collect::<Vec<_>>()
                    .join("+");
                timeline.record(
                    name,
                    phase,
                    *profile,
                    device.kernel_latency(profile, &stats),
                );
            }
            if view == "json" {
                println!("{}", timeline.to_json().expect("trace serializes"));
            } else {
                println!(
                    "# {} / {} on {} (Reddit full-scale stats)",
                    model_name, preset_name, device.name
                );
                println!("{timeline}");
                for phase in [TracePhase::Forward, TracePhase::Backward] {
                    let b = timeline.breakdown(phase);
                    if b.kernels > 0 {
                        println!(
                            "{phase}: {} kernels, {:.3} ms, {:.2} GiB IO",
                            b.kernels,
                            b.latency * 1e3,
                            b.io_bytes as f64 / (1u64 << 30) as f64
                        );
                    }
                }
            }
        }
        other => {
            eprintln!("unknown view '{other}'\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
