//! Criterion microbenchmarks: real CPU wall-clock of the reference
//! executor under each compilation strategy. Absolute times are
//! CPU-specific; the *relative* ordering (ours ≤ fuseGNN ≤ DGL in work
//! performed) mirrors the operator-count reductions of the paper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gnnopt_core::{
    compile, BinaryFn, CompileOptions, Dim, EdgeGroup, ExecPolicy, ExecutionPlan, FusionLevel,
    IrGraph, Preset, ReduceFn, ScatterFn,
};
use gnnopt_exec::{Bindings, EnvOverrides, Session};
use gnnopt_graph::{generators, Graph};
use gnnopt_models::{edgeconv, gat, monet, EdgeConvConfig, GatConfig, MonetConfig};
use gnnopt_tensor::gemm::{gemm, Layout};
use gnnopt_tensor::Tensor;

fn bindings_for(spec: &gnnopt_models::ModelSpec, graph: &Graph, seed: u64) -> Bindings {
    let mut b = Bindings::new();
    for (k, v) in spec.init_values(graph, seed) {
        b.insert(&k, v);
    }
    b
}

fn bench_presets(c: &mut Criterion) {
    let graph = Graph::from_edge_list(&generators::rmat(10, 16, 0.57, 0.19, 0.19, 3));
    let spec = gat(&GatConfig {
        in_dim: 32,
        layers: vec![(2, 16)],
        negative_slope: 0.2,
        reorganized: false,
    })
    .expect("gat builds");
    let bindings = bindings_for(&spec, &graph, 5);

    let mut group = c.benchmark_group("gat_training_step");
    for preset in [Preset::Dgl, Preset::FuseGnn, Preset::Ours] {
        let compiled = compile(&spec.ir, true, &CompileOptions::preset(preset)).expect("compiles");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{preset:?}")),
            &compiled,
            |b, compiled| {
                b.iter(|| {
                    let mut sess = Session::builder(&compiled.plan, &graph)
                        .build()
                        .expect("session");
                    let out = sess.forward(&bindings).expect("forward");
                    sess.backward(Tensor::ones(out[0].shape()))
                        .expect("backward")
                });
            },
        );
    }
    group.finish();
}

fn bench_reorg(c: &mut Criterion) {
    let graph = Graph::from_edge_list(&generators::erdos_renyi(2048, 2048 * 20, 9));
    let spec = edgeconv(&EdgeConvConfig {
        in_dim: 32,
        layer_dims: vec![32],
    })
    .expect("edgeconv builds");
    let bindings = bindings_for(&spec, &graph, 6);

    let mut group = c.benchmark_group("edgeconv_forward");
    for (label, reorg) in [("naive", false), ("reorganized", true)] {
        let opts = CompileOptions {
            reorg,
            ..CompileOptions::ours()
        };
        let compiled = compile(&spec.ir, false, &opts).expect("compiles");
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &compiled,
            |b, compiled| {
                b.iter(|| {
                    let mut sess = Session::builder(&compiled.plan, &graph)
                        .build()
                        .expect("session");
                    sess.forward(&bindings).expect("forward")
                });
            },
        );
    }
    group.finish();
}

fn bench_monet(c: &mut Criterion) {
    let graph = Graph::from_edge_list(&generators::rmat(10, 8, 0.57, 0.19, 0.19, 4));
    let spec = monet(&MonetConfig {
        in_dim: 16,
        layer_dims: vec![16],
        kernels: 2,
        pseudo_dim: 2,
    })
    .expect("monet builds");
    let bindings = bindings_for(&spec, &graph, 8);

    let mut group = c.benchmark_group("monet_training_step");
    for preset in [Preset::Dgl, Preset::Ours] {
        let compiled = compile(&spec.ir, true, &CompileOptions::preset(preset)).expect("compiles");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{preset:?}")),
            &compiled,
            |b, compiled| {
                b.iter(|| {
                    let mut sess = Session::builder(&compiled.plan, &graph)
                        .build()
                        .expect("session");
                    let out = sess.forward(&bindings).expect("forward");
                    sess.backward(Tensor::ones(out[0].shape()))
                        .expect("backward")
                });
            },
        );
    }
    group.finish();
}

/// The same GAT model compiled with fusion off and with unified fusion,
/// both run by the one executor: the wall-clock side of what fusion
/// saves (the memory side is `RunStats::peak_value_bytes`, asserted in
/// `tests/fused_exec.rs`) — the paper's Figure 9 comparison — plus the
/// fused plan's backward phase on its own at two thread counts.
fn bench_fused_exec(c: &mut Criterion) {
    let graph = Graph::from_edge_list(&generators::rmat(13, 16, 0.57, 0.19, 0.19, 5));
    let spec = gat(&GatConfig {
        in_dim: 32,
        layers: vec![(2, 16)],
        negative_slope: 0.2,
        reorganized: true,
    })
    .expect("gat builds");
    let bindings = bindings_for(&spec, &graph, 7);

    let mut group = c.benchmark_group("gat_fused_exec");
    for (label, fusion) in [
        ("none", FusionLevel::None),
        ("unified", FusionLevel::Unified),
    ] {
        let opts = CompileOptions {
            fusion,
            ..CompileOptions::ours()
        };
        let compiled = compile(&spec.ir, true, &opts).expect("compiles");
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, ()| {
            b.iter(|| {
                let mut sess = Session::builder(&compiled.plan, &graph)
                    .policy(ExecPolicy::auto())
                    .env(EnvOverrides::Off)
                    .build()
                    .expect("session");
                let out = sess.forward(&bindings).expect("forward");
                sess.backward(Tensor::ones(out[0].shape()))
                    .expect("backward")
            });
        });
    }
    // The backward phase alone (forward runs untimed before each
    // sample), serial and on four workers: the fused backward kernels —
    // the streamed `BySrc` gather's segment among them — are where the
    // interpreter's thread scaling shows outside gnnbench.
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");
    for threads in [1usize, 4] {
        let mut sess = Session::builder(&compiled.plan, &graph)
            .policy(ExecPolicy::with_threads(threads))
            .env(EnvOverrides::Off)
            .build()
            .expect("session");
        let id = BenchmarkId::new("backward", format!("threads={threads}"));
        group.bench_with_input(id, &(), |b, ()| {
            let out = sess.forward(&bindings).expect("forward");
            let seed = Tensor::ones(out[0].shape());
            b.iter(|| sess.backward(seed.clone()).expect("backward"));
        });
    }
    group.finish();
}

/// The attention-score ops of a GAT step — edge rows of `heads` floats,
/// narrower than `rowops::NARROW`, which the interpreter runs a staged
/// strip or a destination group to a call — each as the only graph work
/// of a session phase, on one thread over RMAT-14: the per-edge
/// `scatter_Bin(Add)` of two endpoint reads, the forward edge softmax,
/// and the backward phase of `scatter → softmax → weighted sum`, i.e. the
/// recomputed softmax (its three sweeps of each destination group, run
/// again), the softmax backward and the narrow products and sums around
/// them, at the head counts models use and an odd one. Divide a median by the edge count in the group's name
/// for ns per edge (the same ops run inside `gat_train`).
fn bench_narrow_rows(c: &mut Criterion) {
    let graph = Graph::from_edge_list(&generators::rmat(14, 16, 0.57, 0.19, 0.19, 7));
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    let values = |rows: usize, cols: usize, seed: u64| {
        Tensor::from_fn(&[rows, cols], |i| {
            (((i as u64 + seed) * 2654435761 % 211) as f32 - 105.0) / 64.0
        })
    };
    let plan = |ir: &IrGraph, training: bool| {
        compile(ir, training, &CompileOptions::ours())
            .expect("compiles")
            .plan
    };
    fn session<'a>(plan: &'a ExecutionPlan, graph: &'a Graph) -> Session<'a> {
        Session::builder(plan, graph)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .expect("session")
    }
    let mut group = c.benchmark_group(format!("narrow_rows/{m}_edges"));
    for heads in [1usize, 2, 4, 3] {
        let dim = Dim::multi(heads, 1);
        let id = |op: &str| BenchmarkId::new(op, format!("E[{heads}]"));

        let mut ir = IrGraph::new();
        let s = ir.input_vertex("s", dim);
        let e = ir
            .scatter(ScatterFn::Bin(BinaryFn::Add), s, s)
            .expect("scatter");
        ir.mark_output(e);
        let b = Bindings::new().with("s", values(n, heads, 1));
        let compiled = plan(&ir, false);
        let mut sess = session(&compiled, &graph);
        group.bench_function(id("scatter_add"), |bench| {
            bench.iter(|| sess.forward(&b).expect("forward"));
        });

        let mut ir = IrGraph::new();
        let x = ir.input_edge("x", dim);
        let y = ir.edge_softmax(x).expect("softmax");
        ir.mark_output(y);
        let b = Bindings::new().with("x", values(m, heads, 2));
        let compiled = plan(&ir, false);
        let mut sess = session(&compiled, &graph);
        group.bench_function(id("softmax_fresh"), |bench| {
            bench.iter(|| sess.forward(&b).expect("forward"));
        });

        let mut ir = IrGraph::new();
        let h = ir.input_vertex("h", Dim::flat(4));
        let w = ir.param("w", 4, heads);
        let hw = ir.linear(h, w).expect("linear");
        let s = ir.set_heads(hw, heads).expect("heads");
        let e = ir
            .scatter(ScatterFn::Bin(BinaryFn::Add), s, s)
            .expect("scatter");
        let y = ir.edge_softmax(e).expect("softmax");
        let ew = ir.input_edge("ew", dim);
        let me = ir.binary(BinaryFn::Mul, y, ew).expect("weights");
        let out = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, me).expect("sum");
        ir.mark_output(out);
        let b = Bindings::new()
            .with("h", values(n, 4, 3))
            .with("w", values(4, heads, 4))
            .with("ew", values(m, heads, 5));
        let compiled = plan(&ir, true);
        let mut sess = session(&compiled, &graph);
        let seed = values(n, heads, 6);
        group.bench_function(id("scores_backward"), |bench| {
            sess.forward(&b).expect("forward");
            bench.iter(|| sess.backward(seed.clone()).expect("backward"));
        });
    }
    group.finish();
}

/// The three folded products of a `gat_train` step, each the only graph
/// work of a forward phase, on one thread over RMAT-16 — whose 64-float
/// vertex rows (16.8 MB) outgrow L2, so every `src(e)` row is a miss the
/// look-ahead hint has to cover: the by-destination sum over `h@src ×
/// a E[2]` (GAT's aggregation), the feature sum over `g@dst × h@src`
/// (its attention-score gradient) and the streamed by-source sum over
/// `g@dst × a E[2]` (its feature gradient). Divide a median by the edge
/// count in the group's name for ns per edge.
fn bench_wide_rows(c: &mut Criterion) {
    let graph = Graph::from_edge_list(&generators::rmat(16, 16, 0.57, 0.19, 0.19, 7));
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    let values = |rows: usize, cols: usize, seed: u64| {
        Tensor::from_fn(&[rows, cols], |i| {
            (((i as u64 + seed) * 2654435761 % 211) as f32 - 105.0) / 64.0
        })
    };
    let (wide, heads) = (Dim::multi(2, 32), Dim::multi(2, 1));
    let mut group = c.benchmark_group(format!("wide_rows/{m}_edges"));
    for op in ["sum_by_dst", "feat_sum", "sum_by_src"] {
        let mut ir = IrGraph::new();
        let mut b = Bindings::new();
        // `h@src`, `g@dst`, `a`: each operand the op's product names.
        let mut operand = |name: &str| match name {
            "a" => {
                b.insert("a", values(m, 2, 3));
                ir.input_edge("a", heads)
            }
            _ => {
                b.insert(name, values(n, 64, u64::from(name.as_bytes()[0])));
                let x = ir.input_vertex(name, wide);
                let copy = if name == "h" {
                    ScatterFn::CopyU
                } else {
                    ScatterFn::CopyV
                };
                ir.scatter(copy, x, x).expect("scatter")
            }
        };
        let (x, y, reduce) = match op {
            "sum_by_dst" => (operand("h"), operand("a"), Some(EdgeGroup::ByDst)),
            "feat_sum" => (operand("g"), operand("h"), None),
            _ => (operand("g"), operand("a"), Some(EdgeGroup::BySrc)),
        };
        let p = ir.binary(BinaryFn::Mul, x, y).expect("product");
        let out = match reduce {
            Some(group) => ir.gather(ReduceFn::Sum, group, p),
            None => ir.feat_sum(p),
        };
        ir.mark_output(out.expect("reduction"));
        let compiled = compile(&ir, false, &CompileOptions::ours())
            .expect("compiles")
            .plan;
        let mut sess = Session::builder(&compiled, &graph)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .expect("session");
        group.bench_function(op, |bench| {
            bench.iter(|| sess.forward(&b).expect("forward"));
        });
    }
    group.finish();
}

/// `gcn_wide_train`'s five products (GCN 256→128→64 on RMAT-16, so
/// `|V| = 65 536`): the forward `X·W₁` and `H·W₂`, the input dual
/// `G₂·W₂ᵀ`, and the weight gradients `Hᵀ·G₂` and `Xᵀ·G₁`. `H` is the
/// post-ReLU activation, so half its entries are exact zeros. Each runs
/// on one thread through `gemm::gemm` into a preallocated output,
/// re-zeroed outside the timed call, the way a session runs it into its
/// planned slot. `Tensor::matmul_with_threads` would also time allocating and
/// first-touching a fresh output, which a session never pays.
fn bench_gemm_gnn_shapes(c: &mut Criterion) {
    const V: usize = 65_536;
    let values = |len: usize, seed: u64, relu: bool| -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64 + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                if relu && h.is_multiple_of(2) {
                    0.0
                } else {
                    (h % 193) as f32 / 32.0 - 3.0
                }
            })
            .collect()
    };
    let mut group = c.benchmark_group("gemm_gnn_shapes");
    for (name, layout, (m, k, n), relu) in [
        ("x_w1", Layout::Nn, (V, 256, 128), false),
        ("h_w2", Layout::Nn, (V, 128, 64), true),
        ("g2_w2t", Layout::Nn, (V, 64, 128), false),
        ("ht_g2", Layout::Tn, (128, V, 64), true),
        ("xt_g1", Layout::Tn, (256, V, 128), false),
    ] {
        let a = values(m * k, 1, relu);
        let b = values(k * n, 2, false);
        let mut out = vec![0.0f32; m * n];
        let id = BenchmarkId::new(name, format!("{layout:?}/{m}x{k}x{n}"));
        group.bench_function(id, |bench| {
            out.fill(0.0);
            bench.iter(|| {
                gemm(layout, &a, &b, &mut out, m, k, n, 1);
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_presets, bench_reorg, bench_monet, bench_fused_exec,
        bench_narrow_rows, bench_wide_rows, bench_gemm_gnn_shapes
}
criterion_main!(benches);
