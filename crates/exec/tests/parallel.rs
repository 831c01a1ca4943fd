//! The determinism contract of the thread-parallel executor, where the
//! threads are: results are **bit-identical** (not merely `allclose`) to
//! one thread's — chunk and tile boundaries never change what arithmetic
//! is performed, only who performs it.
//!
//! * Every graph and row-local op — everything the tile driver runs —
//!   alone in its kernel (and the one sweep only fusion reaches: a
//!   by-destination sum of a folded product, in blocks), through an
//!   N-thread session against the serial oracle (`refexec::evaluate`):
//!   the op library's kernels for these are plain loops, so this holds
//!   the interpreter to a reference, not a threaded kernel to itself.
//! * A whole GAT step, parallel against serial, peak memory included.
//!
//! Random graphs include isolated vertices on purpose, so the empty-group
//! identity rows are covered by the bitwise comparison too.

use gnnopt_core::lower::{is_streamed_gather, RowAt, SlotSize, StepExec};
use gnnopt_core::view::{gather_max_bwd_group, Layout};
use gnnopt_core::{
    compile, BinaryFn, CompileOptions, Dim, EdgeGroup, ExecPolicy, ExecutionPlan, FusionLevel,
    IrGraph, Node, OpKind, ReduceFn, ScatterFn, Space, UnaryFn,
};
use gnnopt_exec::{refexec, Bindings, EnvOverrides, Session};
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_models::{gat, GatConfig};
use gnnopt_tensor::Tensor;
use proptest::prelude::*;

/// Forces the row/vertex partitioning on arbitrarily small kernels.
fn par(threads: usize) -> ExecPolicy {
    ExecPolicy {
        threads,
        parallel_threshold: 0,
        ..ExecPolicy::auto()
    }
}

/// Bitwise equality — `==` would already distinguish `0.0`/`-0.0` less
/// strictly and conflate NaNs; the backend promises the exact same bits.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(name: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "{name}: shapes differ");
    assert_eq!(bits(a), bits(b), "{name}: bits differ");
}

/// Random graphs with guaranteed trailing isolated vertices and a hub:
/// every other vertex feeds vertex 0.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (6usize..24, 0usize..4).prop_flat_map(|(n, iso)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..96).prop_map(move |mut pairs| {
            pairs.extend((1..n as u32).map(|u| (u, 0)));
            Graph::from_edge_list(&EdgeList::from_pairs(n + iso, &pairs))
        })
    })
}

fn pseudo_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_fn(&[rows, cols], |i| {
        (((i as u64 + seed) * 2654435761 % 103) as f32 - 51.0) / 17.0
    })
}

/// Two training models that, with their autodiff duals, hold every op a
/// destination tile can run; compiled without fusion each op is alone in
/// its kernel. Inputs: `h: V[3]`, `p: E[2]`; parameters `w: [3, heads ·
/// feat]`, `attn: [heads, feat]`, `mu`, `sigma: [heads, 2]`.
fn tile_op_models(heads: usize, feat: usize) -> Vec<IrGraph> {
    let leaves = |g: &mut IrGraph| {
        let h = g.input_vertex("h", Dim::flat(3));
        let w = g.param("w", 3, heads * feat);
        let hw = g.linear(h, w).unwrap();
        g.set_heads(hw, heads).unwrap()
    };
    // Attention with a Gaussian edge weight: a head-dot and a per-head
    // sum score the edges, fresh softmax, head broadcast — and backward
    // their duals plus the lone `BySrc` sums of the two scatters.
    let mut a = IrGraph::new();
    let x = leaves(&mut a);
    let s = a.feat_sum(x).unwrap();
    let attn = a.param("attn", heads, feat);
    let d = a.head_dot(x, attn).unwrap();
    let e = a.scatter(ScatterFn::Bin(BinaryFn::Add), s, d).unwrap();
    let lr = a.unary(UnaryFn::LeakyRelu(0.2), e).unwrap();
    let sm = a.edge_softmax(lr).unwrap();
    let p = a.input_edge("p", Dim::flat(2));
    let (mu, sigma) = (a.param("mu", heads, 2), a.param("sigma", heads, 2));
    let gw = a.gaussian_weight(p, mu, sigma).unwrap();
    let att = a.binary(BinaryFn::Mul, sm, gw).unwrap();
    let hu = a.scatter(ScatterFn::CopyU, x, x).unwrap();
    let me = a.binary(BinaryFn::Mul, hu, att).unwrap();
    let agg = a.gather(ReduceFn::Sum, EdgeGroup::ByDst, me).unwrap();
    let out = a.head_reduce(ReduceFn::Mean, agg).unwrap();
    a.mark_output(out);
    // Pooling and column views: concat and slice, max and mean by
    // destination, a lone max and mean by source (backward, each dual's
    // gradient read at the forward group's endpoint), head reduce and
    // broadcast.
    let mut b = IrGraph::new();
    let x = leaves(&mut b);
    let cat = b.scatter(ScatterFn::ConcatUV, x, x).unwrap();
    let left = b.slice_cols(cat, 0, feat).unwrap();
    let diff = b.scatter(ScatterFn::Bin(BinaryFn::Sub), x, x).unwrap();
    let both = b.binary(BinaryFn::Add, left, diff).unwrap();
    let mx = b.gather(ReduceFn::Max, EdgeGroup::ByDst, both).unwrap();
    let hv = b.scatter(ScatterFn::CopyV, x, x).unwrap();
    let mean_dst = b.gather(ReduceFn::Mean, EdgeGroup::ByDst, hv).unwrap();
    let mean_src = b.gather(ReduceFn::Mean, EdgeGroup::BySrc, diff).unwrap();
    let max_src = b.gather(ReduceFn::Max, EdgeGroup::BySrc, both).unwrap();
    let t = b.binary(BinaryFn::Add, mx, mean_dst).unwrap();
    let t = b.binary(BinaryFn::Add, t, mean_src).unwrap();
    let t = b.binary(BinaryFn::Add, t, max_src).unwrap();
    let flat = b.head_reduce(ReduceFn::Sum, t).unwrap();
    let wide = b.head_broadcast(flat, heads).unwrap();
    let out = b.binary(BinaryFn::Mul, wide, x).unwrap();
    b.mark_output(out);
    vec![a, b]
}

/// One kernel per op: nothing fused, reorganized or recomputed.
fn unfused() -> CompileOptions {
    CompileOptions {
        fusion: FusionLevel::None,
        ..CompileOptions::dgl()
    }
}

type OpPick = fn(&ExecutionPlan, &Node) -> bool;

/// The ops the property below must have run in the tile driver.
fn tile_ops() -> Vec<(&'static str, OpPick)> {
    fn broadcasts(ir: &IrGraph, n: &Node) -> bool {
        ir.node(n.inputs[0]).dim.feat != ir.node(n.inputs[1]).dim.feat
    }
    fn gather(n: &Node, r: ReduceFn, g: EdgeGroup) -> bool {
        n.kind
            == OpKind::Gather {
                reduce: r,
                group: g,
            }
    }
    fn max_bwd(ir: &IrGraph, n: &Node, g: EdgeGroup) -> bool {
        matches!(n.kind, OpKind::GatherMaxBwd { fwd } if gather_max_bwd_group(ir, fwd) == g)
    }
    use EdgeGroup::{ByDst, BySrc};
    use ReduceFn::{Max, Mean, Sum};
    vec![
        ("scatter CopyU", |_, n| {
            n.kind == OpKind::Scatter(ScatterFn::CopyU)
        }),
        ("scatter CopyV", |_, n| {
            n.kind == OpKind::Scatter(ScatterFn::CopyV)
        }),
        ("scatter Bin", |_, n| {
            matches!(n.kind, OpKind::Scatter(ScatterFn::Bin(_)))
        }),
        ("scatter ConcatUV", |_, n| {
            n.kind == OpKind::Scatter(ScatterFn::ConcatUV)
        }),
        ("gather Sum ByDst", |_, n| gather(n, Sum, ByDst)),
        ("gather Mean ByDst", |_, n| gather(n, Mean, ByDst)),
        ("gather Max ByDst", |_, n| gather(n, Max, ByDst)),
        ("gather Sum BySrc", |_, n| gather(n, Sum, BySrc)),
        ("gather Mean BySrc", |_, n| gather(n, Mean, BySrc)),
        ("gather Max BySrc", |_, n| gather(n, Max, BySrc)),
        ("edge_softmax", |_, n| n.kind == OpKind::EdgeSoftmax),
        // DGL's gSpMM fuses the softmax backward's `Σ_dst g·y` with its
        // product: the tile driver sweeps each group as one block.
        (
            "gather Sum ByDst over a folded own-row product",
            |plan, n| gather(n, Sum, ByDst) && sweeps_blocks(plan, n),
        ),
        ("gather_mean_bwd ByDst", |_, n| {
            n.kind == OpKind::GatherMeanBwd { group: ByDst }
        }),
        ("gather_mean_bwd BySrc", |_, n| {
            n.kind == OpKind::GatherMeanBwd { group: BySrc }
        }),
        ("gather_max_bwd ByDst", |plan, n| {
            max_bwd(&plan.ir, n, ByDst)
        }),
        ("gather_max_bwd BySrc", |plan, n| {
            max_bwd(&plan.ir, n, BySrc)
        }),
        ("unary", |_, n| matches!(n.kind, OpKind::Unary(_))),
        ("unary_bwd", |_, n| matches!(n.kind, OpKind::UnaryBwd(_))),
        ("binary", |plan, n| {
            matches!(n.kind, OpKind::Binary(_)) && !broadcasts(&plan.ir, n)
        }),
        ("binary, head broadcast", |plan, n| {
            matches!(n.kind, OpKind::Binary(_)) && broadcasts(&plan.ir, n)
        }),
        ("gaussian_weight", |_, n| n.kind == OpKind::GaussianWeight),
        // A head-dot under DGL's gSDDMM fusion: the feature sum folds a
        // product that reads the parameter whole at every row.
        ("feat_sum folding a parameter product", |plan, n| {
            n.kind == OpKind::FeatSum && folds_a_parameter(plan, n)
        }),
        // A head-dot's product, unfused, and its input dual: the
        // parameter read whole a row.
        ("binary_Mul, a parameter operand", |plan, n| {
            let param = |&i: &usize| plan.ir.node(i).space == Space::Param;
            n.kind == OpKind::Binary(BinaryFn::Mul) && n.inputs.iter().any(param)
        }),
        ("head_reduce", |_, n| {
            matches!(n.kind, OpKind::HeadReduce(_))
        }),
        ("feat_sum", |_, n| n.kind == OpKind::FeatSum),
        // The layouts a tile op reads its operands through.
        ("read through a relabel", |_, n| {
            reads(n, |l| matches!(l, Layout::Heads(_)))
        }),
        ("read through a window", |_, n| {
            reads(n, |l| matches!(l, Layout::Window(w) if !w.wide))
        }),
        ("read through a padded window", |_, n| {
            reads(n, |l| matches!(l, Layout::Window(w) if w.wide))
        }),
        ("read through a head broadcast", |_, n| {
            reads(n, |l| matches!(l, Layout::BroadcastHeads(_)))
        }),
        ("read through a feature broadcast", |_, n| {
            reads(n, |l| matches!(l, Layout::BroadcastFeat(_)))
        }),
    ]
}

/// `n` reads an operand through a layout `is` picks.
fn reads(n: &Node, is: fn(&Layout) -> bool) -> bool {
    n.layouts.iter().any(|(_, l)| is(l))
}

/// `n`, a by-destination sum, folds a product whose operands are equal in
/// width and sit at its own rows, pulling nothing: the tile driver sweeps
/// each group of it as one block.
fn sweeps_blocks(plan: &ExecutionPlan, n: &Node) -> bool {
    plan.programs.iter().any(|p| {
        let ops = p
            .units
            .iter()
            .flat_map(|u| u.ops.iter().map(move |op| (u, op)));
        ops.into_iter().any(|(u, op)| {
            let product = op.srcs[0].slot().map(|j| &u.ops[j]);
            p.steps[op.step].node == n.id
                && product.is_some_and(|f| {
                    let own = f.srcs.iter().all(|s| s.at == RowAt::Own);
                    f.size == SlotSize::Fold && !f.pulls && own && f.dins[0] == f.dins[1]
                })
        })
    })
}

/// `n`, a feature sum, folds a product that reads one operand whole at
/// every row — a parameter: it is a head-dot.
fn folds_a_parameter(plan: &ExecutionPlan, n: &Node) -> bool {
    plan.programs.iter().any(|p| {
        let mut ops = p
            .units
            .iter()
            .flat_map(|u| u.ops.iter().map(move |op| (u, op)));
        ops.any(|(u, op)| {
            let product = op.srcs[0].slot().map(|j| &u.ops[j]);
            p.steps[op.step].node == n.id
                && product.is_some_and(|f| {
                    f.size == SlotSize::Fold && f.srcs.iter().any(|s| s.at == RowAt::Whole)
                })
        })
    })
}

/// The graph-space ops of `plan` that run in the tile driver.
fn tile_nodes(plan: &ExecutionPlan) -> Vec<&Node> {
    let steps = plan.programs.iter().flat_map(|p| &p.steps);
    let nodes = steps.filter_map(|s| {
        let node = plan.ir.node(s.node);
        (s.exec == StepExec::Tiled || is_streamed_gather(&node.kind)).then_some(node)
    });
    nodes.collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every op a destination tile can run, alone in its kernel, and the
    /// block sweep of a folded product under DGL's fusion: an
    /// N-thread session — any tile size — writes the
    /// bits of the serial oracle's plain loops, outputs and parameter
    /// gradients alike. Head counts cover the score widths `rowops`
    /// monomorphizes (1, 2, 4), one between and the first wide one.
    #[test]
    fn lone_tile_ops_match_the_serial_oracle(
        g in arb_graph(),
        seed in 0u64..1000,
        heads in prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(8)],
        // At least two: a head broadcast needs a width to broadcast over.
        feat in 2usize..5,
        threads in 2usize..7,
    ) {
        lone_tile_ops_match_oracle(&g, seed, (heads, feat), threads, &[1, 7, 4096]);
    }
}

/// The body of the property above: both models of [`tile_op_models`]
/// compiled without fusion and the attention model under DGL (whose
/// gSpMM fuses the softmax backward's by-destination sum with its
/// product), every tile op accounted for, a session per tile budget
/// against the oracle.
fn lone_tile_ops_match_oracle(
    g: &Graph,
    seed: u64,
    (heads, feat): (usize, usize),
    threads: usize,
    tile_budgets: &[usize],
) {
    let (n, m) = (g.num_vertices(), g.num_edges());
    let b = Bindings::new()
        .with("h", pseudo_tensor(n, 3, seed))
        .with("p", pseudo_tensor(m, 2, seed + 1))
        .with("w", pseudo_tensor(3, heads * feat, seed + 2))
        .with("attn", pseudo_tensor(heads, feat, seed + 6))
        .with("mu", pseudo_tensor(heads, 2, seed + 3))
        .with("sigma", pseudo_tensor(heads, 2, seed + 4));
    let wanted = tile_ops();
    let mut ran: Vec<&'static str> = Vec::new();
    let models = tile_op_models(heads, feat);
    let runs = models.iter().map(|ir| (ir, unfused()));
    for (ir, opts) in runs.chain([(&models[0], CompileOptions::dgl())]) {
        let plan = compile(ir, true, &opts).expect("compiles").plan;
        for node in tile_nodes(&plan) {
            let named = wanted.iter().filter(|(_, pick)| pick(&plan, node));
            ran.extend(named.map(|(name, _)| *name));
        }
        let out = plan.ir.node(plan.ir.outputs()[0]);
        let ones = pseudo_tensor(n, out.dim.total(), seed + 5);
        let want = refexec::evaluate(&plan, g, &b, Some(&ones)).expect("oracle");
        for &tile_edges in tile_budgets {
            let policy = ExecPolicy {
                tile_edges,
                ..par(threads)
            };
            let mut sess = Session::builder(&plan, g)
                .policy(policy)
                .env(EnvOverrides::Off)
                .build()
                .expect("session");
            let got = sess.forward(&b).expect("forward");
            let grads = sess.backward(ones.clone()).expect("backward");
            let what = format!("{heads} heads, {threads} threads, tiles of {tile_edges}");
            assert_bit_identical(&what, &got[0], &want.outputs[0]);
            assert_eq!(grads.len(), want.grads.len());
            for (name, gr) in &grads {
                assert_bit_identical(&format!("{what}: grad {name}"), gr, &want.grads[name]);
            }
        }
    }
    for (name, _) in &wanted {
        assert!(ran.contains(name), "no kernel ran a {name}");
    }
}

/// The same on a hub the property's graphs are too small to hold: vertex
/// 0's destination group is longer than the strip a narrow op's
/// endpoint-read operands are staged in (32 rows, `fused::STAGE_ROWS` —
/// here three strips and a remainder) and than the tile budget, so its
/// tile is over budget and every per-row and per-group op crosses strip
/// boundaries inside one call; the chain behind it keeps ordinary tiles.
#[test]
fn lone_tile_ops_match_the_serial_oracle_across_staged_strips() {
    let hub = 3 * 32 + 5u32;
    let mut pairs: Vec<(u32, u32)> = (1..=hub).map(|u| (u, 0)).collect();
    pairs.extend((1..hub).map(|v| (v, v + 1)));
    let g = Graph::from_edge_list(&EdgeList::from_pairs(hub as usize + 2, &pairs));
    for heads in [1usize, 2, 4, 8] {
        for threads in [1usize, 4] {
            lone_tile_ops_match_oracle(&g, 11, (heads, 3), threads, &[16, 4096]);
        }
    }
}

/// End-to-end: a full GAT training step under a parallel session matches
/// the serial session bit-for-bit — outputs, every parameter gradient,
/// and the peak-memory accounting (parallelism must not change what the
/// session materializes).
#[test]
fn session_parallel_matches_serial_bitwise_including_peak_memory() {
    let g = Graph::from_edge_list(&EdgeList::from_pairs(
        40,
        &(0..180)
            .map(|i| ((i * 7 % 37) as u32, (i * 13 % 40) as u32))
            .collect::<Vec<_>>(),
    ));
    let spec = gat(&GatConfig {
        in_dim: 6,
        layers: vec![(2, 5), (1, 3)],
        negative_slope: 0.2,
        reorganized: false,
    })
    .expect("gat builds");
    let vals = spec.init_values(&g, 17);
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");

    let run = |policy: ExecPolicy| {
        let mut sess = Session::builder(&compiled.plan, &g)
            .policy(policy)
            .env(EnvOverrides::Off)
            .build()
            .expect("session");
        let mut b = Bindings::new();
        for (k, v) in &vals {
            b.insert(k, v.clone());
        }
        let out = sess.forward(&b).expect("forward");
        let grads = sess
            .backward(Tensor::ones(out[0].shape()))
            .expect("backward");
        (out, grads, sess.stats())
    };

    let (out_s, grads_s, stats_s) = run(ExecPolicy::serial());
    for threads in [2, 4, 5] {
        let (out_p, grads_p, stats_p) = run(ExecPolicy {
            threads,
            parallel_threshold: 0,
            ..ExecPolicy::auto()
        });
        assert_eq!(out_s.len(), out_p.len());
        for (a, b) in out_s.iter().zip(&out_p) {
            assert_bit_identical("session output", a, b);
        }
        assert_eq!(grads_s.len(), grads_p.len());
        for (k, gs) in &grads_s {
            assert_bit_identical(&format!("grad '{k}'"), gs, &grads_p[k]);
        }
        assert_eq!(
            stats_s.peak_value_bytes, stats_p.peak_value_bytes,
            "peak-memory accounting must not change under parallelism"
        );
        assert_eq!(
            stats_s.boundary_bytes, stats_p.boundary_bytes,
            "boundary accounting must not change under parallelism"
        );
        assert_eq!(stats_p.threads, threads, "RunStats records the pool size");
    }
    assert_eq!(stats_s.threads, 1);
}
