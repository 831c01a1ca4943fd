//! Shared helpers for integration tests: a random-model-IR generator used
//! by the fusion-invariant and gradient property suites, and the
//! node-by-node oracle step the executor suites compare sessions against.

use gnnopt::core::{
    compile, BinaryFn, CompileOptions, Dim, EdgeGroup, ExecutionPlan, IrGraph, ReduceFn, ScatterFn,
    Space, UnaryFn,
};
use gnnopt::exec::{refexec, Bindings};
use gnnopt::graph::Graph;
use gnnopt::models::*;
use gnnopt::tensor::Tensor;
use proptest::prelude::*;
use std::collections::HashMap;

/// One training step of `ir` (compiled with `ours()`) on the
/// identity-order, node-by-node oracle, seeded with ones: the first
/// output and the parameter gradients.
#[allow(dead_code)] // not every suite that shares this module runs sessions
pub fn oracle(
    ir: &IrGraph,
    vals: &HashMap<String, Tensor>,
    g: &Graph,
) -> (Tensor, HashMap<String, Tensor>) {
    let compiled = compile(ir, true, &CompileOptions::ours()).expect("compiles");
    plan_oracle(&compiled.plan, vals, g)
}

/// [`oracle`] of a compiled training plan.
#[allow(dead_code)]
pub fn plan_oracle(
    plan: &ExecutionPlan,
    vals: &HashMap<String, Tensor>,
    g: &Graph,
) -> (Tensor, HashMap<String, Tensor>) {
    let mut b = Bindings::new();
    for (k, v) in vals {
        b.insert(k, v.clone());
    }
    let out = plan.ir.node(plan.ir.outputs()[0]);
    let seed = Tensor::ones(&[g.num_vertices(), out.dim.total()]);
    let mut e = refexec::evaluate(plan, g, &b, Some(&seed)).expect("oracle");
    (e.outputs.swap_remove(0), e.grads)
}

/// One randomly chosen IR-building step. The builder tracks the current
/// tensor and its space and applies only steps legal in that space.
#[allow(dead_code)] // not every suite that shares this module builds random IRs
#[derive(Debug, Clone, Copy)]
pub enum Step {
    ScatterSub,
    ScatterCopyU,
    MulEdgeWeight,
    Unary,
    EdgeSoftmax,
    GatherSum,
    GatherMax,
    GatherMaxBySrc,
    GatherMeanBySrc,
    Linear,
    /// `[1, f]` viewed as two heads, a per-head op, viewed back.
    HeadSplit,
    /// The two halves of each row, combined, broadcast back to `f`
    /// columns over two heads (an edge tensor or a vertex tensor).
    ColWindow,
    /// `x · W` through the two row windows of one `[2f, f]` weight.
    SplitProjection,
    /// Two heads summed into one and broadcast back.
    HeadBroadcast,
    /// A per-head score through an `[h, f]` parameter (two heads at an
    /// even width, else one), feature-broadcast back and multiplied into
    /// the running tensor.
    HeadDot,
    /// GAT's naive attention on a vertex tensor: a per-head score of each
    /// edge's concatenated endpoints through an `[h, 2f/h]` parameter
    /// (the pattern the reorganization splits into two vertex scores),
    /// multiplied into the source rows and summed by destination.
    ConcatDot,
}

/// A strategy over random step sequences.
#[allow(dead_code)]
pub fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            Just(Step::ScatterSub),
            Just(Step::ScatterCopyU),
            Just(Step::MulEdgeWeight),
            Just(Step::Unary),
            Just(Step::EdgeSoftmax),
            Just(Step::GatherSum),
            Just(Step::GatherMax),
            Just(Step::GatherMaxBySrc),
            Just(Step::GatherMeanBySrc),
            Just(Step::Linear),
            Just(Step::HeadSplit),
            Just(Step::ColWindow),
            Just(Step::SplitProjection),
            Just(Step::HeadBroadcast),
            Just(Step::HeadDot),
            Just(Step::ConcatDot),
        ],
        1..14,
    )
}

/// Assembles a valid IR from the step list; steps illegal in the current
/// space (or, for the layout steps, at an odd width) are skipped. Every
/// step keeps the running width `feat`. The output is always a vertex tensor and the graph
/// always contains at least one parameter (so training compiles).
#[allow(dead_code)]
pub fn build_ir(steps: &[Step], feat: usize) -> IrGraph {
    let mut g = IrGraph::new();
    let h = g.input_vertex("h", Dim::flat(feat));
    let ew = g.input_edge("ew", Dim::flat(feat));
    let mut cur = h;
    let mut linear_count = 0;
    let half = feat / 2;
    let even = feat.is_multiple_of(2);
    for (i, s) in steps.iter().enumerate() {
        let space = g.node(cur).space;
        cur = match (s, space) {
            (Step::HeadSplit, _) if even => {
                let split = g.set_heads(cur, 2).unwrap();
                let y = g.unary(UnaryFn::Tanh, split).unwrap();
                g.set_heads(y, 1).unwrap()
            }
            (Step::ColWindow, _) if even => {
                let lo = g.slice_cols(cur, 0, half).unwrap();
                let hi = g.slice_cols(cur, half, feat).unwrap();
                let d = g.binary(BinaryFn::Sub, lo, hi).unwrap();
                let wide = g.head_broadcast(d, 2).unwrap();
                g.set_heads(wide, 1).unwrap()
            }
            (Step::SplitProjection, _) => {
                let w = g.param(&format!("w{i}"), 2 * feat, feat);
                linear_count += 1;
                let top = g.slice_rows(w, 0, feat).unwrap();
                let bottom = g.slice_rows(w, feat, 2 * feat).unwrap();
                let a = g.linear(cur, top).unwrap();
                let b = g.linear(cur, bottom).unwrap();
                g.binary(BinaryFn::Add, a, b).unwrap()
            }
            (Step::HeadBroadcast, _) if even => {
                let split = g.set_heads(cur, 2).unwrap();
                let one = g.head_reduce(ReduceFn::Sum, split).unwrap();
                let both = g.head_broadcast(one, 2).unwrap();
                g.set_heads(both, 1).unwrap()
            }
            (Step::HeadDot, _) => {
                let heads = if even { 2 } else { 1 };
                let split = g.set_heads(cur, heads).unwrap();
                let a = g.param(&format!("a{i}"), heads, feat / heads);
                let score = g.head_dot(split, a).unwrap();
                let y = g.binary(BinaryFn::Mul, split, score).unwrap();
                g.set_heads(y, 1).unwrap()
            }
            (Step::ConcatDot, Space::Vertex) => {
                let heads = if even { 2 } else { 1 };
                let split = g.set_heads(cur, heads).unwrap();
                let cat = g.scatter(ScatterFn::ConcatUV, split, split).unwrap();
                let a = g.param(&format!("a{i}"), heads, 2 * feat / heads);
                let score = g.head_dot(cat, a).unwrap();
                let hu = g.scatter(ScatterFn::CopyU, split, split).unwrap();
                let y = g.binary(BinaryFn::Mul, hu, score).unwrap();
                let y = g.set_heads(y, 1).unwrap();
                g.gather(ReduceFn::Sum, EdgeGroup::ByDst, y).unwrap()
            }
            (Step::ScatterSub, Space::Vertex) => {
                g.scatter(ScatterFn::Bin(BinaryFn::Sub), cur, cur).unwrap()
            }
            (Step::ScatterCopyU, Space::Vertex) => g.scatter(ScatterFn::CopyU, cur, cur).unwrap(),
            (Step::MulEdgeWeight, Space::Edge) => g.binary(BinaryFn::Mul, cur, ew).unwrap(),
            (Step::Unary, _) => g.unary(UnaryFn::LeakyRelu(0.1), cur).unwrap(),
            (Step::EdgeSoftmax, Space::Edge) => g.edge_softmax(cur).unwrap(),
            (Step::GatherSum, Space::Edge) => {
                g.gather(ReduceFn::Sum, EdgeGroup::ByDst, cur).unwrap()
            }
            (Step::GatherMax, Space::Edge) => {
                g.gather(ReduceFn::Max, EdgeGroup::ByDst, cur).unwrap()
            }
            (Step::GatherMaxBySrc, Space::Edge) => {
                g.gather(ReduceFn::Max, EdgeGroup::BySrc, cur).unwrap()
            }
            (Step::GatherMeanBySrc, Space::Edge) => {
                g.gather(ReduceFn::Mean, EdgeGroup::BySrc, cur).unwrap()
            }
            (Step::Linear, _) => {
                let w = g.param(&format!("w{i}"), feat, feat);
                linear_count += 1;
                g.linear(cur, w).unwrap()
            }
            _ => cur, // step illegal in this space: skip
        };
    }
    if g.node(cur).space == Space::Edge {
        cur = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, cur).unwrap();
    }
    if linear_count == 0 {
        // Guarantee a parameter so the training compile path also works.
        let w = g.param("w_out", feat, feat);
        cur = g.linear(cur, w).unwrap();
    }
    g.mark_output(cur);
    g
}

/// One small instance of every model family (GAT with and without the
/// reorganization, GATv2, EdgeConv, MoNet, GCN, GraphSAGE mean and
/// max-pool, GIN, APPNP): what the zoo-wide suites walk.
#[allow(dead_code)] // not every suite that shares this module walks the zoo
pub fn zoo() -> Vec<(&'static str, ModelSpec)> {
    vec![
        (
            "gat",
            gat(&GatConfig {
                in_dim: 8,
                layers: vec![(2, 6)],
                negative_slope: 0.2,
                reorganized: false,
            })
            .unwrap(),
        ),
        (
            "gat-reorg",
            gat(&GatConfig {
                in_dim: 8,
                layers: vec![(2, 6)],
                negative_slope: 0.2,
                reorganized: true,
            })
            .unwrap(),
        ),
        (
            "gatv2",
            gatv2(&Gatv2Config {
                in_dim: 5,
                layers: vec![(2, 4)],
                negative_slope: 0.2,
            })
            .unwrap(),
        ),
        (
            "edgeconv",
            edgeconv(&EdgeConvConfig {
                in_dim: 4,
                layer_dims: vec![8],
            })
            .unwrap(),
        ),
        (
            "monet",
            monet(&MonetConfig {
                in_dim: 6,
                layer_dims: vec![4],
                kernels: 2,
                pseudo_dim: 2,
            })
            .unwrap(),
        ),
        ("gcn", gcn(&GcnConfig::two_layer(4, 6, 3)).unwrap()),
        ("sage", sage(&SageConfig::mean(4, vec![6])).unwrap()),
        (
            "sage-pool",
            sage(&SageConfig::max_pool(4, vec![6])).unwrap(),
        ),
        (
            "gin",
            gin(&GinConfig {
                in_dim: 4,
                layer_dims: vec![6],
                epsilon: 0.1,
            })
            .unwrap(),
        ),
        ("appnp", appnp(&AppnpConfig::standard(6, 4, 3)).unwrap()),
    ]
}
