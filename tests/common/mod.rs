//! Shared helpers for integration tests: a random-model-IR generator used
//! by the fusion-invariant and gradient property suites, and the
//! node-by-node oracle step the executor suites compare sessions against.

use gnnopt::core::{
    compile, BinaryFn, CompileOptions, Dim, EdgeGroup, IrGraph, ReduceFn, ScatterFn, Space, UnaryFn,
};
use gnnopt::exec::{refexec, Bindings};
use gnnopt::graph::Graph;
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
    let mut b = Bindings::new();
    for (k, v) in vals {
        b.insert(k, v.clone());
    }
    let out = compiled.plan.ir.node(compiled.plan.ir.outputs()[0]);
    let seed = Tensor::ones(&[g.num_vertices(), out.dim.total()]);
    let mut e = refexec::evaluate(&compiled.plan, g, &b, Some(&seed)).expect("oracle");
    (e.outputs.swap_remove(0), e.grads)
}

/// One randomly chosen IR-building step. The builder tracks the current
/// tensor and its space and applies only steps legal in that space.
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
}

/// A strategy over random step sequences.
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
        ],
        1..14,
    )
}

/// Assembles a valid IR from the step list; steps illegal in the current
/// space are skipped. The output is always a vertex tensor and the graph
/// always contains at least one parameter (so training compiles).
pub fn build_ir(steps: &[Step], feat: usize) -> IrGraph {
    let mut g = IrGraph::new();
    let h = g.input_vertex("h", Dim::flat(feat));
    let ew = g.input_edge("ew", Dim::flat(feat));
    let mut cur = h;
    let mut linear_count = 0;
    for (i, s) in steps.iter().enumerate() {
        let space = g.node(cur).space;
        cur = match (s, space) {
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
