//! Property tests of the fusion partitioner on randomly generated model
//! IRs: whatever the dataflow shape, every partition must (a) cover each
//! compute node exactly once, (b) schedule kernels topologically, (c)
//! respect the cross-group legality rule (no kernel both produces a
//! vertex value with a graph op and scatters it through the source
//! endpoint), and (d) keep edge-softmax kernels vertex-balanced.

mod common;

use common::{arb_steps, build_ir, zoo};
use gnnopt::core::fusion::{partition, MappingPolicy};
use gnnopt::core::{compile, CompileOptions};
use gnnopt::core::{BinaryFn, Dim, ReduceFn, UnaryFn};
use gnnopt::core::{EdgeGroup, FusionLevel, IrGraph, Kernel, NodeId, OpKind, ScatterFn, Space};
use gnnopt::sim::ThreadMapping;
use proptest::prelude::*;
use std::collections::HashMap;

/// The §5 legality rule, checked structurally on a finished partition:
/// an in-kernel value produced by a reduction grouped `G` may only be
/// read back at endpoint `G`, and only when `G` matches the kernel's
/// primary direction (a diverging reduction is atomic, and atomic partial
/// state must never be read in-kernel). Values resolved through views and
/// vertex elementwise ops inherit their producer's grouping; values from
/// other kernels (global memory) are always safe.
fn kernel_is_legal(ir: &IrGraph, nodes: &[NodeId]) -> bool {
    let member: std::collections::HashSet<NodeId> = nodes.iter().copied().collect();
    // Primary direction: softmax forces ByDst, else the first reduction.
    let mut primary: Option<EdgeGroup> = None;
    for &n in nodes {
        match &ir.node(n).kind {
            OpKind::EdgeSoftmax => {
                primary = Some(EdgeGroup::ByDst);
                break;
            }
            k => {
                if primary.is_none() {
                    primary = k.reduction_group();
                }
            }
        }
    }
    // Transitively collect the reduction groups feeding a vertex operand.
    fn feeding_groups(
        ir: &IrGraph,
        member: &std::collections::HashSet<NodeId>,
        id: NodeId,
        out: &mut Vec<Option<EdgeGroup>>,
    ) {
        if !member.contains(&id) {
            return;
        }
        let node = ir.node(id);
        if let Some(g) = node.kind.reduction_group() {
            out.push(Some(g));
            return;
        }
        let mut recursed = false;
        for &i in &node.inputs {
            if ir.node(i).space == Space::Vertex {
                feeding_groups(ir, member, i, out);
                recursed = true;
            }
        }
        if !recursed {
            out.push(None);
        }
    }
    for &n in nodes {
        let node = ir.node(n);
        let reads: Vec<(usize, EdgeGroup)> = match &node.kind {
            OpKind::Scatter(ScatterFn::CopyU) => vec![(0, EdgeGroup::BySrc)],
            OpKind::Scatter(ScatterFn::CopyV) => vec![(1, EdgeGroup::ByDst)],
            OpKind::Scatter(_) => vec![(0, EdgeGroup::BySrc), (1, EdgeGroup::ByDst)],
            _ => Vec::new(),
        };
        for (idx, endpoint) in reads {
            let input = *node.inputs.get(idx).unwrap_or(&node.inputs[0]);
            let mut groups = Vec::new();
            feeding_groups(ir, &member, input, &mut groups);
            for g in groups {
                if g != Some(endpoint) || primary.is_some_and(|p| p != endpoint) {
                    return false;
                }
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partitions_satisfy_structural_invariants(
        steps in arb_steps(),
        feat in 2usize..12,
    ) {
        let ir = build_ir(&steps, feat);
        for level in [
            FusionLevel::None,
            FusionLevel::DglBuiltin,
            FusionLevel::EdgeOnly,
            FusionLevel::Unified,
        ] {
            for policy in [MappingPolicy::Auto, MappingPolicy::ForceVertex, MappingPolicy::ForceEdge] {
                let kernels = partition(&ir, level, policy);
                // (a) exact cover of compute nodes.
                let mut owner: HashMap<NodeId, usize> = HashMap::new();
                for k in &kernels {
                    for &n in &k.nodes {
                        prop_assert!(
                            owner.insert(n, k.id).is_none(),
                            "{level:?}/{policy:?}: node {n} in two kernels"
                        );
                    }
                }
                for n in ir.nodes() {
                    let is_leaf = matches!(
                        n.kind,
                        OpKind::InputVertex | OpKind::InputEdge | OpKind::Param | OpKind::GradSeed
                    );
                    prop_assert_eq!(
                        owner.contains_key(&n.id),
                        !is_leaf,
                        "{:?}/{:?}: node {} cover mismatch", level, policy, n.id
                    );
                }
                // (b) kernel order is topological w.r.t. dataflow.
                for k in &kernels {
                    for &n in &k.nodes {
                        for &i in &ir.node(n).inputs {
                            if let Some(&ki) = owner.get(&i) {
                                prop_assert!(
                                    ki <= k.id,
                                    "{level:?}/{policy:?}: kernel {} uses later kernel {}",
                                    k.id, ki
                                );
                            }
                        }
                    }
                }
                // (c) cross-group legality inside every kernel.
                for k in &kernels {
                    prop_assert!(
                        kernel_is_legal(&ir, &k.nodes),
                        "{level:?}/{policy:?}: kernel {} violates §5 legality",
                        k.id
                    );
                }
                // (d) softmax kernels are vertex-balanced.
                for k in &kernels {
                    let has_softmax = k
                        .nodes
                        .iter()
                        .any(|&n| matches!(ir.node(n).kind, OpKind::EdgeSoftmax));
                    if has_softmax {
                        prop_assert_eq!(k.mapping, ThreadMapping::VertexBalanced);
                    }
                }
            }
        }
    }

    /// The full training pipeline compiles every random IR and its
    /// backward kernels obey the same legality rule.
    #[test]
    fn training_compile_respects_legality(
        steps in arb_steps(),
        feat in 2usize..8,
    ) {
        let ir = build_ir(&steps, feat);
        let compiled = compile(&ir, true, &CompileOptions::ours()).expect("compiles");
        for k in &compiled.plan.kernels {
            prop_assert!(
                kernel_is_legal(&compiled.plan.ir, &k.nodes),
                "backward kernel {} violates §5 legality",
                k.id
            );
        }
    }
}

/// fuseGNN is DGL plus edge chains: every multi-op DGL kernel of every zoo
/// model, forward and training, lies inside one fuseGNN kernel of the
/// same IR.
#[test]
fn dgl_kernels_lie_inside_fusegnn_kernels() {
    for (name, spec) in zoo() {
        for training in [false, true] {
            let ir = compile(&spec.ir, training, &CompileOptions::dgl())
                .unwrap()
                .plan
                .ir;
            let fusegnn = partition(&ir, FusionLevel::EdgeOnly, MappingPolicy::Auto);
            let dgl = partition(&ir, FusionLevel::DglBuiltin, MappingPolicy::Auto);
            for k in dgl.iter().filter(|k| k.nodes.len() > 1) {
                let holds = |f: &Kernel| k.nodes.iter().all(|n| f.nodes.contains(n));
                assert!(
                    fusegnn.iter().any(holds),
                    "{name}/training={training}: DGL kernel {:?} is split under fuseGNN",
                    k.nodes
                );
            }
            assert!(fusegnn.len() <= dgl.len(), "{name}/training={training}");
        }
    }
}

/// The softmax backward as forward ops, `y·(g − Σ_dst g·y)`: the by-dst sum
/// reads the chain's own `g` and feeds it back through a `CopyV`, so an
/// edge chain through `g` and `CopyV` would close a cycle. The merge rule
/// refuses that one merge and fuseGNN keeps its other fused kernels.
#[test]
fn edge_only_keeps_fused_kernels_around_a_reduce_scatter() {
    let mut ir = IrGraph::new();
    let x = ir.input_edge("x", Dim::multi(2, 1));
    let gin = ir.input_edge("g", Dim::multi(2, 1));
    let y = ir.edge_softmax(x).unwrap();
    let g = ir.unary(UnaryFn::Relu, gin).unwrap();
    let m = ir.binary(BinaryFn::Mul, g, y).unwrap();
    let s = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, m).unwrap();
    let sv = ir.scatter(ScatterFn::CopyV, s, s).unwrap();
    let d = ir.binary(BinaryFn::Sub, g, sv).unwrap();
    let dx = ir.binary(BinaryFn::Mul, y, d).unwrap();
    ir.mark_output(dx);
    let kernels = partition(&ir, FusionLevel::EdgeOnly, MappingPolicy::Auto);
    let together = |a, b| {
        kernels
            .iter()
            .any(|k| k.nodes.contains(&a) && k.nodes.contains(&b))
    };
    assert!(together(m, s), "the gSpMM of the sum: {kernels:?}");
    assert!(together(d, dx), "the edge chain after the sum: {kernels:?}");
    assert!(kernels.len() < 7, "{} kernels for 7 ops", kernels.len());
}

/// §5's ReduceScatter rule is structural: GAT's attention backward reduces
/// `g·y` per destination and scatters the sum back to the group's edges,
/// so under `ForceEdge` its kernel — the one holding the leaky ReLU's
/// backward — stays vertex-balanced.
#[test]
fn force_edge_keeps_gat_attention_backward_vertex_balanced() {
    use gnnopt::models::{gat, GatConfig};
    let spec = gat(&GatConfig {
        in_dim: 8,
        layers: vec![(2, 6)],
        negative_slope: 0.2,
        reorganized: true,
    })
    .unwrap();
    let opts = CompileOptions {
        mapping: MappingPolicy::ForceEdge,
        ..CompileOptions::ours()
    };
    let plan = compile(&spec.ir, true, &opts).unwrap().plan;
    let unary_bwd = |n: &NodeId| matches!(plan.ir.node(*n).kind, OpKind::UnaryBwd(_));
    let attention: Vec<_> = plan
        .kernels
        .iter()
        .filter(|k| k.nodes.iter().any(unary_bwd))
        .collect();
    assert_eq!(attention.len(), 1, "one attention-backward kernel");
    assert_eq!(attention[0].mapping, ThreadMapping::VertexBalanced);
}
