//! Intermediate-data recomputation for training (paper §6).
//!
//! Training must keep every forward value the backward pass reads. The
//! paper's criterion: if an intermediate's `ComputationCost / MemoryCost`
//! is `O(1)`, recompute it inside the backward kernel instead of stashing
//! it — eliminating the `O(|E|)` edge intermediates entirely when combined
//! with fusion ("fusion-recomputation combo"). The paper's example goes
//! one step further for the edge softmax — stash its per-vertex max and
//! denominator (`O(|V|)`) and rebuild each edge value in `O(1)` — which
//! is not followed here: a recomputed softmax sweeps its destination
//! groups again, as the forward one does. A tile owns whole groups and
//! already holds their rows, so the re-sweep moves no edge-sized bytes,
//! stashes nothing, and writes the forward run's bits; the statistics
//! would cost a second execution form and two `V[heads]` regions per
//! softmax for no measured gain.
//!
//! Vertex features are always stashed (`O(|V|)` is cheap, and the paper
//! explicitly chooses to "recompute edge rather than vertex features").

use crate::ir::{IrGraph, Phase};
use crate::op::{FusionClass, NodeId, OpKind, Space};
use crate::plan::Kernel;
use gnnopt_sim::ThreadMapping;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Which saved tensors the planner may recompute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecomputeScope {
    /// Stash every saved tensor (the paper's "fusion & stashing" ablation).
    None,
    /// Recompute only tensors that live *inside* a fused kernel — this is
    /// what DGL/fuseGNN's hand-written fused built-ins (gSpMM backward,
    /// fused edge-softmax) achieve without a general mechanism.
    FusedInternalsOnly,
    /// The paper's §6: recompute any cheap edge-space intermediate.
    #[default]
    All,
}

/// Options of the recomputation planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecomputeOptions {
    /// Which saved tensors may be recomputed.
    pub scope: RecomputeScope,
    /// Recompute a tensor only if rebuilding one element costs at most
    /// this many FLOPs (the paper's `O(1)` criterion made concrete).
    pub flops_per_element_threshold: f64,
}

impl Default for RecomputeOptions {
    fn default() -> Self {
        Self {
            scope: RecomputeScope::All,
            flops_per_element_threshold: 16.0,
        }
    }
}

/// The training memory plan: what persists across the forward→backward
/// boundary and what is rebuilt.
#[derive(Debug, Clone, Default)]
pub struct MemoryPlan {
    /// Forward nodes whose full outputs are stashed.
    pub stash: BTreeSet<NodeId>,
    /// Forward nodes whose *auxiliaries* are stashed: the `Gather(Max)`
    /// nodes, whose backward routes by their argmax tables.
    pub aux_stash: BTreeSet<NodeId>,
    /// Forward nodes recomputed during the backward pass.
    pub recomputed: BTreeSet<NodeId>,
}

/// FLOPs to rebuild one element of `node` (∞-like large values for
/// non-recomputable kinds).
fn cost_per_element(ir: &IrGraph, node: &crate::ir::Node) -> f64 {
    match &node.kind {
        OpKind::Scatter(crate::op::ScatterFn::Bin(_)) => 1.0,
        OpKind::Scatter(_) => 0.0,
        OpKind::Unary(_) | OpKind::Binary(_) => 1.0,
        // The group's max, then one exp, sum and divide per edge.
        OpKind::EdgeSoftmax => 4.0,
        OpKind::GaussianWeight => {
            let r = ir.node(node.inputs[0]).dim.feat as f64;
            3.0 * r + 2.0
        }
        _ => f64::INFINITY,
    }
}

/// Plans stash/recompute for a training graph and attaches recompute
/// closures to the backward kernels.
pub fn plan_training_memory(
    ir: &IrGraph,
    kernels: &mut [Kernel],
    opts: &RecomputeOptions,
) -> MemoryPlan {
    let mut plan = MemoryPlan::default();

    // Node → kernel (primary).
    let mut owner: HashMap<NodeId, usize> = HashMap::new();
    for k in kernels.iter() {
        for &n in &k.nodes {
            owner.insert(n, k.id);
        }
    }

    // Forward values read by backward nodes, and which kernels read them.
    let mut saved: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for n in ir.nodes() {
        if n.phase != Phase::Backward {
            continue;
        }
        let Some(&k) = owner.get(&n.id) else { continue };
        for &i in &n.inputs {
            let inp = ir.node(i);
            if inp.phase == Phase::Forward && inp.kind.fusion_class() != FusionClass::Leaf {
                saved.entry(i).or_default().push(k);
            }
        }
        // Argmax tables are always auxiliary stashes.
        if let OpKind::GatherMaxBwd { fwd } = n.kind {
            plan.aux_stash.insert(fwd);
        }
    }

    // Expensive kernels (linear projections and their gradients) cannot
    // host fused recomputation, so tensors they read must be stashed.
    let kernel_is_expensive: Vec<bool> = kernels
        .iter()
        .map(|k| {
            k.nodes
                .iter()
                .any(|&n| ir.node(n).kind.fusion_class() == FusionClass::Expensive)
        })
        .collect();
    let consumers = ir.consumers();

    // Stash/recompute decision per saved node.
    for (&s, reader_kernels) in &saved {
        let node = ir.node(s);
        let expensive_reader = reader_kernels.iter().any(|&k| kernel_is_expensive[k]);
        let cheap = cost_per_element(ir, node) <= opts.flops_per_element_threshold;
        // A node is forward-internal when every forward consumer shares
        // its kernel and it is not a model output — i.e. fusion already
        // keeps it on-chip and the fused built-in's backward rebuilds it.
        let forward_internal = !ir.outputs().contains(&s)
            && consumers[s]
                .iter()
                .all(|&c| ir.node(c).phase != Phase::Forward || owner.get(&c) == owner.get(&s));
        let eligible = match opts.scope {
            RecomputeScope::None => false,
            RecomputeScope::FusedInternalsOnly => forward_internal,
            RecomputeScope::All => true,
        };
        if eligible
            && node.space == Space::Edge
            && node.kind.fusion_class() == FusionClass::Fusible
            && cheap
            && !expensive_reader
        {
            plan.recomputed.insert(s);
        } else {
            plan.stash.insert(s);
        }
    }

    // Recompute closures: everything needed to rebuild the recomputed
    // nodes from stashes/leaves, walking forward ancestors.
    let mut full_recompute: BTreeSet<NodeId> = plan.recomputed.clone();
    let mut stack: Vec<NodeId> = plan.recomputed.iter().copied().collect();
    while let Some(r) = stack.pop() {
        for &i in &ir.node(r).inputs {
            let inp = ir.node(i);
            if inp.kind.fusion_class() == FusionClass::Leaf
                || plan.stash.contains(&i)
                || full_recompute.contains(&i)
            {
                continue;
            }
            let cheap = cost_per_element(ir, inp) <= opts.flops_per_element_threshold;
            if inp.space == Space::Edge && inp.kind.fusion_class() == FusionClass::Fusible && cheap
            {
                full_recompute.insert(i);
                stack.push(i);
            } else {
                // O(|V|) (or expensive) ancestor: stash it instead.
                plan.stash.insert(i);
            }
        }
    }
    plan.recomputed = full_recompute;

    // Attach per-kernel closures: each backward graph kernel rebuilds the
    // recomputed values its members consume (duplication across kernels is
    // intentional — recomputation is local to the fused kernel).
    let is_backward_kernel: Vec<bool> = kernels
        .iter()
        .map(|k| k.nodes.iter().any(|&n| ir.node(n).phase == Phase::Backward))
        .collect();
    let kernel_expensive = kernel_is_expensive;
    for k in kernels.iter_mut() {
        if !is_backward_kernel[k.id] || kernel_expensive[k.id] {
            continue;
        }
        let members: HashSet<NodeId> = k.nodes.iter().copied().collect();
        let mut need: BTreeSet<NodeId> = BTreeSet::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for &n in &k.nodes {
            for &i in &ir.node(n).inputs {
                if plan.recomputed.contains(&i) && !members.contains(&i) {
                    stack.push(i);
                }
            }
        }
        while let Some(r) = stack.pop() {
            if !need.insert(r) {
                continue;
            }
            for &i in &ir.node(r).inputs {
                if plan.recomputed.contains(&i) {
                    stack.push(i);
                }
            }
        }
        // BTreeSet iteration is ascending node id == topological order.
        k.recompute = need.into_iter().collect();
        // A dense elementwise kernel that now hosts graph-op recomputation
        // becomes a graph kernel.
        if !k.recompute.is_empty() && k.mapping == ThreadMapping::Dense {
            k.mapping = ThreadMapping::EdgeBalanced;
        }
    }

    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autodiff::append_backward;
    use crate::fusion::{partition, FusionLevel, MappingPolicy};
    use crate::op::{BinaryFn, Dim, EdgeGroup, ReduceFn, ScatterFn, UnaryFn};

    /// GAT-like training graph: linear → scatter_add → LR → softmax → mul
    /// with scattered features → gather.
    fn gat_training_ir() -> (IrGraph, NodeId, NodeId) {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(8));
        let w = g.param("w", 8, 8);
        let hw = g.linear(h, w).unwrap();
        let a = g.param("a", 8, 1);
        let score = g.linear(hw, a).unwrap(); // [V,1] attention logit
        let e = g
            .scatter(ScatterFn::Bin(BinaryFn::Add), score, score)
            .unwrap();
        let lr = g.unary(UnaryFn::LeakyRelu(0.2), e).unwrap();
        let sm = g.edge_softmax(lr).unwrap();
        let hu = g.scatter(ScatterFn::CopyU, hw, hw).unwrap();
        let me = g.binary(BinaryFn::Mul, hu, sm).unwrap();
        let out = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, me).unwrap();
        g.mark_output(out);
        append_backward(&mut g, out).unwrap();
        (g, sm, hw)
    }

    #[test]
    fn edge_intermediates_recomputed_vertex_stashed() {
        let (g, sm, hw) = gat_training_ir();
        let mut kernels = partition(&g, FusionLevel::Unified, MappingPolicy::Auto);
        let plan = plan_training_memory(&g, &mut kernels, &RecomputeOptions::default());
        // Softmax output (edge) is recomputed, nothing of it stashed: the
        // backward sweeps its groups again.
        assert!(plan.recomputed.contains(&sm), "softmax must be recomputed");
        assert!(plan.aux_stash.is_empty(), "no gather-max, no aux stash");
        // Projected vertex features are stashed, not recomputed.
        assert!(plan.stash.contains(&hw));
        // No O(|E|) tensor may appear in the stash.
        for &s in &plan.stash {
            assert_ne!(
                g.node(s).space,
                Space::Edge,
                "edge tensor {} stashed under recomputation",
                g.node(s).name
            );
        }
    }

    #[test]
    fn disabled_recompute_stashes_everything_saved() {
        let (g, sm, _) = gat_training_ir();
        let mut kernels = partition(&g, FusionLevel::Unified, MappingPolicy::Auto);
        let opts = RecomputeOptions {
            scope: RecomputeScope::None,
            ..RecomputeOptions::default()
        };
        let plan = plan_training_memory(&g, &mut kernels, &opts);
        assert!(plan.recomputed.is_empty());
        assert!(
            plan.stash.contains(&sm),
            "softmax output stashed when disabled"
        );
        assert!(kernels.iter().all(|k| k.recompute.is_empty()));
    }

    #[test]
    fn backward_kernels_get_closures() {
        let (g, sm, _) = gat_training_ir();
        let mut kernels = partition(&g, FusionLevel::Unified, MappingPolicy::Auto);
        plan_training_memory(&g, &mut kernels, &RecomputeOptions::default());
        let with_recompute: Vec<_> = kernels.iter().filter(|k| !k.recompute.is_empty()).collect();
        assert!(
            !with_recompute.is_empty(),
            "some backward kernel must recompute"
        );
        // Closures are topologically ordered and include the softmax.
        for k in with_recompute {
            assert!(k.recompute.windows(2).all(|w| w[0] < w[1]));
            for &r in &k.recompute {
                assert_eq!(g.node(r).phase, Phase::Forward);
            }
        }
        assert!(kernels.iter().any(|k| k.recompute.contains(&sm)));
    }

    #[test]
    fn expensive_reader_forces_stash() {
        // Linear applied on *edges* (no reorg): its weight gradient reads
        // the edge tensor from a dense kernel, so the tensor must stash.
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let w = g.param("w", 4, 4);
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Sub), h, h).unwrap();
        let le = g.linear(e, w).unwrap();
        let out = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, le).unwrap();
        g.mark_output(out);
        append_backward(&mut g, out).unwrap();
        let mut kernels = partition(&g, FusionLevel::Unified, MappingPolicy::Auto);
        let plan = plan_training_memory(&g, &mut kernels, &RecomputeOptions::default());
        assert!(
            plan.stash.contains(&e),
            "edge input of a dense weight-gradient must be stashed"
        );
    }
}
