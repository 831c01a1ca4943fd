//! Propagation-postponed operator reorganization (paper §4).
//!
//! The redundancy: `Scatter` duplicates each vertex feature onto all its
//! incident edges, so an expensive `ApplyEdge` that follows performs the
//! same per-vertex computation `|E|` times. Whenever the scatter function
//! `g` and the apply function `φ` satisfy `φ(g(u, v)) = g(φ(u), φ(v))`
//! (commutative + distributive, §4 "identify redundancy"), the pass swaps
//! them — `Scatter → ApplyEdge` becomes `ApplyVertex → Scatter` — cutting
//! the expensive operator from `O(|E|)` to `O(|V|)` invocations.
//!
//! Rewrites implemented (each with the soundness argument from the paper):
//!
//! 1. `Linear ∘ Scatter(±)` → `Scatter(±) ∘ Linear` — linear maps
//!    distribute over `+`/`−`.
//! 2. `P ∘ Scatter(Copy*)` → `Scatter(Copy*) ∘ P` for a projection `P`,
//!    a `Linear` or a head-dot `FeatSum ∘ Mul(·, a)` with the parameter
//!    `a` read whole — trivially sound (per-edge function of a single
//!    vertex value).
//! 3. `FeatSum ∘ Mul(Scatter(∥), a)` →
//!    `Scatter(+)(FeatSum ∘ Mul(·, aₗ), FeatSum ∘ Mul(·, aᵣ))` — the GAT
//!    attention trick: `aᵀ[hu ∥ hv] = aₗᵀhu + aᵣᵀhv` (§4 Example), `aₗ`
//!    and `aᵣ` the two column windows of `a`.
//! 4. `Linear ∘ Scatter(∥)` → split weight rows, as (3).
//! 5. `Gather(Σ) ∘ Linear(edge)` → `Linear ∘ Gather(Σ)` — the dual
//!    postponement (sum commutes with linear maps); an extension beyond
//!    the paper's examples.
//!
//! A rewrite fires only when the propagated tensor has no other consumers,
//! keeping the transformation locally IO-neutral-or-better.

use crate::ir::{IrGraph, Phase, Result};
use crate::op::{BinaryFn, NodeId, OpKind, ReduceFn, ScatterFn, Space};
use std::collections::{HashMap, HashSet};

/// Statistics of one reorganization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReorgReport {
    /// Number of rewrites applied.
    pub rewrites: usize,
}

/// Runs the pass to fixpoint (bounded), returning the rewritten graph.
///
/// # Errors
///
/// Propagates IR construction errors (a failed rewrite indicates an
/// internal inconsistency, not bad user input).
///
/// # Panics
///
/// Panics if the graph already contains backward-phase nodes; run
/// reorganization before autodiff.
pub fn reorganize(ir: &IrGraph) -> Result<(IrGraph, ReorgReport)> {
    assert!(
        ir.nodes().iter().all(|n| n.phase == Phase::Forward),
        "reorganization must run before autodiff"
    );
    let mut graph = ir.clone();
    let mut report = ReorgReport::default();
    for _ in 0..8 {
        let (next, applied) = rewrite_once(&graph)?;
        graph = next;
        if applied == 0 {
            break;
        }
        report.rewrites += applied;
    }
    Ok((dce(&graph), report))
}

/// One rebuild pass applying every non-overlapping rewrite opportunity.
fn rewrite_once(ir: &IrGraph) -> Result<(IrGraph, usize)> {
    let consumers = ir.consumers();
    let mut out = IrGraph::new();
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    let mut applied = 0usize;

    for node in ir.nodes() {
        let m = |id: NodeId, map: &HashMap<NodeId, NodeId>| map[&id];

        // Pattern heads are projections whose input is a single-consumer
        // scatter (1–4) or gathers over single-consumer edge linears (5).
        let new_id: NodeId = match (&node.kind, projection(ir, &consumers, node)) {
            (_, Some((src, w, dot))) => {
                let src_node = ir.node(src);
                let private = consumers[src].len() == 1;
                let w = m(w, &map);
                match (&src_node.kind, private) {
                    (OpKind::Scatter(f @ (ScatterFn::CopyU | ScatterFn::CopyV)), true) => {
                        applied += 1;
                        let x = m(src_node.inputs[0], &map);
                        let proj = project(&mut out, dot, x, w)?;
                        out.scatter(*f, proj, proj)?
                    }
                    (
                        OpKind::Scatter(ScatterFn::Bin(bf @ (BinaryFn::Add | BinaryFn::Sub))),
                        true,
                    ) if !dot => {
                        applied += 1;
                        let x = m(src_node.inputs[0], &map);
                        let y = m(src_node.inputs[1], &map);
                        let px = out.linear(x, w)?;
                        let py = if x == y { px } else { out.linear(y, w)? };
                        out.scatter(ScatterFn::Bin(*bf), px, py)?
                    }
                    (OpKind::Scatter(ScatterFn::ConcatUV), true) => {
                        applied += 1;
                        let x = m(src_node.inputs[0], &map);
                        let y = m(src_node.inputs[1], &map);
                        let fx = ir.node(src_node.inputs[0]).dim.feat;
                        let fy = ir.node(src_node.inputs[1]).dim.feat;
                        let (wl, wr) = if dot {
                            (out.slice_cols(w, 0, fx)?, out.slice_cols(w, fx, fx + fy)?)
                        } else {
                            (out.slice_rows(w, 0, fx)?, out.slice_rows(w, fx, fx + fy)?)
                        };
                        let px = project(&mut out, dot, x, wl)?;
                        let py = project(&mut out, dot, y, wr)?;
                        out.scatter(ScatterFn::Bin(BinaryFn::Add), px, py)?
                    }
                    _ => copy_node(&mut out, node, &map),
                }
            }
            // Pattern 5: hoist an edge-space linear above a sum/mean gather.
            (
                OpKind::Gather {
                    reduce: reduce @ (ReduceFn::Sum | ReduceFn::Mean),
                    group,
                },
                None,
            ) => {
                let src = node.inputs[0];
                let src_node = ir.node(src);
                if src_node.kind == OpKind::Linear
                    && src_node.space == Space::Edge
                    && consumers[src].len() == 1
                {
                    applied += 1;
                    let e = m(src_node.inputs[0], &map);
                    let w = m(src_node.inputs[1], &map);
                    let gathered = out.gather(*reduce, *group, e)?;
                    out.linear(gathered, w)?
                } else {
                    copy_node(&mut out, node, &map)
                }
            }
            _ => copy_node(&mut out, node, &map),
        };
        map.insert(node.id, new_id);
    }
    for &o in ir.outputs() {
        out.mark_output(map[&o]);
    }
    Ok((out, applied))
}

/// Re-emits `node` unchanged (with remapped inputs) into `out`.
fn copy_node(out: &mut IrGraph, node: &crate::ir::Node, map: &HashMap<NodeId, NodeId>) -> NodeId {
    let inputs = node.inputs.iter().map(|i| map[i]).collect();
    out.push_raw(
        node.kind.clone(),
        inputs,
        node.space,
        node.dim,
        node.name.clone(),
    )
}

/// The projection `node` applies, as `(input, parameter, head-dot)`: a
/// `Linear`, or the `FeatSum` of a head-dot whose product
/// ([`IrGraph::head_dot`]) only it reads.
fn projection(
    ir: &IrGraph,
    consumers: &[Vec<NodeId>],
    node: &crate::ir::Node,
) -> Option<(NodeId, NodeId, bool)> {
    match node.kind {
        OpKind::Linear => Some((node.inputs[0], node.inputs[1], false)),
        OpKind::FeatSum if consumers[node.inputs[0]].len() == 1 => {
            let (x, a) = ir.head_dot_operands(node.inputs[0])?;
            Some((x, a, true))
        }
        _ => None,
    }
}

/// Emits the projection on a vertex tensor: `x · w`, or the head-dot of
/// `x` with `w`.
fn project(out: &mut IrGraph, dot: bool, x: NodeId, w: NodeId) -> Result<NodeId> {
    if dot {
        out.head_dot(x, w)
    } else {
        out.linear(x, w)
    }
}

/// Dead-code elimination: keeps only nodes reachable from the outputs.
fn dce(ir: &IrGraph) -> IrGraph {
    let mut live: HashSet<NodeId> = HashSet::new();
    let mut stack: Vec<NodeId> = ir.outputs().to_vec();
    while let Some(n) = stack.pop() {
        if live.insert(n) {
            stack.extend(ir.node(n).inputs.iter().copied());
        }
    }
    let mut out = IrGraph::new();
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for node in ir.nodes() {
        if live.contains(&node.id) {
            let id = copy_node(&mut out, node, &map);
            map.insert(node.id, id);
        }
    }
    for &o in ir.outputs() {
        out.mark_output(map[&o]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Dim;
    use crate::view::Layout;

    /// EdgeConv head: Linear(u_sub_v(h, h)) must become
    /// u_sub_v(Linear(h), Linear(h)) with a single Linear.
    #[test]
    fn edgeconv_linear_postpones_scatter() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(8));
        let w = g.param("theta", 8, 16);
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Sub), h, h).unwrap();
        let le = g.linear(e, w).unwrap();
        g.mark_output(le);

        let (r, rep) = reorganize(&g).unwrap();
        assert_eq!(rep.rewrites, 1);
        // Exactly one Linear, and it must be on vertices.
        let linears: Vec<_> = r
            .nodes()
            .iter()
            .filter(|n| n.kind == OpKind::Linear)
            .collect();
        assert_eq!(linears.len(), 1);
        assert_eq!(linears[0].space, Space::Vertex);
        // Output is now a scatter.
        let out = r.node(r.outputs()[0]);
        assert_eq!(out.kind, OpKind::Scatter(ScatterFn::Bin(BinaryFn::Sub)));
        assert_eq!(out.dim, Dim::flat(16));
    }

    /// GAT attention: FeatSum(Mul(concat(hu, hv), a)) must become
    /// scatter_add(FeatSum(Mul(h, a_l)), FeatSum(Mul(h, a_r))).
    #[test]
    fn gat_concat_projection_splits() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::multi(4, 16));
        let a = g.param("a", 4, 32);
        let cat = g.scatter(ScatterFn::ConcatUV, h, h).unwrap();
        let att = g.head_dot(cat, a).unwrap();
        g.mark_output(att);

        let (r, rep) = reorganize(&g).unwrap();
        assert_eq!(rep.rewrites, 1);
        let dots: Vec<_> = r
            .nodes()
            .iter()
            .filter(|n| n.kind == OpKind::FeatSum)
            .collect();
        assert_eq!(dots.len(), 2, "two vertex-side projections");
        // Each the sum of `h` times a column window of `a`, read whole.
        for (n, window) in dots.iter().zip([(0, 16), (16, 32)]) {
            assert_eq!(n.space, Space::Vertex);
            let xa = r.node(n.inputs[0]);
            assert_eq!(xa.kind, OpKind::Binary(BinaryFn::Mul));
            assert_eq!(r.node(xa.inputs[0]).kind, OpKind::InputVertex);
            let Layout::Window(w) = r.read_layouts(xa.inputs[1], 0).next().unwrap() else {
                panic!("a column window of `a`");
            };
            assert_eq!((w.start, w.end, w.rows), (window.0, window.1, false));
        }
        let out = r.node(r.outputs()[0]);
        assert_eq!(out.kind, OpKind::Scatter(ScatterFn::Bin(BinaryFn::Add)));
        assert_eq!(out.dim, Dim::multi(4, 1));
        // No concat survives.
        assert!(!r
            .nodes()
            .iter()
            .any(|n| n.kind == OpKind::Scatter(ScatterFn::ConcatUV)));
    }

    #[test]
    fn shared_scatter_is_not_rewritten() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(8));
        let w = g.param("w", 8, 8);
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Sub), h, h).unwrap();
        let le = g.linear(e, w).unwrap();
        // Second consumer of the scatter blocks the rewrite.
        let other = g.unary(crate::op::UnaryFn::Relu, e).unwrap();
        g.mark_output(le);
        g.mark_output(other);
        let (_, rep) = reorganize(&g).unwrap();
        assert_eq!(rep.rewrites, 0);
    }

    #[test]
    fn gather_sum_hoists_edge_linear() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(8));
        let w = g.param("w", 8, 4);
        let e = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        let le = g.linear(e, w).unwrap();
        let v = g
            .gather(ReduceFn::Sum, crate::op::EdgeGroup::ByDst, le)
            .unwrap();
        g.mark_output(v);
        let (r, rep) = reorganize(&g).unwrap();
        // Two rewrites compose across iterations: first the Linear hoists
        // above the gather... but the copy-scatter pattern (2) fires first
        // in topo order, postponing the Linear below the scatter; the
        // result must end with at most one |V|-sized Linear.
        assert!(rep.rewrites >= 1);
        let linears: Vec<_> = r
            .nodes()
            .iter()
            .filter(|n| n.kind == OpKind::Linear)
            .collect();
        assert_eq!(linears.len(), 1);
        assert_eq!(linears[0].space, Space::Vertex);
    }

    #[test]
    fn dce_removes_orphans() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(8));
        let _dead = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        let live = g.scatter(ScatterFn::CopyV, h, h).unwrap();
        g.mark_output(live);
        let (r, _) = reorganize(&g).unwrap();
        assert_eq!(r.len(), 2, "input + live scatter only");
    }

    #[test]
    fn copy_scatter_projection_postponed() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(8));
        let w = g.param("w", 8, 4);
        let e = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        let le = g.linear(e, w).unwrap();
        g.mark_output(le);
        let (r, rep) = reorganize(&g).unwrap();
        assert_eq!(rep.rewrites, 1);
        let lin = r.nodes().iter().find(|n| n.kind == OpKind::Linear).unwrap();
        assert_eq!(lin.space, Space::Vertex);
    }
}
