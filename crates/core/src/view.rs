//! Per-edge `View`s: how a consumer op reads each of its inputs.
//!
//! The generalized op-graph IR annotates every dataflow
//! edge with a `View` describing the index transformation between the
//! producer's rows and the consumer's iteration space. All scheduling
//! decisions downstream — kernel clustering ([`crate::fusion`]),
//! storage-class assignment and streaming eligibility ([`crate::lower`]) —
//! are derived from these views alone, never from per-op templates, which
//! is what makes lowering *total*: any op the IR can express has a
//! well-defined view signature and therefore a well-defined schedule.
//!
//! The classification is a pure function of `(consumer kind, consumer
//! space, producer space)` plus — for [`crate::op::OpKind::GatherMaxBwd`] —
//! the grouping of the forward node it inverts, so it lives here as the
//! single source of truth shared by the fusion and lowering passes.

use crate::ir::IrGraph;
use crate::op::{EdgeGroup, NodeId, OpKind, ScatterFn, Space};

/// How one input of an op is read relative to the op's iteration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum View {
    /// Same iteration space, same row: `in[i]` while producing `out[i]`.
    Aligned,
    /// Vertex rows read through each edge's *source* endpoint
    /// (`in[src(e)]` while iterating edges).
    BySrc,
    /// Vertex rows read through each edge's *destination* endpoint
    /// (`in[dst(e)]` while iterating edges).
    ByDst,
    /// Edge rows *reduced* into per-endpoint rows (`out[v] = ⊕ in[e]` over
    /// the group anchored at `v`); the grouping endpoint decides whether
    /// the reduction streams (ByDst) or must invert the edge order (BySrc).
    Reduce(EdgeGroup),
    /// Whole-tensor read independent of the iteration row (parameters and
    /// other `Space::Param` operands broadcast into every row).
    Broadcast,
    /// Stash-backed auxiliary: the value is not a live dataflow input but
    /// an auxiliary table recorded by another node (argmax tables, softmax
    /// max/denominator stashes) and replayed at the consumer's rows.
    Stash,
    /// The operand is never read (the dummy second operand of a
    /// `Scatter(CopyU/CopyV)` kept for arity uniformity).
    Unused,
}

impl View {
    /// The endpoint group of an endpoint read, if any.
    pub fn endpoint_group(self) -> Option<EdgeGroup> {
        match self {
            View::BySrc => Some(EdgeGroup::BySrc),
            View::ByDst => Some(EdgeGroup::ByDst),
            _ => None,
        }
    }
}

/// The view through which `consumer` reads its `pos`-th input.
///
/// Total over every op the IR can express; unknown combinations default to
/// [`View::Aligned`] (same-space elementwise) or [`View::Broadcast`]
/// (param operands), which are the only reads left once the explicit
/// endpoint/reduction cases below are handled.
pub fn edge_view(ir: &IrGraph, consumer: NodeId, pos: usize) -> View {
    let node = ir.node(consumer);
    let input = node.inputs[pos];
    let in_space = ir.node(input).space;
    match &node.kind {
        // Scatter reads vertex rows through edge endpoints: copy scatters
        // carry their one read operand at position 0; binary/concat
        // scatters read the source operand at 0 and the destination
        // operand at 1.
        OpKind::Scatter(f) => match (f, pos) {
            (ScatterFn::CopyU, 0) => View::BySrc,
            (ScatterFn::CopyV, 0) => View::ByDst,
            (ScatterFn::Bin(_) | ScatterFn::ConcatUV, 0) => View::BySrc,
            (ScatterFn::Bin(_) | ScatterFn::ConcatUV, _) => View::ByDst,
            _ => View::Unused,
        },
        // Reductions consume edge rows grouped by an endpoint.
        OpKind::Gather { group, .. } => View::Reduce(*group),
        OpKind::EdgeSoftmax | OpKind::EdgeSoftmaxBwd => {
            if in_space == Space::Edge {
                View::Aligned
            } else {
                View::Broadcast
            }
        }
        // Mean backward broadcasts the vertex gradient to each edge of the
        // forward group — an endpoint read through the forward grouping.
        OpKind::GatherMeanBwd { group } => match group {
            EdgeGroup::ByDst => View::ByDst,
            EdgeGroup::BySrc => View::BySrc,
        },
        // Max backward routes the vertex gradient through the argmax table
        // of the forward gather: the dataflow input (the gradient) is an
        // endpoint read at the forward grouping, and the argmax table
        // itself is a stash-backed auxiliary.
        OpKind::GatherMaxBwd { fwd } => match gather_max_bwd_group(ir, *fwd) {
            EdgeGroup::ByDst => View::ByDst,
            EdgeGroup::BySrc => View::BySrc,
        },
        // Gaussian parameter reductions iterate edges and reduce into the
        // tiny `[K, r]` parameter grid: the pseudo-coordinate and incoming
        // gradient are aligned edge reads, everything else is a parameter
        // broadcast.
        OpKind::GaussianBwdMu | OpKind::GaussianBwdSigma => {
            if in_space == Space::Param {
                View::Broadcast
            } else {
                View::Aligned
            }
        }
        // Everything else: parameters broadcast, same-space reads align.
        _ => {
            if in_space == Space::Param && node.space != Space::Param {
                View::Broadcast
            } else {
                View::Aligned
            }
        }
    }
}

/// The endpoint group a [`OpKind::GatherMaxBwd`] inverts: the grouping of
/// its forward `Gather(Max)` node (`ByDst` if the forward node has been
/// rewritten into something without a grouping, which cannot happen for
/// IRs produced by the autodiff pass).
pub fn gather_max_bwd_group(ir: &IrGraph, fwd: NodeId) -> EdgeGroup {
    ir.node(fwd)
        .kind
        .reduction_group()
        .unwrap_or(EdgeGroup::ByDst)
}

/// The `(input position, endpoint group)` pairs of every input `consumer`
/// reads through a CSR endpoint. This is the view-derived replacement for
/// the old per-template endpoint tables in the fusion pass.
pub fn endpoint_reads(ir: &IrGraph, consumer: NodeId) -> Vec<(usize, EdgeGroup)> {
    let node = ir.node(consumer);
    (0..node.inputs.len())
        .filter_map(|pos| {
            edge_view(ir, consumer, pos)
                .endpoint_group()
                .map(|g| (pos, g))
        })
        .collect()
}

/// Input positions `consumer` reads through the *source* endpoint — the
/// reads that cannot see a same-segment tile buffer when the surrounding
/// kernel tiles by destination vertex.
pub fn src_side_reads(ir: &IrGraph, consumer: NodeId) -> Vec<usize> {
    endpoint_reads(ir, consumer)
        .into_iter()
        .filter_map(|(pos, g)| (g == EdgeGroup::BySrc).then_some(pos))
        .collect()
}

/// The endpoint group an *edge-space output* of `id` is coupled to, if
/// any: each output row depends on the whole edge group anchored at that
/// endpoint (a softmax normalizes over it, a mean backward divides by
/// its size, a max backward consults its argmax), not just on the row's
/// own inputs.
///
/// This is the view-level fact sharded execution keys on: a shard that
/// only holds *part* of a group (a replicated cut edge whose anchor
/// vertex lives elsewhere) computes such rows wrong, so the rows are
/// only authoritative in the shard owning the anchor endpoint. Rows of
/// un-anchored edge ops (`None`) are a pure function of their own
/// aligned/endpoint reads and are correct wherever those reads are.
pub fn output_anchor(ir: &IrGraph, id: NodeId) -> Option<EdgeGroup> {
    let node = ir.node(id);
    if node.space != Space::Edge {
        return None;
    }
    match &node.kind {
        OpKind::GatherMaxBwd { fwd } => Some(gather_max_bwd_group(ir, *fwd)),
        k => k.reduction_group(),
    }
}

/// The endpoint group at which an *edge-space operand* of `consumer`
/// must be group-complete and valid: `Reduce(g)` views iterate the edge
/// groups anchored at `g`, and group-coupled consumers (see
/// [`output_anchor`]) read their aligned edge operands a whole group at
/// a time. `None` for row-local reads — an aligned operand of an
/// un-anchored consumer only needs its own row.
///
/// Sharded execution derives its halo exchanges from exactly this:
/// before a consumer with `Some(g)` runs, the operand's rows anchored
/// at each shard's owned `g`-endpoints must hold the values the
/// unsharded session would see.
pub fn required_anchor(ir: &IrGraph, consumer: NodeId, pos: usize) -> Option<EdgeGroup> {
    let node = ir.node(consumer);
    let input = node.inputs[pos];
    if ir.node(input).space != Space::Edge {
        return None;
    }
    match edge_view(ir, consumer, pos) {
        View::Reduce(g) => Some(g),
        View::Aligned => node.kind.reduction_group(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrGraph;
    use crate::op::{BinaryFn, Dim, ReduceFn};

    fn edge_fixture() -> (IrGraph, NodeId, NodeId, NodeId) {
        let mut ir = IrGraph::new();
        let h = ir.input_vertex("h", Dim::flat(4));
        let e = ir.scatter(ScatterFn::Bin(BinaryFn::Add), h, h).unwrap();
        let v = ir.gather(ReduceFn::Max, EdgeGroup::ByDst, e).unwrap();
        (ir, h, e, v)
    }

    #[test]
    fn scatter_views_are_endpoint_reads() {
        let (ir, _, e, _) = edge_fixture();
        assert_eq!(edge_view(&ir, e, 0), View::BySrc);
        assert_eq!(edge_view(&ir, e, 1), View::ByDst);
        assert_eq!(endpoint_reads(&ir, e).len(), 2);
        assert_eq!(src_side_reads(&ir, e), vec![0]);
    }

    #[test]
    fn copy_u_reads_only_the_source_side() {
        let mut ir = IrGraph::new();
        let h = ir.input_vertex("h", Dim::flat(4));
        let e = ir.scatter(ScatterFn::CopyU, h, h).unwrap();
        assert_eq!(edge_view(&ir, e, 0), View::BySrc);
        assert_eq!(endpoint_reads(&ir, e), vec![(0, EdgeGroup::BySrc)]);
    }

    #[test]
    fn gather_view_is_a_reduction() {
        let (ir, _, _, v) = edge_fixture();
        assert_eq!(edge_view(&ir, v, 0), View::Reduce(EdgeGroup::ByDst));
        assert!(endpoint_reads(&ir, v).is_empty());
    }

    #[test]
    fn gather_max_bwd_inherits_the_forward_group() {
        let (mut ir, _, _, v) = edge_fixture();
        let dim = ir.node(v).dim;
        let seed = ir.push_raw(OpKind::GradSeed, vec![], Space::Vertex, dim, "seed");
        let bwd = ir.push_raw(
            OpKind::GatherMaxBwd { fwd: v },
            vec![seed],
            Space::Edge,
            dim,
            "gmb",
        );
        assert_eq!(gather_max_bwd_group(&ir, v), EdgeGroup::ByDst);
        assert_eq!(edge_view(&ir, bwd, 0), View::ByDst);
    }

    #[test]
    fn params_broadcast_into_nonparam_spaces() {
        let mut ir = IrGraph::new();
        let h = ir.input_vertex("h", Dim::flat(4));
        let w = ir.param("w", 4, 2);
        let y = ir.linear(h, w).unwrap();
        assert_eq!(edge_view(&ir, y, 0), View::Aligned);
        assert_eq!(edge_view(&ir, y, 1), View::Broadcast);
    }
}
