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
//!
//! # Layouts: the column half of a read
//!
//! A `View` says which *row* an op reads; a [`Layout`] says how the
//! columns of that row are laid out for the reader: a head relabel, a
//! column or parameter-row window read narrow or zero-padded wide, a
//! stride-0 broadcast, a parameter's transpose. None does arithmetic.
//! Each builder emits an [`OpKind::View`] node, which autodiff
//! transposes (a window's dual is the padded window, a relabel's a
//! relabel, a transpose's a transpose, a broadcast's `HeadReduce` /
//! `FeatSum`); [`crate::fusion::duplicate_copy_scatters`] then folds
//! every view onto its readers' edges ([`crate::ir::Node::layouts`]),
//! chains composing. A relabel costs nothing; any other layout is a
//! gather through [`gather_map`] — of the rows a tile op reads, or of a
//! whole tensor (a parameter, a dense call's operand).

use crate::ir::{IrError, IrGraph};
use crate::op::{Dim, EdgeGroup, NodeId, OpKind, ScatterFn, Space};

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
        OpKind::EdgeSoftmax => View::Aligned,
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

/// A window `[start, end)` of `total` per-head features — or, `rows`,
/// parameter rows — read narrow (the slice) or `wide` (the slice
/// embedded in `total` zero-padded ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    pub start: usize,
    pub end: usize,
    pub total: usize,
    pub wide: bool,
    pub rows: bool,
}

/// How a reader lays out the columns of an operand's row (module docs).
/// A parameter is one row: its `[rows, cols]` tensor, row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// The row's columns relabelled as `heads` heads.
    Heads(usize),
    /// A [`Window`] of features or parameter rows.
    Window(Window),
    /// One head read as `heads` (stride 0).
    BroadcastHeads(usize),
    /// One feature a head read as `feat` (stride 0).
    BroadcastFeat(usize),
    /// A parameter's rows read as its columns.
    Transpose,
}

/// A [`gather_map`] entry that reads a padding zero.
pub const PAD: u32 = u32::MAX;

impl Layout {
    /// What a reader sees of an operand of dim `d`.
    pub fn dim(self, d: Dim) -> Dim {
        match self {
            Layout::Heads(h) => Dim::multi(h, d.total() / h),
            Layout::Window(w) => {
                let n = if w.wide { w.total } else { w.end - w.start };
                if w.rows {
                    Dim::multi(n, d.feat)
                } else {
                    Dim::multi(d.heads, n)
                }
            }
            Layout::BroadcastHeads(h) => Dim::multi(h, d.feat),
            Layout::BroadcastFeat(f) => Dim::multi(d.heads, f),
            Layout::Transpose => Dim::multi(d.feat, d.heads),
        }
    }

    /// Rejects a layout an operand of dim `d` in `space` cannot take:
    /// zero heads, a width a relabel does not divide, an empty or
    /// out-of-range window, rows or a transpose of a non-parameter, a
    /// broadcast of more than one head or feature.
    pub fn check(self, d: Dim, space: Space) -> Result<(), IrError> {
        let ok = match self {
            Layout::Heads(h) => h > 0 && d.total().is_multiple_of(h),
            Layout::Window(w) => {
                let have = if w.rows { d.heads } else { d.feat };
                let fits = have == if w.wide { w.end - w.start } else { w.total };
                (!w.rows || space == Space::Param) && w.start < w.end && w.end <= w.total && fits
            }
            Layout::BroadcastHeads(h) => h > 0 && d.heads == 1,
            Layout::BroadcastFeat(f) => f > 0 && d.feat == 1,
            Layout::Transpose => space == Space::Param,
        };
        let detail = format!("{self} of {space:?} {d:?}");
        ok.then_some(()).ok_or(IrError::Incompatible {
            op: "view".into(),
            detail,
        })
    }

    /// The source column that column `c` of the laid-out row of an
    /// operand of dim `d` reads, or `None` for a padding zero.
    fn source(self, d: Dim, c: usize) -> Option<usize> {
        let out = self.dim(d);
        let (h, j) = (c / out.feat, c % out.feat);
        match self {
            Layout::Heads(_) => Some(c),
            // Feature `j` of head `h`; of a parameter, row `h`, column `j`.
            Layout::Window(w) => {
                let (at, unit, k) = if w.rows {
                    (h, d.feat, j)
                } else {
                    (j, 1, h * d.feat)
                };
                let inside = (w.start..w.end).contains(&at);
                let at = if !w.wide {
                    Some(at + w.start)
                } else {
                    inside.then(|| at - w.start)
                };
                at.map(|a| a * unit + k)
            }
            Layout::BroadcastHeads(_) => Some(j),
            Layout::BroadcastFeat(_) => Some(h),
            Layout::Transpose => Some(j * d.feat + h),
        }
    }
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Layout::Heads(h) => write!(f, "heads {h}"),
            Layout::Window(w) => {
                let pad = if w.wide { "pad " } else { "" };
                let what = if w.rows { "rows" } else { "cols" };
                write!(f, "{pad}{what} {}..{}/{}", w.start, w.end, w.total)
            }
            Layout::BroadcastHeads(h) => write!(f, "heads ×{h}"),
            Layout::BroadcastFeat(n) => write!(f, "feat ×{n}"),
            Layout::Transpose => write!(f, "transpose"),
        }
    }
}

/// True when `chain` moves no data for an operand of dim `d` in
/// `space`: relabels only — of a parameter, only when its shape stays.
pub fn is_free(chain: &[Layout], d: Dim, space: Space) -> bool {
    chain.iter().all(|l| matches!(l, Layout::Heads(_)))
        && (space != Space::Param || chain.iter().fold(d, |d, l| l.dim(d)) == d)
}

/// What a reader sees through `chain` of an operand of dim `d`, and for
/// each column of its row the source column it copies ([`PAD`]: a
/// zero). A parameter's row is the whole tensor.
pub fn gather_map(chain: &[Layout], mut d: Dim) -> (Dim, Vec<u32>) {
    let mut map: Vec<u32> = (0..d.total() as u32).collect();
    for l in chain {
        let laid = 0..l.dim(d).total();
        map = laid
            .map(|c| l.source(d, c).map_or(PAD, |s| map[s]))
            .collect();
        d = l.dim(d);
    }
    (d, map)
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

    /// Column `c` of row `r` of a transposed `[2, 3]` parameter reads its
    /// row `c`, column `r`; a transpose of the transpose reads in place.
    #[test]
    fn transpose_maps_rows_to_columns() {
        let (dim, map) = gather_map(&[Layout::Transpose], Dim::multi(2, 3));
        assert_eq!((dim, map), (Dim::multi(3, 2), vec![0, 3, 1, 4, 2, 5]));
        let twice = gather_map(&[Layout::Transpose; 2], Dim::multi(2, 3));
        assert_eq!(twice, (Dim::multi(2, 3), (0..6).collect()));
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
