//! The computational-graph IR: a DAG of [`Node`]s over the operator
//! algebra, with a validating builder API.
//!
//! Every node carries its iteration space ([`crate::op::Space`]: vertex,
//! edge, or parameter rows) and shape ([`crate::op::Dim`]), and every
//! dataflow edge has a well-defined per-edge [`crate::view::View`]
//! derivable from the endpoint kinds alone — the generalized op-graph
//! contract the clustering ([`crate::fusion`]) and lowering
//! ([`crate::lower`]) passes schedule from, with no per-op templates and
//! no unlowerable nodes.

use crate::op::{BinaryFn, Dim, EdgeGroup, NodeId, OpKind, ReduceFn, ScatterFn, Space, UnaryFn};
use crate::view::{Layout, Window};

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Forward vs backward phase of a node (autodiff appends backward nodes to
/// the same graph so the passes can rewrite both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// Inference dataflow.
    #[default]
    Forward,
    /// Gradient dataflow.
    Backward,
}

/// One operator instance.
#[derive(Debug, Clone)]
pub struct Node {
    /// Identifier (index into [`IrGraph::nodes`]).
    pub id: NodeId,
    /// The operator.
    pub kind: OpKind,
    /// Producer nodes, in operator-specific order.
    pub inputs: Vec<NodeId>,
    /// The layouts this node reads its inputs through, `(input position,
    /// layout)` in the order they apply — empty until
    /// [`crate::fusion::duplicate_copy_scatters`] folds the view nodes
    /// onto their readers ([`crate::view`], "Layouts").
    pub layouts: Vec<(usize, Layout)>,
    /// Output index space.
    pub space: Space,
    /// Output feature dimensions ([`Space::Param`] uses `heads` as rows and
    /// `feat` as cols).
    pub dim: Dim,
    /// Debug label.
    pub name: String,
    /// Forward or backward phase.
    pub phase: Phase,
    /// Whether gradients flow through this node.
    pub requires_grad: bool,
}

/// Errors raised by IR construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// Input spaces/dims incompatible with the operator.
    Incompatible {
        /// Operator being constructed.
        op: String,
        /// Explanation.
        detail: String,
    },
    /// Referenced node id does not exist.
    UnknownNode(NodeId),
    /// Autodiff does not support a required operator.
    Unsupported(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::Incompatible { op, detail } => {
                write!(f, "incompatible operands for {op}: {detail}")
            }
            IrError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            IrError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl Error for IrError {}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, IrError>;

/// A GNN computational graph.
///
/// Nodes are appended in construction order, which is always a valid
/// topological order (inputs must exist before use), so `nodes` doubles as
/// the canonical schedule.
#[derive(Debug, Clone, Default)]
pub struct IrGraph {
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
    phase: Phase,
}

impl IrGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// All nodes in topological (construction) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Borrows a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// The declared model outputs.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Declares `id` a model output.
    pub fn mark_output(&mut self, id: NodeId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Consumer lists per node (edges of the DAG, reversed).
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut cons = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                cons[i].push(n.id);
            }
        }
        cons
    }

    /// The layouts `id` reads its input `pos` through, in order — a
    /// terminal [`OpKind::View`]'s own layout last.
    pub fn read_layouts(&self, id: NodeId, pos: usize) -> impl Iterator<Item = Layout> + '_ {
        let node = &self.nodes[id];
        let edge = node.layouts.iter().filter(move |&&(p, _)| p == pos);
        let own = match node.kind {
            OpKind::View(l) => Some(l),
            _ => None,
        };
        edge.map(|&(_, l)| l).chain(own)
    }

    /// The dim `id` sees of its input `pos` (its producer's, through
    /// [`IrGraph::read_layouts`]).
    pub fn input_dim(&self, id: NodeId, pos: usize) -> Dim {
        let input = self.nodes[self.nodes[id].inputs[pos]].dim;
        self.read_layouts(id, pos).fold(input, |d, l| l.dim(d))
    }

    /// Sets the layouts `id` reads its inputs through.
    pub(crate) fn set_layouts(&mut self, id: NodeId, layouts: Vec<(usize, Layout)>) {
        self.nodes[id].layouts = layouts;
    }

    fn check(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id).ok_or(IrError::UnknownNode(id))
    }

    /// Switches the phase stamped on subsequently built nodes. Autodiff
    /// sets this to [`Phase::Backward`] before emitting gradient nodes.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// The phase currently stamped on new nodes.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    fn push(
        &mut self,
        kind: OpKind,
        inputs: Vec<NodeId>,
        space: Space,
        dim: Dim,
        name: impl Into<String>,
        phase: Phase,
    ) -> NodeId {
        let requires_grad =
            matches!(kind, OpKind::Param) || inputs.iter().any(|&i| self.nodes[i].requires_grad);
        let id = self.nodes.len();
        self.nodes.push(Node {
            id,
            kind,
            inputs,
            layouts: Vec::new(),
            space,
            dim,
            name: name.into(),
            phase,
            requires_grad,
        });
        id
    }

    /// Appends a node with explicit kind/space/dim, stamped with the
    /// current phase. Used by autodiff and the passes for backward-only
    /// and rewritten operators; model code should prefer the typed
    /// builders.
    pub(crate) fn push_raw(
        &mut self,
        kind: OpKind,
        inputs: Vec<NodeId>,
        space: Space,
        dim: Dim,
        name: impl Into<String>,
    ) -> NodeId {
        self.push(kind, inputs, space, dim, name, self.phase)
    }

    /// Appends a copy of `node` — kind, space, dim, name and phase —
    /// reading `inputs` through `layouts`. The forward gather an
    /// [`OpKind::GatherMaxBwd`] names is mapped through `map`, which
    /// already holds it: the gather precedes its backward node.
    pub(crate) fn push_copy(
        &mut self,
        node: &Node,
        inputs: Vec<NodeId>,
        layouts: Vec<(usize, Layout)>,
        map: &HashMap<NodeId, NodeId>,
    ) -> NodeId {
        let kind = match node.kind {
            OpKind::GatherMaxBwd { fwd } => OpKind::GatherMaxBwd { fwd: map[&fwd] },
            ref kind => kind.clone(),
        };
        let id = self.push(kind, inputs, node.space, node.dim, &*node.name, node.phase);
        self.nodes[id].layouts = layouts;
        id
    }

    /// The graph of what `roots` reach, copied in order with its layouts
    /// ([`IrGraph::push_copy`]), and the old→new id map. `roots` must
    /// include the outputs, which stay marked.
    pub(crate) fn reachable(
        &self,
        roots: impl IntoIterator<Item = NodeId>,
    ) -> (IrGraph, HashMap<NodeId, NodeId>) {
        let mut live = vec![false; self.len()];
        let mut stack: Vec<NodeId> = roots.into_iter().collect();
        while let Some(n) = stack.pop() {
            if !std::mem::replace(&mut live[n], true) {
                stack.extend(&self.nodes[n].inputs);
            }
        }
        let mut out = IrGraph::new();
        let mut map = HashMap::new();
        for node in self.nodes.iter().filter(|n| live[n.id]) {
            let inputs = node.inputs.iter().map(|i| map[i]).collect();
            let id = out.push_copy(node, inputs, node.layouts.clone(), &map);
            map.insert(node.id, id);
        }
        for &o in &self.outputs {
            out.mark_output(map[&o]);
        }
        (out, map)
    }

    // ---- leaves ----

    /// Adds a per-vertex input of width `dim`.
    pub fn input_vertex(&mut self, name: &str, dim: Dim) -> NodeId {
        self.push(
            OpKind::InputVertex,
            vec![],
            Space::Vertex,
            dim,
            name,
            self.phase,
        )
    }

    /// Adds a per-edge input of width `dim`.
    pub fn input_edge(&mut self, name: &str, dim: Dim) -> NodeId {
        self.push(
            OpKind::InputEdge,
            vec![],
            Space::Edge,
            dim,
            name,
            self.phase,
        )
    }

    /// Adds a `[rows, cols]` parameter.
    pub fn param(&mut self, name: &str, rows: usize, cols: usize) -> NodeId {
        self.push(
            OpKind::Param,
            vec![],
            Space::Param,
            Dim {
                heads: rows,
                feat: cols,
            },
            name,
            self.phase,
        )
    }

    // ---- graph ops ----

    /// `Scatter`: builds edge features from vertex features.
    ///
    /// `CopyU`/`CopyV` take one operand; binary functions and `ConcatUV`
    /// take two.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Incompatible`] on non-vertex operands or dim
    /// mismatches, and requires `heads` to agree for `ConcatUV`.
    pub fn scatter(&mut self, f: ScatterFn, x: NodeId, y: NodeId) -> Result<NodeId> {
        let nx = self.check(x)?.clone();
        let ny = self.check(y)?.clone();
        if nx.space != Space::Vertex || ny.space != Space::Vertex {
            return Err(IrError::Incompatible {
                op: format!("scatter({f:?})"),
                detail: "operands must be vertex features".into(),
            });
        }
        let dim = match f {
            ScatterFn::CopyU => nx.dim,
            ScatterFn::CopyV => ny.dim,
            ScatterFn::Bin(_) => {
                if nx.dim != ny.dim {
                    return Err(IrError::Incompatible {
                        op: format!("scatter({f:?})"),
                        detail: format!("dims {:?} vs {:?}", nx.dim, ny.dim),
                    });
                }
                nx.dim
            }
            ScatterFn::ConcatUV => {
                if nx.dim.heads != ny.dim.heads {
                    return Err(IrError::Incompatible {
                        op: "scatter(concat)".into(),
                        detail: format!("head mismatch {:?} vs {:?}", nx.dim, ny.dim),
                    });
                }
                Dim {
                    heads: nx.dim.heads,
                    feat: nx.dim.feat + ny.dim.feat,
                }
            }
        };
        let inputs = match f {
            ScatterFn::CopyU => vec![x],
            ScatterFn::CopyV => vec![y],
            _ => vec![x, y],
        };
        Ok(self.push(
            OpKind::Scatter(f),
            inputs,
            Space::Edge,
            dim,
            format!("scatter_{f:?}"),
            self.phase,
        ))
    }

    /// `Gather`: reduces edge features into vertex features.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Incompatible`] for non-edge input.
    pub fn gather(&mut self, reduce: ReduceFn, group: EdgeGroup, x: NodeId) -> Result<NodeId> {
        let nx = self.check(x)?.clone();
        if nx.space != Space::Edge {
            return Err(IrError::Incompatible {
                op: format!("gather({reduce:?})"),
                detail: "operand must be edge features".into(),
            });
        }
        Ok(self.push(
            OpKind::Gather { reduce, group },
            vec![x],
            Space::Vertex,
            nx.dim,
            format!("gather_{reduce:?}"),
            self.phase,
        ))
    }

    /// Edge softmax over per-destination groups (the `ReduceScatter`
    /// instance of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Incompatible`] for non-edge input.
    pub fn edge_softmax(&mut self, x: NodeId) -> Result<NodeId> {
        let nx = self.check(x)?.clone();
        if nx.space != Space::Edge {
            return Err(IrError::Incompatible {
                op: "edge_softmax".into(),
                detail: "operand must be edge features".into(),
            });
        }
        Ok(self.push(
            OpKind::EdgeSoftmax,
            vec![x],
            Space::Edge,
            nx.dim,
            "edge_softmax",
            self.phase,
        ))
    }

    // ---- apply ops ----

    /// Linear projection `x · w` (expensive Apply-).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Incompatible`] unless `w` is a parameter with
    /// `rows == x.dim.total()`.
    pub fn linear(&mut self, x: NodeId, w: NodeId) -> Result<NodeId> {
        let nx = self.check(x)?.clone();
        let nw = self.check(w)?.clone();
        if nw.space != Space::Param || nw.dim.heads != nx.dim.total() {
            return Err(IrError::Incompatible {
                op: "linear".into(),
                detail: format!(
                    "weight {:?} incompatible with input dim {:?}",
                    nw.dim, nx.dim
                ),
            });
        }
        Ok(self.push(
            OpKind::Linear,
            vec![x, w],
            nx.space,
            Dim::flat(nw.dim.feat),
            "linear",
            self.phase,
        ))
    }

    /// Lightweight unary apply.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownNode`] for dangling ids.
    pub fn unary(&mut self, f: UnaryFn, x: NodeId) -> Result<NodeId> {
        let nx = self.check(x)?.clone();
        Ok(self.push(
            OpKind::Unary(f),
            vec![x],
            nx.space,
            nx.dim,
            format!("unary_{f:?}"),
            self.phase,
        ))
    }

    /// Lightweight binary apply. Operands must share a space and head
    /// count; one operand may have `feat == 1` and broadcasts across
    /// features.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Incompatible`] otherwise.
    pub fn binary(&mut self, f: BinaryFn, a: NodeId, b: NodeId) -> Result<NodeId> {
        let na = self.check(a)?.clone();
        let nb = self.check(b)?.clone();
        if na.space != nb.space {
            return Err(IrError::Incompatible {
                op: format!("binary({f:?})"),
                detail: format!("space {:?} vs {:?}", na.space, nb.space),
            });
        }
        if na.dim.heads != nb.dim.heads
            || (na.dim.feat != nb.dim.feat && na.dim.feat != 1 && nb.dim.feat != 1)
        {
            return Err(IrError::Incompatible {
                op: format!("binary({f:?})"),
                detail: format!("dims {:?} vs {:?}", na.dim, nb.dim),
            });
        }
        let dim = Dim {
            heads: na.dim.heads,
            feat: na.dim.feat.max(nb.dim.feat),
        };
        Ok(self.push(
            OpKind::Binary(f),
            vec![a, b],
            na.space,
            dim,
            format!("binary_{f:?}"),
            self.phase,
        ))
    }

    /// Per-head dot product with parameter `a` of shape `[heads, feat]`:
    /// `FeatSum(x · a)`, the `Mul` reading `a` whole at every row of `x`
    /// (GAT's `aᵀh`).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Incompatible`] unless `a` is a parameter
    /// matching the `[heads, feat]` of `x`, which is not one.
    pub fn head_dot(&mut self, x: NodeId, a: NodeId) -> Result<NodeId> {
        let nx = self.check(x)?.clone();
        let na = self.check(a)?.clone();
        if (na.space, nx.space == Space::Param, na.dim) != (Space::Param, false, nx.dim) {
            return Err(IrError::Incompatible {
                op: "head_dot".into(),
                detail: format!("{:?} {:?} vs {:?} {:?}", na.space, na.dim, nx.space, nx.dim),
            });
        }
        let mul = OpKind::Binary(BinaryFn::Mul);
        let xa = self.push_raw(mul, vec![x, a], nx.space, nx.dim, "binary_Mul");
        self.feat_sum(xa)
    }

    /// The `(x, a)` of `id` if it is a `Mul` reading a parameter `a`
    /// whole at every row of `x`: a head-dot's product (under its
    /// `FeatSum`, [`IrGraph::head_dot`]) or its input dual.
    pub fn head_dot_operands(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        let n = &self.nodes[id];
        let dot = n.kind == OpKind::Binary(BinaryFn::Mul)
            && n.space != Space::Param
            && self.nodes[n.inputs[1]].space == Space::Param;
        dot.then(|| (n.inputs[0], n.inputs[1]))
    }

    /// Gaussian mixture weights (MoNet). `pseudo` is `[|E|, r]`; `mu` and
    /// `inv_sigma` are `[K, r]` parameters; output is `[|E|, K]` (heads=K).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Incompatible`] on mismatched kernel shapes or
    /// a `mu` / `inv_sigma` that is not a parameter.
    pub fn gaussian_weight(
        &mut self,
        pseudo: NodeId,
        mu: NodeId,
        inv_sigma: NodeId,
    ) -> Result<NodeId> {
        let np = self.check(pseudo)?.clone();
        let nm = self.check(mu)?.clone();
        let ns = self.check(inv_sigma)?.clone();
        if np.space != Space::Edge || np.dim.heads != 1 {
            return Err(IrError::Incompatible {
                op: "gaussian_weight".into(),
                detail: "pseudo-coordinates must be single-head edge features".into(),
            });
        }
        if (nm.space, ns.space) != (Space::Param, Space::Param)
            || nm.dim != ns.dim
            || nm.dim.feat != np.dim.feat
        {
            return Err(IrError::Incompatible {
                op: "gaussian_weight".into(),
                detail: format!(
                    "mu {:?} {:?} / sigma {:?} {:?} vs pseudo {:?}",
                    nm.space, nm.dim, ns.space, ns.dim, np.dim
                ),
            });
        }
        Ok(self.push(
            OpKind::GaussianWeight,
            vec![pseudo, mu, inv_sigma],
            Space::Edge,
            Dim {
                heads: nm.dim.heads,
                feat: 1,
            },
            "gaussian_weight",
            self.phase,
        ))
    }

    // ---- structural ----

    /// `x` read through `layout` (the one check every view builder
    /// shares: [`Layout::check`]).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Incompatible`] for a layout `x` cannot take.
    pub fn view(&mut self, x: NodeId, layout: Layout) -> Result<NodeId> {
        let nx = self.check(x)?.clone();
        layout.check(nx.dim, nx.space)?;
        let (dim, name) = (layout.dim(nx.dim), format!("view {layout}"));
        Ok(self.push_raw(OpKind::View(layout), vec![x], nx.space, dim, name))
    }

    fn slice(&mut self, x: NodeId, (start, end): (usize, usize), rows: bool) -> Result<NodeId> {
        let d = self.check(x)?.dim;
        let total = if rows { d.heads } else { d.feat };
        let wide = false;
        self.view(
            x,
            Layout::Window(Window {
                start,
                end,
                total,
                wide,
                rows,
            }),
        )
    }

    /// Per-head feature slice `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Incompatible`] on out-of-range slices.
    pub fn slice_cols(&mut self, x: NodeId, start: usize, end: usize) -> Result<NodeId> {
        self.slice(x, (start, end), false)
    }

    /// Row slice of a parameter.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Incompatible`] unless `x` is a parameter and the
    /// range is valid.
    pub fn slice_rows(&mut self, x: NodeId, start: usize, end: usize) -> Result<NodeId> {
        self.slice(x, (start, end), true)
    }

    /// Reinterprets `[1, h·f]` as `[h, f]`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Incompatible`] if the total width is not
    /// divisible by `heads`.
    pub fn set_heads(&mut self, x: NodeId, heads: usize) -> Result<NodeId> {
        self.view(x, Layout::Heads(heads))
    }

    /// Reduces heads to 1 (`Sum` or `Mean`).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Incompatible`] for `Max` (unsupported here).
    pub fn head_reduce(&mut self, f: ReduceFn, x: NodeId) -> Result<NodeId> {
        if f == ReduceFn::Max {
            return Err(IrError::Incompatible {
                op: "head_reduce".into(),
                detail: "max head-reduction is not supported".into(),
            });
        }
        let nx = self.check(x)?.clone();
        Ok(self.push(
            OpKind::HeadReduce(f),
            vec![x],
            nx.space,
            Dim {
                heads: 1,
                feat: nx.dim.feat,
            },
            "head_reduce",
            self.phase,
        ))
    }

    /// Broadcasts `[1, f]` to `[heads, f]`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Incompatible`] unless the input has one head and
    /// `heads > 0`.
    pub fn head_broadcast(&mut self, x: NodeId, heads: usize) -> Result<NodeId> {
        self.view(x, Layout::BroadcastHeads(heads))
    }

    /// Sums features within each head: `[h, f] → [h, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownNode`] for dangling ids.
    pub fn feat_sum(&mut self, x: NodeId) -> Result<NodeId> {
        let nx = self.check(x)?.clone();
        Ok(self.push(
            OpKind::FeatSum,
            vec![x],
            nx.space,
            Dim {
                heads: nx.dim.heads,
                feat: 1,
            },
            "feat_sum",
            self.phase,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_spaces() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(8));
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Sub), h, h).unwrap();
        // gather of a vertex tensor must fail
        assert!(g.gather(ReduceFn::Sum, EdgeGroup::ByDst, h).is_err());
        // scatter of an edge tensor must fail
        assert!(g.scatter(ScatterFn::CopyU, e, e).is_err());
        let v = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, e).unwrap();
        assert_eq!(g.node(v).space, Space::Vertex);
        assert_eq!(g.node(v).dim, Dim::flat(8));
    }

    #[test]
    fn concat_adds_feats_and_checks_heads() {
        let mut g = IrGraph::new();
        let a = g.input_vertex("a", Dim::multi(2, 4));
        let b = g.input_vertex("b", Dim::multi(2, 3));
        let c = g.scatter(ScatterFn::ConcatUV, a, b).unwrap();
        assert_eq!(g.node(c).dim, Dim::multi(2, 7));
        let bad = g.input_vertex("bad", Dim::multi(3, 4));
        assert!(g.scatter(ScatterFn::ConcatUV, a, bad).is_err());
    }

    #[test]
    fn linear_checks_param_rows() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(8));
        let w = g.param("w", 8, 16);
        let y = g.linear(h, w).unwrap();
        assert_eq!(g.node(y).dim, Dim::flat(16));
        assert!(g.node(y).requires_grad);
        let wbad = g.param("wbad", 9, 16);
        assert!(g.linear(h, wbad).is_err());
    }

    #[test]
    fn binary_broadcast_rules() {
        let mut g = IrGraph::new();
        let a = g.input_vertex("a", Dim::multi(4, 16));
        let s = g.input_vertex("s", Dim::multi(4, 1));
        let y = g.binary(BinaryFn::Mul, a, s).unwrap();
        assert_eq!(g.node(y).dim, Dim::multi(4, 16));
        let bad = g.input_vertex("bad", Dim::multi(4, 8));
        assert!(g.binary(BinaryFn::Add, a, bad).is_err());
    }

    /// A head-dot projects data through a parameter: a parameter `x`
    /// (whose rows a tile would read past) is refused.
    #[test]
    fn head_dot_refuses_a_parameter_input() {
        let mut g = IrGraph::new();
        let (a, b) = (g.param("a", 2, 3), g.param("b", 2, 3));
        assert!(g.head_dot(a, b).is_err());
        let h = g.input_vertex("h", Dim::multi(2, 3));
        assert!(g.head_dot(h, h).is_err(), "a data `a`");
        let s = g.head_dot(h, b).unwrap();
        assert_eq!(g.node(s).dim, Dim::multi(2, 1));
        // A feature sum of the product, the parameter its second operand.
        assert_eq!(g.node(s).kind, OpKind::FeatSum);
        let xa = g.node(g.node(s).inputs[0]);
        assert_eq!(xa.kind, OpKind::Binary(BinaryFn::Mul));
        assert_eq!(
            (xa.inputs[0], xa.inputs[1], xa.dim),
            (h, b, Dim::multi(2, 3))
        );
    }

    /// The Gaussian kernels are parameters read whole at every edge: an
    /// edge-space `mu` or `inv_sigma` is refused.
    #[test]
    fn gaussian_weight_refuses_edge_space_kernels() {
        let mut g = IrGraph::new();
        let p = g.input_edge("p", Dim::flat(2));
        let (mu, sigma) = (g.param("mu", 3, 2), g.param("sigma", 3, 2));
        let edge_mu = g.input_edge("edge_mu", Dim::multi(3, 2));
        assert!(g.gaussian_weight(p, edge_mu, sigma).is_err());
        assert!(g.gaussian_weight(p, mu, edge_mu).is_err());
        assert!(g.gaussian_weight(p, mu, sigma).is_ok());
    }

    #[test]
    fn requires_grad_propagates_from_params_only() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let e = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        assert!(!g.node(e).requires_grad);
        let w = g.param("w", 4, 4);
        let y = g.linear(h, w).unwrap();
        assert!(g.node(y).requires_grad);
    }

    /// Every view builder goes through one check: zero heads, empty or
    /// out-of-range windows and broadcasts of a multi-head or wide
    /// operand are refused, whichever builder asks.
    #[test]
    fn set_heads_roundtrip() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(12));
        let m = g.set_heads(h, 4).unwrap();
        assert_eq!(g.node(m).dim, Dim::multi(4, 3));
        assert_eq!(g.node(m).kind, OpKind::View(Layout::Heads(4)));
        assert!(g.set_heads(h, 5).is_err());
    }

    #[test]
    fn view_builders_share_one_check() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(12));
        let m = g.set_heads(h, 4).unwrap();
        assert!(g.set_heads(h, 0).is_err());
        assert!(g.head_broadcast(h, 0).is_err(), "zero heads");
        assert!(g.head_broadcast(m, 2).is_err(), "already four heads");
        assert!(g.slice_cols(h, 4, 4).is_err(), "empty window");
        assert!(g.slice_cols(h, 3, 13).is_err(), "out of range");
        assert!(g.slice_rows(h, 0, 1).is_err(), "rows of a vertex tensor");
        let w = g.param("w", 6, 2);
        let r = g.slice_rows(w, 2, 6).unwrap();
        assert_eq!(g.node(r).dim, Dim::multi(4, 2));
        assert!(g.view(h, Layout::BroadcastFeat(4)).is_err());
        assert!(g.view(h, Layout::Transpose).is_err(), "a vertex transpose");
        let t = g.view(w, Layout::Transpose).unwrap();
        assert_eq!(g.node(t).dim, Dim::multi(2, 6));
    }

    #[test]
    fn consumers_reverse_edges() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let e1 = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        let e2 = g.scatter(ScatterFn::CopyV, h, h).unwrap();
        let cons = g.consumers();
        assert_eq!(cons[h], vec![e1, e2]);
    }

    #[test]
    fn outputs_dedup() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        g.mark_output(h);
        g.mark_output(h);
        assert_eq!(g.outputs(), &[h]);
    }
}
