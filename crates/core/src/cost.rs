//! Analytical per-operator cost model: FLOPs, DRAM bytes and residency.
//!
//! These are the quantities behind every figure in the paper: §4's
//! computation counts (e.g. GAT attention dropping from `6|E|f + |E|` to
//! `4|V|f + 2|E|` after reorganization), §5's IO counts (e.g.
//! `|V|hf + 7|E|h + 3|E|hf` → `|V|hf + 5|E|h + 2|E|hf` after fusion) and
//! §6's memory counts (`O(|E|)` intermediates eliminated). The unit tests
//! of this module assert the *symbolic* formulas; the executor asserts
//! that measured counters match these numbers exactly.

use crate::ir::Node;
use crate::op::{OpKind, Space};
use gnnopt_graph::GraphStats;

/// Bytes per f32 element.
pub const ELEM_BYTES: u64 = 4;

/// Cost-model context: binds the IR to a concrete graph size.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    stats: &'a GraphStats,
}

impl<'a> CostModel<'a> {
    /// Creates a cost model over the given graph statistics.
    pub fn new(stats: &'a GraphStats) -> Self {
        Self { stats }
    }

    /// The bound statistics.
    pub fn stats(&self) -> &GraphStats {
        self.stats
    }

    /// Number of rows of a node's output tensor.
    pub fn rows(&self, node: &Node) -> u64 {
        match node.space {
            Space::Vertex => self.stats.num_vertices() as u64,
            Space::Edge => self.stats.num_edges() as u64,
            Space::Param => node.dim.heads as u64,
        }
    }

    /// Bytes of a node's output tensor.
    pub fn out_bytes(&self, node: &Node) -> u64 {
        match node.space {
            Space::Param => (node.dim.heads * node.dim.feat) as u64 * ELEM_BYTES,
            _ => self.rows(node) * node.dim.total() as u64 * ELEM_BYTES,
        }
    }

    /// Floating-point operations performed by a node.
    pub fn flops(&self, node: &Node, inputs: &[&Node]) -> u64 {
        let e = self.stats.num_edges() as u64;
        let total = node.dim.total() as u64;
        match &node.kind {
            OpKind::InputVertex
            | OpKind::InputEdge
            | OpKind::Param
            | OpKind::GradSeed
            | OpKind::View(_) => 0,

            OpKind::Scatter(f) => match f {
                crate::op::ScatterFn::Bin(_) => e * total,
                _ => 0,
            },
            OpKind::Gather { .. } | OpKind::GatherMaxBwd { .. } | OpKind::GatherMeanBwd { .. } => {
                e * total
            }
            OpKind::EdgeSoftmax => 4 * e * total,

            // y = x·W: 2·rows·d_in·d_out multiply-adds.
            OpKind::Linear => 2 * self.rows(node) * inputs[0].dim.total() as u64 * total,
            // ∂W = xᵀ·g: reduces over the data rows of x.
            OpKind::LinearBwdWeight => {
                2 * self.rows(inputs[0]) * node.dim.heads as u64 * node.dim.feat as u64
            }

            // A head-dot's `Mul` and `FeatSum` charge `2·rows·width`
            // together: one multiply and one add per element.
            OpKind::Unary(_) | OpKind::Binary(_) => self.rows(node) * total,
            OpKind::FeatSum | OpKind::HeadReduce(_) => {
                self.rows(node) * inputs[0].dim.total() as u64
            }
            OpKind::UnaryBwd(_) => 2 * self.rows(node) * total,
            // ∂a = Σ_rows g·x: a multiply-add per element of x.
            OpKind::HeadDotBwdParam => 2 * self.rows(inputs[0]) * total,

            // K kernels × r pseudo-dims: 3 ops per (k, j) plus exp+scale.
            OpKind::GaussianWeight | OpKind::GaussianBwdMu | OpKind::GaussianBwdSigma => {
                let k = node.dim.heads as u64;
                let r = inputs[0].dim.feat as u64;
                e * k * (3 * r + 2)
            }
        }
    }

    /// Bytes a kernel reads to consume `input` from node `consumer`:
    /// graph-related consumers access vertex tensors once per incident
    /// edge (gather-style random access), everything else streams the
    /// tensor once.
    pub fn read_bytes(&self, consumer: &Node, input: &Node) -> u64 {
        let streamed = self.out_bytes(input);
        if consumer.kind.is_graph_op() {
            let per_edge = self.stats.num_edges() as u64 * input.dim.total() as u64 * ELEM_BYTES;
            match input.space {
                // per-edge access of a vertex tensor cannot be coalesced
                Space::Vertex => per_edge,
                _ => streamed,
            }
        } else {
            streamed
        }
    }

    /// Bytes of graph-topology index arrays charged once per kernel that
    /// contains at least one graph-related op (`indptr` + neighbour ids +
    /// edge ids).
    pub fn index_bytes(&self) -> u64 {
        (self.stats.num_vertices() as u64 + 2 * self.stats.num_edges() as u64) * 4
    }

    /// Auxiliary bytes a node must stash for its backward pass beyond its
    /// regular output: a `Gather(Max)`'s argmax table.
    pub fn aux_bytes(&self, node: &Node) -> u64 {
        let v = self.stats.num_vertices() as u64;
        match &node.kind {
            // per-vertex argmax per channel
            OpKind::Gather {
                reduce: crate::op::ReduceFn::Max,
                ..
            } => v * node.dim.total() as u64 * 4,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrGraph;
    use crate::op::{BinaryFn, Dim, EdgeGroup, NodeId, ReduceFn, ScatterFn};

    fn stats(v: usize, avg: f64) -> GraphStats {
        GraphStats::synthesize_power_law(v, avg, 0.0)
    }

    /// A head-dot's FLOPs: its `Mul` and its `FeatSum` together.
    fn dot_flops(cm: &CostModel, g: &IrGraph, dot: NodeId) -> u64 {
        let xa = g.node(dot).inputs[0];
        let node_flops = |id: NodeId| {
            let ins: Vec<&Node> = g.node(id).inputs.iter().map(|&i| g.node(i)).collect();
            cm.flops(g.node(id), &ins)
        };
        node_flops(xa) + node_flops(dot)
    }

    /// §4 example: naive GAT attention costs ≈ 6|E|f FLOPs for the
    /// concat+projection (2|E|f copy is free here, 4|E|f for the
    /// projection since the head-dot reads 2f per edge) plus |E| LeakyReLU.
    #[test]
    fn gat_attention_flops_naive_vs_reorganized() {
        let s = stats(1000, 10.0);
        let e = s.num_edges() as u64;
        let v = s.num_vertices() as u64;
        let f = 64usize;

        // Naive: concat on edges then per-edge projection.
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(f));
        let a = g.param("a", 1, 2 * f);
        let a = g.set_heads(a, 1).unwrap(); // param [1, 2f] viewed per-head
        let cat = g.scatter(ScatterFn::ConcatUV, h, h).unwrap();
        let att = g.head_dot(cat, a).unwrap();
        let cm = CostModel::new(&s);
        let proj_flops = dot_flops(&cm, &g, att);
        assert_eq!(proj_flops, 2 * e * 2 * f as u64); // = 4|E|f

        // Reorganized: two vertex-side projections.
        let mut g2 = IrGraph::new();
        let h2 = g2.input_vertex("h", Dim::flat(f));
        let al = g2.param("al", 1, f);
        let al = g2.set_heads(al, 1).unwrap();
        let dv = g2.head_dot(h2, al).unwrap();
        let vert_flops = dot_flops(&cm, &g2, dv);
        assert_eq!(vert_flops, 2 * v * f as u64); // = 2|V|f, ×2 projections = 4|V|f
        assert!(2 * vert_flops < proj_flops, "reorg must reduce FLOPs");
    }

    #[test]
    fn scatter_copy_is_io_only() {
        let s = stats(100, 4.0);
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(8));
        let e = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        let cm = CostModel::new(&s);
        assert_eq!(cm.flops(g.node(e), &[g.node(h)]), 0);
        // per-edge random access of a vertex tensor
        assert_eq!(
            cm.read_bytes(g.node(e), g.node(h)),
            s.num_edges() as u64 * 8 * 4
        );
        assert_eq!(cm.out_bytes(g.node(e)), s.num_edges() as u64 * 8 * 4);
    }

    #[test]
    fn gather_writes_vertex_rows() {
        let s = stats(100, 4.0);
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(8));
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Sub), h, h).unwrap();
        let v = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, e).unwrap();
        let cm = CostModel::new(&s);
        assert_eq!(cm.out_bytes(g.node(v)), 100 * 8 * 4);
        assert_eq!(cm.flops(g.node(v), &[g.node(e)]), s.num_edges() as u64 * 8);
    }

    #[test]
    fn only_a_max_gather_has_aux() {
        let s = stats(1000, 50.0);
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::multi(4, 1));
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Add), h, h).unwrap();
        let sm = g.edge_softmax(e).unwrap();
        let mx = g.gather(ReduceFn::Max, EdgeGroup::ByDst, sm).unwrap();
        let cm = CostModel::new(&s);
        // The argmax table is `O(V)`; a softmax stashes nothing.
        assert_eq!(cm.aux_bytes(g.node(mx)), 1000 * 4 * 4);
        assert_eq!(cm.aux_bytes(g.node(sm)), 0);
        assert_eq!(cm.aux_bytes(g.node(e)), 0);
    }

    #[test]
    fn linear_flops_are_2ndk() {
        let s = stats(100, 4.0);
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(16));
        let w = g.param("w", 16, 32);
        let y = g.linear(h, w).unwrap();
        let cm = CostModel::new(&s);
        assert_eq!(
            cm.flops(g.node(y), &[g.node(h), g.node(w)]),
            2 * 100 * 16 * 32
        );
    }
}
