//! Graph Attention Network (Veličković et al., 2017) — the paper's primary
//! walk-through model (§3, Figure 3).

use crate::ModelSpec;
use gnnopt_core::ir::Result;
use gnnopt_core::{BinaryFn, Dim, EdgeGroup, IrGraph, ReduceFn, ScatterFn, Space, UnaryFn};

/// GAT configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GatConfig {
    /// Input feature width.
    pub in_dim: usize,
    /// `(heads, feat_per_head)` of each attention layer.
    pub layers: Vec<(usize, usize)>,
    /// Negative slope of the attention LeakyReLU.
    pub negative_slope: f32,
    /// Emit the hand-reorganized attention (two vertex-side projections,
    /// as DGL's GATConv does) instead of the naive
    /// `Scatter(∥) → ApplyEdge` form from the original paper.
    pub reorganized: bool,
}

impl GatConfig {
    /// The paper's Figure 7 setting: 2 layers, 128 hidden, single head.
    pub fn figure7(in_dim: usize, classes: usize) -> Self {
        Self {
            in_dim,
            layers: vec![(1, 128), (1, classes)],
            negative_slope: 0.2,
            reorganized: false,
        }
    }

    /// The paper's ablation setting: 4 heads × 64 features.
    pub fn ablation(in_dim: usize) -> Self {
        Self {
            in_dim,
            layers: vec![(4, 64)],
            negative_slope: 0.2,
            reorganized: false,
        }
    }
}

/// Builds a GAT model.
///
/// # Errors
///
/// Propagates IR construction errors (an internal bug, not bad input).
pub fn gat(cfg: &GatConfig) -> Result<ModelSpec> {
    let mut ir = IrGraph::new();
    let mut inputs = Vec::new();
    let mut params = Vec::new();

    let h0 = ir.input_vertex("h", Dim::flat(cfg.in_dim));
    inputs.push(("h".to_owned(), Space::Vertex, Dim::flat(cfg.in_dim)));

    let mut h = h0;
    let mut in_dim = cfg.in_dim;
    for (l, &(heads, feat)) in cfg.layers.iter().enumerate() {
        let w = ir.param(&format!("w{l}"), in_dim, heads * feat);
        params.push((format!("w{l}"), in_dim, heads * feat));
        let proj_flat = ir.linear(h, w)?;
        let proj = ir.set_heads(proj_flat, heads)?;

        let lr = if cfg.reorganized {
            // aᵀ[hu ∥ hv] = aₗᵀhu + aᵣᵀhv, projections on vertices.
            let al = ir.param(&format!("a{l}_l"), heads, feat);
            let ar = ir.param(&format!("a{l}_r"), heads, feat);
            params.push((format!("a{l}_l"), heads, feat));
            params.push((format!("a{l}_r"), heads, feat));
            let dl = ir.head_dot(proj, al)?;
            let dr = ir.head_dot(proj, ar)?;
            let e = ir.scatter(ScatterFn::Bin(BinaryFn::Add), dl, dr)?;
            ir.unary(UnaryFn::LeakyRelu(cfg.negative_slope), e)?
        } else {
            // Naive: concatenate endpoint features on every edge, then a
            // per-edge projection — the §4 redundancy.
            let a = ir.param(&format!("a{l}"), heads, 2 * feat);
            params.push((format!("a{l}"), heads, 2 * feat));
            let cat = ir.scatter(ScatterFn::ConcatUV, proj, proj)?;
            let att = ir.head_dot(cat, a)?;
            ir.unary(UnaryFn::LeakyRelu(cfg.negative_slope), att)?
        };

        let alpha = ir.edge_softmax(lr)?;
        let hu = ir.scatter(ScatterFn::CopyU, proj, proj)?;
        let weighted = ir.binary(BinaryFn::Mul, hu, alpha)?;
        let agg = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, weighted)?;
        // Flatten heads for the next layer (head concatenation).
        h = ir.set_heads(agg, 1)?;
        in_dim = heads * feat;
    }
    ir.mark_output(h);
    Ok(ModelSpec { ir, inputs, params })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnopt_core::OpKind;

    #[test]
    fn naive_build_has_concat_and_edge_projection() {
        let spec = gat(&GatConfig::ablation(16)).unwrap();
        let kinds: Vec<_> = spec.ir.nodes().iter().map(|n| &n.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, OpKind::Scatter(ScatterFn::ConcatUV))));
        // the per-edge projection is a head-dot on an edge tensor
        assert!(spec
            .ir
            .nodes()
            .iter()
            .any(|n| n.kind == OpKind::FeatSum && n.space == Space::Edge));
    }

    #[test]
    fn reorganized_build_has_vertex_projections_only() {
        let mut cfg = GatConfig::ablation(16);
        cfg.reorganized = true;
        let spec = gat(&cfg).unwrap();
        assert!(!spec
            .ir
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::Scatter(ScatterFn::ConcatUV))));
        assert!(spec
            .ir
            .nodes()
            .iter()
            .filter(|n| n.kind == OpKind::FeatSum)
            .all(|n| n.space == Space::Vertex));
    }

    #[test]
    fn two_layer_output_dim() {
        let spec = gat(&GatConfig::figure7(32, 7)).unwrap();
        assert_eq!(spec.output_dim(), 7);
        assert_eq!(spec.params.len(), 2 + 2); // w0, a0, w1, a1
    }

    #[test]
    fn multihead_dims_flow() {
        let spec = gat(&GatConfig {
            in_dim: 10,
            layers: vec![(4, 8), (2, 3)],
            negative_slope: 0.2,
            reorganized: false,
        })
        .unwrap();
        assert_eq!(spec.output_dim(), 6); // 2 heads × 3
    }
}
