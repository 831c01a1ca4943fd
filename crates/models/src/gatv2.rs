//! GATv2 (Brody et al., 2021): attention with the nonlinearity *between*
//! the projection and the attention vector,
//! `e_uv = aᵀ LeakyReLU(W [h_u ∥ h_v])`.
//!
//! The model is the instructive contrast case for the reorganization pass
//! (§4): the projection `W [h_u ∥ h_v]` still distributes over the
//! concatenation (so reorganization moves the `O(|E|)` linear to two
//! `O(|V|)` vertex projections), but the `LeakyReLU` in between blocks
//! postponing the `aᵀ·` dot product — it must remain per-edge. Where GAT's
//! attention reorganizes *completely*, GATv2's reorganizes *partially*;
//! the pass must find exactly the legal half.

use crate::ModelSpec;
use gnnopt_core::ir::Result;
use gnnopt_core::{BinaryFn, Dim, EdgeGroup, IrGraph, ReduceFn, ScatterFn, Space, UnaryFn};

/// GATv2 configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Gatv2Config {
    /// Input feature width.
    pub in_dim: usize,
    /// `(heads, feat_per_head)` of each attention layer.
    pub layers: Vec<(usize, usize)>,
    /// Negative slope of the attention LeakyReLU.
    pub negative_slope: f32,
}

impl Gatv2Config {
    /// A single-layer setting mirroring the GAT ablation (4 heads × 64).
    pub fn ablation(in_dim: usize) -> Self {
        Self {
            in_dim,
            layers: vec![(4, 64)],
            negative_slope: 0.2,
        }
    }

    /// Two layers: hidden then classification.
    pub fn two_layer(in_dim: usize, heads: usize, hidden: usize, classes: usize) -> Self {
        Self {
            in_dim,
            layers: vec![(heads, hidden), (1, classes)],
            negative_slope: 0.2,
        }
    }
}

/// Builds a GATv2 model in the naive (pre-reorganization) form: the
/// attention projection is applied per edge after `Scatter(∥)`, exactly
/// the §4 redundancy pattern.
///
/// # Errors
///
/// Propagates IR construction errors (an internal bug, not bad input).
pub fn gatv2(cfg: &Gatv2Config) -> Result<ModelSpec> {
    let mut ir = IrGraph::new();
    let mut inputs = Vec::new();
    let mut params = Vec::new();

    let h0 = ir.input_vertex("h", Dim::flat(cfg.in_dim));
    inputs.push(("h".to_owned(), Space::Vertex, Dim::flat(cfg.in_dim)));

    let mut h = h0;
    let mut in_dim = cfg.in_dim;
    for (l, &(heads, feat)) in cfg.layers.iter().enumerate() {
        // Attention path: z_e = W[hu ∥ hv] on edges (reorganizable),
        // then LeakyReLU and the per-edge dot (not reorganizable).
        let w = ir.param(&format!("w{l}"), 2 * in_dim, heads * feat);
        params.push((format!("w{l}"), 2 * in_dim, heads * feat));
        let a = ir.param(&format!("a{l}"), heads, feat);
        params.push((format!("a{l}"), heads, feat));
        let cat = ir.scatter(ScatterFn::ConcatUV, h, h)?;
        let z_flat = ir.linear(cat, w)?;
        let z = ir.set_heads(z_flat, heads)?;
        let lr = ir.unary(UnaryFn::LeakyRelu(cfg.negative_slope), z)?;
        let att = ir.head_dot(lr, a)?;
        let alpha = ir.edge_softmax(att)?;

        // Value path: per-vertex projection of the source features.
        let wv = ir.param(&format!("wv{l}"), in_dim, heads * feat);
        params.push((format!("wv{l}"), in_dim, heads * feat));
        let val_flat = ir.linear(h, wv)?;
        let val = ir.set_heads(val_flat, heads)?;
        let hu = ir.scatter(ScatterFn::CopyU, val, val)?;
        let weighted = ir.binary(BinaryFn::Mul, hu, alpha)?;
        let agg = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, weighted)?;
        h = ir.set_heads(agg, 1)?;
        in_dim = heads * feat;
    }
    ir.mark_output(h);
    Ok(ModelSpec { ir, inputs, params })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnopt_core::reorg::reorganize;
    use gnnopt_core::OpKind;

    #[test]
    fn dims_and_params() {
        let spec = gatv2(&Gatv2Config::two_layer(32, 4, 16, 7)).unwrap();
        assert_eq!(spec.output_dim(), 7);
        // Per layer: w, a, wv.
        assert_eq!(spec.params.len(), 6);
    }

    #[test]
    fn naive_build_projects_on_edges() {
        let spec = gatv2(&Gatv2Config::ablation(16)).unwrap();
        assert!(spec
            .ir
            .nodes()
            .iter()
            .any(|n| n.kind == OpKind::Linear && n.space == Space::Edge));
    }

    /// Reorganization must split the concat projection into two vertex
    /// projections but leave the attention dot on edges: GATv2's
    /// nonlinearity blocks the full GAT rewrite.
    #[test]
    fn reorg_is_exactly_partial() {
        let spec = gatv2(&Gatv2Config::ablation(16)).unwrap();
        let (r, rep) = reorganize(&spec.ir).unwrap();
        assert!(rep.rewrites >= 1);
        // All linears now on vertices…
        assert!(r
            .nodes()
            .iter()
            .filter(|n| n.kind == OpKind::Linear)
            .all(|n| n.space == Space::Vertex));
        assert!(!r
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::Scatter(ScatterFn::ConcatUV))));
        // …but the attention dot stays per-edge.
        assert!(r
            .nodes()
            .iter()
            .any(|n| n.kind == OpKind::FeatSum && n.space == Space::Edge));
    }
}
