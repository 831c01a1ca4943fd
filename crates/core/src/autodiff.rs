//! Reverse-mode autodiff over the operator algebra (paper Appendix B).
//!
//! The key property the paper proves — *the backward pass of the operator
//! set falls back into the operator set* — is what makes the three passes
//! applicable to training: `append_backward` extends the same [`IrGraph`]
//! with [`Phase::Backward`] nodes built from the very same operators
//! (`Gather` ↔ `Scatter` duals, `Apply-` → two `Apply-`), so fusion and
//! recomputation rewrite forward and backward dataflow uniformly.

use crate::ir::{IrError, IrGraph, Phase, Result};
use crate::op::{BinaryFn, Dim, EdgeGroup, NodeId, OpKind, ReduceFn, ScatterFn, Space, UnaryFn};
use crate::view::{Layout, Window};
use std::collections::HashMap;

/// Output of [`append_backward`].
#[derive(Debug, Clone)]
pub struct BackwardResult {
    /// The `GradSeed` node to be bound to `∂L/∂output` at run time.
    pub seed: NodeId,
    /// `(param, grad)` pairs for every parameter reachable from the output.
    pub param_grads: Vec<(NodeId, NodeId)>,
    /// Gradient node of every differentiable forward node.
    pub grads: HashMap<NodeId, NodeId>,
}

/// Appends the backward graph for `output` and returns the gradient
/// bookkeeping. The graph's phase is left at [`Phase::Backward`]; callers
/// that keep building forward nodes must reset it.
///
/// # Errors
///
/// Returns [`IrError::Unsupported`] if a gradient flows into an operator
/// with no backward rule (e.g. pseudo-coordinates of `GaussianWeight`).
pub fn append_backward(g: &mut IrGraph, output: NodeId) -> Result<BackwardResult> {
    let out = g.node(output).clone();
    if !out.requires_grad {
        return Err(IrError::Unsupported(format!(
            "output node {output} ({}) has no parameters upstream",
            out.name
        )));
    }
    g.set_phase(Phase::Backward);
    let seed = g.push_raw(OpKind::GradSeed, vec![], out.space, out.dim, "grad_seed");

    // Contributions per forward node; folded into one node on first use.
    let mut contrib: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    contrib.insert(output, vec![seed]);
    let mut grads: HashMap<NodeId, NodeId> = HashMap::new();
    let mut param_grads: Vec<(NodeId, NodeId)> = Vec::new();

    // Forward nodes in reverse topological (construction) order.
    let forward_ids: Vec<NodeId> = g
        .nodes()
        .iter()
        .filter(|n| n.phase == Phase::Forward && n.id != seed)
        .map(|n| n.id)
        .collect();

    for &id in forward_ids.iter().rev() {
        let node = g.node(id).clone();
        if !node.requires_grad {
            continue;
        }
        let Some(parts) = contrib.remove(&id) else {
            continue;
        };
        let grad = fold_sum(g, &parts)?;
        grads.insert(id, grad);
        if node.kind == OpKind::Param {
            param_grads.push((id, grad));
            continue;
        }
        backprop_node(g, &node, grad, &mut contrib)?;
    }
    param_grads.reverse();
    Ok(BackwardResult {
        seed,
        param_grads,
        grads,
    })
}

/// Folds a contribution list into a single node with `Binary(Add)`.
fn fold_sum(g: &mut IrGraph, parts: &[NodeId]) -> Result<NodeId> {
    let mut acc = parts[0];
    for &p in &parts[1..] {
        acc = g.binary(BinaryFn::Add, acc, p)?;
    }
    Ok(acc)
}

fn add_contrib(
    g: &IrGraph,
    contrib: &mut HashMap<NodeId, Vec<NodeId>>,
    target: NodeId,
    grad: NodeId,
) {
    if g.node(target).requires_grad {
        contrib.entry(target).or_default().push(grad);
    }
}

/// Reduces `grad` (shaped like the binary output) back to an operand's
/// dim, inserting `FeatSum` when the operand was feature-broadcast.
fn reduce_to(g: &mut IrGraph, grad: NodeId, target_dim: Dim) -> Result<NodeId> {
    if g.node(grad).dim.feat == target_dim.feat {
        Ok(grad)
    } else {
        g.feat_sum(grad)
    }
}

#[allow(clippy::too_many_lines)]
fn backprop_node(
    g: &mut IrGraph,
    node: &crate::ir::Node,
    grad: NodeId,
    contrib: &mut HashMap<NodeId, Vec<NodeId>>,
) -> Result<()> {
    let ins = node.inputs.clone();
    match node.kind.clone() {
        OpKind::InputVertex | OpKind::InputEdge | OpKind::GradSeed | OpKind::Param => {}

        // `∂x = g · Wᵀ`: a `Linear` through the transposed weight.
        OpKind::Linear => {
            let (x, w) = (ins[0], ins[1]);
            if g.node(x).requires_grad {
                let (xd, xs) = (g.node(x).dim, g.node(x).space);
                let wt = g.view(w, Layout::Transpose)?;
                let gx = g.push_raw(OpKind::Linear, vec![grad, wt], xs, xd, "linear");
                add_contrib(g, contrib, x, gx);
            }
            if g.node(w).requires_grad {
                let wd = g.node(w).dim;
                let gw = g.push_raw(
                    OpKind::LinearBwdWeight,
                    vec![x, grad],
                    Space::Param,
                    wd,
                    "linear_bwd_weight",
                );
                add_contrib(g, contrib, w, gw);
            }
        }

        OpKind::Unary(f) => {
            let x = ins[0];
            let (xd, xs) = (g.node(x).dim, g.node(x).space);
            let gx = g.push_raw(OpKind::UnaryBwd(f), vec![grad, x], xs, xd, "unary_bwd");
            add_contrib(g, contrib, x, gx);
        }

        OpKind::Binary(f) => {
            let (a, b) = (ins[0], ins[1]);
            let (ad, bd) = (g.node(a).dim, g.node(b).dim);
            match f {
                BinaryFn::Add => {
                    let ga = reduce_to(g, grad, ad)?;
                    add_contrib(g, contrib, a, ga);
                    let gb = reduce_to(g, grad, bd)?;
                    add_contrib(g, contrib, b, gb);
                }
                BinaryFn::Sub => {
                    let ga = reduce_to(g, grad, ad)?;
                    add_contrib(g, contrib, a, ga);
                    let neg = g.unary(UnaryFn::Neg, grad)?;
                    let gb = reduce_to(g, neg, bd)?;
                    add_contrib(g, contrib, b, gb);
                }
                BinaryFn::Mul => {
                    if g.node(a).requires_grad {
                        let t = g.binary(BinaryFn::Mul, grad, b)?;
                        let ga = reduce_to(g, t, ad)?;
                        add_contrib(g, contrib, a, ga);
                    }
                    if g.node(b).requires_grad {
                        let t = g.binary(BinaryFn::Mul, grad, a)?;
                        let gb = reduce_to(g, t, bd)?;
                        add_contrib(g, contrib, b, gb);
                    }
                }
                BinaryFn::Div => {
                    if g.node(a).requires_grad {
                        let t = g.binary(BinaryFn::Div, grad, b)?;
                        let ga = reduce_to(g, t, ad)?;
                        add_contrib(g, contrib, a, ga);
                    }
                    if g.node(b).requires_grad {
                        let gy = g.binary(BinaryFn::Mul, grad, node.id)?;
                        let t = g.binary(BinaryFn::Div, gy, b)?;
                        let neg = g.unary(UnaryFn::Neg, t)?;
                        let gb = reduce_to(g, neg, bd)?;
                        add_contrib(g, contrib, b, gb);
                    }
                }
            }
        }

        OpKind::Scatter(f) => match f {
            ScatterFn::CopyU => {
                let gx = g.gather(ReduceFn::Sum, EdgeGroup::BySrc, grad)?;
                add_contrib(g, contrib, ins[0], gx);
            }
            ScatterFn::CopyV => {
                let gy = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, grad)?;
                add_contrib(g, contrib, ins[0], gy);
            }
            ScatterFn::Bin(bf) => {
                let (x, y) = (ins[0], ins[1]);
                match bf {
                    BinaryFn::Add | BinaryFn::Sub => {
                        if g.node(x).requires_grad {
                            let gx = g.gather(ReduceFn::Sum, EdgeGroup::BySrc, grad)?;
                            add_contrib(g, contrib, x, gx);
                        }
                        if g.node(y).requires_grad {
                            let gv = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, grad)?;
                            let gy = if bf == BinaryFn::Sub {
                                g.unary(UnaryFn::Neg, gv)?
                            } else {
                                gv
                            };
                            add_contrib(g, contrib, y, gy);
                        }
                    }
                    BinaryFn::Mul => {
                        if g.node(x).requires_grad {
                            let sv = g.scatter(ScatterFn::CopyV, y, y)?;
                            let ge = g.binary(BinaryFn::Mul, grad, sv)?;
                            let gx = g.gather(ReduceFn::Sum, EdgeGroup::BySrc, ge)?;
                            add_contrib(g, contrib, x, gx);
                        }
                        if g.node(y).requires_grad {
                            let su = g.scatter(ScatterFn::CopyU, x, x)?;
                            let ge = g.binary(BinaryFn::Mul, grad, su)?;
                            let gy = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, ge)?;
                            add_contrib(g, contrib, y, gy);
                        }
                    }
                    BinaryFn::Div => {
                        if g.node(x).requires_grad {
                            let sv = g.scatter(ScatterFn::CopyV, y, y)?;
                            let ge = g.binary(BinaryFn::Div, grad, sv)?;
                            let gx = g.gather(ReduceFn::Sum, EdgeGroup::BySrc, ge)?;
                            add_contrib(g, contrib, x, gx);
                        }
                        if g.node(y).requires_grad {
                            let sv = g.scatter(ScatterFn::CopyV, y, y)?;
                            let gy_e = g.binary(BinaryFn::Mul, grad, node.id)?;
                            let t = g.binary(BinaryFn::Div, gy_e, sv)?;
                            let neg = g.unary(UnaryFn::Neg, t)?;
                            let gy = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, neg)?;
                            add_contrib(g, contrib, y, gy);
                        }
                    }
                }
            }
            ScatterFn::ConcatUV => {
                let (x, y) = (ins[0], ins[1]);
                let xf = g.node(x).dim.feat;
                let yf = g.node(y).dim.feat;
                if g.node(x).requires_grad {
                    let gl = g.slice_cols(grad, 0, xf)?;
                    let gx = g.gather(ReduceFn::Sum, EdgeGroup::BySrc, gl)?;
                    add_contrib(g, contrib, x, gx);
                }
                if g.node(y).requires_grad {
                    let gr = g.slice_cols(grad, xf, xf + yf)?;
                    let gy = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, gr)?;
                    add_contrib(g, contrib, y, gy);
                }
            }
        },

        OpKind::Gather { reduce, group } => {
            let x = ins[0];
            let xd = g.node(x).dim;
            let gx = match reduce {
                ReduceFn::Sum => match group {
                    EdgeGroup::ByDst => g.scatter(ScatterFn::CopyV, grad, grad)?,
                    EdgeGroup::BySrc => g.scatter(ScatterFn::CopyU, grad, grad)?,
                },
                ReduceFn::Max => g.push_raw(
                    OpKind::GatherMaxBwd { fwd: node.id },
                    vec![grad],
                    Space::Edge,
                    xd,
                    "gather_max_bwd",
                ),
                ReduceFn::Mean => g.push_raw(
                    OpKind::GatherMeanBwd { group },
                    vec![grad],
                    Space::Edge,
                    xd,
                    "gather_mean_bwd",
                ),
            };
            add_contrib(g, contrib, x, gx);
        }

        // ∂x = y·(g − Σ_grp g·y): the group sum of `g·y` read back at
        // each edge's destination.
        OpKind::EdgeSoftmax => {
            let y = node.id;
            let gy = g.binary(BinaryFn::Mul, grad, y)?;
            let s = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, gy)?;
            let sv = g.scatter(ScatterFn::CopyV, s, s)?;
            let d = g.binary(BinaryFn::Sub, grad, sv)?;
            let gx = g.binary(BinaryFn::Mul, y, d)?;
            add_contrib(g, contrib, ins[0], gx);
        }

        OpKind::GaussianWeight => {
            let (p, mu, sig) = (ins[0], ins[1], ins[2]);
            if g.node(p).requires_grad {
                return Err(IrError::Unsupported(
                    "gradient w.r.t. gaussian pseudo-coordinates".into(),
                ));
            }
            if g.node(mu).requires_grad {
                let md = g.node(mu).dim;
                let gm = g.push_raw(
                    OpKind::GaussianBwdMu,
                    vec![p, node.id, grad, mu, sig],
                    Space::Param,
                    md,
                    "gaussian_bwd_mu",
                );
                add_contrib(g, contrib, mu, gm);
            }
            if g.node(sig).requires_grad {
                let sd = g.node(sig).dim;
                let gs = g.push_raw(
                    OpKind::GaussianBwdSigma,
                    vec![p, node.id, grad, mu, sig],
                    Space::Param,
                    sd,
                    "gaussian_bwd_sigma",
                );
                add_contrib(g, contrib, sig, gs);
            }
        }

        // Transposition: a window's dual is the padded window (and back),
        // a relabel's the relabel back, a transpose's the transpose, a
        // broadcast's the reduction.
        OpKind::View(layout) => {
            let x = ins[0];
            let xd = g.node(x).dim;
            let gx = match layout {
                Layout::Heads(_) => g.set_heads(grad, xd.heads)?,
                Layout::Window(w) => g.view(grad, Layout::Window(Window { wide: !w.wide, ..w }))?,
                Layout::BroadcastHeads(_) => g.head_reduce(ReduceFn::Sum, grad)?,
                Layout::BroadcastFeat(_) => g.feat_sum(grad)?,
                Layout::Transpose => g.view(grad, Layout::Transpose)?,
            };
            add_contrib(g, contrib, x, gx);
        }

        OpKind::HeadReduce(f) => {
            let x = ins[0];
            let h = g.node(x).dim.heads;
            let gb = g.head_broadcast(grad, h)?;
            let gx = match f {
                ReduceFn::Mean => g.unary(UnaryFn::Scale(1.0 / h as f32), gb)?,
                _ => gb,
            };
            add_contrib(g, contrib, x, gx);
        }

        // A head-dot `FeatSum(x · a)`, `a` read whole: `∂x[.,h,j] =
        // g[.,h] · a[h,j]`, the score feature-broadcast times the
        // parameter, and `∂a` the cross-row reduction. The product gets
        // no gradient of its own.
        OpKind::FeatSum => {
            let Some((x, a)) = g.head_dot_operands(ins[0]) else {
                let gx = g.view(grad, Layout::BroadcastFeat(g.node(ins[0]).dim.feat))?;
                add_contrib(g, contrib, ins[0], gx);
                return Ok(());
            };
            if g.node(x).requires_grad {
                let (xd, xs) = (g.node(x).dim, g.node(x).space);
                let mul = OpKind::Binary(BinaryFn::Mul);
                let gx = g.push_raw(mul, vec![grad, a], xs, xd, "binary_Mul");
                add_contrib(g, contrib, x, gx);
            }
            if g.node(a).requires_grad {
                let ad = g.node(a).dim;
                let ga = g.push_raw(
                    OpKind::HeadDotBwdParam,
                    vec![x, grad],
                    Space::Param,
                    ad,
                    "head_dot_bwd_param",
                );
                add_contrib(g, contrib, a, ga);
            }
        }

        // Backward-only kinds are never differentiated.
        other => {
            return Err(IrError::Unsupported(format!(
                "second-order gradient through {other:?}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Dim;

    /// Builds a tiny GCN-like layer and checks the backward structure.
    #[test]
    fn backward_of_linear_aggregate() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let w = g.param("w", 4, 8);
        let hw = g.linear(h, w).unwrap();
        let e = g.scatter(ScatterFn::CopyU, hw, hw).unwrap();
        let v = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, e).unwrap();
        g.mark_output(v);
        let bw = append_backward(&mut g, v).unwrap();
        assert_eq!(bw.param_grads.len(), 1);
        let (p, pg) = bw.param_grads[0];
        assert_eq!(p, w);
        assert_eq!(g.node(pg).kind, OpKind::LinearBwdWeight);
        // backward of Gather(Sum, ByDst) must be Scatter(CopyV)
        let grad_e = bw.grads[&e];
        assert_eq!(g.node(grad_e).kind, OpKind::Scatter(ScatterFn::CopyV));
        // backward of Scatter(CopyU) must be Gather(Sum, BySrc)
        let grad_hw = bw.grads[&hw];
        assert_eq!(
            g.node(grad_hw).kind,
            OpKind::Gather {
                reduce: ReduceFn::Sum,
                group: EdgeGroup::BySrc
            }
        );
    }

    #[test]
    fn no_params_is_an_error() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let e = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        assert!(append_backward(&mut g, e).is_err());
    }

    #[test]
    fn fan_out_accumulates_gradients() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let w = g.param("w", 4, 4);
        let y = g.linear(h, w).unwrap();
        // y used twice: y + y
        let z = g.binary(BinaryFn::Add, y, y).unwrap();
        let bw = append_backward(&mut g, z).unwrap();
        let gy = bw.grads[&y];
        // two contributions folded by one Add
        assert_eq!(g.node(gy).kind, OpKind::Binary(BinaryFn::Add));
    }

    #[test]
    fn softmax_backward_references_forward_output() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(1));
        let w = g.param("w", 1, 1);
        let hw = g.linear(h, w).unwrap();
        let e = g.scatter(ScatterFn::CopyU, hw, hw).unwrap();
        let sm = g.edge_softmax(e).unwrap();
        let v = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, sm).unwrap();
        let bw = append_backward(&mut g, v).unwrap();
        // The grad *of* the softmax output comes from the gather backward…
        let gsm = bw.grads[&sm];
        assert_eq!(g.node(gsm).kind, OpKind::Scatter(ScatterFn::CopyV));
        // …and the grad of the softmax *input* is `y·(g − Σ_dst g·y)` in
        // forward ops, reading the forward output `y`.
        let ge = g.node(bw.grads[&e]);
        assert_eq!(ge.kind, OpKind::Binary(BinaryFn::Mul));
        assert_eq!(ge.inputs[0], sm);
        let d = g.node(ge.inputs[1]);
        assert_eq!(d.kind, OpKind::Binary(BinaryFn::Sub));
        assert_eq!(d.inputs[0], gsm);
        let sv = g.node(d.inputs[1]);
        assert_eq!(sv.kind, OpKind::Scatter(ScatterFn::CopyV));
        let s = g.node(sv.inputs[0]);
        let by_dst = OpKind::Gather {
            reduce: ReduceFn::Sum,
            group: EdgeGroup::ByDst,
        };
        assert_eq!(s.kind, by_dst);
        let gy = g.node(s.inputs[0]);
        assert_eq!(gy.kind, OpKind::Binary(BinaryFn::Mul));
        assert_eq!(gy.inputs, [gsm, sm]);
    }

    #[test]
    fn gather_max_backward_points_at_forward() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(2));
        let w = g.param("w", 2, 2);
        let hw = g.linear(h, w).unwrap();
        let e = g.scatter(ScatterFn::CopyU, hw, hw).unwrap();
        let v = g.gather(ReduceFn::Max, EdgeGroup::ByDst, e).unwrap();
        let bw = append_backward(&mut g, v).unwrap();
        let ge = bw.grads[&e];
        assert_eq!(g.node(ge).kind, OpKind::GatherMaxBwd { fwd: v });
    }

    #[test]
    fn all_new_nodes_are_backward_phase() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let w = g.param("w", 4, 4);
        let y = g.linear(h, w).unwrap();
        let before = g.len();
        append_backward(&mut g, y).unwrap();
        for n in &g.nodes()[before..] {
            assert_eq!(n.phase, Phase::Backward, "node {} not backward", n.name);
        }
    }
}
