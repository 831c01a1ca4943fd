//! The op library's dispatch — one IR node → one full tensor — and the
//! node-by-node test oracle built on it.
//!
//! `exec_op` is the single place that maps an [`OpKind`] onto the
//! kernels in [`crate::kernels`]. It has exactly two callers. The program
//! interpreter (`fused.rs`) calls it for every step a destination tile
//! cannot run — the dense or parameter steps of a lowered
//! [`gnnopt_core::KernelProgram`]: GEMMs, parameter reductions and
//! parameter-space steps, none of them a graph op or a row-local one — so
//! lowering totality never needs a per-kernel fallback: any op the IR
//! expresses either tiles or lands here, whichever session, shard or
//! sharded driver launched the program.
//! Those are the arms that take the caller's thread count; every other
//! arm is a plain loop no session reaches.
//!
//! [`evaluate`] walks a plan through all of them on one thread: the
//! serial reference the bit-identity suites compare an N-thread session
//! against. No session code path calls it.
//!
//! The dispatch is a pure function of its operands: the one op that needs
//! more, `GatherMaxBwd`, routes by its forward gather's argmax table,
//! which [`evaluate`] keeps and hands to the kernel itself (a session
//! routes it in the tile driver).

use crate::kernels;
use crate::session::Bindings;
use crate::{ExecError, Result};
use gnnopt_core::memplan::kernel_phase;
use gnnopt_core::{
    view, ExecPolicy, ExecutionPlan, IrGraph, Kernel, Node, NodeId, OpKind, Phase, ReduceFn,
};
use gnnopt_graph::Graph;
use gnnopt_tensor::gemm::{self, pinned_threads, Layout};
use gnnopt_tensor::{Tensor, TensorError};
use std::borrow::Cow;
use std::collections::HashMap;

/// What [`evaluate`] computed.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Model outputs in declaration order.
    pub outputs: Vec<Tensor>,
    /// Parameter gradients by parameter name (empty without a seed).
    pub grads: HashMap<String, Tensor>,
    /// Bytes of every tensor the walk held at its end — bound leaves and
    /// each node's result: what a step costs when nothing is fused,
    /// evicted or recomputed (an upper bound on a session's measured peak).
    pub materialized_bytes: u64,
}

/// The test oracle: evaluates `plan` node by node, keeping every value.
///
/// Walks the plan's kernels in execution order (forward, then — given
/// the `∂L/∂output` `seed` — backward), runs every member node through
/// `exec_op` on one thread, and stores each result for good. It knows
/// nothing of programs, tiling, eviction, the arena, recomputation,
/// the numeric guard or shards, which is what makes it
/// independent of the executor it checks.
///
/// # Errors
///
/// [`ExecError::MissingBinding`] for an unbound leaf,
/// [`ExecError::ValueNotLive`] when the kernel order is not topological
/// (a plan bug), and whatever `exec_op` returns.
pub fn evaluate(
    plan: &ExecutionPlan,
    graph: &Graph,
    bindings: &Bindings,
    seed: Option<&Tensor>,
) -> Result<Evaluation> {
    let pol = ExecPolicy::serial();
    let ir = &plan.ir;
    let mut values: HashMap<NodeId, Tensor> = HashMap::new();
    for n in ir.nodes() {
        match n.kind {
            OpKind::InputVertex | OpKind::InputEdge | OpKind::Param => {
                values.insert(n.id, bindings.leaf(n)?.clone());
            }
            OpKind::GradSeed => values.extend(seed.map(|t| (n.id, t.clone()))),
            _ => {}
        }
    }
    let not_live = |id: NodeId| ExecError::ValueNotLive {
        node: ir.node(id).name.clone(),
    };
    let mut argmax: HashMap<NodeId, Vec<u32>> = HashMap::new();
    // The session's order: every forward kernel, then every backward one.
    let in_phase = |p: Phase| {
        plan.kernels
            .iter()
            .filter(move |k| kernel_phase(plan, k.id) == p)
    };
    let mut order: Vec<&Kernel> = in_phase(Phase::Forward).collect();
    if seed.is_some() {
        order.extend(in_phase(Phase::Backward));
    }
    for k in order {
        for &id in &k.nodes {
            let node = ir.node(id);
            let mut viewed = Vec::with_capacity(node.inputs.len());
            for (pos, &i) in node.inputs.iter().enumerate() {
                let x = values.get(&i).ok_or_else(|| not_live(i))?;
                viewed.push(laid_out(ir, id, pos, x));
            }
            let inputs: Vec<&Tensor> = viewed.iter().map(|x| x.as_ref()).collect();
            // A `Gather(Max)` records the argmax table its dual routes by.
            let t = match node.kind {
                OpKind::Gather {
                    reduce: ReduceFn::Max,
                    group,
                } => {
                    let (t, table) = kernels::gather(&pol, graph, ReduceFn::Max, group, inputs[0]);
                    argmax.extend(table.map(|a| (id, a)));
                    t
                }
                OpKind::GatherMaxBwd { fwd } => {
                    let table = argmax.get(&fwd).ok_or_else(|| not_live(fwd))?;
                    let group = gnnopt_core::view::gather_max_bwd_group(ir, fwd);
                    kernels::gather_max_bwd(graph, group, inputs[0], table)
                }
                _ => exec_op(&pol, graph, ir, node, &inputs)?,
            };
            values.insert(id, t);
        }
    }
    let materialized_bytes = values.values().map(|t| t.byte_size() as u64).sum();
    let take = |id: NodeId| values.get(&id).cloned().ok_or_else(|| not_live(id));
    let outputs = ir
        .outputs()
        .iter()
        .map(|&o| take(o))
        .collect::<Result<_>>()?;
    let mut grads = HashMap::new();
    if seed.is_some() {
        for &(p, g) in &plan.param_grads {
            grads.insert(ir.node(p).name.clone(), take(g)?);
        }
    }
    Ok(Evaluation {
        outputs,
        grads,
        materialized_bytes,
    })
}

/// `x`, node `id`'s input `pos`, as the node reads it: through its
/// layouts ([`IrGraph::read_layouts`]) — a copy unless they only relabel.
fn laid_out<'t>(ir: &IrGraph, id: NodeId, pos: usize, x: &'t Tensor) -> Cow<'t, Tensor> {
    let input = ir.node(ir.node(id).inputs[pos]);
    let layouts: Vec<_> = ir.read_layouts(id, pos).collect();
    if view::is_free(&layouts, input.dim, input.space) {
        return Cow::Borrowed(x);
    }
    let (dim, map) = view::gather_map(&layouts, input.dim);
    Cow::Owned(kernels::view(x, input.space, dim, &map))
}

/// `A'·B'` of a `Linear` (`Nn`: `x[m,k]·w[k,n]`) or a `LinearBwdWeight`
/// (`Tn`: `x[k,m]ᵀ·g[k,n]`) on the blocked engine, into a new tensor,
/// under the caller's resolved worker cap (a session pinned serial keeps
/// its weight-gradient GEMMs serial, whatever `GNNOPT_THREADS` or the
/// hardware says).
///
/// # Errors
///
/// Returns [`ExecError::Tensor`] with a [`TensorError::ShapeMismatch`]
/// when the operands disagree on `k`.
fn product(layout: Layout, a: &Tensor, b: &Tensor, threads: usize) -> Result<Tensor> {
    let (m, k) = match layout {
        Layout::Nn => (a.rows(), a.cols()),
        Layout::Tn => (a.cols(), a.rows()),
    };
    let n = b.cols();
    if b.rows() != k {
        return Err(TensorError::ShapeMismatch {
            op: "linear",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        }
        .into());
    }
    let mut out = Tensor::zeros(&[m, n]);
    let (a, b, c) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
    gemm::gemm(layout, a, b, c, m, k, n, pinned_threads(m * k * n, threads));
    Ok(out)
}

/// Executes one op over full tensors with the reference kernels.
///
/// `inputs` are the node's operands in IR input order, each already read
/// through the node's layouts (a terminal `View`'s own included, so its
/// result is a copy of its operand).
///
/// Hosts the `refexec` failpoint (`GNNOPT_FAILPOINTS`): `panic` unwinds
/// with an injected payload (contained at kernel dispatch), `nan` runs
/// the op then stamps `f32::NAN` on the first output element (for guard
/// tests), and every other action returns [`ExecError::Injected`].
///
/// # Errors
///
/// Returns [`ExecError::ValueNotLive`] for leaves (they are bound, never
/// executed) and for a [`OpKind::GatherMaxBwd`], whose forward argmax
/// table only [`evaluate`] holds; tensor-shape violations surface as
/// [`ExecError::Tensor`].
#[allow(clippy::too_many_lines)]
pub(crate) fn exec_op(
    pol: &ExecPolicy,
    g: &Graph,
    ir: &IrGraph,
    node: &Node,
    inputs: &[&Tensor],
) -> Result<Tensor> {
    use gnnopt_tensor::fault::{self, FaultAction};
    let nan = match fault::check("refexec") {
        None => false,
        Some(FaultAction::Panic) => std::panic::panic_any(fault::injected_panic_message("refexec")),
        Some(FaultAction::Nan) => true,
        Some(_) => {
            let site = "refexec".into();
            return Err(ExecError::Injected { site });
        }
    };
    let din = |i: usize| ir.input_dim(node.id, i);
    let mut out = match &node.kind {
        OpKind::InputVertex | OpKind::InputEdge | OpKind::Param | OpKind::GradSeed => {
            return Err(ExecError::ValueNotLive {
                node: node.name.clone(),
            })
        }

        OpKind::Scatter(f) => {
            let x = inputs[0];
            let y = *inputs.last().expect("scatter has inputs");
            kernels::scatter(pol, g, *f, x, y, node.dim)
        }

        OpKind::Gather { reduce, group } => kernels::gather(pol, g, *reduce, *group, inputs[0]).0,

        OpKind::EdgeSoftmax => kernels::edge_softmax(g, inputs[0]),

        OpKind::Linear => product(Layout::Nn, inputs[0], inputs[1], pol.threads)?,
        OpKind::LinearBwdWeight => product(Layout::Tn, inputs[0], inputs[1], pol.threads)?,

        OpKind::Unary(f) => kernels::unary(*f, inputs[0]),
        OpKind::UnaryBwd(f) => kernels::unary_bwd(*f, inputs[0], inputs[1]),

        // A parameter is read whole at every row, as lowering pins it.
        OpKind::Binary(f) => {
            let whole = [0, 1].map(|i| view::edge_view(ir, node.id, i) == view::View::Broadcast);
            kernels::binary_broadcast(*f, (inputs[0], din(0)), (inputs[1], din(1)), whole)
        }

        OpKind::HeadDotBwdParam => {
            kernels::head_dot_bwd_param(pol, inputs[0], inputs[1], node.dim.heads, node.dim.feat)
        }

        OpKind::GaussianWeight => kernels::gaussian_weight(inputs[0], inputs[1], inputs[2]),
        OpKind::GaussianBwdMu => {
            kernels::gaussian_bwd_mu(pol, inputs[0], inputs[1], inputs[2], inputs[3], inputs[4])
        }
        OpKind::GaussianBwdSigma => {
            kernels::gaussian_bwd_sigma(pol, inputs[0], inputs[1], inputs[2], inputs[3], inputs[4])
        }

        OpKind::GatherMaxBwd { fwd } => {
            return Err(ExecError::ValueNotLive {
                node: format!("argmax aux of node {fwd}"),
            })
        }
        OpKind::GatherMeanBwd { group } => kernels::gather_mean_bwd(g, *group, inputs[0]),

        OpKind::View(_) => inputs[0].clone(),
        OpKind::HeadReduce(f) => {
            kernels::head_reduce(inputs[0], din(0).heads, din(0).feat, *f == ReduceFn::Mean)
        }
        OpKind::FeatSum => kernels::feat_sum(inputs[0], din(0).heads, din(0).feat),
    };
    if let Some(v) = out.as_mut_slice().first_mut().filter(|_| nan) {
        *v = f32::NAN;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnopt_core::Dim;
    use gnnopt_graph::EdgeList;

    /// A `k` mismatch in either GEMM layout is a typed error, not a slice
    /// panic inside the engine: `Linear` reads `x[m,k]·w[k,n]`,
    /// `LinearBwdWeight` reads `x[k,m]ᵀ·g[k,n]`.
    #[test]
    fn gemm_k_mismatch_is_a_shape_error() {
        let g = Graph::from_edge_list(&EdgeList::from_pairs(2, &[(0, 1)]));
        let mut ir = IrGraph::new();
        let x = ir.input_vertex("x", Dim::flat(3));
        let w = ir.param("w", 3, 2);
        let y = ir.linear(x, w).unwrap();
        let a = Tensor::zeros(&[2, 3]);
        for (kind, b) in [(OpKind::Linear, [2, 2]), (OpKind::LinearBwdWeight, [3, 2])] {
            let node = Node {
                kind,
                ..ir.node(y).clone()
            };
            let b = Tensor::zeros(&b);
            let err = exec_op(&ExecPolicy::serial(), &g, &ir, &node, &[&a, &b]).unwrap_err();
            assert!(
                matches!(err, ExecError::Tensor(TensorError::ShapeMismatch { .. })),
                "{:?}: {err}",
                node.kind
            );
        }
    }
}
