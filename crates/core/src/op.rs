//! The GNN operator algebra (paper §2.1 / Appendix A).
//!
//! Four basic operators — `Scatter`, `Gather`, `ApplyEdge`, `ApplyVertex` —
//! express every model; `ApplyEdge`/`ApplyVertex` are represented here by
//! graph-irrelevant ops ([`OpKind::Unary`], [`OpKind::Binary`],
//! [`OpKind::Linear`], …) whose space (vertex or edge) is carried by the
//! node. The high-level `ReduceScatter` appears as the composite
//! [`OpKind::EdgeSoftmax`] (its only instantiation in the paper's models),
//! and `Aggregate` emerges from fusion rather than being a primitive.
//!
//! Backward-only operators (suffix `Bwd`) implement the Appendix B rules;
//! the autodiff module emits them.

use crate::view::Layout;
use gnnopt_tensor::rowops;

/// Which index space a node's output lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// One row per vertex (`[|V|, dim]`).
    Vertex,
    /// One row per edge (`[|E|, dim]`).
    Edge,
    /// Learnable parameter (explicit 2-D shape).
    Param,
}

/// Logical feature dimensions: `heads` independent channels of `feat`
/// features each. Stored flat as `heads * feat` columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim {
    /// Number of heads (1 for single-head models).
    pub heads: usize,
    /// Features per head.
    pub feat: usize,
}

impl Dim {
    /// Single-head dimension.
    pub fn flat(feat: usize) -> Self {
        Self { heads: 1, feat }
    }

    /// Multi-head dimension.
    pub fn multi(heads: usize, feat: usize) -> Self {
        Self { heads, feat }
    }

    /// Total flattened column count.
    pub fn total(&self) -> usize {
        self.heads * self.feat
    }
}

/// Runs `$call` with `$f()` yielding the function `$sel` names, each arm
/// rebuilding its own variant *inside* `$f`: a row-loop closure that
/// calls `$f().apply(..)` captures at most the variant's `f32` payload,
/// never the discriminant, so the scalar `apply`'s `match` folds away and
/// the loop body is one expression [`rowops`] can vectorize — resolved
/// once per row call, not once per element, and still the same scalar
/// function. (Capturing the enum itself would carry the discriminant
/// into the out-of-line AVX2 loop as data, and the `match` with it.)
macro_rules! each_binary {
    ($sel:expr, $f:ident => $call:expr) => {
        match $sel {
            BinaryFn::Add => {
                let $f = || BinaryFn::Add;
                $call
            }
            BinaryFn::Sub => {
                let $f = || BinaryFn::Sub;
                $call
            }
            BinaryFn::Mul => {
                let $f = || BinaryFn::Mul;
                $call
            }
            BinaryFn::Div => {
                let $f = || BinaryFn::Div;
                $call
            }
        }
    };
}

/// [`each_binary!`] for [`UnaryFn`].
macro_rules! each_unary {
    ($sel:expr, $f:ident => $call:expr) => {
        match $sel {
            UnaryFn::Exp => {
                let $f = || UnaryFn::Exp;
                $call
            }
            UnaryFn::Ln => {
                let $f = || UnaryFn::Ln;
                $call
            }
            UnaryFn::Neg => {
                let $f = || UnaryFn::Neg;
                $call
            }
            UnaryFn::Relu => {
                let $f = || UnaryFn::Relu;
                $call
            }
            UnaryFn::LeakyRelu(s) => {
                let $f = move || UnaryFn::LeakyRelu(s);
                $call
            }
            UnaryFn::Sigmoid => {
                let $f = || UnaryFn::Sigmoid;
                $call
            }
            UnaryFn::Tanh => {
                let $f = || UnaryFn::Tanh;
                $call
            }
            UnaryFn::Scale(c) => {
                let $f = move || UnaryFn::Scale(c);
                $call
            }
        }
    };
}

/// Binary elementwise functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryFn {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
}

impl BinaryFn {
    /// Applies the function to scalars.
    #[inline(always)]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryFn::Add => a + b,
            BinaryFn::Sub => a - b,
            BinaryFn::Mul => a * b,
            BinaryFn::Div => a / b,
        }
    }

    /// `o[i] = f(a[i], b[i])`.
    #[inline]
    pub fn zip_into(self, o: &mut [f32], a: &[f32], b: &[f32]) {
        each_binary!(self, f => rowops::zip2_into(o, a, b, |x, y| f().apply(x, y)));
    }

    /// `o[i] = f(o[i], b[i])`.
    #[inline]
    pub fn assign(self, o: &mut [f32], b: &[f32]) {
        each_binary!(self, f => rowops::binary_assign(o, b, |x, y| f().apply(x, y)));
    }

    /// One row of a head-broadcast `Binary`: `s` holds one scalar per
    /// head, `x` that many heads of `feat` features;
    /// `o[h·feat + c] = f(s[h], x[h·feat + c])` when `scalar_first`, else
    /// `f(x[h·feat + c], s[h])`.
    #[inline]
    pub fn map_heads(self, o: &mut [f32], x: &[f32], s: &[f32], feat: usize, scalar_first: bool) {
        if scalar_first {
            each_binary!(self, f => rowops::map_heads_into(o, x, s, feat, |v, sv| f().apply(sv, v)));
        } else {
            each_binary!(self, f => rowops::map_heads_into(o, x, s, feat, |v, sv| f().apply(v, sv)));
        }
    }
}

/// Unary elementwise functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnaryFn {
    /// `exp(x)`
    Exp,
    /// `ln(x)`
    Ln,
    /// `-x`
    Neg,
    /// `max(x, 0)`
    Relu,
    /// `x > 0 ? x : slope * x`
    LeakyRelu(f32),
    /// `1 / (1 + exp(-x))`
    Sigmoid,
    /// `tanh(x)`
    Tanh,
    /// `c * x`
    Scale(f32),
}

impl UnaryFn {
    /// Applies the function to a scalar.
    #[inline(always)]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryFn::Exp => x.exp(),
            UnaryFn::Ln => x.ln(),
            UnaryFn::Neg => -x,
            UnaryFn::Relu => x.max(0.0),
            UnaryFn::LeakyRelu(s) => {
                if x >= 0.0 {
                    x
                } else {
                    s * x
                }
            }
            UnaryFn::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryFn::Tanh => x.tanh(),
            UnaryFn::Scale(c) => c * x,
        }
    }

    /// Derivative `f'(x)` evaluated at the forward *input*.
    #[inline(always)]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            UnaryFn::Exp => x.exp(),
            UnaryFn::Ln => 1.0 / x,
            UnaryFn::Neg => -1.0,
            UnaryFn::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            UnaryFn::LeakyRelu(s) => {
                if x >= 0.0 {
                    1.0
                } else {
                    s
                }
            }
            UnaryFn::Sigmoid => {
                let y = 1.0 / (1.0 + (-x).exp());
                y * (1.0 - y)
            }
            UnaryFn::Tanh => 1.0 - x.tanh() * x.tanh(),
            UnaryFn::Scale(c) => c,
        }
    }

    /// `o[i] = f(x[i])`.
    #[inline]
    pub fn map_into(self, o: &mut [f32], x: &[f32]) {
        each_unary!(self, f => rowops::map_into(o, x, |v| f().apply(v)));
    }

    /// `o[i] = f(o[i])`.
    #[inline]
    pub fn map_assign(self, o: &mut [f32]) {
        each_unary!(self, f => rowops::map_assign(o, |v| f().apply(v)));
    }

    /// `o[i] = g[i] · f'(x[i])` (the `UnaryBwd` expression).
    #[inline]
    pub fn bwd_into(self, o: &mut [f32], g: &[f32], x: &[f32]) {
        each_unary!(self, f => rowops::zip2_into(o, g, x, |gv, xv| gv * f().derivative(xv)));
    }
}

/// Per-edge combination functions used by `Scatter` (paper's
/// `u_op_v` / `copy_u` DGL built-ins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScatterFn {
    /// `m_e = x[src(e)]`
    CopyU,
    /// `m_e = y[dst(e)]`
    CopyV,
    /// `m_e = f(x[src(e)], y[dst(e)])`
    Bin(BinaryFn),
    /// `m_e = x[src(e)] ∥ y[dst(e)]` (per-head concatenation).
    ConcatUV,
}

/// Reduction functions used by `Gather`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceFn {
    /// Sum of the group.
    Sum,
    /// Elementwise maximum of the group (stores argmax auxiliaries).
    Max,
    /// Mean of the group.
    Mean,
}

/// Which endpoint groups edges for a reduction.
///
/// The paper's `Gather` reduces incoming edges per destination; the
/// backward pass of `Scatter` needs the source-grouped dual (Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeGroup {
    /// Group by destination vertex (in-edges).
    ByDst,
    /// Group by source vertex (out-edges).
    BySrc,
}

/// Node identifier inside an [`crate::IrGraph`].
pub type NodeId = usize;

/// Every operator the IR can express.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    // ---- leaves ----
    /// Per-vertex input features.
    InputVertex,
    /// Per-edge input features (e.g. MoNet pseudo-coordinates).
    InputEdge,
    /// Learnable parameter.
    Param,
    /// Seed of the backward pass (`∂L/∂output`), supplied at run time.
    GradSeed,

    // ---- graph-related operators ----
    /// `Scatter`: vertex features → edge features.
    Scatter(ScatterFn),
    /// `Gather`: edge features → vertex features.
    Gather {
        /// Reduction function.
        reduce: ReduceFn,
        /// Grouping endpoint.
        group: EdgeGroup,
    },
    /// `ReduceScatter` instance: per-destination-group softmax over edge
    /// scores (GAT's edge-softmax).
    EdgeSoftmax,

    // ---- Apply- operators (graph-irrelevant) ----
    /// Expensive apply: `X · W` (inputs `[x, w]`). Its input dual
    /// `G · Wᵀ` is a `Linear` through [`Layout::Transpose`].
    Linear,
    /// Lightweight elementwise unary apply.
    Unary(UnaryFn),
    /// Lightweight elementwise binary apply (same space; feat-broadcast
    /// allowed when one side has `feat == 1`). A `Mul` may also read a
    /// parameter operand whole at every row: a head-dot
    /// ([`crate::IrGraph::head_dot`], GAT's `aᵀh`) is `FeatSum(x · a)`,
    /// and its input dual is `G[.,h] · a[h,j]`.
    Binary(BinaryFn),
    /// Gaussian mixture weights (MoNet):
    /// `w[e,k] = exp(-½ Σ_j σ⁻²[k,j] (pseudo[e,j] − μ[k,j])²)`,
    /// inputs `[pseudo, mu, inv_sigma]`, output heads = K, feat = 1.
    GaussianWeight,

    // ---- structural ----
    /// The operand read through a column layout ([`Layout`]): no
    /// arithmetic. Folded onto its readers' input edges before fusion;
    /// what survives is a terminal copy.
    View(Layout),
    /// Reduce heads: `[h, f] → [1, f]`.
    HeadReduce(ReduceFn),
    /// Reduce features: `[h, f] → [h, 1]`.
    FeatSum,

    // ---- backward-only operators (Appendix B) ----
    /// `∂L/∂W = Xᵀ · G` (inputs `[x, g]`).
    LinearBwdWeight,
    /// `∂L/∂a[h,j] = Σ_rows G[.,h] X[.,h,j]` (inputs `[x, g]`): a
    /// head-dot's parameter gradient.
    HeadDotBwdParam,
    /// Backward of `Gather(Max)`: routes the vertex gradient to the argmax
    /// edge recorded by forward node `fwd` (input `[g]`).
    GatherMaxBwd {
        /// The forward `Gather(Max)` node whose argmax auxiliary to use.
        fwd: NodeId,
    },
    /// Backward of `Gather(Mean)`: scatters `g[v] / degree(v)` to edges.
    GatherMeanBwd {
        /// Grouping endpoint of the forward gather.
        group: EdgeGroup,
    },
    /// `g · f'(x)` (inputs `[g, x]`).
    UnaryBwd(UnaryFn),
    /// `∂L/∂μ` of [`OpKind::GaussianWeight`]
    /// (inputs `[pseudo, w, g, mu, inv_sigma]`).
    GaussianBwdMu,
    /// `∂L/∂σ⁻¹` of [`OpKind::GaussianWeight`] (same inputs).
    GaussianBwdSigma,
}

/// How the optimizer classifies an operator for fusion (§5): expensive
/// Apply- ops stay in dedicated dense kernels, everything graph-related or
/// lightweight is fusible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionClass {
    /// Not executed (inputs, parameters, gradient seeds).
    Leaf,
    /// Expensive Apply- (the GEMMs and the head-dot's cross-row
    /// parameter reduction): kernels of their own, never fused with
    /// graph ops. Every row-local op is fusible, a head-dot's `Mul` and
    /// `FeatSum` included.
    Expensive,
    /// Graph-related or lightweight Apply-: fusible.
    Fusible,
}

impl OpKind {
    /// Fusion classification (see [`FusionClass`]).
    pub fn fusion_class(&self) -> FusionClass {
        use OpKind::*;
        match self {
            InputVertex | InputEdge | Param | GradSeed => FusionClass::Leaf,
            Linear | LinearBwdWeight | HeadDotBwdParam => FusionClass::Expensive,
            // Gaussian parameter gradients are per-edge computations with a
            // tiny `[K, r]` atomic reduction — they fuse into the backward
            // graph kernel exactly like the paper's MoNet backward pass.
            _ => FusionClass::Fusible,
        }
    }

    /// The reduction grouping this op performs, if any (drives thread
    /// mapping selection, §5).
    pub fn reduction_group(&self) -> Option<EdgeGroup> {
        match self {
            OpKind::Gather { group, .. } | OpKind::GatherMeanBwd { group } => Some(*group),
            OpKind::EdgeSoftmax => Some(EdgeGroup::ByDst),
            _ => None,
        }
    }

    /// True for backward ops whose output is a parameter-space reduction
    /// implemented with atomics when fused into a graph kernel.
    pub fn is_param_reduction(&self) -> bool {
        matches!(self, OpKind::GaussianBwdMu | OpKind::GaussianBwdSigma)
    }

    /// True for ops that iterate graph structure (scatter/gather-style
    /// access patterns).
    pub fn is_graph_op(&self) -> bool {
        matches!(
            self,
            OpKind::Scatter(_)
                | OpKind::Gather { .. }
                | OpKind::EdgeSoftmax
                | OpKind::GatherMaxBwd { .. }
                | OpKind::GatherMeanBwd { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_total() {
        assert_eq!(Dim::multi(4, 64).total(), 256);
        assert_eq!(Dim::flat(128).total(), 128);
    }

    #[test]
    fn unary_derivatives_match_finite_difference() {
        let fns = [
            UnaryFn::Exp,
            UnaryFn::Ln,
            UnaryFn::Neg,
            UnaryFn::LeakyRelu(0.2),
            UnaryFn::Sigmoid,
            UnaryFn::Tanh,
            UnaryFn::Scale(3.0),
        ];
        for f in fns {
            for &x in &[0.3f32, 1.7, 2.5] {
                let h = 1e-3;
                let num = (f.apply(x + h) - f.apply(x - h)) / (2.0 * h);
                let ana = f.derivative(x);
                assert!(
                    (num - ana).abs() < 1e-2,
                    "{f:?} at {x}: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    /// The once-per-call dispatch writes the bits of the per-element
    /// form, through the dispatched row loops and the scalar ones alike,
    /// for every variant and every remainder class of the SIMD width.
    #[test]
    fn row_forms_equal_the_per_element_form() {
        let unary = [
            UnaryFn::Exp,
            UnaryFn::Ln,
            UnaryFn::Neg,
            UnaryFn::Relu,
            UnaryFn::LeakyRelu(0.2),
            UnaryFn::Sigmoid,
            UnaryFn::Tanh,
            UnaryFn::Scale(-1.7),
        ];
        let binary = [BinaryFn::Add, BinaryFn::Sub, BinaryFn::Mul, BinaryFn::Div];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for len in 0..40usize {
            let x: Vec<f32> = (0..len).map(|i| (i as f32 - 7.5) * 0.811).collect();
            let y: Vec<f32> = (0..len)
                .map(|i| (i as f32 * 1.37 - 3.0).sin() * 8.0)
                .collect();
            let mut o = vec![f32::NAN; len];
            let mut r = vec![f32::NAN; len];
            for f in unary {
                let want: Vec<f32> = x.iter().map(|&v| f.apply(v)).collect();
                f.map_into(&mut o, &x);
                rowops::scalar::map_into(&mut r, &x, |v| f.apply(v));
                assert_eq!(bits(&o), bits(&want), "{f:?} map_into len {len}");
                assert_eq!(bits(&r), bits(&want), "{f:?} scalar map_into len {len}");
                o.copy_from_slice(&x);
                f.map_assign(&mut o);
                assert_eq!(bits(&o), bits(&want), "{f:?} map_assign len {len}");

                let want: Vec<f32> = y
                    .iter()
                    .zip(&x)
                    .map(|(&g, &v)| g * f.derivative(v))
                    .collect();
                f.bwd_into(&mut o, &y, &x);
                rowops::scalar::zip2_into(&mut r, &y, &x, |g, v| g * f.derivative(v));
                assert_eq!(bits(&o), bits(&want), "{f:?} bwd_into len {len}");
                assert_eq!(bits(&r), bits(&want), "{f:?} scalar bwd len {len}");
            }
            for f in binary {
                let want: Vec<f32> = x.iter().zip(&y).map(|(&a, &b)| f.apply(a, b)).collect();
                f.zip_into(&mut o, &x, &y);
                rowops::scalar::zip2_into(&mut r, &x, &y, |a, b| f.apply(a, b));
                assert_eq!(bits(&o), bits(&want), "{f:?} zip_into len {len}");
                assert_eq!(bits(&r), bits(&want), "{f:?} scalar zip len {len}");
                o.copy_from_slice(&x);
                f.assign(&mut o, &y);
                assert_eq!(bits(&o), bits(&want), "{f:?} assign len {len}");

                // Every split of the row into equal heads, the scalar
                // on either side.
                for heads in (1..=len).filter(|h| len % h == 0) {
                    let (s, feat) = (&y[..heads], len / heads);
                    for first in [false, true] {
                        let want: Vec<f32> = (0..len)
                            .map(|i| {
                                let (v, sv) = (x[i], s[i / feat]);
                                if first {
                                    f.apply(sv, v)
                                } else {
                                    f.apply(v, sv)
                                }
                            })
                            .collect();
                        f.map_heads(&mut o, &x, s, feat, first);
                        assert_eq!(bits(&o), bits(&want), "{f:?} map_heads({first}) len {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn binary_apply() {
        assert_eq!(BinaryFn::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinaryFn::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinaryFn::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinaryFn::Div.apply(3.0, 2.0), 1.5);
    }

    #[test]
    fn fusion_classes() {
        assert_eq!(OpKind::Linear.fusion_class(), FusionClass::Expensive);
        assert_eq!(
            OpKind::Scatter(ScatterFn::CopyU).fusion_class(),
            FusionClass::Fusible
        );
        assert_eq!(OpKind::Param.fusion_class(), FusionClass::Leaf);
        assert_eq!(OpKind::EdgeSoftmax.fusion_class(), FusionClass::Fusible);
    }

    #[test]
    fn reduction_groups() {
        assert_eq!(
            OpKind::Gather {
                reduce: ReduceFn::Sum,
                group: EdgeGroup::BySrc
            }
            .reduction_group(),
            Some(EdgeGroup::BySrc)
        );
        assert_eq!(
            OpKind::EdgeSoftmax.reduction_group(),
            Some(EdgeGroup::ByDst)
        );
        assert_eq!(OpKind::Unary(UnaryFn::Relu).reduction_group(), None);
    }
}
