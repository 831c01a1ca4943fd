//! # gnnopt-core — the paper's primary contribution
//!
//! Reproduces *"Understanding GNN Computational Graph: A Coordinated
//! Computation, IO, and Memory Perspective"* (MLSys 2022): a fine-grained
//! GNN operator IR plus three coordinated inter-operator optimizations.
//!
//! * [`ir`] / [`op`] — the `Scatter` / `Gather` / `ApplyEdge` /
//!   `ApplyVertex` operator algebra and the computational-graph IR (§2.1,
//!   Appendix A);
//! * [`view`] — the per-edge `View` classification (how each op reads each
//!   input) that the fusion and lowering passes schedule from;
//! * [`autodiff`] — derives backward graphs inside the same algebra
//!   (Appendix B);
//! * [`cost`] — symbolic FLOP/IO/memory model per operator;
//! * [`reorg`] — propagation-postponed operator reorganization (§4);
//! * [`fusion`] — unified-thread-mapping kernel fusion (§5), including the
//!   restricted fusion capabilities of the DGL and fuseGNN baselines;
//! * [`recompute`] — intermediate-data recomputation for training (§6);
//! * [`plan`] / [`pipeline`] — the compiler driver producing an
//!   [`plan::ExecutionPlan`] from a model IR under a [`pipeline::Preset`].
//!
//! ```
//! use gnnopt_core::ir::IrGraph;
//! use gnnopt_core::op::{Dim, ScatterFn, ReduceFn, EdgeGroup, BinaryFn};
//!
//! # fn main() -> Result<(), gnnopt_core::ir::IrError> {
//! // h' = gather_sum(scatter_sub(h, h))  — a toy EdgeConv-like layer
//! let mut g = IrGraph::new();
//! let h = g.input_vertex("h", Dim::flat(16));
//! let e = g.scatter(ScatterFn::Bin(BinaryFn::Sub), h, h)?;
//! let v = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, e)?;
//! g.mark_output(v);
//! # Ok(())
//! # }
//! ```

pub mod autodiff;
pub mod cost;
pub mod display;
pub mod exec_policy;
pub mod fusion;
pub mod ir;
pub mod lower;
pub mod memplan;
pub mod op;
pub mod pipeline;
pub mod plan;
pub mod recompute;
pub mod reorg;
pub mod view;

/// Deterministic fault injection (failpoints): named sites across the
/// runtime armed via `GNNOPT_FAILPOINTS`, zero-cost when unset. The
/// machinery physically lives in `gnnopt_tensor::fault` (the buffer
/// pool, at the bottom of the crate stack, hosts a failpoint site) and
/// is re-exported here as the canonical path. See the module docs for
/// the spec grammar, the wired sites, and the determinism contract.
pub use gnnopt_tensor::fault;

pub use exec_policy::{ExecPolicy, GemmKernel};
pub use ir::{IrError, IrGraph, Node, Phase};
pub use lower::{KernelProgram, ProgramStep, Storage};
pub use memplan::{kernel_phase, liveness, plan_memory, Liveness, MemRegion, MemoryPlan};
pub use op::{BinaryFn, Dim, EdgeGroup, NodeId, OpKind, ReduceFn, ScatterFn, Space, UnaryFn};
pub use pipeline::{compile, CompileOptions, FusionLevel, Preset};
pub use plan::{ExecutionPlan, Kernel};
pub use recompute::RecomputeScope;
pub use view::View;
