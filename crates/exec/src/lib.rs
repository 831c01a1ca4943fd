//! CPU reference executor for `gnnopt` execution plans.
//!
//! Executes every IR operator with real numbers so that each compiler
//! rewrite (reorganization, fusion, recomputation) can be validated for
//! *numerical equivalence* against the unoptimized plan, while the
//! analytical counters (latency / IO / memory) come from the plan itself
//! via `gnnopt-sim`.
//!
//! The executor honours the plan's memory discipline: values drop as soon
//! as their last consumer kernel has run, stashed values survive the
//! forward→backward boundary, and recomputed values are *actually* dropped
//! and rebuilt inside the backward kernels (an edge softmax sweeping its
//! destination groups again, as the forward one does) — so the
//! recomputation pass is exercised end-to-end, not just accounted for.
//!
//! # Constructing sessions
//!
//! [`Session::builder`] is the one construction path: it makes the
//! execution policy and the treatment of the `GNNOPT_*` environment
//! overrides ([`EnvOverrides`]) explicit.
//!
//! # Thread-parallel backend and the sparse kernel engine
//!
//! Kernels run under an [`gnnopt_core::ExecPolicy`] carried by the
//! compiled plan (`CompileOptions::exec`) or pinned per session via the
//! builder, and each op has one engine. The tile driver (`fused.rs`) runs
//! every graph and row-local op, its `std::thread::scope` workers each
//! walking a contiguous run of tiles (edge-balanced source ranges for a
//! streamed `BySrc` gather); the dense calls — GEMMs and the parameter
//! reductions — split their own work (the reductions in [`kernels`]),
//! under the same pool size (`gnnopt_tensor::parallel`) as
//! `gnnopt_tensor::gemm`. Row-wise
//! inner loops dispatch to AVX2-widened bodies at runtime when the host
//! supports them (the scalar bodies produce the same bits — see
//! `gnnopt_tensor::rowops`).
//!
//! **Determinism contract:** reductions either keep their serial
//! accumulation order exactly (bit-identical at any thread count) or
//! re-associate on a *fixed grid* that is a pure function of the problem
//! size — never of the thread count — so every kernel's results are
//! invariant in `GNNOPT_THREADS`. Set `GNNOPT_THREADS=<n>` to override
//! the auto-detected pool size (`GNNOPT_THREADS=1` forces the serial
//! path); see the [`kernels`] module docs for which kernels split, the
//! one association of a vertex reduction (ascending edge order), and the
//! tensor layout convention.
//!
//! # One executor: the program interpreter
//!
//! A session runs every kernel by interpreting its lowered
//! `gnnopt_core::KernelProgram` (`fused.rs`); there is no switch and no
//! second path. Kernel-internal values live in per-worker scratch slots
//! covering one destination-vertex tile at a time (pure copies hold
//! none: their readers index the copy's source), so fused `O(|E|·d)`
//! edge intermediates never materialize — [`RunStats::peak_value_bytes`]
//! genuinely drops, and [`RunStats::scratch_bytes`] /
//! [`RunStats::fused_kernels`] report the realized substitution. A plan
//! compiled without fusion (`FusionLevel::None`, or the `dgl()` preset's
//! built-in kernels) is the materializing baseline on the same executor.
//! Lowering is **total** (see `gnnopt_core::lower`): every kernel of
//! every plan has a program, the ops no tile can run — dense
//! projections and parameter reductions, no graph op among them — are
//! whole-graph *full steps* through the op library's dispatch
//! ([`refexec`]), and a kernel without a program is a typed
//! [`ExecError::Protocol`].
//!
//! Results — outputs and every parameter gradient — are bit-identical,
//! for any tile budget and thread count, to [`refexec::evaluate`]: the
//! small node-by-node oracle the test suites compare against, which no
//! session code path calls. Vertex locality is the caller's to prepare:
//! relabel the graph and the bindings once with `gnnopt-reorder` and
//! build an ordinary session on the result (`tests/reorder_exec.rs`).
//!
//! ```no_run
//! use gnnopt_core::{compile, CompileOptions};
//! use gnnopt_exec::Session;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let ir = gnnopt_core::ir::IrGraph::new();
//! # let graph = gnnopt_graph::Graph::from_edge_list(&gnnopt_graph::EdgeList::from_pairs(2, &[(0,1)]));
//! # let bindings = gnnopt_exec::Bindings::new();
//! let compiled = compile(&ir, false, &CompileOptions::ours())?;
//! let mut sess = Session::builder(&compiled.plan, &graph).build()?;
//! let outputs = sess.forward(&bindings)?;
//! # Ok(())
//! # }
//! ```

mod contain;
mod error;
mod fused;
pub mod kernels;
pub mod refexec;
mod session;
mod sharded;

pub use error::ExecError;
pub use session::{Bindings, EnvOverrides, RunStats, Session, SessionBuilder};
pub use sharded::{
    ExchangeKind, ExchangeRecord, ShardStrategy, ShardSummary, ShardedSession,
    ShardedSessionBuilder,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ExecError>;
