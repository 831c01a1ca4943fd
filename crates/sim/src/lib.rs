//! Analytical GPU execution model for the `gnnopt` optimizer.
//!
//! The paper evaluates its three techniques on NVIDIA RTX 3090/2080 GPUs.
//! No GPU is available in this environment, so this crate models the three
//! quantities the paper's figures actually report — **latency**, **DRAM
//! IO**, and **peak memory** — from first principles:
//!
//! * a [`Device`] carries bandwidth, FLOP rate, memory capacity, a kernel
//!   launch overhead, and an atomic-update penalty;
//! * a [`KernelProfile`] describes one (possibly fused) kernel: FLOPs,
//!   bytes read/written, the [`ThreadMapping`] chosen by the fusion pass,
//!   and whether reductions require atomics;
//! * [`Device::kernel_latency`] combines them with the degree-distribution
//!   imbalance from [`gnnopt_graph::GraphStats`] (a vertex-balanced kernel
//!   on a skewed graph is slowed by its most loaded thread group, §5 of the
//!   paper);
//! * a [`MemoryError`] reports a plan whose planned arena (the static
//!   memory planner's, in `gnnopt-core`) exceeds a device's capacity —
//!   which is how the Figure 11 "runs-on-2080 vs needs-3090" experiment
//!   is reproduced.
//!
//! The model is deliberately simple (roofline + launch overhead + load
//! imbalance + atomic penalty): it reproduces the *shape* of the paper's
//! measurements — which system wins on which axis, and by roughly what
//! factor — not their absolute values. Two optional second-order effects
//! refine it when callers can quantify them: [`KernelEffects`] models
//! L2-cached gather reads (after `gnnopt-reorder` reordering) and
//! shared-memory occupancy pressure of fused kernels; a [`Timeline`]
//! records per-kernel launch traces with phase breakdowns and JSON export.

mod device;
mod effects;
mod kernel;
mod memory;
mod stats;
mod timeline;

pub use device::Device;
pub use effects::KernelEffects;
pub use kernel::{KernelProfile, ThreadMapping};
pub use memory::MemoryError;
pub use stats::ExecStats;
pub use timeline::{KernelEvent, PhaseBreakdown, Timeline, TracePhase};
