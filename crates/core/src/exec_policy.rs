//! The execution policy: how the CPU reference executor runs the
//! compiled kernels.
//!
//! The compiler's output (the [`crate::plan::ExecutionPlan`]) describes
//! *what* to run; [`ExecPolicy`] describes *how wide* to run it on the
//! host CPU. It is carried by [`crate::pipeline::CompileOptions`] into the
//! plan so a single compile call fixes both, and `gnnopt-exec` resolves
//! the `threads = 0` auto marker against the shared pool-size detection in
//! `gnnopt_tensor::parallel` (which honours the `GNNOPT_THREADS`
//! environment override).
//!
//! The policy selects no engine and no preprocessing: every
//! `Linear`-family kernel runs the blocked GEMM, every row loop the
//! dispatched `rowops`, and a caller who wants GNNAdvisor-style vertex
//! locality (§8) relabels the graph once with `gnnopt-reorder` before
//! building a session.

/// Which product `Tensor::matmul_with_threads` runs, re-exported for the
/// frozen `src/bin/gnnbench` GEMM probe only, which names it here; no
/// policy field holds it, and sessions always run the blocked engine.
/// Goes when a `benchmark` PR moves the probe onto `gemm::gemm`.
pub use gnnopt_tensor::GemmKernel;

/// Thread-parallelism policy for the CPU reference executor.
///
/// The parallel kernels partition their output over contiguous row (or CSR
/// vertex) ranges with deterministic chunk boundaries, so for any
/// `threads` value the result is **bit-identical** to the serial path —
/// no floating-point reduction ever crosses a chunk boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Worker threads for graph/row kernels. `0` means auto-detect: the
    /// `GNNOPT_THREADS` environment variable when set, else hardware
    /// parallelism (resolved by the executor at session creation).
    pub threads: usize,
    /// Minimum per-kernel work (output elements, or edge touches for
    /// gather-style kernels) below which the kernel stays serial; thread
    /// spawning would otherwise dominate.
    pub parallel_threshold: usize,
    /// Row budget per tile of the program interpreter: destination
    /// vertex ranges are cut so each tile covers at most this many rows
    /// in either space — edges, and vertices (a single vertex whose
    /// in-degree exceeds the budget still gets one intact tile —
    /// reduction groups never split). Smaller tiles bound scratch
    /// tighter; the value never affects results, which are bit-identical
    /// to `refexec::evaluate` for any tiling.
    pub tile_edges: usize,
    /// Inert: read only by the frozen `src/bin/gnnbench`; goes when a
    /// `benchmark` PR drops that read.
    pub fused: bool,
    /// Scan every kernel output for non-finite values, localizing the
    /// first one to `(kernel, node, row, col)` as a typed error
    /// instead of letting a NaN surface as garbage loss epochs later.
    /// One streaming pass per output; off by default so warmed steps
    /// stay allocation- and scan-free. Overridable per process with
    /// `GNNOPT_GUARD=0|1` (see `gnnopt-exec`).
    pub guard: bool,
}

impl ExecPolicy {
    /// Work threshold below which parallel dispatch is not worth the
    /// `std::thread::scope` spawn overhead (~tens of µs per worker).
    pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1 << 17;

    /// Default per-tile row budget of the fused interpreter: at the
    /// typical feature widths (≤ a few hundred floats per row) a tile's
    /// scratch stays within L2-cache scale.
    pub const DEFAULT_TILE_EDGES: usize = 4096;

    /// Auto-detected thread count (the default for every preset).
    pub fn auto() -> Self {
        Self {
            threads: 0,
            parallel_threshold: Self::DEFAULT_PARALLEL_THRESHOLD,
            tile_edges: Self::DEFAULT_TILE_EDGES,
            fused: false,
            guard: false,
        }
    }

    /// Single-threaded reference execution.
    pub fn serial() -> Self {
        Self {
            threads: 1,
            ..Self::auto()
        }
    }

    /// An explicit thread count (still subject to the work threshold).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::auto()
        }
    }

    /// The same policy with the per-kernel numeric guard toggled.
    pub fn with_guard(self, guard: bool) -> Self {
        Self { guard, ..self }
    }

    /// True when this policy requests auto-detection.
    pub fn is_auto(&self) -> bool {
        self.threads == 0
    }

    /// Resolves the auto marker with the given detector, leaving explicit
    /// thread counts untouched.
    pub fn resolved(self, detect: impl FnOnce() -> usize) -> Self {
        Self {
            threads: if self.threads == 0 {
                detect().max(1)
            } else {
                self.threads
            },
            ..self
        }
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_via_detector() {
        let p = ExecPolicy::auto().resolved(|| 6);
        assert_eq!(p.threads, 6);
        assert_eq!(p.parallel_threshold, ExecPolicy::DEFAULT_PARALLEL_THRESHOLD);
    }

    #[test]
    fn explicit_threads_win_over_detector() {
        let p = ExecPolicy::with_threads(3).resolved(|| 12);
        assert_eq!(p.threads, 3);
    }

    #[test]
    fn detector_zero_clamps_to_one() {
        assert_eq!(ExecPolicy::auto().resolved(|| 0).threads, 1);
    }

    #[test]
    fn serial_is_one_thread() {
        assert_eq!(ExecPolicy::serial().threads, 1);
        assert!(!ExecPolicy::serial().is_auto());
        assert!(ExecPolicy::default().is_auto());
    }

    #[test]
    fn builders_compose() {
        let p = ExecPolicy::with_threads(2).with_guard(true);
        assert_eq!(p.threads, 2);
        assert!(p.guard);
        assert!(!ExecPolicy::auto().guard, "guard defaults off");
        // `resolved` touches nothing but the thread count.
        assert_eq!(p.resolved(|| 8), p);
    }

    /// gnnbench times `matmul_with_threads(.., GemmKernel::default(), ..)`
    /// through this re-export and reports it as the engine sessions run.
    #[test]
    fn default_gemm_engine_is_blocked() {
        assert_eq!(GemmKernel::default(), GemmKernel::Blocked);
    }
}
