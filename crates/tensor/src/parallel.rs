//! Shared CPU thread-pool sizing for every parallel kernel in the
//! workspace.
//!
//! Both the tensor GEMMs ([`crate::gemm::gemm`]) and the graph kernels
//! in `gnnopt-exec` partition their output over `std::thread::scope`
//! worker threads. They must agree on the pool size — otherwise a fused
//! plan would oversubscribe the machine when a GEMM kernel and a graph
//! kernel pick different counts — so the detection logic lives here, in
//! the lowest crate of the dependency tree.
//!
//! The pool size is resolved as:
//!
//! 1. the `GNNOPT_THREADS` environment variable, when set to a positive
//!    integer (the CI gate runs the whole test suite under both
//!    `GNNOPT_THREADS=1` and `GNNOPT_THREADS=4`);
//! 2. otherwise [`std::thread::available_parallelism`], capped at
//!    [`MAX_AUTO_THREADS`].

/// Environment variable overriding the detected thread count.
pub const THREADS_ENV_VAR: &str = "GNNOPT_THREADS";

/// Cap on auto-detected parallelism: past this width the row-partitioned
/// kernels are memory-bound and extra threads only add spawn overhead.
pub const MAX_AUTO_THREADS: usize = 8;

/// Parses a `GNNOPT_THREADS` value: a positive integer thread count.
///
/// # Errors
///
/// Returns a description of the rejected value when it is not a positive
/// integer (zero included — "no threads" is not a meaningful pool size;
/// use `1` to force the serial path).
pub fn parse_threads(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) | Err(_) => Err(format!(
            "{THREADS_ENV_VAR} must be a positive integer, got '{raw}'"
        )),
        Ok(n) => Ok(n),
    }
}

/// Reads the `GNNOPT_THREADS` override.
///
/// Returns `Ok(None)` when unset.
///
/// # Errors
///
/// Returns the [`parse_threads`] error when the variable is set to
/// something other than a positive integer. Callers with an infallible API
/// (such as [`available_threads`]) ignore the error and fall back to
/// hardware detection; `gnnopt-exec` surfaces it as a session error.
pub fn env_threads() -> Result<Option<usize>, String> {
    match std::env::var(THREADS_ENV_VAR) {
        Ok(raw) => parse_threads(&raw).map(Some),
        Err(_) => Ok(None),
    }
}

/// The worker-thread count every parallel kernel in the workspace uses:
/// the `GNNOPT_THREADS` override when valid, else detected hardware
/// parallelism capped at [`MAX_AUTO_THREADS`].
pub fn available_threads() -> usize {
    if let Ok(Some(n)) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_AUTO_THREADS))
}

/// Deterministic chunk boundaries over `rows` for up to `parts` workers:
/// the `div_ceil` split **every** parallel kernel in the workspace uses
/// (tensor GEMM partitions and the `gnnopt-exec` graph kernels delegate
/// here), so the "boundaries are a pure function of `(rows, parts)`"
/// determinism contract can never diverge between crates. Returns
/// strictly increasing bounds from `0` to `rows`.
pub fn chunk_bounds(rows: usize, parts: usize) -> Vec<usize> {
    let per = chunk_rows(rows, parts);
    let mut bounds = vec![0];
    while *bounds.last().expect("bounds is non-empty") < rows {
        bounds.push((bounds.last().expect("non-empty") + per).min(rows));
    }
    bounds
}

/// Rows in every chunk of [`chunk_bounds`]`(rows, parts)` but the last:
/// a worker that cuts its output with `chunks_mut(chunk_rows × cols)`
/// gets that partition without building the bounds.
pub fn chunk_rows(rows: usize, parts: usize) -> usize {
    rows.div_ceil(parts.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 16 "), Ok(16));
    }

    #[test]
    fn parse_rejects_zero_and_garbage() {
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("-2").is_err());
        assert!(parse_threads("four").is_err());
        assert!(parse_threads("").is_err());
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
