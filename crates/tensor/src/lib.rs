//! Dense `f32` tensor substrate for the `gnnopt` GNN computational-graph
//! optimizer.
//!
//! The paper's operators move per-vertex and per-edge *feature matrices*
//! around, so a [`Tensor`] is a row-major 2-D matrix `[rows, cols]`. The
//! crate deliberately has no external array dependency:
//! the executor (`gnnopt-exec`) needs full control over allocation so the
//! simulated memory counters stay truthful.
//!
//! # Example
//!
//! ```
//! use gnnopt_tensor::gemm::{gemm, Layout};
//! use gnnopt_tensor::Tensor;
//!
//! # fn main() -> Result<(), gnnopt_tensor::TensorError> {
//! let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
//! let id = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]])?;
//! // Every dense product writes into an output its caller owns; here
//! // `[2,2]·[2,2]` on one worker.
//! let mut c = Tensor::zeros(&[2, 2]);
//! gemm(Layout::Nn, a.as_slice(), id.as_slice(), c.as_mut_slice(), 2, 2, 2, 1);
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok(())
//! # }
//! ```

mod error;
pub mod fault;
pub mod gemm;
mod init;
mod linalg;
pub mod parallel;
pub mod pool;
mod reduce;
pub mod rowops;
mod tensor;

pub use error::TensorError;
pub use init::XavierInit;
pub use linalg::GemmKernel;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Absolute tolerance used by [`Tensor::allclose`] and the test oracles.
pub const DEFAULT_ATOL: f32 = 1e-4;

/// Relative tolerance used by [`Tensor::allclose`] and the test oracles.
pub const DEFAULT_RTOL: f32 = 1e-4;
