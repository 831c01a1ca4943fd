//! Training substrate: losses, optimizers and an epoch driver.
//!
//! The paper's end-to-end numbers (Figure 7) are *training* iterations —
//! forward, loss, backward, parameter update — so this crate closes the
//! loop around `gnnopt-exec`: [`softmax_cross_entropy`] produces the
//! `∂L/∂output` seed the backward pass needs, and [`Trainer`] drives
//! `forward → loss → backward → optimizer` epochs over any compiled plan.

mod loss;
mod optim;
mod trainer;

pub use loss::{accuracy, accuracy_masked, softmax_cross_entropy, softmax_cross_entropy_masked};
pub use optim::{clip_grad_norm, Adam, Optimizer, Sgd};
pub use trainer::{StepReport, Trainer};

/// Crate-wide result alias (training reuses the executor's error type).
pub type Result<T> = std::result::Result<T, gnnopt_exec::ExecError>;
