//! The one allocating product, kept for the `gnnbench` GEMM probe.
//!
//! Every dense kernel of the workspace calls [`crate::gemm::gemm`] into
//! an output it owns. [`Tensor::matmul_with_threads`] and
//! [`GemmKernel`] stay only because the frozen `src/bin/gnnbench` probe
//! names them; they go when a `benchmark` PR moves the probe onto
//! `gemm::gemm`.

use crate::gemm::{self, pinned_threads, Layout};
use crate::{Result, Tensor, TensorError};

/// Which product [`Tensor::matmul_with_threads`] runs. Kept for the
/// frozen `gnnbench` GEMM probe only, which names it; both arms write the
/// same bits (see the [`crate::gemm`] module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GemmKernel {
    /// The reference loops, [`gemm::naive`] (serial).
    Naive,
    /// The blocked engine, [`gemm::gemm`].
    #[default]
    Blocked,
}

impl Tensor {
    /// Dense matrix product `self[m,k] × other[k,n] → [m,n]` into a new
    /// tensor, by `kernel` under a worker cap (`0` = auto; the cap never
    /// changes results, only how wide the work runs). Kept for the
    /// frozen `gnnbench` GEMM probe only.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `self.cols() ==
    /// other.rows()`.
    pub fn matmul_with_threads(
        &self,
        other: &Tensor,
        kernel: GemmKernel,
        threads: usize,
    ) -> Result<Tensor> {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        let mut out = Tensor::zeros(&[m, n]);
        let (a, b, c) = (self.as_slice(), other.as_slice(), out.as_mut_slice());
        match kernel {
            GemmKernel::Naive => gemm::naive(Layout::Nn, a, b, c, m, k, n),
            GemmKernel::Blocked => {
                let threads = pinned_threads(m * k * n, threads);
                gemm::gemm(Layout::Nn, a, b, c, m, k, n, threads);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let b = Tensor::from_rows(&[&[4.0], &[5.0], &[6.0]]).unwrap();
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            let c = a.matmul_with_threads(&b, kernel, 1).unwrap();
            assert_eq!((c.shape(), c.as_slice()), (&[1, 1][..], &[32.0][..]));
        }
    }

    #[test]
    fn kernels_agree_bitwise_above_the_parallel_threshold() {
        // Big enough to cross the auto-parallel threshold: the blocked
        // engine on every worker count the cap allows and the naive
        // reference agree to the last bit.
        let (m, k, n) = (256, 64, 128);
        let a = Tensor::from_fn(&[m, k], |i| ((i % 13) as f32) - 6.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i % 7) as f32) * 0.25);
        let naive = a.matmul_with_threads(&b, GemmKernel::Naive, 0).unwrap();
        for threads in [0, 1, 2] {
            let blocked = a
                .matmul_with_threads(&b, GemmKernel::Blocked, threads)
                .unwrap();
            assert_eq!(blocked.as_slice(), naive.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn matmul_shape_error() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            assert!(matches!(
                a.matmul_with_threads(&b, kernel, 1),
                Err(TensorError::ShapeMismatch { .. })
            ));
        }
    }
}
