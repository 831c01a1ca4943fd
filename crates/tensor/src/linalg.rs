//! Matrix multiplication and transposition.
//!
//! Both dense products (`matmul`, `matmul_tn`) route
//! through the shared engine in [`crate::gemm`]: the register-tiled
//! blocked kernel, or — through the `*_with` entry points only — the
//! naive reference loops the tests compare it against, with the work
//! partitioned over `std::thread::scope` workers (pool size from
//! [`crate::parallel::available_threads`], shared with the `gnnopt-exec`
//! graph kernels) above a work threshold. Both kernels and every thread
//! count produce **bit-identical** results; see the [`crate::gemm`]
//! module docs for why.

use crate::gemm::{gemm, pinned_threads, GemmKernel, Layout};
use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Dense matrix product `self[m,k] × other[k,n] → [m,n]` on the
    /// blocked engine. Every term is accumulated, whatever the zero
    /// density of `self` (this and the transposed product alike): a
    /// zero coefficient against a `NaN`/`±inf` entry yields `NaN`, as IEEE
    /// 754 says, so a diverging operand always shows in the product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `self.cols() ==
    /// other.rows()`.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_with(other, GemmKernel::Blocked)
    }

    /// [`Tensor::matmul`] under an explicit [`GemmKernel`], auto worker
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `self.cols() ==
    /// other.rows()`.
    pub fn matmul_with(&self, other: &Tensor, kernel: GemmKernel) -> Result<Tensor> {
        self.matmul_with_threads(other, kernel, 0)
    }

    /// [`Tensor::matmul`] under an explicit [`GemmKernel`] and worker cap
    /// (how sessions pin both the engine and their resolved
    /// `ExecPolicy::threads`; `0` = auto). The cap never changes results
    /// — partitions are accumulation-free — only how wide the work runs.
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
        gemm(
            kernel,
            Layout::Nn,
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
            pinned_threads(m * k * n, threads),
        );
        Ok(out)
    }

    /// Matrix product with the left operand transposed:
    /// `selfᵀ[k,m] × other[k,n] → [m,n]` where `self` is `[k,m]`… i.e.
    /// computes `Aᵀ B` for `A = self[k,m]`, `B = other[k,n]`.
    ///
    /// Used for weight gradients (`∂L/∂W = Xᵀ · ∂L/∂Y`); parallelized
    /// over output **column blocks** (the output is feature-width sized
    /// while `k` spans the vertex count, so column blocks keep every
    /// worker streaming both operands sequentially).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless row counts match.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_tn_with(other, GemmKernel::Blocked)
    }

    /// [`Tensor::matmul_tn`] under an explicit [`GemmKernel`], auto
    /// worker count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless row counts match.
    pub fn matmul_tn_with(&self, other: &Tensor, kernel: GemmKernel) -> Result<Tensor> {
        self.matmul_tn_with_threads(other, kernel, 0)
    }

    /// [`Tensor::matmul_tn`] under an explicit [`GemmKernel`] and worker
    /// cap (`0` = auto; see [`Tensor::matmul_with_threads`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless row counts match.
    pub fn matmul_tn_with_threads(
        &self,
        other: &Tensor,
        kernel: GemmKernel,
        threads: usize,
    ) -> Result<Tensor> {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        let mut out = Tensor::zeros(&[m, n]);
        gemm(
            kernel,
            Layout::Tn,
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
            pinned_threads(m * k * n, threads),
        );
        Ok(out)
    }

    /// Transposes a 2-D tensor.
    pub fn transpose(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                let v = self.at(i, j);
                out.set(j, i, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let c = a.matmul(&Tensor::eye(2)).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let b = Tensor::from_rows(&[&[4.0], &[5.0], &[6.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[32.0]);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn tn_equals_explicit_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let b = Tensor::from_rows(&[&[1.0], &[0.5], &[-1.0]]).unwrap();
        let via_tn = a.matmul_tn(&b).unwrap();
        let explicit = a.transpose().matmul(&b).unwrap();
        assert!(via_tn.allclose(&explicit));
    }

    #[test]
    fn kernels_agree_bitwise_above_the_parallel_threshold() {
        // Big enough to cross the auto-parallel threshold: the blocked
        // engine, the naive reference and every partition must agree to
        // the last bit.
        let m = 256;
        let k = 64;
        let n = 128;
        let a = Tensor::from_fn(&[m, k], |i| ((i % 13) as f32) - 6.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i % 7) as f32) * 0.25);
        let blocked = a.matmul_with(&b, GemmKernel::Blocked).unwrap();
        let naive = a.matmul_with(&b, GemmKernel::Naive).unwrap();
        assert_eq!(blocked.as_slice(), naive.as_slice());
    }

    #[test]
    fn zero_times_nan_propagates() {
        // A zero coefficient multiplied into a NaN/inf operand must yield
        // NaN in the product (IEEE 754): a silently clean output would
        // mask divergence during training. Every layout and both kernels
        // accumulate every term, so this holds unconditionally.
        let a = Tensor::from_rows(&[&[0.0, 1.0]]).unwrap();
        let b = Tensor::from_rows(&[&[f32::NAN, f32::INFINITY], &[2.0, 3.0]]).unwrap();
        let neg = Tensor::from_rows(&[&[f32::NEG_INFINITY, 1.0], &[2.0, f32::NAN]]).unwrap();
        // A sparse left operand against a finite right one still yields
        // the plain product.
        let sparse = Tensor::from_rows(&[&[0.0, 2.0]]).unwrap();
        let dense = Tensor::from_rows(&[&[5.0, -1.0], &[0.5, 4.0]]).unwrap();
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            let products = |a: &Tensor, b: &Tensor| {
                [
                    ("Nn", a.matmul_with(b, kernel).unwrap()),
                    ("Tn", a.transpose().matmul_tn_with(b, kernel).unwrap()),
                ]
            };
            for (layout, c) in products(&a, &b) {
                assert!(c.at(0, 0).is_nan(), "{layout} {kernel:?}: 0·NaN + finite");
                assert!(c.at(0, 1).is_nan(), "{layout} {kernel:?}: 0·inf + finite");
            }
            for (layout, c) in products(&a, &neg) {
                assert!(c.at(0, 0).is_nan(), "{layout} {kernel:?}: 0·−inf + finite");
                assert!(c.at(0, 1).is_nan(), "{layout} {kernel:?}: 0·1 + 1·NaN");
            }
            for (layout, c) in products(&sparse, &dense) {
                assert_eq!(c.as_slice(), &[1.0, 8.0], "{layout} {kernel:?}");
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_fn(&[3, 5], |i| i as f32);
        assert_eq!(a.transpose().transpose().as_slice(), a.as_slice());
    }
}
