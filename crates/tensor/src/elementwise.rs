//! Elementwise unary and binary operations with row-broadcast support.
//!
//! Broadcasting rules (deliberately narrow — exactly what GNN kernels need):
//! `[r, c] ⊕ [r, c]`, `[r, c] ⊕ [c]` (per-row vector), `[r, c] ⊕ [r, 1]`
//! (per-row scalar), and `[r, c] ⊕ scalar`.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::new(
            self.shape(),
            self.as_slice().iter().map(|&x| f(x)).collect(),
        )
        .expect("map preserves shape")
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.as_mut_slice() {
            *x = f(*x);
        }
    }

    /// Elementwise combination of two same-shape tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        Tensor::new(
            self.shape(),
            self.as_slice()
                .iter()
                .zip(other.as_slice())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }

    /// Binary op with broadcasting (see module docs).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `other` matches none of the
    /// supported broadcast patterns.
    pub fn broadcast_op(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape() == other.shape() {
            return self.zip_map(other, f);
        }
        let (r, c) = (self.rows(), self.cols());
        let mut out = self.clone();
        if other.shape() == [c] || (other.shape().len() == 2 && other.shape() == [1, c]) {
            let v = other.as_slice();
            for i in 0..r {
                for (x, &b) in out.row_mut(i).iter_mut().zip(v) {
                    *x = f(*x, b);
                }
            }
            return Ok(out);
        }
        if other.shape() == [r, 1] || other.shape() == [r] {
            let v = other.as_slice();
            for (i, &b) in v.iter().enumerate().take(r) {
                for x in out.row_mut(i) {
                    *x = f(*x, b);
                }
            }
            return Ok(out);
        }
        if other.numel() == 1 {
            let b = other.as_slice()[0];
            out.map_inplace(|x| f(x, b));
            return Ok(out);
        }
        Err(TensorError::ShapeMismatch {
            op: "broadcast_op",
            lhs: self.shape().to_vec(),
            rhs: other.shape().to_vec(),
        })
    }

    /// Elementwise (broadcasting) addition.
    ///
    /// # Errors
    ///
    /// See [`Tensor::broadcast_op`].
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_op(other, |a, b| a + b)
    }

    /// Elementwise (broadcasting) subtraction.
    ///
    /// # Errors
    ///
    /// See [`Tensor::broadcast_op`].
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_op(other, |a, b| a - b)
    }

    /// Elementwise (broadcasting) multiplication.
    ///
    /// # Errors
    ///
    /// See [`Tensor::broadcast_op`].
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_op(other, |a, b| a * b)
    }

    /// Elementwise (broadcasting) maximum.
    ///
    /// # Errors
    ///
    /// See [`Tensor::broadcast_op`].
    pub fn maximum(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_op(other, f32::max)
    }

    /// Elementwise (broadcasting) minimum.
    ///
    /// # Errors
    ///
    /// See [`Tensor::broadcast_op`].
    pub fn minimum(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_op(other, f32::min)
    }

    /// Adds `other * alpha` into `self` in place (same shape only).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy_inplace(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "axpy_inplace",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Leaky rectified linear unit with the given negative slope.
    pub fn leaky_relu(&self, slope: f32) -> Tensor {
        self.map(|x| if x >= 0.0 { x } else { slope * x })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.map(|x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|x| -x)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2() -> Tensor {
        Tensor::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]).unwrap()
    }

    #[test]
    fn add_same_shape() {
        let a = t2();
        let b = a.add(&a).unwrap();
        assert_eq!(b.as_slice(), &[2.0, -4.0, 6.0, -8.0]);
    }

    #[test]
    fn broadcast_row_vector() {
        let a = t2();
        let v = Tensor::from_vec(vec![10.0, 20.0]);
        let b = a.add(&v).unwrap();
        assert_eq!(b.as_slice(), &[11.0, 18.0, 13.0, 16.0]);
    }

    #[test]
    fn broadcast_column() {
        let a = t2();
        let v = Tensor::new(&[2, 1], vec![1.0, -1.0]).unwrap();
        let b = a.add(&v).unwrap();
        assert_eq!(b.as_slice(), &[2.0, -1.0, 2.0, -5.0]);
    }

    #[test]
    fn broadcast_scalar() {
        let a = t2();
        let s = Tensor::from_vec(vec![0.5]);
        let b = a.mul(&s).unwrap();
        assert_eq!(b.as_slice(), &[0.5, -1.0, 1.5, -2.0]);
    }

    #[test]
    fn mismatch_is_error() {
        let a = t2();
        let bad = Tensor::zeros(&[3, 3]);
        assert!(a.add(&bad).is_err());
    }

    #[test]
    fn leaky_relu_negative_slope() {
        let a = t2();
        let b = a.leaky_relu(0.1);
        assert_eq!(b.as_slice(), &[1.0, -0.2, 3.0, -0.4]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t2();
        let b = t2();
        a.axpy_inplace(2.0, &b).unwrap();
        assert_eq!(a.as_slice(), &[3.0, -6.0, 9.0, -12.0]);
    }

    #[test]
    fn sigmoid_bounds() {
        let s = t2().sigmoid();
        assert!(s.as_slice().iter().all(|&x| x > 0.0 && x < 1.0));
    }
}
