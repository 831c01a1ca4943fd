//! Reductions and row-wise softmax.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Sum of every element.
    pub fn sum_all(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of every element; `0.0` for an empty tensor.
    pub fn mean_all(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum_all() / self.numel() as f32
        }
    }

    /// Sums over rows, producing a `[cols]` vector
    /// (`axis = 0` reduction of a 2-D tensor).
    pub fn sum_rows(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = vec![0.0; c];
        for i in 0..r {
            for (o, &x) in out.iter_mut().zip(self.row(i)) {
                *o += x;
            }
        }
        Tensor::from_vec(out)
    }

    /// Sums each row, producing a `[rows, 1]` column.
    pub fn sum_cols(&self) -> Tensor {
        let r = self.rows();
        let mut out = Vec::with_capacity(r);
        for i in 0..r {
            out.push(self.row(i).iter().sum());
        }
        Tensor::new(&[r, 1], out).expect("shape is consistent")
    }

    /// Row-wise maximum: values `[rows, 1]` and argmax column indices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] if the tensor has zero columns.
    pub fn max_cols(&self) -> Result<(Tensor, Vec<usize>)> {
        let (r, c) = (self.rows(), self.cols());
        if c == 0 {
            return Err(TensorError::Empty { op: "max_cols" });
        }
        let mut vals = Vec::with_capacity(r);
        let mut idxs = Vec::with_capacity(r);
        for i in 0..r {
            let row = self.row(i);
            let (mut best, mut bi) = (row[0], 0);
            for (j, &x) in row.iter().enumerate().skip(1) {
                if x > best {
                    best = x;
                    bi = j;
                }
            }
            vals.push(best);
            idxs.push(bi);
        }
        Ok((Tensor::new(&[r, 1], vals)?, idxs))
    }

    /// Row-wise argmax indices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] if the tensor has zero columns.
    pub fn argmax_cols(&self) -> Result<Vec<usize>> {
        Ok(self.max_cols()?.1)
    }

    /// Numerically-stable row-wise softmax.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] if the tensor has zero columns.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        let (r, c) = (self.rows(), self.cols());
        if c == 0 {
            return Err(TensorError::Empty { op: "softmax_rows" });
        }
        let mut out = self.clone();
        for i in 0..r {
            let row = out.row_mut(i);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for x in row.iter_mut() {
                *x = (*x - m).exp();
                denom += *x;
            }
            for x in row.iter_mut() {
                *x /= denom;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tensor {
        Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 6.0, 5.0]]).unwrap()
    }

    #[test]
    fn sums() {
        assert_eq!(t().sum_all(), 21.0);
        assert_eq!(t().sum_rows().as_slice(), &[5.0, 8.0, 8.0]);
        assert_eq!(t().sum_cols().as_slice(), &[6.0, 15.0]);
    }

    #[test]
    fn max_and_argmax() {
        let (vals, idx) = t().max_cols().unwrap();
        assert_eq!(vals.as_slice(), &[3.0, 6.0]);
        assert_eq!(idx, vec![2, 1]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let s = t().softmax_rows().unwrap();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = t();
        let shifted = a.map(|x| x + 100.0);
        assert!(a
            .softmax_rows()
            .unwrap()
            .allclose(&shifted.softmax_rows().unwrap()));
    }

    #[test]
    fn empty_cols_error() {
        let e = Tensor::zeros(&[3, 0]);
        assert!(e.max_cols().is_err());
        assert!(e.softmax_rows().is_err());
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Tensor::zeros(&[0]).mean_all(), 0.0);
    }
}
