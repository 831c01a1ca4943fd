//! Reductions and row-wise softmax.

use crate::{Result, Tensor, TensorError};

impl Tensor {
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
        let shifted = Tensor::from_fn(a.shape(), |i| a.as_slice()[i] + 100.0);
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
}
