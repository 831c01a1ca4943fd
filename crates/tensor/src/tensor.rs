//! [`Tensor`]: a dense, row-major `f32` matrix `[rows, cols]` whose shape
//! is held inline beside its one heap buffer.

use crate::{pool, Result, TensorError, DEFAULT_ATOL, DEFAULT_RTOL};
use std::fmt;

/// Folds a shape to `[first axis, product of the rest]`; a single axis
/// `[n]` is one row `[1, n]`, and no axis one element `[1, 1]`.
fn fold(shape: &[usize]) -> [usize; 2] {
    match shape {
        [] => [1, 1],
        [n] => [1, *n],
        [rows, rest @ ..] => [*rows, rest.iter().product()],
    }
}

/// A dense, row-major `f32` matrix `[rows, cols]`.
///
/// Every tensor in a GNN workload is a 2-D feature matrix (rows =
/// vertices, edges or parameter rows, cols = feature width; attention
/// heads live in the IR's `Dim`, not in a tensor's rank). Constructors
/// take any shape and fold it ([`Tensor::shape`]), and the shape is held
/// inline, so a tensor owns exactly one heap buffer: its data.
///
/// # Allocation
///
/// Construction and `Drop` route the data buffer through the session
/// buffer pool ([`crate::pool`]) when the current thread is inside an
/// arena scope; otherwise it is an ordinary `Vec`. A pooled buffer may
/// have `capacity() > numel()` — all accessors go through `len`, so the
/// over-allocation is unobservable.
#[derive(PartialEq)]
pub struct Tensor {
    shape: [usize; 2],
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = pool::take_f32(self.data.len());
        data.extend_from_slice(&self.data);
        Self {
            shape: self.shape,
            data,
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        // Outside a pool scope `put_f32` drops its argument, so this is
        // free; inside one, the buffer is recycled for the next step.
        pool::put_f32(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Creates a tensor from a shape and a backing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the product of `shape`.
    pub fn new(shape: &[usize], data: Vec<f32>) -> Result<Self> {
        let numel: usize = shape.iter().product();
        if numel != data.len() {
            return Err(TensorError::LengthMismatch {
                shape: shape.to_vec(),
                len: data.len(),
            });
        }
        Ok(Self {
            shape: fold(shape),
            data,
        })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel: usize = shape.iter().product();
        let mut data = pool::take_f32(numel);
        data.resize(numel, value);
        Self {
            shape: fold(shape),
            data,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a 2-D tensor from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the rows have unequal
    /// lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self> {
        let cols = rows.first().map_or(0, |r| r.len());
        let mut data = pool::take_f32(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "from_rows",
                    lhs: vec![rows.len(), cols],
                    rhs: vec![r.len()],
                });
            }
            data.extend_from_slice(r);
        }
        Self::new(&[rows.len(), cols], data)
    }

    /// Creates a one-row tensor `[1, data.len()]`.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self {
            shape: [1, data.len()],
            data,
        }
    }

    /// Builds a tensor by calling `f(flat_index)` for each element.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let numel: usize = shape.iter().product();
        let mut data = pool::take_f32(numel);
        data.extend((0..numel).map(&mut f));
        Self {
            shape: fold(shape),
            data,
        }
    }

    /// The tensor's shape, always `[rows, cols]`: a shape given with more
    /// than two axes folds to `[first axis, product of the rest]`, one
    /// axis `[n]` to one row `[1, n]`.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.shape[0]
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.shape[1]
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size of the tensor's payload in bytes.
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Borrows the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        let c = self.cols();
        &self.data[i * c..(i + 1) * c]
    }

    /// Returns a mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols() + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        let cols = self.cols();
        self.data[r * cols + c] = v;
    }

    /// True if every element of `self` and `other` is within
    /// `atol + rtol * |other|`.
    pub fn allclose_with(&self, other: &Tensor, atol: f32, rtol: f32) -> bool {
        if self.shape != other.shape {
            return false;
        }
        self.data
            .iter()
            .zip(&other.data)
            .all(|(a, b)| (a - b).abs() <= atol + rtol * b.abs())
    }

    /// [`Tensor::allclose_with`] using the crate default tolerances.
    pub fn allclose(&self, other: &Tensor) -> bool {
        self.allclose_with(other, DEFAULT_ATOL, DEFAULT_RTOL)
    }

    /// Maximum absolute elementwise difference; `f32::INFINITY` on shape
    /// mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        if self.shape != other.shape {
            return f32::INFINITY;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_checks_length() {
        assert!(Tensor::new(&[2, 3], vec![0.0; 6]).is_ok());
        assert!(matches!(
            Tensor::new(&[2, 3], vec![0.0; 5]),
            Err(TensorError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn rows_and_cols() {
        let t = Tensor::zeros(&[4, 2, 3]);
        assert_eq!(t.shape(), &[4, 6], "trailing axes fold into the columns");
        assert_eq!((t.rows(), t.cols()), (4, 6));
        assert_eq!(t.row(1).len(), 6);
    }

    /// Every constructor yields the 2-D contract: a `[rows, cols]` shape
    /// whose rows tile the data exactly.
    #[test]
    fn every_constructor_is_rows_by_cols() {
        let made = [
            Tensor::new(&[2, 3], vec![0.0; 6]).unwrap(),
            Tensor::new(&[4], vec![0.0; 4]).unwrap(),
            Tensor::zeros(&[3, 2, 2]),
            Tensor::zeros(&[]),
            Tensor::full(&[5], 2.0),
            Tensor::ones(&[0, 7]),
            Tensor::from_fn(&[3, 4], |i| i as f32),
            Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap(),
            Tensor::from_vec(vec![1.0, 2.0, 3.0]),
            Tensor::from_vec(vec![1.0, 2.0, 3.0]).clone(),
            Tensor::default(),
        ];
        for t in &made {
            assert_eq!(t.shape().len(), 2, "{t:?}");
            assert_eq!(t.rows() * t.cols(), t.numel(), "{t:?}");
            for i in 0..t.rows() {
                assert_eq!(t.row(i).len(), t.cols(), "{t:?} row {i}");
            }
        }
        assert_eq!(made[8].shape(), &[1, 3], "one axis is one row");
    }

    #[test]
    fn allclose_tolerates_small_noise() {
        let a = Tensor::from_vec(vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![1.0 + 1e-6, 2.0 - 1e-6]);
        assert!(a.allclose(&b));
        let c = Tensor::from_vec(vec![1.1, 2.0]);
        assert!(!a.allclose(&c));
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", Tensor::default()).is_empty());
    }
}
