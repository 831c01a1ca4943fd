use crate::{pool, Result, TensorError, DEFAULT_ATOL, DEFAULT_RTOL};
use std::fmt;

/// Builds a shape vector through the buffer pool (a plain allocation
/// whenever no pool scope is active on this thread).
fn shape_vec(shape: &[usize]) -> Vec<usize> {
    let mut s = pool::take_shape(shape.len());
    s.extend_from_slice(shape);
    s
}

/// A dense, row-major `f32` tensor.
///
/// Most tensors in a GNN workload are 2-D feature matrices `[rows, cols]`
/// (rows = vertices or edges, cols = feature width); the type stores a
/// general shape so multi-head layouts `[n, heads, f]` can be represented,
/// but the 2-D accessors are the primary interface.
///
/// # Allocation
///
/// Construction and `Drop` route the backing buffers through the
/// session buffer pool ([`crate::pool`]) when the current thread is
/// inside an arena scope; otherwise they are ordinary `Vec`s. A pooled
/// buffer may have `capacity() > numel()` — all accessors go through
/// `len`, so the over-allocation is unobservable.
#[derive(PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = pool::take_f32(self.data.len());
        data.extend_from_slice(&self.data);
        Self {
            shape: shape_vec(&self.shape),
            data,
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        // Outside a pool scope `put_*` drops its argument, so this is
        // free; inside one, the buffers are recycled for the next step.
        pool::put_f32(std::mem::take(&mut self.data));
        pool::put_shape(std::mem::take(&mut self.shape));
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
            shape: shape_vec(shape),
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
            shape: shape_vec(shape),
            data,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
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

    /// Creates a 1-D tensor from a slice.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self {
            shape: shape_vec(&[data.len()]),
            data,
        }
    }

    /// Builds a tensor by calling `f(flat_index)` for each element.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let numel: usize = shape.iter().product();
        let mut data = pool::take_f32(numel);
        data.extend((0..numel).map(&mut f));
        Self {
            shape: shape_vec(shape),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of rows (first axis). Zero for rank-0 tensors.
    pub fn rows(&self) -> usize {
        self.shape.first().copied().unwrap_or(0)
    }

    /// Number of columns: the product of all axes after the first.
    ///
    /// A rank-1 tensor is treated as a single row, so `cols` is its length.
    pub fn cols(&self) -> usize {
        if self.shape.len() <= 1 {
            self.shape.first().copied().unwrap_or(0)
        } else {
            self.shape[1..].iter().product()
        }
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

    /// Returns a view of row `i` of a 2-D (or flattened n-d) tensor.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        let c = self.cols_for_rows();
        &self.data[i * c..(i + 1) * c]
    }

    /// Returns a mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let c = self.cols_for_rows();
        &mut self.data[i * c..(i + 1) * c]
    }

    fn cols_for_rows(&self) -> usize {
        if self.shape.len() <= 1 {
            // rank-1: each "row" is a single element
            1
        } else {
            self.shape[1..].iter().product()
        }
    }

    /// Element accessor for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        let cols = self.cols_for_rows();
        self.data[r * cols + c]
    }

    /// Element setter for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        let cols = self.cols_for_rows();
        self.data[r * cols + c] = v;
    }

    /// Reinterprets the tensor with a new shape of identical element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Result<Self> {
        let numel: usize = shape.iter().product();
        if numel != self.data.len() {
            return Err(TensorError::LengthMismatch {
                shape: shape.to_vec(),
                len: self.data.len(),
            });
        }
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        Ok(self)
    }

    /// Selects rows by index, producing a new tensor (a "gather rows").
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for any out-of-range index.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Self> {
        let c = self.cols_for_rows();
        let mut data = pool::take_f32(indices.len() * c);
        for &i in indices {
            if i >= self.rows() {
                return Err(TensorError::IndexOutOfBounds {
                    index: i,
                    len: self.rows(),
                });
            }
            data.extend_from_slice(self.row(i));
        }
        let mut shape = shape_vec(&self.shape);
        shape[0] = indices.len();
        Self::new(&shape, data)
    }

    /// Concatenates two 2-D tensors along the column axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if row counts differ.
    pub fn concat_cols(&self, other: &Tensor) -> Result<Self> {
        if self.rows() != other.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "concat_cols",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let (ca, cb) = (self.cols_for_rows(), other.cols_for_rows());
        let mut data = pool::take_f32(self.rows() * (ca + cb));
        for i in 0..self.rows() {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(other.row(i));
        }
        Self::new(&[self.rows(), ca + cb], data)
    }

    /// Splits a 2-D tensor into two column blocks `[.., 0..split)` and
    /// `[.., split..)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `split > cols`.
    pub fn split_cols(&self, split: usize) -> Result<(Self, Self)> {
        let c = self.cols_for_rows();
        if split > c {
            return Err(TensorError::AxisOutOfRange {
                axis: split,
                rank: c,
            });
        }
        let mut left = pool::take_f32(self.rows() * split);
        let mut right = pool::take_f32(self.rows() * (c - split));
        for i in 0..self.rows() {
            let r = self.row(i);
            left.extend_from_slice(&r[..split]);
            right.extend_from_slice(&r[split..]);
        }
        Ok((
            Self::new(&[self.rows(), split], left)?,
            Self::new(&[self.rows(), c - split], right)?,
        ))
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
    fn eye_diagonal() {
        let t = Tensor::eye(3);
        assert_eq!(t.at(0, 0), 1.0);
        assert_eq!(t.at(1, 2), 0.0);
        assert_eq!(t.numel(), 9);
    }

    #[test]
    fn rows_and_cols() {
        let t = Tensor::zeros(&[4, 2, 3]);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 6);
        assert_eq!(t.row(1).len(), 6);
    }

    #[test]
    fn select_rows_gathers() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let s = t.select_rows(&[2, 0]).unwrap();
        assert_eq!(s.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
        assert!(t.select_rows(&[3]).is_err());
    }

    #[test]
    fn concat_and_split_roundtrip() {
        let a = Tensor::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let b = Tensor::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let c = a.concat_cols(&b).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        let (l, r) = c.split_cols(1).unwrap();
        assert_eq!(l.as_slice(), a.as_slice());
        assert_eq!(r.as_slice(), b.as_slice());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let t = t.reshape(&[2, 2]).unwrap();
        assert_eq!(t.at(1, 0), 3.0);
        assert!(t.clone().reshape(&[3, 2]).is_err());
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
