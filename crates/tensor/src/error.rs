use std::error::Error;
use std::fmt;

/// Errors produced by tensor operations.
///
/// Every fallible operation names the offending operation so executor-level
/// failures point back at the IR node that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// The operation that was attempted (e.g. `"matmul"`).
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// The provided buffer length does not match the product of the shape.
    LengthMismatch {
        /// Requested shape.
        shape: Vec<usize>,
        /// Length of the provided buffer.
        len: usize,
    },
    /// The operation requires a non-empty tensor.
    Empty {
        /// The operation that was attempted.
        op: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: lhs {lhs:?} vs rhs {rhs:?}")
            }
            TensorError::LengthMismatch { shape, len } => {
                write!(f, "buffer of length {len} does not fit shape {shape:?}")
            }
            TensorError::Empty { op } => write!(f, "{op} requires a non-empty tensor"),
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let e = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: vec![2, 3],
            rhs: vec![4, 5],
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.starts_with("shape mismatch"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
