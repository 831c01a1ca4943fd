use gnnopt_core::IrError;
use gnnopt_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Errors raised while executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A required input/parameter binding was not provided.
    MissingBinding(String),
    /// A binding's shape does not match the IR node.
    BindingShape {
        /// Leaf name.
        name: String,
        /// Expected `[rows, cols]`.
        expected: (usize, usize),
        /// Provided shape.
        got: Vec<usize>,
    },
    /// A value needed by a kernel was not live (plan inconsistency).
    ValueNotLive {
        /// Node whose value was missing.
        node: String,
    },
    /// The session is not in the right state for the call.
    Protocol(String),
    /// One of the three environment overrides the builders read
    /// (`GNNOPT_THREADS`, `GNNOPT_GUARD`, `GNNOPT_FAILPOINTS`) holds an
    /// invalid value.
    Policy(String),
    /// Underlying tensor error.
    Tensor(TensorError),
    /// Underlying IR error.
    Ir(IrError),
    /// A worker panicked inside a kernel; the panic was contained at
    /// kernel dispatch and the session is now poisoned.
    KernelPanic {
        /// Human-readable label of the kernel that panicked.
        kernel: String,
        /// Stringified panic payload of the first panicking worker.
        payload: String,
    },
    /// The numeric guard (`GNNOPT_GUARD=1`) found a non-finite value in
    /// a kernel output, localized to the first offending element.
    NonFinite {
        /// Kernel that produced the value.
        kernel: String,
        /// IR node whose output contains the value.
        node: String,
        /// Row of the first non-finite element.
        row: usize,
        /// Column of the first non-finite element.
        col: usize,
    },
    /// The session was poisoned by an earlier contained panic and can
    /// no longer run steps; rebuild it from the same plan.
    Poisoned(String),
    /// A failpoint (`GNNOPT_FAILPOINTS`) injected this error.
    Injected {
        /// Failpoint site that fired.
        site: String,
    },
    /// A halo exchange between shards failed validation.
    Exchange(String),
    /// The input graph failed structural validation.
    Graph(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingBinding(name) => write!(f, "missing binding for leaf '{name}'"),
            ExecError::BindingShape {
                name,
                expected,
                got,
            } => write!(
                f,
                "binding '{name}' has shape {got:?}, expected [{}, {}]",
                expected.0, expected.1
            ),
            ExecError::ValueNotLive { node } => {
                write!(f, "value of node '{node}' is not live (plan inconsistency)")
            }
            ExecError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ExecError::Policy(msg) => write!(f, "execution policy error: {msg}"),
            ExecError::Tensor(e) => write!(f, "tensor error: {e}"),
            ExecError::Ir(e) => write!(f, "ir error: {e}"),
            ExecError::KernelPanic { kernel, payload } => {
                write!(f, "kernel '{kernel}' panicked (session poisoned): {payload}")
            }
            ExecError::NonFinite {
                kernel,
                node,
                row,
                col,
            } => write!(
                f,
                "non-finite value in output of node '{node}' (kernel '{kernel}') at row {row}, col {col}"
            ),
            ExecError::Poisoned(msg) => {
                write!(f, "session poisoned by an earlier kernel panic: {msg}")
            }
            ExecError::Injected { site } => {
                write!(f, "injected fault: error at failpoint '{site}'")
            }
            ExecError::Exchange(msg) => write!(f, "halo exchange error: {msg}"),
            ExecError::Graph(msg) => write!(f, "graph validation error: {msg}"),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Tensor(e) => Some(e),
            ExecError::Ir(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for ExecError {
    fn from(e: TensorError) -> Self {
        ExecError::Tensor(e)
    }
}

impl From<IrError> for ExecError {
    fn from(e: IrError) -> Self {
        ExecError::Ir(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let e = ExecError::MissingBinding("h".into());
        assert!(e.to_string().contains('h'));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ExecError>();
    }

    #[test]
    fn fault_variants_localize() {
        let e = ExecError::NonFinite {
            kernel: "K0 gather".into(),
            node: "v3".into(),
            row: 7,
            col: 2,
        };
        let s = e.to_string();
        assert!(
            s.contains("K0 gather") && s.contains("v3") && s.contains("row 7"),
            "{s}"
        );
        let p = ExecError::KernelPanic {
            kernel: "K1".into(),
            payload: "boom".into(),
        };
        assert!(p.to_string().contains("poisoned"), "{p}");
        assert!(ExecError::Injected {
            site: "refexec".into()
        }
        .to_string()
        .contains("refexec"));
    }
}
