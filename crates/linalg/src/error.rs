//! Error type shared by all linear-algebra kernels.

use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra kernels in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    ///
    /// `expected` and `found` are `(rows, cols)` pairs; the `context` names
    /// the operation that failed.
    ShapeMismatch {
        /// Operation that detected the mismatch (e.g. `"matmul"`).
        context: &'static str,
        /// Shape the operation required.
        expected: (usize, usize),
        /// Shape it actually received.
        found: (usize, usize),
    },
    /// A square matrix was required but a rectangular one was supplied.
    NotSquare {
        /// Shape of the offending matrix.
        shape: (usize, usize),
    },
    /// The matrix was singular (or numerically singular) and the requested
    /// factorization or solve cannot proceed.
    Singular {
        /// Operation that detected singularity (e.g. `"lu_solve"`).
        context: &'static str,
    },
    /// A symmetric positive-definite matrix was required (CG), or a
    /// sparse solver's Jacobi preconditioner met an unusable diagonal.
    NotPositiveDefinite {
        /// Pivot index where positive-definiteness failed.
        pivot: usize,
    },
    /// An iterative method did not reach its tolerance.
    NotConverged {
        /// Algorithm that failed to converge (e.g. `"jacobi_eig"`).
        context: &'static str,
        /// Number of iterations or sweeps performed.
        iterations: usize,
    },
    /// The input matrix did not have full column rank where required.
    RankDeficient {
        /// Numerical rank detected.
        rank: usize,
        /// Rank required by the operation.
        required: usize,
    },
    /// An argument was out of its legal range (e.g. `k > n` in a top-k
    /// factorization).
    InvalidArgument {
        /// Human-readable description of the violated precondition.
        context: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "shape mismatch in {context}: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "square matrix required, found {}x{}", shape.0, shape.1)
            }
            LinalgError::Singular { context } => {
                write!(f, "matrix is singular in {context}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::NotConverged {
                context,
                iterations,
            } => write!(
                f,
                "{context} did not converge after {iterations} iterations"
            ),
            LinalgError::RankDeficient { rank, required } => {
                write!(f, "rank deficient: rank {rank} but {required} required")
            }
            LinalgError::InvalidArgument { context } => {
                write!(f, "invalid argument: {context}")
            }
        }
    }
}

impl Error for LinalgError {}

/// Convenience alias used by every fallible function in the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinalgError::ShapeMismatch {
            context: "matmul",
            expected: (2, 3),
            found: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn error_trait_object() {
        fn as_err() -> Box<dyn Error + Send + Sync + 'static> {
            Box::new(LinalgError::Singular { context: "test" })
        }
        assert!(as_err().to_string().contains("singular"));
    }

    #[test]
    fn not_converged_display() {
        let e = LinalgError::NotConverged {
            context: "jacobi_eig",
            iterations: 42,
        };
        assert_eq!(
            e.to_string(),
            "jacobi_eig did not converge after 42 iterations"
        );
    }
}
