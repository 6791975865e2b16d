//! Error type for the EigenMaps algorithms.

use std::error::Error;
use std::fmt;

use eigenmaps_linalg::LinalgError;

/// Errors produced by basis extraction, sensor allocation and thermal-map
/// reconstruction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// An argument violated a documented precondition.
    InvalidArgument {
        /// Description of the violated precondition.
        context: &'static str,
    },
    /// Shapes of maps / bases / sensor sets disagree.
    ShapeMismatch {
        /// Operation that detected the mismatch.
        context: &'static str,
        /// Expected length or count.
        expected: usize,
        /// Received length or count.
        found: usize,
    },
    /// Reconstruction requires at least as many sensors as basis vectors
    /// (`M ≥ K`, Theorem 1).
    InsufficientSensors {
        /// Sensors available.
        sensors: usize,
        /// Basis dimension.
        basis_dim: usize,
    },
    /// The sensing matrix `Ψ̃_K` lost rank — the sensor layout cannot
    /// observe the full subspace.
    SensingRankDeficient {
        /// Numerical rank of the sensing matrix.
        rank: usize,
        /// Required rank (`K`).
        required: usize,
    },
    /// A location constraint mask left fewer allowed cells than sensors
    /// requested.
    MaskTooRestrictive {
        /// Cells the mask allows.
        allowed: usize,
        /// Sensors requested.
        requested: usize,
    },
    /// A deployment artifact could not be written, read or parsed.
    Persist {
        /// What went wrong.
        context: &'static str,
    },
    /// A forced synthesis-kernel backend cannot run on this host (see
    /// [`crate::kernel::KernelKind::is_available`]).
    KernelUnavailable {
        /// Name of the requested backend (`"avx2"`, ...).
        kernel: &'static str,
    },
    /// A sensor reading was NaN or ±∞. Reconstruction refuses it rather
    /// than let it spread into every cell of the map (and, for a
    /// tracker, into its filter state).
    NonFiniteReading {
        /// Index of the offending frame within the call (0 for a single
        /// reading vector).
        frame: usize,
        /// Index of the first non-finite reading within that frame.
        sensor: usize,
    },
    /// A frame's coefficients would synthesize a map with an infinite
    /// (or NaN) cell: finite but enormous readings, or a non-finite
    /// coefficient. Refused before synthesis, so no such map (and, for a
    /// tracker, no such filter state) is ever produced.
    ReconstructionOverflow {
        /// Index of the offending frame within the call (0 for a single
        /// reading or coefficient vector).
        frame: usize,
    },
    /// An inner linear-algebra kernel failed.
    Linalg(LinalgError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidArgument { context } => write!(f, "invalid argument: {context}"),
            CoreError::ShapeMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "shape mismatch in {context}: expected {expected}, found {found}"
            ),
            CoreError::InsufficientSensors { sensors, basis_dim } => write!(
                f,
                "reconstruction needs at least {basis_dim} sensors (M >= K), only {sensors} given"
            ),
            CoreError::SensingRankDeficient { rank, required } => write!(
                f,
                "sensing matrix is rank deficient: rank {rank}, required {required}"
            ),
            CoreError::MaskTooRestrictive { allowed, requested } => write!(
                f,
                "mask allows only {allowed} cells but {requested} sensors requested"
            ),
            CoreError::Persist { context } => {
                write!(f, "deployment persistence failure: {context}")
            }
            CoreError::KernelUnavailable { kernel } => {
                write!(
                    f,
                    "synthesis kernel '{kernel}' is not available on this host"
                )
            }
            CoreError::NonFiniteReading { frame, sensor } => {
                write!(f, "non-finite reading at frame {frame}, sensor {sensor}")
            }
            CoreError::ReconstructionOverflow { frame } => {
                write!(f, "frame {frame} would reconstruct a non-finite map")
            }
            CoreError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_numbers() {
        let e = CoreError::InsufficientSensors {
            sensors: 3,
            basis_dim: 8,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('8'));
    }

    #[test]
    fn linalg_source_preserved() {
        let e = CoreError::from(LinalgError::Singular { context: "qr" });
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
