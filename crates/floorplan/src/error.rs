//! Error type for floorplan modelling and dataset generation.

use std::error::Error;
use std::fmt;

use eigenmaps_core::CoreError;
use eigenmaps_thermal::ThermalError;

/// Errors produced while building floorplans, generating power traces or
/// running the dataset pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum FloorplanError {
    /// A floorplan or builder parameter was invalid.
    InvalidConfig {
        /// Description of the violated constraint.
        context: String,
    },
    /// A power trace had the wrong number of block entries.
    TraceShapeMismatch {
        /// Blocks expected.
        expected: usize,
        /// Entries received.
        found: usize,
    },
    /// The thermal simulator failed.
    Thermal(ThermalError),
    /// A core-algorithm type failed (e.g. building the map ensemble).
    Core(CoreError),
    /// Reading or writing a power-trace file failed.
    Io(std::io::Error),
}

impl fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorplanError::InvalidConfig { context } => {
                write!(f, "invalid floorplan configuration: {context}")
            }
            FloorplanError::TraceShapeMismatch { expected, found } => {
                write!(
                    f,
                    "power trace has {found} entries, floorplan has {expected} blocks"
                )
            }
            FloorplanError::Thermal(e) => write!(f, "thermal simulation failed: {e}"),
            FloorplanError::Core(e) => write!(f, "map ensemble construction failed: {e}"),
            FloorplanError::Io(e) => write!(f, "power-trace file I/O failed: {e}"),
        }
    }
}

impl Error for FloorplanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FloorplanError::Thermal(e) => Some(e),
            FloorplanError::Core(e) => Some(e),
            FloorplanError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ThermalError> for FloorplanError {
    fn from(e: ThermalError) -> Self {
        FloorplanError::Thermal(e)
    }
}

impl From<CoreError> for FloorplanError {
    fn from(e: CoreError) -> Self {
        FloorplanError::Core(e)
    }
}

impl From<std::io::Error> for FloorplanError {
    fn from(e: std::io::Error) -> Self {
        FloorplanError::Io(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, FloorplanError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = FloorplanError::TraceShapeMismatch {
            expected: 17,
            found: 3,
        };
        assert!(e.to_string().contains("17"));
        let e = FloorplanError::InvalidConfig {
            context: "grid too small".into(),
        };
        assert!(e.to_string().contains("grid too small"));
    }

    #[test]
    fn sources_chain() {
        let e = FloorplanError::from(ThermalError::InvalidConfig { context: "x" });
        assert!(e.source().is_some());
        let e = FloorplanError::from(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
    }
}
