//! Dense and sparse linear-algebra kernels for the EigenMaps reproduction.
//!
//! The EigenMaps pipeline needs a specific, fairly narrow slice of numerical
//! linear algebra, all of which is implemented here from scratch on top of
//! `std` (no BLAS/LAPACK bindings, no `nalgebra`):
//!
//! * [`Matrix`] — dense row-major matrices (row selection is free, which the
//!   sensing matrix `Ψ̃_K` relies on);
//! * [`Qr`]/[`lstsq`] — Householder QR and backward-stable least squares
//!   (the reconstruction step of Theorem 1);
//! * [`sym_eig`] — cyclic Jacobi symmetric eigendecomposition;
//! * [`Svd`]/[`cond`] — one-sided Jacobi SVD; `κ₂` is the sensor-placement
//!   figure of merit;
//! * [`Pca`] — randomized top-K covariance eigenanalysis (the EigenMaps
//!   basis itself);
//! * [`dct`] — orthonormal DCT-II bases with zigzag ordering (the k-LSE
//!   baseline subspace);
//! * [`sparse`] — CSR matrices, the banded Cholesky factor that the
//!   thermal simulator's implicit stepper solves with, and preconditioned
//!   CG/BiCGSTAB;
//! * [`Lu`], [`Cholesky`] — direct dense solvers.
//!
//! # Examples
//!
//! Reconstructing a field from point samples, the core EigenMaps operation:
//!
//! ```
//! use eigenmaps_linalg::{lstsq, Matrix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 2-column basis over 4 locations, sampled at rows {0, 2, 3}.
//! let basis = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 0.5], &[0.0, 1.0], &[1.0, 1.0]]);
//! let sensing = basis.select_rows(&[0, 2, 3])?;
//! let readings = [2.0, 3.0, 5.0]; // = basis rows · α for α = (2, 3)
//! let alpha = lstsq(&sensing, &readings)?;
//! let full_field = basis.matvec(&alpha)?;
//! assert!((full_field[1] - 2.5).abs() < 1e-12); // recovered unsampled cell
//! # Ok(())
//! # }
//! ```

// Dense numeric kernels mix indexed access to `Matrix` entries and slice
// elements within one loop; rewriting those as iterator chains would
// obscure the textbook algorithms they implement.
#![allow(clippy::needless_range_loop)]

pub mod chol;
pub mod dct;
mod dispatch;
pub mod eig;
pub mod error;
pub mod lu;
pub mod matrix;
pub mod pca;
pub mod qr;
pub mod sparse;
pub mod svd;
pub mod vecops;

pub use chol::Cholesky;
pub use eig::{sym_eig, sym_eig_topk, SymEig};
pub use error::{LinalgError, Result};
pub use lu::{solve, Lu};
pub use matrix::Matrix;
pub use pca::{Pca, PcaOptions};
pub use qr::{lstsq, orthonormalize, Qr};
pub use svd::{cond, rank, singular_values, Svd};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::chol::Cholesky;
    pub use crate::dct::{dct2_basis, dct2_lowpass, dct_matrix, zigzag_order};
    pub use crate::eig::{sym_eig, sym_eig_topk, SymEig};
    pub use crate::error::{LinalgError, Result};
    pub use crate::lu::{solve, Lu};
    pub use crate::matrix::Matrix;
    pub use crate::pca::{Pca, PcaOptions};
    pub use crate::qr::{lstsq, orthonormalize, Qr};
    pub use crate::sparse::{
        bicgstab_solve, cg_solve, BandCholesky, CgOptions, CgSolution, CsrMatrix, TripletBuilder,
    };
    pub use crate::svd::{cond, rank, singular_values, Svd};
    pub use crate::vecops;
}
