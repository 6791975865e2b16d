//! Cholesky factorization for symmetric positive-definite matrices.
//!
//! The Gram matrix `Ψ̃ᵀΨ̃` of a full-rank sensing matrix is SPD, and
//! Cholesky is its natural direct solver. (The thermal simulator's sparse
//! SPD systems are solved in the DCT basis instead, in
//! `eigenmaps_thermal`.)

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Lower-triangular Cholesky factor: `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is the caller's responsibility (checked in debug builds).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for rectangular input.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (n, m) = a.shape();
        if n != m {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        debug_assert!(
            a.is_symmetric(1e-8 * a.norm_max().max(1e-300)),
            "Cholesky::new called with an asymmetric matrix"
        );
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Borrows the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len()` differs from the
    /// dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                context: "cholesky solve",
                expected: (n, 1),
                found: (b.len(), 1),
            });
        }
        // L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= self.l[(i, j)] * y[j];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.l[(j, i)] * x[j];
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }

    /// `log(det A)` computed stably from the factor diagonal.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_and_solve() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&[8.0, 7.0]).unwrap();
        // A x = b check
        let ax = a.matvec(&x).unwrap();
        assert!((ax[0] - 8.0).abs() < 1e-12);
        assert!((ax[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn l_times_lt_is_a() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]);
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.l().clone();
        let llt = l.matmul(&l.transpose()).unwrap();
        assert!(llt.sub(&a).unwrap().norm_max() < 1e-12);
    }

    #[test]
    fn indefinite_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, −1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rectangular_rejected() {
        assert!(Cholesky::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn log_det_matches_lu() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let ch = Cholesky::new(&a).unwrap();
        let det = crate::lu::Lu::new(&a).unwrap().det();
        assert!((ch.log_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_shape_mismatch() {
        let a = Matrix::identity(2);
        let ch = Cholesky::new(&a).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }
}
