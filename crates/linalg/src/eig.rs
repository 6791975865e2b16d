//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! The Jacobi method is slow for very large matrices but extremely accurate
//! and simple to verify — ideal for the small dense problems this crate
//! actually solves directly (`K × K` Rayleigh–Ritz matrices, covariance
//! matrices of coarse test grids). Large covariances are handled by the
//! randomized projector in [`crate::pca`], which reduces to a small Jacobi
//! problem.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition `A = V Λ Vᵀ`.
///
/// Eigenvalues are sorted in **descending** order (the convention used by
/// the paper: `λ₀ ≥ λ₁ ≥ …`), and `vectors.col(i)` is the eigenvector of
/// `values[i]`.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, matching `values`.
    pub vectors: Matrix,
}

/// Maximum number of cyclic Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

/// Computes the full eigendecomposition of a symmetric matrix.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] if `a` is rectangular.
/// * [`LinalgError::InvalidArgument`] if `a` is not symmetric to a loose
///   tolerance (`1e-8 · ‖A‖_max`).
/// * [`LinalgError::NotConverged`] if the off-diagonal norm fails to reach
///   machine-precision levels in 100 sweeps (does not happen for genuine
///   symmetric input).
///
/// # Examples
///
/// ```
/// use eigenmaps_linalg::{sym_eig, Matrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let eig = sym_eig(&a)?;
/// assert!((eig.values[0] - 3.0).abs() < 1e-12);
/// assert!((eig.values[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn sym_eig(a: &Matrix) -> Result<SymEig> {
    let (n, m) = a.shape();
    if n != m {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    let sym_tol = 1e-8 * a.norm_max().max(1e-300);
    if !a.is_symmetric(sym_tol) {
        return Err(LinalgError::InvalidArgument {
            context: "sym_eig: matrix is not symmetric",
        });
    }
    if n == 0 {
        return Ok(SymEig {
            values: Vec::new(),
            vectors: Matrix::zeros(0, 0),
        });
    }

    let mut w = a.clone();
    // Symmetrize exactly to remove the tolerated asymmetry.
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = 0.5 * (w[(i, j)] + w[(j, i)]);
            w[(i, j)] = avg;
            w[(j, i)] = avg;
        }
    }
    let mut v = Matrix::identity(n);
    let fro = w.norm_fro().max(f64::MIN_POSITIVE);
    let tol = f64::EPSILON * fro;

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0_f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off += w[(i, j)] * w[(i, j)];
            }
        }
        if off.sqrt() <= tol {
            converged = true;
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = w[(p, q)];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = w[(p, p)];
                let aqq = w[(q, q)];
                // Classic stable rotation computation (Golub & Van Loan).
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Update rows/cols p and q of W = JᵀWJ.
                for k in 0..n {
                    let wkp = w[(k, p)];
                    let wkq = w[(k, q)];
                    w[(k, p)] = c * wkp - s * wkq;
                    w[(k, q)] = s * wkp + c * wkq;
                }
                for k in 0..n {
                    let wpk = w[(p, k)];
                    let wqk = w[(q, k)];
                    w[(p, k)] = c * wpk - s * wqk;
                    w[(q, k)] = s * wpk + c * wqk;
                }
                // Accumulate the rotation into V.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    if !converged {
        // One last check: the sweeps may have converged exactly at the
        // boundary iteration.
        let mut off = 0.0_f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off += w[(i, j)] * w[(i, j)];
            }
        }
        if off.sqrt() > tol * 10.0 {
            return Err(LinalgError::NotConverged {
                context: "jacobi_eig",
                iterations: MAX_SWEEPS,
            });
        }
    }

    // Extract eigen pairs and sort descending by value.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| w[(i, i)]).collect();
    order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).expect("NaN eigenvalue"));

    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        for k in 0..n {
            vectors[(k, dst)] = v[(k, src)];
        }
    }
    Ok(SymEig { values, vectors })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, eig: &SymEig) -> f64 {
        // max_i ‖A v_i − λ_i v_i‖∞
        let mut worst = 0.0_f64;
        for (i, &lam) in eig.values.iter().enumerate() {
            let v = eig.vectors.col(i);
            let av = a.matvec(&v).unwrap();
            for k in 0..v.len() {
                worst = worst.max((av[k] - lam * v[k]).abs());
            }
        }
        worst
    }

    #[test]
    fn eig_2x2_known() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = sym_eig(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        assert!(residual(&a, &e) < 1e-12);
    }

    #[test]
    fn eig_diagonal() {
        let a = Matrix::diag(&[5.0, -1.0, 3.0]);
        let e = sym_eig(&a).unwrap();
        assert_eq!(e.values, vec![5.0, 3.0, -1.0]);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_fn(6, 6, |i, j| 1.0 / (1.0 + i as f64 + j as f64));
        let e = sym_eig(&a).unwrap();
        let vtv = e.vectors.tr_matmul(&e.vectors).unwrap();
        let err = vtv.sub(&Matrix::identity(6)).unwrap().norm_max();
        assert!(err < 1e-12, "VᵀV error {err}");
        assert!(residual(&a, &e) < 1e-10);
    }

    #[test]
    fn hilbert_matrix_eigenvalues_positive() {
        // Hilbert matrices are SPD; all eigenvalues must come out positive.
        let a = Matrix::from_fn(8, 8, |i, j| 1.0 / ((i + j + 1) as f64));
        let e = sym_eig(&a).unwrap();
        assert!(e.values.iter().all(|&l| l > 0.0));
        // Descending order.
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn trace_preserved() {
        let a = Matrix::from_fn(5, 5, |i, j| ((i * j) as f64).cos());
        let mut s = a.clone();
        // Symmetrize the generator output.
        for i in 0..5 {
            for j in 0..5 {
                let avg = 0.5 * (a[(i, j)] + a[(j, i)]);
                s[(i, j)] = avg;
            }
        }
        let e = sym_eig(&s).unwrap();
        let trace: f64 = (0..5).map(|i| s[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-10);
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        assert!(sym_eig(&a).is_err());
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            sym_eig(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn empty_matrix() {
        let e = sym_eig(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
    }
}
