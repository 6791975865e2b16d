//! Singular value decomposition via the one-sided Jacobi (Hestenes) method,
//! plus the condition-number helpers that drive sensor allocation.
//!
//! The paper's sensor-allocation criterion (Theorem 1) is the condition
//! number `κ(Ψ̃_K)` of the `M × K` sensing matrix, with `M, K ≤ ~64` — small
//! dense problems where one-sided Jacobi is both simple and highly accurate
//! (it computes tiny singular values to high relative accuracy, exactly what
//! a condition-number estimate needs).

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::vecops;

/// Thin singular value decomposition `A = U Σ Vᵀ`.
///
/// For an `m × n` input with `m ≥ n`: `u` is `m × n` with orthonormal
/// columns, `s` holds the `n` singular values in descending order, and `vt`
/// is `n × n` orthogonal. Inputs with `m < n` are handled by transposition.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (thin).
    pub u: Matrix,
    /// Singular values, descending, all non-negative.
    pub s: Vec<f64>,
    /// Transposed right singular vectors.
    pub vt: Matrix,
}

const MAX_SWEEPS: usize = 60;

impl Svd {
    /// Computes the thin SVD of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotConverged`] if the Jacobi sweeps fail to
    /// orthogonalize the columns (not observed for finite input).
    ///
    /// # Examples
    ///
    /// ```
    /// use eigenmaps_linalg::{Matrix, Svd};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0], &[0.0, 0.0]]);
    /// let svd = Svd::new(&a)?;
    /// assert!((svd.s[0] - 4.0).abs() < 1e-12);
    /// assert!((svd.s[1] - 3.0).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m >= n {
            Self::tall(a)
        } else {
            // SVD(Aᵀ) = V Σ Uᵀ — swap factors.
            let t = Self::tall(&a.transpose())?;
            Ok(Svd {
                u: t.vt.transpose(),
                s: t.s,
                vt: t.u.transpose(),
            })
        }
    }

    /// One-sided Jacobi on a tall (or square) matrix.
    fn tall(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        debug_assert!(m >= n);
        // Work on the columns of W; accumulate the rotations in V. Both
        // are column-major (V starts as the identity either way).
        let mut w = a.transpose().into_vec();
        let mut v = Matrix::identity(n).into_vec();
        let order = jacobi_columns(&mut w, m, n, a.norm_max(), Some(&mut v))?;

        let mut u = Matrix::zeros(m, n);
        let mut vt = Matrix::zeros(n, n);
        let mut s = Vec::with_capacity(n);
        for (dst, &(sigma, src)) in order.iter().enumerate() {
            s.push(sigma);
            let w_src = &w[src * m..(src + 1) * m];
            if sigma > 0.0 {
                for (i, &wi) in w_src.iter().enumerate() {
                    u[(i, dst)] = wi / sigma;
                }
            } else {
                // Null direction (and the zero matrix's canonical
                // factors): a unit column; callers treat rank via
                // `rank()`. Still record V.
                u[(dst.min(m - 1), dst)] = 1.0;
            }
            vt.row_mut(dst).copy_from_slice(&v[src * n..(src + 1) * n]);
        }
        Ok(Svd { u, s, vt })
    }

    /// Largest singular value (the spectral norm). Zero for empty input.
    pub fn sigma_max(&self) -> f64 {
        self.s.first().copied().unwrap_or(0.0)
    }

    /// Smallest singular value. Zero for empty input.
    pub fn sigma_min(&self) -> f64 {
        self.s.last().copied().unwrap_or(0.0)
    }

    /// 2-norm condition number `κ₂ = σ_max / σ_min`.
    ///
    /// Returns `f64::INFINITY` when the matrix is rank deficient
    /// (`σ_min = 0`).
    pub fn cond(&self) -> f64 {
        let smin = self.sigma_min();
        if smin == 0.0 {
            f64::INFINITY
        } else {
            self.sigma_max() / smin
        }
    }

    /// Numerical rank: number of singular values above
    /// `σ_max · max(m, n) · ε`.
    pub fn rank(&self) -> usize {
        let (m, n) = self.u.shape();
        let tol = self.sigma_max() * (m.max(n).max(1) as f64) * f64::EPSILON;
        self.s.iter().filter(|&&x| x > tol).count()
    }

    /// Reassembles `U Σ Vᵀ` (mainly for tests and diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        let mut us = self.u.clone();
        for j in 0..self.s.len() {
            for i in 0..us.rows() {
                us[(i, j)] *= self.s[j];
            }
        }
        us.matmul(&self.vt).expect("shape invariant")
    }
}

/// The singular values of `a`, descending: bit for bit
/// `Svd::new(a)?.s`, for a fraction of the cost.
///
/// It runs [`Svd::new`]'s Jacobi sweeps without accumulating `V` or
/// forming `U`.
///
/// # Errors
///
/// Returns [`LinalgError::NotConverged`] exactly when [`Svd::new`] does.
pub fn singular_values(a: &Matrix) -> Result<Vec<f64>> {
    let (m, n) = a.shape();
    // The columns of the orientation `Svd::new` factors, one after
    // another: `a`'s columns when `m ≥ n`, else the columns of `aᵀ`.
    let (m, n, mut w) = if m >= n {
        (m, n, a.transpose().into_vec())
    } else {
        (n, m, a.as_slice().to_vec())
    };
    let order = jacobi_columns(&mut w, m, n, a.norm_max(), None)?;
    Ok(order.into_iter().map(|(sigma, _)| sigma).collect())
}

/// One-sided Jacobi sweeps over the `n` length-`m` columns of `w`
/// (column-major, `m ≥ n`) until no pair needs a rotation, applying each
/// rotation to the columns of `v` (`n × n`, column-major) too when
/// given. Returns `(‖w_j‖₂, j)` sorted by descending norm.
fn jacobi_columns(
    w: &mut [f64],
    m: usize,
    n: usize,
    scale: f64,
    mut v: Option<&mut [f64]>,
) -> Result<Vec<(f64, usize)>> {
    let tol = f64::EPSILON * (m as f64).sqrt();
    // Columns whose norm has collapsed to roundoff level are exact
    // zeros for our purposes; rotating against them cycles forever
    // because the correlation *ratio* of pure noise stays O(1).
    let dead = scale * f64::EPSILON * (m.max(n) as f64);
    let dead_sq = dead * dead;

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (wp, wq) = column_pair(w, m, p, q);
                // Gram entries of the column pair.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for (&wip, &wiq) in wp.iter().zip(wq.iter()) {
                    app += wip * wip;
                    aqq += wiq * wiq;
                    apq += wip * wiq;
                }
                if app <= dead_sq || aqq <= dead_sq {
                    continue;
                }
                if apq.abs() <= tol * (app * aqq).sqrt() {
                    continue;
                }
                rotated = true;
                // Jacobi rotation that zeroes the (p,q) Gram entry.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                rotate(wp, wq, c, s);
                if let Some(v) = v.as_deref_mut() {
                    let (vp, vq) = column_pair(v, n, p, q);
                    rotate(vp, vq, c, s);
                }
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::NotConverged {
            context: "jacobi_svd",
            iterations: MAX_SWEEPS,
        });
    }

    // Column norms are the singular values.
    let mut order: Vec<(f64, usize)> = (0..n)
        .map(|j| (vecops::norm2(&w[j * m..(j + 1) * m]), j))
        .collect();
    order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN singular value"));
    Ok(order)
}

/// Columns `p < q` of the column-major `data` with columns of length `m`.
fn column_pair(data: &mut [f64], m: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (head, tail) = data.split_at_mut(q * m);
    (&mut head[p * m..(p + 1) * m], &mut tail[..m])
}

/// `(x_p, x_q) ← (c·x_p − s·x_q, s·x_p + c·x_q)`, element by element.
fn rotate(xp: &mut [f64], xq: &mut [f64], c: f64, s: f64) {
    for (xip, xiq) in xp.iter_mut().zip(xq.iter_mut()) {
        let (x, y) = (*xip, *xiq);
        *xip = c * x - s * y;
        *xiq = s * x + c * y;
    }
}

/// Condition number `κ₂(A)` of an arbitrary dense matrix.
///
/// This is the figure of merit the greedy sensor-allocation algorithm
/// minimizes (Sec. 3.3 of the paper).
///
/// # Errors
///
/// Propagates [`Svd::new`] errors.
pub fn cond(a: &Matrix) -> Result<f64> {
    let s = singular_values(a)?;
    let (max, min) = (
        s.first().copied().unwrap_or(0.0),
        s.last().copied().unwrap_or(0.0),
    );
    Ok(if min == 0.0 { f64::INFINITY } else { max / min })
}

/// Numerical rank of a dense matrix via SVD.
///
/// # Errors
///
/// Propagates [`Svd::new`] errors.
pub fn rank(a: &Matrix) -> Result<usize> {
    Ok(Svd::new(a)?.rank())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-sided Jacobi indexing the row-major `W` and `V` directly: the
    /// bitwise oracle for `Svd::tall`.
    fn oracle_tall(a: &Matrix) -> Result<Svd> {
        let (m, n) = a.shape();
        debug_assert!(m >= n);
        if n == 0 {
            return Ok(Svd {
                u: Matrix::zeros(m, 0),
                s: Vec::new(),
                vt: Matrix::zeros(0, 0),
            });
        }
        // Work on columns of W; accumulate rotations in V.
        let mut w = a.clone();
        let mut v = Matrix::identity(n);

        let scale = a.norm_max();
        if scale == 0.0 {
            // Zero matrix: all singular values zero, pick canonical factors.
            let mut u = Matrix::zeros(m, n);
            for j in 0..n {
                u[(j, j)] = 1.0;
            }
            return Ok(Svd {
                u,
                s: vec![0.0; n],
                vt: Matrix::identity(n),
            });
        }
        let tol = f64::EPSILON * (m as f64).sqrt();
        // Columns whose norm has collapsed to roundoff level are exact
        // zeros for our purposes; rotating against them cycles forever
        // because the correlation *ratio* of pure noise stays O(1).
        let dead = scale * f64::EPSILON * (m.max(n) as f64);
        let dead_sq = dead * dead;

        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            let mut rotated = false;
            for p in 0..n {
                for q in (p + 1)..n {
                    // Gram entries of the column pair.
                    let mut app = 0.0;
                    let mut aqq = 0.0;
                    let mut apq = 0.0;
                    for i in 0..m {
                        let wip = w[(i, p)];
                        let wiq = w[(i, q)];
                        app += wip * wip;
                        aqq += wiq * wiq;
                        apq += wip * wiq;
                    }
                    if app <= dead_sq || aqq <= dead_sq {
                        continue;
                    }
                    if apq.abs() <= tol * (app * aqq).sqrt() {
                        continue;
                    }
                    rotated = true;
                    // Jacobi rotation that zeroes the (p,q) Gram entry.
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for i in 0..m {
                        let wip = w[(i, p)];
                        let wiq = w[(i, q)];
                        w[(i, p)] = c * wip - s * wiq;
                        w[(i, q)] = s * wip + c * wiq;
                    }
                    for i in 0..n {
                        let vip = v[(i, p)];
                        let viq = v[(i, q)];
                        v[(i, p)] = c * vip - s * viq;
                        v[(i, q)] = s * vip + c * viq;
                    }
                }
            }
            if !rotated {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(LinalgError::NotConverged {
                context: "jacobi_svd",
                iterations: MAX_SWEEPS,
            });
        }

        // Column norms are the singular values.
        let mut pairs: Vec<(f64, usize)> = (0..n).map(|j| (vecops::norm2(&w.col(j)), j)).collect();
        pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN singular value"));

        let mut u = Matrix::zeros(m, n);
        let mut vt = Matrix::zeros(n, n);
        let mut s = Vec::with_capacity(n);
        for (dst, &(sigma, src)) in pairs.iter().enumerate() {
            s.push(sigma);
            if sigma > 0.0 {
                for i in 0..m {
                    u[(i, dst)] = w[(i, src)] / sigma;
                }
            } else {
                // Null direction: leave a zero column (callers treat rank
                // via `rank()`); still record V.
                u[(dst.min(m - 1), dst)] = 1.0;
            }
            for i in 0..n {
                vt[(dst, i)] = v[(i, src)];
            }
        }
        Ok(Svd { u, s, vt })
    }

    /// `Svd::new` over [`oracle_tall`].
    fn oracle_svd(a: &Matrix) -> Svd {
        if a.rows() >= a.cols() {
            oracle_tall(a).unwrap()
        } else {
            let t = oracle_tall(&a.transpose()).unwrap();
            Svd {
                u: t.vt.transpose(),
                s: t.s,
                vt: t.u.transpose(),
            }
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn svd_and_singular_values_equal_the_row_major_oracle_bit_for_bit() {
        let inputs = [
            Matrix::from_fn(23, 16, |i, j| ((i * 16 + j) as f64 * 0.37).sin()),
            Matrix::from_fn(16, 23, |i, j| ((i * 23 + j) as f64 * 0.11).cos()),
            Matrix::from_fn(7, 7, |i, j| 1.0 / (1.0 + (i + j) as f64)),
            // Rank-deficient: repeated and scaled rows and columns.
            Matrix::from_fn(9, 4, |i, j| ((i % 3) as f64 + 1.0) * (j as f64 - 1.5)),
            Matrix::from_fn(3, 8, |i, j| (j as f64) * if i == 1 { -2.0 } else { 1.0 }),
            Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]),
            Matrix::from_rows(&[&[0.0, -0.0], &[0.0, 1e-300]]),
            Matrix::from_rows(&[&[-0.0, 0.0], &[-0.0, -0.0], &[0.0, -0.0]]),
            Matrix::zeros(3, 2),
            Matrix::zeros(2, 5),
            Matrix::zeros(4, 0),
            Matrix::zeros(0, 3),
            Matrix::zeros(0, 0),
            Matrix::from_rows(&[&[5.0]]),
        ];
        for a in &inputs {
            let want = oracle_svd(a);
            let got = Svd::new(a).unwrap();
            assert_eq!(bits(&got.s), bits(&want.s), "s {:?}", a.shape());
            assert_eq!(
                bits(got.u.as_slice()),
                bits(want.u.as_slice()),
                "u {:?}",
                a.shape()
            );
            assert_eq!(
                bits(got.vt.as_slice()),
                bits(want.vt.as_slice()),
                "vt {:?}",
                a.shape()
            );
            assert_eq!(got.u.shape(), want.u.shape());
            assert_eq!(got.vt.shape(), want.vt.shape());
            assert_eq!(
                bits(&singular_values(a).unwrap()),
                bits(&want.s),
                "{:?}",
                a.shape()
            );
            assert_eq!(cond(a).unwrap().to_bits(), want.cond().to_bits());
        }
    }

    #[test]
    fn diagonal_svd() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0], &[0.0, 0.0]]);
        let svd = Svd::new(&a).unwrap();
        assert!((svd.s[0] - 4.0).abs() < 1e-12);
        assert!((svd.s[1] - 3.0).abs() < 1e-12);
        assert!((svd.cond() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(svd.rank(), 2);
    }

    #[test]
    fn reconstruction_error_small() {
        let a = Matrix::from_fn(7, 4, |i, j| ((i + 1) as f64 * (j + 1) as f64).sin());
        let svd = Svd::new(&a).unwrap();
        let err = svd.reconstruct().sub(&a).unwrap().norm_max();
        assert!(err < 1e-12, "reconstruction error {err}");
    }

    #[test]
    fn factors_are_orthonormal() {
        let a = Matrix::from_fn(6, 4, |i, j| 1.0 / (1.0 + (i + j) as f64));
        let svd = Svd::new(&a).unwrap();
        let utu = svd.u.tr_matmul(&svd.u).unwrap();
        assert!(utu.sub(&Matrix::identity(4)).unwrap().norm_max() < 1e-12);
        let v = svd.vt.transpose();
        let vtv = v.tr_matmul(&v).unwrap();
        assert!(vtv.sub(&Matrix::identity(4)).unwrap().norm_max() < 1e-12);
    }

    #[test]
    fn wide_matrix_via_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 2.0, 0.0]]);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.u.shape(), (2, 2));
        assert_eq!(svd.vt.shape(), (2, 3));
        assert!((svd.s[0] - 2.0).abs() < 1e-12);
        assert!((svd.s[1] - 1.0).abs() < 1e-12);
        let err = svd.reconstruct().sub(&a).unwrap().norm_max();
        assert!(err < 1e-12);
    }

    #[test]
    fn rank_deficient_cond_is_infinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(), 1);
        assert!(svd.cond().is_infinite());
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(3, 2);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.s, vec![0.0, 0.0]);
        assert_eq!(svd.rank(), 0);
    }

    #[test]
    fn empty_matrix() {
        let a = Matrix::zeros(3, 0);
        let svd = Svd::new(&a).unwrap();
        assert!(svd.s.is_empty());
        assert_eq!(svd.sigma_max(), 0.0);
    }

    #[test]
    fn singular_values_match_eigs_of_gram() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i * 3 + j) as f64).cos());
        let svd = Svd::new(&a).unwrap();
        let gram = a.tr_matmul(&a).unwrap();
        let eig = crate::eig::sym_eig(&gram).unwrap();
        for (sv, ev) in svd.s.iter().zip(eig.values.iter()) {
            assert!((sv * sv - ev).abs() < 1e-10, "σ²={} λ={}", sv * sv, ev);
        }
    }

    #[test]
    fn orthonormal_matrix_has_cond_one() {
        // Rotation matrix: perfectly conditioned.
        let th = 0.7_f64;
        let a = Matrix::from_rows(&[&[th.cos(), -th.sin()], &[th.sin(), th.cos()]]);
        let svd = Svd::new(&a).unwrap();
        assert!((svd.cond() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cond_helper_matches_method() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 1.0]]);
        assert!((cond(&a).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(rank(&a).unwrap(), 2);
    }
}
