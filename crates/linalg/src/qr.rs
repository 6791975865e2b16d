//! Householder QR factorization and least-squares solves.
//!
//! The reconstruction step of EigenMaps (Theorem 1) is the least-squares
//! solve `min_α ‖x_S − Ψ̃_K α‖₂`; we solve it through a QR factorization of
//! the sensing matrix, which is backward-stable (the normal equations would
//! square the condition number that the sensor-allocation algorithm works so
//! hard to keep small).
//!
//! A serving batch solves many frames against one factorization, so the
//! solve has one loop, [`Qr::solve_block_into`], over a block of
//! right-hand sides: each reflector and each back-substitution row
//! sweeps every frame of the block in one contiguous loop, while each
//! frame sees exactly the one-vector sequence of operations and so gets
//! the same bits. [`Qr::solve_lstsq_into`] is its one-column case. The
//! rank tolerance on `R`'s diagonal is fixed at factorization.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Compact Householder QR factorization of an `m × n` matrix with `m ≥ n`.
///
/// Stores the reflectors and `R` factor; `Q` can be formed explicitly with
/// [`Qr::thin_q`] or applied implicitly with [`Qr::apply_qt`].
///
/// # Examples
///
/// ```
/// use eigenmaps_linalg::{Matrix, Qr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
/// let qr = Qr::new(&a)?;
/// let q = qr.thin_q();
/// // Qᵀ Q = I
/// let qtq = q.tr_matmul(&q)?;
/// assert!((qtq[(0, 0)] - 1.0).abs() < 1e-12);
/// assert!(qtq[(0, 1)].abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factorization: upper triangle holds R, lower part holds the
    /// essential parts of the Householder vectors.
    packed: Matrix,
    /// Scalar factors `tau` of the reflectors `H = I − τ v vᵀ`.
    tau: Vec<f64>,
    /// Rank tolerance on `R`'s diagonal, fixed at factorization.
    tol: f64,
}

impl Qr {
    /// Factorizes `a` (which must have at least as many rows as columns).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `a.rows() < a.cols()`.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::InvalidArgument {
                context: "qr: matrix must have rows >= cols",
            });
        }
        // Factor a column-major copy, so every reflection walks
        // contiguous columns; `packed` gets it back in row-major order.
        let mut r = a.transpose().into_vec();
        let mut tau = vec![0.0; n];
        for k in 0..n {
            // Build the Householder vector for column k from rows k..m.
            let (head, rest) = r.split_at_mut((k + 1) * m);
            let col = &mut head[k * m..];
            let alpha = col[k];
            let mut sigma = 0.0;
            for &x in &col[k + 1..] {
                sigma += x * x;
            }
            if sigma == 0.0 && alpha >= 0.0 {
                continue;
            }
            let beta = -(alpha.signum()) * (alpha * alpha + sigma).sqrt();
            tau[k] = (beta - alpha) / beta;
            let scale = 1.0 / (alpha - beta);
            // v = [1, col[k+1..m] * scale]
            for x in &mut col[k + 1..] {
                *x *= scale;
            }
            col[k] = beta;
            // Apply H = I − τ v vᵀ to the remaining columns.
            reflect_columns(&col[k + 1..], tau[k], k, rest, m);
        }
        let r = Matrix::from_vec(n, m, r)?.transpose();
        let tol = r_diag_tolerance(&r);
        Ok(Qr {
            packed: r,
            tau,
            tol,
        })
    }

    /// Number of rows of the factorized matrix.
    pub fn rows(&self) -> usize {
        self.packed.rows()
    }

    /// Number of columns of the factorized matrix.
    pub fn cols(&self) -> usize {
        self.packed.cols()
    }

    /// Returns the `n × n` upper-triangular factor `R`.
    pub fn r(&self) -> Matrix {
        let n = self.cols();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.packed[(i, j)] } else { 0.0 })
    }

    /// Applies `Qᵀ` to a vector in place (`b ← Qᵀ b`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != rows`.
    pub fn apply_qt(&self, b: &mut [f64]) -> Result<()> {
        let m = self.rows();
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                context: "qr apply_qt",
                expected: (m, 1),
                found: (b.len(), 1),
            });
        }
        self.apply_qt_block(b, 1, &mut [0.0]);
        Ok(())
    }

    /// `b ← Qᵀ b` for `bsz` sensor-major right-hand sides (`b[i · bsz +
    /// f]` is row `i` of column `f`), with `w` (`bsz` long) as scratch.
    /// Each column runs the single-vector reflector sequence: `w = b_k +
    /// Σ_i v_i b_i` in ascending `i`, then `w ← τ w`, `b_k −= w` and `b_i
    /// −= w v_i`, one multiply and one add at a time.
    #[inline(always)]
    fn apply_qt_block(&self, b: &mut [f64], bsz: usize, w: &mut [f64]) {
        let (m, n) = self.packed.shape();
        for k in 0..n {
            let tau_k = self.tau[k];
            if tau_k == 0.0 {
                continue;
            }
            w.copy_from_slice(&b[k * bsz..(k + 1) * bsz]);
            for i in (k + 1)..m {
                let v = self.packed[(i, k)];
                for (wf, bf) in w.iter_mut().zip(&b[i * bsz..(i + 1) * bsz]) {
                    *wf += v * bf;
                }
            }
            for wf in w.iter_mut() {
                *wf *= tau_k;
            }
            for (bf, wf) in b[k * bsz..(k + 1) * bsz].iter_mut().zip(w.iter()) {
                *bf -= wf;
            }
            for i in (k + 1)..m {
                let v = self.packed[(i, k)];
                for (bf, wf) in b[i * bsz..(i + 1) * bsz].iter_mut().zip(w.iter()) {
                    *bf -= wf * v;
                }
            }
        }
    }

    /// Forms the thin orthonormal factor `Q` (`m × n`).
    pub fn thin_q(&self) -> Matrix {
        let (m, n) = self.packed.shape();
        // Apply the reflectors in reverse order to the first n columns of
        // I, held column-major like the reflectors.
        let v = self.packed.transpose().into_vec();
        let mut q = vec![0.0; n * m];
        for j in 0..n {
            q[j * m + j] = 1.0;
        }
        for k in (0..n).rev() {
            if self.tau[k] != 0.0 {
                reflect_columns(&v[k * m + k + 1..(k + 1) * m], self.tau[k], k, &mut q, m);
            }
        }
        Matrix::from_vec(n, m, q)
            .expect("n columns of length m")
            .transpose()
    }

    /// Solves the least-squares problem `min_x ‖a x − b‖₂` using the stored
    /// factorization.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `b.len() != rows`.
    /// * [`LinalgError::Singular`] if `R` has a (numerically) zero diagonal
    ///   entry, i.e. the matrix does not have full column rank.
    pub fn solve_lstsq(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut qtb = b.to_vec();
        let mut x = vec![0.0; self.cols()];
        self.solve_lstsq_into(&mut qtb, &mut x)?;
        Ok(x)
    }

    /// Allocation-free variant of [`Qr::solve_lstsq`] for hot loops that
    /// solve against many right-hand sides: `b` is consumed as scratch
    /// (overwritten with `Qᵀb`) and the solution is written into `x`. It
    /// is [`Qr::solve_block_into`] with one column, so results match it
    /// and [`Qr::solve_lstsq`] bitwise.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `b.len() != rows` or
    ///   `x.len() != cols`.
    /// * [`LinalgError::Singular`] if `R` has a (numerically) zero diagonal
    ///   entry, i.e. the matrix does not have full column rank.
    pub fn solve_lstsq_into(&self, b: &mut [f64], x: &mut [f64]) -> Result<()> {
        self.solve_block(b, x, 1)
    }

    /// Solves `min_x ‖a x − b‖₂` for `bsz` right-hand sides at once.
    ///
    /// `b` is sensor-major (`rows × bsz`: `b[i · bsz + f]` is row `i` of
    /// column `f`) and is consumed as scratch (overwritten with `Qᵀb`);
    /// the solutions land coefficient-major in `x` (`cols × bsz`:
    /// `x[j · bsz + f]`). Every reflector and every back-substitution row
    /// sweeps all columns in one contiguous loop, which the compiler
    /// vectorizes, while each column still sees exactly the single-vector
    /// sequence of multiplies and adds: column `f` of `x` is bitwise the
    /// one-column solve of column `f` of `b`. A dirty `x` is fine.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `b.len() != rows · bsz` or
    ///   `x.len() != cols · bsz`.
    /// * [`LinalgError::Singular`] if `R` has a (numerically) zero diagonal
    ///   entry, i.e. the matrix does not have full column rank.
    pub fn solve_block_into(&self, b: &mut [f64], x: &mut [f64], bsz: usize) -> Result<()> {
        self.solve_block(b, x, bsz)
    }

    /// The one solve loop behind [`Qr::solve_block_into`] and
    /// [`Qr::solve_lstsq_into`]. Inlined into both, so the one-column
    /// call compiles with `bsz = 1` folded in and pays no block overhead.
    #[inline(always)]
    fn solve_block(&self, b: &mut [f64], x: &mut [f64], bsz: usize) -> Result<()> {
        let (m, n) = self.packed.shape();
        if b.len() != m * bsz {
            return Err(LinalgError::ShapeMismatch {
                context: "qr solve_lstsq",
                expected: (m, bsz),
                found: (b.len(), 1),
            });
        }
        if x.len() != n * bsz {
            return Err(LinalgError::ShapeMismatch {
                context: "qr solve_lstsq solution",
                expected: (n, bsz),
                found: (x.len(), 1),
            });
        }
        if n == 0 || bsz == 0 {
            return Ok(());
        }
        // The first solution row is free until the back substitution
        // writes it last, so it holds the reflectors' `w`.
        let (w, _) = x.split_at_mut(bsz);
        self.apply_qt_block(b, bsz, w);
        // Back substitution on the leading n×n triangle, one row of all
        // columns at a time: `x_i = (b_i − Σ_{j>i} R_ij x_j) / R_ii`, the
        // sum in ascending `j`. Rows below `i` are already final.
        for i in (0..n).rev() {
            let d = self.packed[(i, i)];
            if d.abs() <= self.tol {
                return Err(LinalgError::Singular {
                    context: "qr solve_lstsq",
                });
            }
            let (head, solved) = x.split_at_mut((i + 1) * bsz);
            let xi = &mut head[i * bsz..];
            xi.copy_from_slice(&b[i * bsz..(i + 1) * bsz]);
            for (j, xj) in ((i + 1)..n).zip(solved.chunks_exact(bsz)) {
                let r = self.packed[(i, j)];
                for (s, xjf) in xi.iter_mut().zip(xj) {
                    *s -= r * xjf;
                }
            }
            for s in xi.iter_mut() {
                *s /= d;
            }
        }
        Ok(())
    }
}

/// The magnitude at or below which a diagonal entry of `R` counts as
/// zero: `max |R_ii| · max(m, 1) · ε`.
fn r_diag_tolerance(r: &Matrix) -> f64 {
    let (m, n) = r.shape();
    let max = (0..n).fold(0.0_f64, |max, i| max.max(r[(i, i)].abs()));
    max * (m.max(1) as f64) * f64::EPSILON
}

/// One-shot least squares: solves `min_x ‖a x − b‖₂`.
///
/// Convenience wrapper over [`Qr::new`] + [`Qr::solve_lstsq`]; prefer keeping
/// a [`Qr`] around when solving against many right-hand sides (as the
/// EigenMaps reconstructor does — one factorization per sensor layout, one
/// solve per thermal snapshot).
///
/// # Errors
///
/// Propagates the errors of [`Qr::new`] and [`Qr::solve_lstsq`].
///
/// # Examples
///
/// ```
/// use eigenmaps_linalg::{lstsq, Matrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Fit a line y = c0 + c1 t through three points.
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
/// let x = lstsq(&a, &[1.0, 3.0, 5.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Qr::new(a)?.solve_lstsq(b)
}

/// Orthonormalizes the columns of `a` in place via QR, returning the thin-Q
/// factor (`m × n`, `m ≥ n`).
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `a.rows() < a.cols()`.
pub fn orthonormalize(a: &Matrix) -> Result<Matrix> {
    Ok(Qr::new(a)?.thin_q())
}

/// Applies `H = I − τ v vᵀ` (with `v = [1, v…]` starting at row `k`) to
/// each length-`m` column of `cols`: `w = c[k] + Σ v_i c_i` in ascending
/// `i`, `w *= τ`, then `c[k] −= w` and `c_i −= w·v_i`. Four columns run
/// their sums side by side; each still gets its own one-column sequence
/// of operations.
fn reflect_columns(v: &[f64], tau: f64, k: usize, cols: &mut [f64], m: usize) {
    let apply = |c: &mut [f64], w: f64| {
        let w = w * tau;
        c[k] -= w;
        for (ci, &vi) in c[k + 1..].iter_mut().zip(v) {
            *ci -= w * vi;
        }
    };
    let mut groups = cols.chunks_exact_mut(4 * m);
    for group in &mut groups {
        let (c0, rest) = group.split_at_mut(m);
        let (c1, rest) = rest.split_at_mut(m);
        let (c2, c3) = rest.split_at_mut(m);
        let mut w = [c0[k], c1[k], c2[k], c3[k]];
        for (i, &vi) in v.iter().enumerate() {
            let i = k + 1 + i;
            w[0] += vi * c0[i];
            w[1] += vi * c1[i];
            w[2] += vi * c2[i];
            w[3] += vi * c3[i];
        }
        for (c, w) in [c0, c1, c2, c3].into_iter().zip(w) {
            apply(c, w);
        }
    }
    for c in groups.into_remainder().chunks_exact_mut(m) {
        let mut w = c[k];
        for (&ci, &vi) in c[k + 1..].iter().zip(v) {
            w += vi * ci;
        }
        apply(c, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn qr_reconstructs_a() {
        let a = Matrix::from_rows(&[
            &[2.0, -1.0, 0.5],
            &[1.0, 3.0, -2.0],
            &[0.0, 1.0, 1.0],
            &[4.0, 0.0, 2.0],
        ]);
        let qr = Qr::new(&a).unwrap();
        let q = qr.thin_q();
        let r = qr.r();
        let qr_prod = q.matmul(&r).unwrap();
        assert!(qr_prod.sub(&a).unwrap().norm_max() < 1e-12);
    }

    #[test]
    fn thin_q_is_orthonormal() {
        let a = Matrix::from_fn(6, 3, |i, j| ((i * 3 + j) as f64).sin() + 0.1);
        let q = Qr::new(&a).unwrap().thin_q();
        let qtq = q.tr_matmul(&q).unwrap();
        let err = qtq.sub(&Matrix::identity(3)).unwrap().norm_max();
        assert!(err < 1e-12, "QᵀQ deviates from I by {err}");
    }

    #[test]
    fn apply_qt_matches_explicit_q() {
        let a = Matrix::from_fn(5, 3, |i, j| (i as f64 - j as f64).cos());
        let qr = Qr::new(&a).unwrap();
        let q = qr.thin_q();
        let b = [1.0, -2.0, 0.5, 3.0, 1.5];
        let mut qtb = b.to_vec();
        qr.apply_qt(&mut qtb).unwrap();
        let explicit = q.tr_matvec(&b).unwrap();
        for i in 0..3 {
            assert_close(qtb[i], explicit[i], 1e-12);
        }
    }

    #[test]
    fn lstsq_exact_system() {
        // Square, well-conditioned system: solution must be exact.
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let x = lstsq(&a, &[9.0, 8.0]).unwrap();
        assert_close(x[0], 2.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
    }

    #[test]
    fn lstsq_residual_is_orthogonal_to_range() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = [0.0, 1.0, 1.0, 3.0];
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let r = vecops::sub(&b, &ax);
        let atr = a.tr_matvec(&r).unwrap();
        assert!(vecops::norm_inf(&atr) < 1e-12, "Aᵀr = {atr:?}");
    }

    #[test]
    fn solve_into_matches_allocating_solve_bitwise() {
        let a = Matrix::from_fn(7, 3, |i, j| ((i * 5 + j * 3) as f64 * 0.31).sin() + 0.2);
        let qr = Qr::new(&a).unwrap();
        let b: Vec<f64> = (0..7).map(|i| (i as f64 * 1.7).cos()).collect();
        let x_alloc = qr.solve_lstsq(&b).unwrap();
        let mut scratch = b.clone();
        let mut x = vec![123.0; 3]; // dirty buffer must not matter
        qr.solve_lstsq_into(&mut scratch, &mut x).unwrap();
        assert_eq!(x, x_alloc);
        // Shape checks.
        assert!(qr.solve_lstsq_into(&mut [0.0; 2], &mut [0.0; 3]).is_err());
        assert!(qr.solve_lstsq_into(&mut b.clone(), &mut [0.0; 2]).is_err());
    }

    /// The per-frame solve before blocking, kept as the oracle: one
    /// reflector chain over one vector, then back substitution.
    fn oracle_solve(qr: &Qr, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = qr.packed.shape();
        let mut b = b.to_vec();
        for k in 0..n {
            let tau_k = qr.tau[k];
            if tau_k == 0.0 {
                continue;
            }
            let mut w = b[k];
            for i in (k + 1)..m {
                w += qr.packed[(i, k)] * b[i];
            }
            w *= tau_k;
            b[k] -= w;
            for i in (k + 1)..m {
                b[i] -= w * qr.packed[(i, k)];
            }
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = b[i];
            for j in (i + 1)..n {
                s -= qr.packed[(i, j)] * x[j];
            }
            let d = qr.packed[(i, i)];
            if d.abs() <= qr.tol {
                return Err(LinalgError::Singular {
                    context: "qr solve_lstsq",
                });
            }
            x[i] = s / d;
        }
        Ok(x)
    }

    /// Solves `bsz` columns through [`Qr::solve_block_into`] and checks
    /// each against the oracle bit for bit.
    fn assert_block_matches_oracle(qr: &Qr, columns: &[Vec<f64>], what: &str) {
        let (m, n) = (qr.rows(), qr.cols());
        let bsz = columns.len();
        let mut b = vec![0.0; m * bsz];
        for (f, col) in columns.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                b[i * bsz + f] = v;
            }
        }
        let mut x = vec![f64::NAN; n * bsz]; // dirty buffer must not matter
        qr.solve_block_into(&mut b, &mut x, bsz).unwrap();
        for (f, col) in columns.iter().enumerate() {
            let want = oracle_solve(qr, col).unwrap();
            for (j, w) in want.iter().enumerate() {
                assert_eq!(
                    x[j * bsz + f].to_bits(),
                    w.to_bits(),
                    "{what}: bsz {bsz}, column {f}, coefficient {j}"
                );
            }
        }
    }

    #[test]
    fn block_solve_matches_the_per_frame_oracle_bitwise() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED_B10C);
        let mut shapes = vec![(16, 16), (24, 16), (5, 3), (9, 1), (1, 1), (3, 3)];
        for _ in 0..12 {
            let n: usize = rng.gen_range(1..=12usize);
            shapes.push((n + rng.gen_range(0..=8usize), n));
        }
        for (m, n) in shapes {
            assert!(m >= n);
            // Random entries are full rank with probability one; the
            // rank guard below would say otherwise.
            let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(-10.0..10.0));
            let qr = Qr::new(&a).unwrap();
            assert!(
                qr.solve_lstsq(&vec![0.0; m]).is_ok(),
                "{m}×{n} is full rank"
            );
            for bsz in [1, 2, 7, 31, 32, 33] {
                let columns: Vec<Vec<f64>> = (0..bsz)
                    .map(|_| (0..m).map(|_| rng.gen_range(-50.0..50.0)).collect())
                    .collect();
                assert_block_matches_oracle(&qr, &columns, &format!("{m}×{n}"));
            }
        }
    }

    #[test]
    fn block_solve_skips_a_reduced_column_like_the_oracle() {
        // The first column is already `R`'s (zero below a nonnegative
        // diagonal), so its reflector has τ = 0 and is skipped.
        let a = Matrix::from_rows(&[
            &[2.0, 1.0, -3.0],
            &[0.0, 4.0, 1.0],
            &[0.0, -1.0, 2.0],
            &[0.0, 3.0, 0.5],
            &[0.0, 0.5, -1.5],
        ]);
        let qr = Qr::new(&a).unwrap();
        assert_eq!(qr.tau[0], 0.0);
        assert!(qr.tau[1] != 0.0);
        for bsz in [1, 2, 7, 31, 32, 33] {
            let columns: Vec<Vec<f64>> = (0..bsz)
                .map(|f| {
                    (0..5)
                        .map(|i| ((i * 7 + f * 3) as f64 * 0.37).sin())
                        .collect()
                })
                .collect();
            assert_block_matches_oracle(&qr, &columns, "reduced first column");
        }
    }

    #[test]
    fn block_solve_refuses_a_rank_deficient_r() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let qr = Qr::new(&a).unwrap();
        for bsz in [1, 2, 33] {
            let mut b = vec![1.0; 3 * bsz];
            let mut x = vec![0.0; 2 * bsz];
            assert!(matches!(
                qr.solve_block_into(&mut b, &mut x, bsz),
                Err(LinalgError::Singular { .. })
            ));
        }
        assert!(matches!(
            oracle_solve(&qr, &[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular { .. })
        ));
        // Shapes are checked against the block width.
        let qr = Qr::new(&Matrix::identity(2)).unwrap();
        assert!(qr
            .solve_block_into(&mut [0.0; 4], &mut [0.0; 2], 2)
            .is_err());
        assert!(qr
            .solve_block_into(&mut [0.0; 2], &mut [0.0; 4], 2)
            .is_err());
        assert!(qr.solve_block_into(&mut [], &mut [], 0).is_ok());
    }

    #[test]
    fn lstsq_rank_deficient_errors() {
        // Second column is a multiple of the first.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        assert!(matches!(
            lstsq(&a, &[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn wide_matrix_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(Qr::new(&a).is_err());
    }

    /// Householder QR in place on the row-major matrix, one column at a
    /// time: the bitwise oracle for `packed` and `tau`.
    fn oracle_factor(a: &Matrix) -> (Matrix, Vec<f64>) {
        let (m, n) = a.shape();
        let mut r = a.clone();
        let mut tau = vec![0.0; n];

        for k in 0..n {
            // Build the Householder vector for column k from rows k..m.
            let alpha = r[(k, k)];
            let mut sigma = 0.0;
            for i in (k + 1)..m {
                sigma += r[(i, k)] * r[(i, k)];
            }
            if sigma == 0.0 && alpha >= 0.0 {
                continue;
            }
            let beta = -(alpha.signum()) * (alpha * alpha + sigma).sqrt();
            let tau_k = (beta - alpha) / beta;
            let scale = 1.0 / (alpha - beta);
            // v = [1, r[k+1..m, k] * scale]
            for i in (k + 1)..m {
                r[(i, k)] *= scale;
            }
            r[(k, k)] = beta;
            tau[k] = tau_k;

            // Apply H = I − τ v vᵀ to the remaining columns.
            for j in (k + 1)..n {
                let mut w = r[(k, j)];
                for i in (k + 1)..m {
                    w += r[(i, k)] * r[(i, j)];
                }
                w *= tau_k;
                r[(k, j)] -= w;
                for i in (k + 1)..m {
                    let vik = r[(i, k)];
                    r[(i, j)] -= w * vik;
                }
            }
        }
        (r, tau)
    }

    /// `Q` from `packed` and `tau`, row-major, one column at a time: the
    /// bitwise oracle for `Qr::thin_q`.
    fn oracle_thin_q(packed: &Matrix, tau: &[f64]) -> Matrix {
        let (m, n) = packed.shape();
        let mut q = Matrix::zeros(m, n);
        for j in 0..n {
            q[(j, j)] = 1.0;
        }
        for k in (0..n).rev() {
            let tau_k = tau[k];
            if tau_k == 0.0 {
                continue;
            }
            for j in 0..n {
                let mut w = q[(k, j)];
                for i in (k + 1)..m {
                    w += packed[(i, k)] * q[(i, j)];
                }
                w *= tau_k;
                q[(k, j)] -= w;
                for i in (k + 1)..m {
                    let vik = packed[(i, k)];
                    q[(i, j)] -= w * vik;
                }
            }
        }
        q
    }

    #[test]
    fn qr_and_thin_q_equal_the_row_major_oracle_bit_for_bit() {
        let bits = |q: &Matrix| -> Vec<u64> { q.as_slice().iter().map(|v| v.to_bits()).collect() };
        let inputs = [
            Matrix::from_fn(840, 26, |i, j| ((i * 26 + j) as f64 * 0.013).sin()),
            Matrix::from_fn(9, 9, |i, j| 1.0 / (1.0 + (i + j) as f64)),
            Matrix::from_fn(7, 5, |i, j| {
                if j == 2 {
                    0.0
                } else {
                    (i as f64 - j as f64).cos()
                }
            }),
            // A column already reduced (σ = 0, α ≥ 0) and a negative one.
            Matrix::from_fn(6, 3, |i, j| match (i, j) {
                (0, 0) => 2.0,
                (_, 0) => 0.0,
                (_, 1) => -1.0,
                _ => (i * j) as f64,
            }),
            Matrix::from_fn(5, 1, |i, _| i as f64 - 2.0),
            Matrix::zeros(4, 0),
        ];
        for a in &inputs {
            let (packed, tau) = oracle_factor(a);
            let qr = Qr::new(a).unwrap();
            assert_eq!(bits(&qr.packed), bits(&packed), "{:?}", a.shape());
            assert_eq!(
                qr.tau.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                tau.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
            );
            let q = oracle_thin_q(&packed, &tau);
            assert_eq!(bits(&qr.thin_q()), bits(&q), "{:?}", a.shape());
            assert_eq!(
                bits(&orthonormalize(a).unwrap()),
                bits(&q),
                "{:?}",
                a.shape()
            );
        }
        assert!(orthonormalize(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn orthonormalize_identity_like() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0], &[0.0, 0.0]]);
        let q = orthonormalize(&a).unwrap();
        let qtq = q.tr_matmul(&q).unwrap();
        assert!(qtq.sub(&Matrix::identity(2)).unwrap().norm_max() < 1e-12);
    }

    #[test]
    fn qr_on_column_of_zeros_then_identity() {
        // First column zero: tau[0] = 0 path.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 2.0], &[0.0, 0.0]]);
        let qr = Qr::new(&a).unwrap();
        assert!(matches!(
            qr.solve_lstsq(&[1.0, 2.0, 0.0]),
            Err(LinalgError::Singular { .. })
        ));
    }
}
