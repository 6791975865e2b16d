//! Sparse matrices in CSR form and Jacobi-preconditioned Krylov solvers.
//!
//! The compact thermal model assembles its conductance matrix `G` here.
//! Its air-cooled solves run in the DCT basis (`eigenmaps_thermal`), and
//! [`cg_solve`] is their independent test reference; [`bicgstab_solve`]
//! handles the nonsymmetric systems that coolant advection produces.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::vecops;

/// Builder that accumulates `(row, col, value)` triplets.
///
/// Duplicate entries are summed when [`TripletBuilder::to_csr`] is called,
/// which makes finite-volume assembly (one contribution per face) trivial.
#[derive(Debug, Clone, Default)]
pub struct TripletBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletBuilder {
    /// Creates an empty builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`; duplicates accumulate.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
    }

    /// Number of accumulated (non-deduplicated) triplets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finalizes into CSR format, summing duplicates.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut entries = self.entries.clone();
        entries.sort_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());

        row_ptr.push(0);
        let mut current_row = 0;
        let mut i = 0;
        while i < entries.len() {
            let (r, c, _) = entries[i];
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            // Merge duplicates.
            let mut v = 0.0;
            while i < entries.len() && entries[i].0 == r && entries[i].1 == c {
                v += entries[i].2;
                i += 1;
            }
            if v != 0.0 {
                col_idx.push(c);
                values.push(v);
            }
        }
        while current_row < self.rows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }

        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// A sparse matrix in compressed-sparse-row (CSR) format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(i, j)` (zero when not stored).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix–vector product `y = A x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                context: "csr matvec",
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        Ok(y)
    }

    /// Sparse matrix–vector product into a caller-provided buffer
    /// (allocation-free inner loop for the CG solver).
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths are wrong.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec_into: x length");
        assert_eq!(y.len(), self.rows, "matvec_into: y length");
        for i in 0..self.rows {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            y[i] = acc;
        }
    }

    /// Extracts the diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Iterates over the stored entries as `(row, col, value)` triples in
    /// row-major order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| {
            (self.row_ptr[i]..self.row_ptr[i + 1])
                .map(move |k| (i, self.col_idx[k], self.values[k]))
        })
    }

    /// Converts to a dense matrix (tests and small problems only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                m[(i, self.col_idx[k])] = self.values[k];
            }
        }
        m
    }

    /// Checks structural + numerical symmetry up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                if (self.values[k] - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Outcome of a conjugate-gradient solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖`.
    pub residual: f64,
}

/// Options for [`cg_solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct CgOptions {
    /// Relative residual target (default `1e-10`).
    pub tolerance: f64,
    /// Iteration cap (default `10 · n`, set explicitly for large systems).
    pub max_iterations: usize,
    /// Initial guess; warm-starting from a nearby solution (e.g. the
    /// previous step of a time-stepping scheme) cuts iteration counts.
    pub initial_guess: Option<Vec<f64>>,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tolerance: 1e-10,
            max_iterations: 0, // 0 means "10 n", resolved in cg_solve
            initial_guess: None,
        }
    }
}

/// Jacobi-preconditioned conjugate gradients for SPD systems `A x = b`.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] for inconsistent dimensions.
/// * [`LinalgError::NotPositiveDefinite`] if a zero/negative diagonal entry
///   is found (Jacobi preconditioner undefined) or a search direction has
///   non-positive curvature.
/// * [`LinalgError::NotConverged`] if the iteration cap is hit before the
///   tolerance.
///
/// # Examples
///
/// ```
/// use eigenmaps_linalg::sparse::{cg_solve, CgOptions, TripletBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TripletBuilder::new(2, 2);
/// b.push(0, 0, 4.0);
/// b.push(0, 1, 1.0);
/// b.push(1, 0, 1.0);
/// b.push(1, 1, 3.0);
/// let a = b.to_csr();
/// let sol = cg_solve(&a, &[1.0, 2.0], &CgOptions::default())?;
/// assert!(sol.residual < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn cg_solve(a: &CsrMatrix, b: &[f64], opts: &CgOptions) -> Result<CgSolution> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::NotSquare {
            shape: (a.rows(), a.cols()),
        });
    }
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            context: "cg_solve",
            expected: (n, 1),
            found: (b.len(), 1),
        });
    }
    let max_iterations = if opts.max_iterations == 0 {
        10 * n.max(1)
    } else {
        opts.max_iterations
    };

    // Jacobi preconditioner M⁻¹ = diag(A)⁻¹.
    let diag = a.diagonal();
    let mut inv_diag = Vec::with_capacity(n);
    for (i, &d) in diag.iter().enumerate() {
        if d <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: i });
        }
        inv_diag.push(1.0 / d);
    }

    let bnorm = vecops::norm2(b);
    if bnorm == 0.0 {
        return Ok(CgSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }

    let mut x = match &opts.initial_guess {
        Some(g) => {
            if g.len() != n {
                return Err(LinalgError::ShapeMismatch {
                    context: "cg_solve initial guess",
                    expected: (n, 1),
                    found: (g.len(), 1),
                });
            }
            g.clone()
        }
        None => vec![0.0; n],
    };

    let mut ax = vec![0.0; n];
    a.matvec_into(&x, &mut ax);
    let mut r: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, ai)| bi - ai).collect();
    let mut z: Vec<f64> = r
        .iter()
        .zip(inv_diag.iter())
        .map(|(ri, mi)| ri * mi)
        .collect();
    let mut p = z.clone();
    let mut rz = vecops::dot(&r, &z);
    let mut ap = vec![0.0; n];

    for iter in 0..max_iterations {
        let rnorm = vecops::norm2(&r);
        if rnorm / bnorm <= opts.tolerance {
            return Ok(CgSolution {
                x,
                iterations: iter,
                residual: rnorm / bnorm,
            });
        }
        a.matvec_into(&p, &mut ap);
        let pap = vecops::dot(&p, &ap);
        if pap <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: iter });
        }
        let alpha = rz / pap;
        vecops::axpy(alpha, &p, &mut x);
        vecops::axpy(-alpha, &ap, &mut r);
        for i in 0..n {
            z[i] = r[i] * inv_diag[i];
        }
        let rz_new = vecops::dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }

    let rnorm = vecops::norm2(&r) / bnorm;
    if rnorm <= opts.tolerance * 10.0 {
        // Accept a near-miss: the residual stalled within an order of
        // magnitude of the target.
        return Ok(CgSolution {
            x,
            iterations: max_iterations,
            residual: rnorm,
        });
    }
    Err(LinalgError::NotConverged {
        context: "cg_solve",
        iterations: max_iterations,
    })
}

/// Jacobi-preconditioned BiCGSTAB for general (nonsymmetric) systems
/// `A x = b` — needed once coolant advection enters the thermal model,
/// which destroys the symmetry CG relies on.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] / [`LinalgError::NotSquare`] for
///   inconsistent dimensions.
/// * [`LinalgError::NotPositiveDefinite`] if a diagonal entry is zero
///   (Jacobi preconditioner undefined).
/// * [`LinalgError::NotConverged`] if the iteration cap is hit, or the
///   method breaks down (`ρ → 0`), before the tolerance.
///
/// # Examples
///
/// ```
/// use eigenmaps_linalg::sparse::{bicgstab_solve, CgOptions, TripletBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A nonsymmetric (advective) system.
/// let mut b = TripletBuilder::new(2, 2);
/// b.push(0, 0, 3.0);
/// b.push(0, 1, -2.0);
/// b.push(1, 0, 0.5);
/// b.push(1, 1, 2.0);
/// let a = b.to_csr();
/// let sol = bicgstab_solve(&a, &[1.0, 2.0], &CgOptions::default())?;
/// assert!(sol.residual < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn bicgstab_solve(a: &CsrMatrix, b: &[f64], opts: &CgOptions) -> Result<CgSolution> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::NotSquare {
            shape: (a.rows(), a.cols()),
        });
    }
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            context: "bicgstab_solve",
            expected: (n, 1),
            found: (b.len(), 1),
        });
    }
    let max_iterations = if opts.max_iterations == 0 {
        20 * n.max(1)
    } else {
        opts.max_iterations
    };

    let diag = a.diagonal();
    let mut inv_diag = Vec::with_capacity(n);
    for (i, &d) in diag.iter().enumerate() {
        if d == 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: i });
        }
        inv_diag.push(1.0 / d);
    }

    let bnorm = vecops::norm2(b);
    if bnorm == 0.0 {
        return Ok(CgSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }

    let mut x = match &opts.initial_guess {
        Some(g) => {
            if g.len() != n {
                return Err(LinalgError::ShapeMismatch {
                    context: "bicgstab initial guess",
                    expected: (n, 1),
                    found: (g.len(), 1),
                });
            }
            g.clone()
        }
        None => vec![0.0; n],
    };

    let mut ax = vec![0.0; n];
    a.matvec_into(&x, &mut ax);
    let mut r: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, ai)| bi - ai).collect();
    let r0 = r.clone();
    let mut rho = 1.0_f64;
    let mut alpha = 1.0_f64;
    let mut omega = 1.0_f64;
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut phat = vec![0.0; n];
    let mut shat = vec![0.0; n];
    let mut t = vec![0.0; n];

    for iter in 0..max_iterations {
        let rnorm = vecops::norm2(&r);
        if rnorm / bnorm <= opts.tolerance {
            return Ok(CgSolution {
                x,
                iterations: iter,
                residual: rnorm / bnorm,
            });
        }
        let rho_new = vecops::dot(&r0, &r);
        if rho_new.abs() < f64::MIN_POSITIVE * 1e4 {
            return Err(LinalgError::NotConverged {
                context: "bicgstab breakdown",
                iterations: iter,
            });
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        for i in 0..n {
            phat[i] = p[i] * inv_diag[i];
        }
        a.matvec_into(&phat, &mut v);
        alpha = rho / vecops::dot(&r0, &v);
        let s: Vec<f64> = r
            .iter()
            .zip(v.iter())
            .map(|(ri, vi)| ri - alpha * vi)
            .collect();
        if vecops::norm2(&s) / bnorm <= opts.tolerance {
            vecops::axpy(alpha, &phat, &mut x);
            let res = vecops::norm2(&s) / bnorm;
            return Ok(CgSolution {
                x,
                iterations: iter + 1,
                residual: res,
            });
        }
        for i in 0..n {
            shat[i] = s[i] * inv_diag[i];
        }
        a.matvec_into(&shat, &mut t);
        let tt = vecops::dot(&t, &t);
        if tt == 0.0 {
            return Err(LinalgError::NotConverged {
                context: "bicgstab stagnation",
                iterations: iter,
            });
        }
        omega = vecops::dot(&t, &s) / tt;
        for i in 0..n {
            x[i] += alpha * phat[i] + omega * shat[i];
            r[i] = s[i] - omega * t[i];
        }
        if omega == 0.0 {
            return Err(LinalgError::NotConverged {
                context: "bicgstab omega breakdown",
                iterations: iter,
            });
        }
    }
    let rnorm = vecops::norm2(&r) / bnorm;
    if rnorm <= opts.tolerance * 10.0 {
        return Ok(CgSolution {
            x,
            iterations: max_iterations,
            residual: rnorm,
        });
    }
    Err(LinalgError::NotConverged {
        context: "bicgstab_solve",
        iterations: max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        // Tridiagonal [−1, 2, −1] plus a Dirichlet-ish shift to make it SPD.
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.1);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
            }
        }
        b.to_csr()
    }

    #[test]
    fn builder_merges_duplicates() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 0, 2.0);
        b.push(1, 1, 5.0);
        let a = b.to_csr();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(1, 1), 5.0);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn builder_drops_cancelled_entries() {
        let mut b = TripletBuilder::new(1, 1);
        b.push(0, 0, 1.0);
        b.push(0, 0, -1.0);
        let a = b.to_csr();
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn builder_bounds_checked() {
        let mut b = TripletBuilder::new(1, 1);
        b.push(1, 0, 1.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = laplacian_1d(10);
        let dense = a.to_dense();
        let x: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let ys = a.matvec(&x).unwrap();
        let yd = dense.matvec(&x).unwrap();
        for (s, d) in ys.iter().zip(yd.iter()) {
            assert!((s - d).abs() < 1e-14);
        }
    }

    #[test]
    fn matvec_shape_checked() {
        let a = laplacian_1d(4);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn symmetry_detection() {
        let a = laplacian_1d(6);
        assert!(a.is_symmetric(0.0));
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(0, 0, 1.0);
        b.push(1, 1, 1.0);
        assert!(!b.to_csr().is_symmetric(1e-12));
    }

    #[test]
    fn cg_matches_dense_solve() {
        let a = laplacian_1d(30);
        let b: Vec<f64> = (0..30).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let sol = cg_solve(&a, &b, &CgOptions::default()).unwrap();
        let dense_x = crate::lu::solve(&a.to_dense(), &b).unwrap();
        for (c, d) in sol.x.iter().zip(dense_x.iter()) {
            assert!((c - d).abs() < 1e-7, "cg {c} vs dense {d}");
        }
        assert!(sol.residual <= 1e-10);
    }

    #[test]
    fn cg_warm_start_is_fast() {
        let a = laplacian_1d(50);
        let b = vec![1.0; 50];
        let cold = cg_solve(&a, &b, &CgOptions::default()).unwrap();
        let warm = cg_solve(
            &a,
            &b,
            &CgOptions {
                initial_guess: Some(cold.x.clone()),
                ..CgOptions::default()
            },
        )
        .unwrap();
        assert!(warm.iterations <= 1, "warm start took {}", warm.iterations);
    }

    #[test]
    fn cg_zero_rhs() {
        let a = laplacian_1d(5);
        let sol = cg_solve(&a, &[0.0; 5], &CgOptions::default()).unwrap();
        assert_eq!(sol.x, vec![0.0; 5]);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn cg_rejects_indefinite_diagonal() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, -1.0);
        b.push(1, 1, 1.0);
        let a = b.to_csr();
        assert!(matches!(
            cg_solve(&a, &[1.0, 1.0], &CgOptions::default()),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn cg_iteration_cap() {
        let a = laplacian_1d(40);
        let b = vec![1.0; 40];
        let res = cg_solve(
            &a,
            &b,
            &CgOptions {
                max_iterations: 1,
                tolerance: 1e-14,
                initial_guess: None,
            },
        );
        assert!(matches!(res, Err(LinalgError::NotConverged { .. })));
    }

    fn advection_diffusion(n: usize, peclet: f64) -> CsrMatrix {
        // 1-D advection-diffusion, upwind: nonsymmetric but diagonally
        // dominant.
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0 + peclet + 0.1);
            if i > 0 {
                b.push(i, i - 1, -1.0 - peclet);
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
            }
        }
        b.to_csr()
    }

    #[test]
    fn bicgstab_matches_dense_on_nonsymmetric() {
        let a = advection_diffusion(25, 1.5);
        assert!(!a.is_symmetric(1e-12));
        let b: Vec<f64> = (0..25).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
        let sol = bicgstab_solve(&a, &b, &CgOptions::default()).unwrap();
        let dense = crate::lu::solve(&a.to_dense(), &b).unwrap();
        for (s, d) in sol.x.iter().zip(dense.iter()) {
            assert!((s - d).abs() < 1e-6, "bicgstab {s} vs dense {d}");
        }
    }

    #[test]
    fn bicgstab_handles_spd_too() {
        let a = laplacian_1d(30);
        let b = vec![1.0; 30];
        let cg = cg_solve(&a, &b, &CgOptions::default()).unwrap();
        let bi = bicgstab_solve(&a, &b, &CgOptions::default()).unwrap();
        for (c, s) in cg.x.iter().zip(bi.x.iter()) {
            assert!((c - s).abs() < 1e-6);
        }
    }

    #[test]
    fn bicgstab_zero_rhs_and_warm_start() {
        let a = advection_diffusion(10, 0.7);
        let zero = bicgstab_solve(&a, &[0.0; 10], &CgOptions::default()).unwrap();
        assert_eq!(zero.x, vec![0.0; 10]);
        let b = vec![1.0; 10];
        let first = bicgstab_solve(&a, &b, &CgOptions::default()).unwrap();
        let warm = bicgstab_solve(
            &a,
            &b,
            &CgOptions {
                initial_guess: Some(first.x.clone()),
                ..CgOptions::default()
            },
        )
        .unwrap();
        assert!(warm.iterations <= 1);
    }

    #[test]
    fn bicgstab_rejects_zero_diagonal() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        let a = b.to_csr();
        assert!(matches!(
            bicgstab_solve(&a, &[1.0, 1.0], &CgOptions::default()),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn empty_rows_have_ptr_entries() {
        let mut b = TripletBuilder::new(4, 4);
        b.push(0, 0, 1.0);
        b.push(3, 3, 1.0);
        let a = b.to_csr();
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.get(2, 2), 0.0);
        assert_eq!(a.nnz(), 2);
        // matvec over empty rows must produce zeros.
        let y = a.matvec(&[1.0; 4]).unwrap();
        assert_eq!(y, vec![1.0, 0.0, 0.0, 1.0]);
    }
}
