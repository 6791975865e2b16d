//! Sparse matrices in CSR form, a banded Cholesky factorization and
//! Jacobi-preconditioned Krylov solvers.
//!
//! The compact thermal model solves the same sparse SPD system on every
//! backward-Euler step (`(C/Δt + G) T⁺ = C/Δt·T + P`). Its 7-point stencil
//! has a narrow band once the cells are numbered along the grid's shorter
//! side, so [`BandCholesky`] factors it once and each step is two
//! triangular sweeps. [`cg_solve`] is the iterative SPD alternative (and
//! the factor's test oracle); [`bicgstab_solve`] handles the nonsymmetric
//! systems that coolant advection produces.

use crate::dispatch::dual_compile;
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

/// Cholesky factor `P A Pᵀ = L Lᵀ` of a symmetric positive-definite sparse
/// matrix, stored as a band.
///
/// `P` is a symmetric ordering the caller supplies: `order[k]` is the row of
/// `A` placed at position `k`. A good ordering keeps every non-zero of
/// `P A Pᵀ` within `w` of the diagonal (the half-bandwidth); `L` then has
/// the same band and no fill outside it. Row `k` of `L` is stored as its
/// `w + 1` entries `L[k, k−w..=k]`, zero-padded for `k < w`, so both
/// triangular sweeps run over contiguous slices: the forward sweep is one
/// dot product per row and the backward sweep one axpy per row.
///
/// Factoring costs `O(n·w²)` flops, each solve `O(n·w)`, and the factor
/// holds `n·(w + 1)` values. The result is deterministic: the same matrix
/// and ordering give a bitwise-equal factor and bitwise-equal solutions.
///
/// # Examples
///
/// ```
/// use eigenmaps_linalg::sparse::{BandCholesky, TripletBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A tridiagonal SPD matrix, numbered backwards.
/// let mut t = TripletBuilder::new(3, 3);
/// for i in 0..3 {
///     t.push(i, i, 4.0);
///     if i > 0 {
///         t.push(i, i - 1, -1.0);
///         t.push(i - 1, i, -1.0);
///     }
/// }
/// let factor = BandCholesky::factor(&t.to_csr(), &[2, 1, 0])?;
/// assert_eq!(factor.half_bandwidth(), 1);
/// let x = factor.solve(&[3.0, 2.0, 3.0])?;
/// assert!(x.iter().all(|&v| (v - 1.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandCholesky {
    order: Vec<usize>,
    half_bandwidth: usize,
    /// `n × (w + 1)`, row-major; the diagonal is the last entry of a row.
    band: Vec<f64>,
}

impl BandCholesky {
    /// Factors `a` under the symmetric ordering `order`.
    ///
    /// Only the lower triangle of `P A Pᵀ` is read; symmetry of `a` is the
    /// caller's responsibility (checked in debug builds). The half-bandwidth
    /// is the widest `|position(i) − position(j)|` over the stored entries.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for rectangular input.
    /// * [`LinalgError::ShapeMismatch`] if `order.len()` differs from the
    ///   dimension.
    /// * [`LinalgError::InvalidArgument`] if `order` is not a permutation.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is not positive;
    ///   `pivot` names the row of `a` (not its position in `order`).
    pub fn factor(a: &CsrMatrix, order: &[usize]) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::NotSquare {
                shape: (a.rows(), a.cols()),
            });
        }
        if order.len() != n {
            return Err(LinalgError::ShapeMismatch {
                context: "band cholesky ordering",
                expected: (n, 1),
                found: (order.len(), 1),
            });
        }
        debug_assert!(
            a.is_symmetric(1e-8 * a.values.iter().fold(1e-300_f64, |m, v| m.max(v.abs()))),
            "BandCholesky::factor called with an asymmetric matrix"
        );
        let mut position = vec![usize::MAX; n];
        for (k, &row) in order.iter().enumerate() {
            if row >= n || position[row] != usize::MAX {
                return Err(LinalgError::InvalidArgument {
                    context: "band cholesky ordering is not a permutation",
                });
            }
            position[row] = k;
        }
        let w = a
            .entries()
            .map(|(i, j, _)| position[i].abs_diff(position[j]))
            .max()
            .unwrap_or(0);
        let width = w + 1;

        // Column `c` of band row `k` lives at offset `c + w − k`.
        let mut band = vec![0.0; n * width];
        for (i, j, v) in a.entries() {
            let (k, c) = (position[i], position[j]);
            if c <= k {
                band[k * width + c + w - k] = v;
            }
        }
        if let Some(k) = factor_band(&mut band, w) {
            return Err(LinalgError::NotPositiveDefinite { pivot: order[k] });
        }
        Ok(BandCholesky {
            order: order.to_vec(),
            half_bandwidth: w,
            band,
        })
    }

    /// Dimension `n` of the factored matrix.
    pub fn dim(&self) -> usize {
        self.order.len()
    }

    /// Half-bandwidth `w` of `P A Pᵀ` (and of `L`).
    pub fn half_bandwidth(&self) -> usize {
        self.half_bandwidth
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len()` differs from the
    /// dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into a caller-provided `x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b` or `x` has the wrong
    /// length.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        self.solve_into_with(b, x, &mut Vec::new())
    }

    /// [`BandCholesky::solve_into`] with caller-kept working storage, so
    /// repeated solves allocate nothing; `work` is resized to the
    /// dimension.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b` or `x` has the wrong
    /// length.
    pub fn solve_into_with(&self, b: &[f64], x: &mut [f64], work: &mut Vec<f64>) -> Result<()> {
        let n = self.dim();
        for len in [b.len(), x.len()] {
            if len != n {
                return Err(LinalgError::ShapeMismatch {
                    context: "band cholesky solve",
                    expected: (n, 1),
                    found: (len, 1),
                });
            }
        }
        let w = self.half_bandwidth;
        work.clear();
        work.extend(self.order.iter().map(|&row| b[row]));
        forward_sweep(&self.band, w, work);
        backward_sweep(&self.band, w, work);
        for (&row, &v) in self.order.iter().zip(work.iter()) {
            x[row] = v;
        }
        Ok(())
    }
}

/// Rows (in the backward sweep) or columns (in the factor) that the band
/// kernels advance together. Each element still runs its own chain of
/// operations in the order of the one-at-a-time loops; blocking only lets
/// independent chains overlap and shares loads between them.
const BLOCK: usize = 4;

dual_compile! {
    /// Factors the band in place (row `k` holds `A[k, k−w..=k]` on entry
    /// and `L[k, k−w..=k]` on exit); returns the position of the first
    /// non-positive pivot.
    ///
    /// Entry `c` of row `k` is `(A[k,c] − L[k, lo..c]·L[c, lo..c]) / L[c,c]`.
    /// `BLOCK` entries `c..c+BLOCK` of a row share its operand `L[k, lo..]`
    /// and every chunk that ends before `c`, so they run those chunks
    /// together, then finish one by one in column order.
    fn factor_band / factor_band_portable / factor_band_avx2
        (band: &mut [f64], w: usize) -> Option<usize>
    {
        let width = w + 1;
        for k in 0..band.len() / width {
            let lo = k.saturating_sub(w);
            let (done, rest) = band.split_at_mut(k * width);
            let row = &mut rest[..width];
            let mut c = lo;
            while c < k {
                if c + BLOCK > k {
                    let above = &done[c * width..(c + 1) * width];
                    let s = row[c + w - k]
                        - band_dot(&row[lo + w - k..c + w - k], &above[lo + w - c..w]);
                    row[c + w - k] = s / above[w];
                    c += 1;
                    continue;
                }
                let common = (c - lo) / 4;
                let x = &row[lo + w - k..][..4 * common];
                let aboves: [&[f64]; BLOCK] =
                    std::array::from_fn(|j| &done[(c + j) * width + lo + w - c - j..][..4 * common]);
                let mut acc = [[0.0; 4]; BLOCK];
                for m in 0..common {
                    let x = &x[4 * m..4 * m + 4];
                    for (a, above) in acc.iter_mut().zip(&aboves) {
                        let above = &above[4 * m..4 * m + 4];
                        for l in 0..4 {
                            a[l] += x[l] * above[l];
                        }
                    }
                }
                for (j, a) in acc.into_iter().enumerate() {
                    let cj = c + j;
                    let above = &done[cj * width..(cj + 1) * width];
                    let start = lo + 4 * common;
                    let s = row[cj + w - k]
                        - band_dot_from(a, &row[start + w - k..cj + w - k], &above[start + w - cj..w]);
                    row[cj + w - k] = s / above[w];
                }
                c += BLOCK;
            }
            let d = row[w] - band_dot(&row[lo + w - k..w], &row[lo + w - k..w]);
            if d.is_nan() || d <= 0.0 {
                return Some(k);
            }
            row[w] = d.sqrt();
        }
        None
    }
}

dual_compile! {
    /// `L y = b` in place, one dot product per row. Row `k` needs the
    /// `y[k−1]` it follows, and reloading it with a wide load right after
    /// its scalar store stalls on a failed store-to-load forward; so, past
    /// the head rows (when `w` is a multiple of 4), the last chunk
    /// `y[k−4..k]` comes from a window of the four newest values kept in
    /// registers. Every product and sum is unchanged.
    fn forward_sweep / forward_sweep_portable / forward_sweep_avx2
        (band: &[f64], w: usize, y: &mut [f64])
    {
        let (n, width) = (y.len(), w + 1);
        let start = if w >= 4 && w.is_multiple_of(4) { w.min(n) } else { n };
        for k in 0..start {
            let row = &band[k * width..(k + 1) * width];
            let lo = k.saturating_sub(w);
            y[k] = (y[k] - band_dot(&row[lo + w - k..w], &y[lo..k])) / row[w];
        }
        if start == n {
            return;
        }
        let mut window = [y[start - 4], y[start - 3], y[start - 2], y[start - 1]];
        for k in start..n {
            let row = &band[k * width..(k + 1) * width];
            let mut acc = [0.0; 4];
            for (l, v) in row[..w - 4].chunks_exact(4).zip(y[k - w..k - 4].chunks_exact(4)) {
                for t in 0..4 {
                    acc[t] += l[t] * v[t];
                }
            }
            let yk = (y[k] - band_dot_from(acc, &row[w - 4..w], &window)) / row[w];
            y[k] = yk;
            window = [window[1], window[2], window[3], yk];
        }
    }
}

dual_compile! {
    /// `Lᵀ z = y` in place from the bottom up: once `z_k` is known, row `k`
    /// of `L` carries `−z_k·L[k, i]` to every unknown `i` above it. A block
    /// of `BLOCK` rows first solves its own triangle row by row, then
    /// applies all its rows' updates in one pass over `y`; each element
    /// still receives them in row order `k, k − 1, …`.
    fn backward_sweep / backward_sweep_portable / backward_sweep_avx2
        (band: &[f64], w: usize, y: &mut [f64])
    {
        let width = w + 1;
        let mut k = y.len();
        while k > 0 {
            if w < BLOCK || k < w + BLOCK {
                let r = k - 1;
                let row = &band[r * width..(r + 1) * width];
                let lo = r.saturating_sub(w);
                let zr = y[r] / row[w];
                y[r] = zr;
                let a = -zr;
                for (yi, &l) in y[lo..r].iter_mut().zip(&row[lo + w - r..w]) {
                    *yi += a * l;
                }
                k -= 1;
                continue;
            }
            // Rows `bottom` down to `top`; `neg_z[j]` belongs to row
            // `bottom − j`.
            let (top, bottom) = (k - BLOCK, k - 1);
            let mut neg_z = [0.0; BLOCK];
            for j in 0..BLOCK {
                let r = bottom - j;
                let row = &band[r * width..(r + 1) * width];
                let zr = y[r] / row[w];
                y[r] = zr;
                neg_z[j] = -zr;
                for (yi, &l) in y[top..r].iter_mut().zip(&row[top + w - r..w]) {
                    *yi += neg_z[j] * l;
                }
            }
            // Unknowns `bottom − w..top` sit in every row's band.
            let rows: [&[f64]; BLOCK] =
                std::array::from_fn(|j| &band[(bottom - j) * width + j..][..w + 1 - BLOCK]);
            for (i, yi) in y[bottom - w..top].iter_mut().enumerate() {
                let mut acc = *yi;
                for (row, &a) in rows.iter().zip(&neg_z) {
                    acc += a * row[i];
                }
                *yi = acc;
            }
            // Unknowns `top − w..bottom − w` sit only in the bands of rows
            // `top..=i + w`.
            for r in (top..bottom).rev() {
                let row = &band[r * width..(r + 1) * width];
                for (yi, &l) in y[r - w..bottom - w].iter_mut().zip(row) {
                    *yi += neg_z[bottom - r] * l;
                }
            }
            k -= BLOCK;
        }
    }
}

/// Dot product with four independent partial sums, so the band sweeps are
/// not serialized on one floating-point add chain. The summation order is
/// fixed, which keeps factor and solve deterministic.
#[inline(always)]
fn band_dot(x: &[f64], y: &[f64]) -> f64 {
    band_dot_from([0.0; 4], x, y)
}

/// [`band_dot`] resumed from partial sums `acc` already holding the
/// chunks before `x` and `y`.
#[inline(always)]
fn band_dot_from(mut acc: [f64; 4], x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let (xc, yc) = (x.chunks_exact(4), y.chunks_exact(4));
    let tail: f64 = xc
        .remainder()
        .iter()
        .zip(yc.remainder())
        .map(|(a, b)| a * b)
        .sum();
    for (a, b) in xc.zip(yc) {
        for l in 0..4 {
            acc[l] += a[l] * b[l];
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The one-row-at-a-time band kernels the blocked ones replaced, kept
    /// verbatim as their bitwise oracle.
    mod oracle {
        use crate::vecops;

        fn band_dot(x: &[f64], y: &[f64]) -> f64 {
            let mut acc = [0.0; 4];
            let (xc, yc) = (x.chunks_exact(4), y.chunks_exact(4));
            let tail: f64 = xc
                .remainder()
                .iter()
                .zip(yc.remainder())
                .map(|(a, b)| a * b)
                .sum();
            for (a, b) in xc.zip(yc) {
                for l in 0..4 {
                    acc[l] += a[l] * b[l];
                }
            }
            (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
        }

        pub fn factor(band: &mut [f64], w: usize) -> Option<usize> {
            let width = w + 1;
            for k in 0..band.len() / width {
                let lo = k.saturating_sub(w);
                let (done, rest) = band.split_at_mut(k * width);
                let row = &mut rest[..width];
                for c in lo..k {
                    let above = &done[c * width..(c + 1) * width];
                    let s = row[c + w - k]
                        - band_dot(&row[lo + w - k..c + w - k], &above[lo + w - c..w]);
                    row[c + w - k] = s / above[w];
                }
                let d = row[w] - band_dot(&row[lo + w - k..w], &row[lo + w - k..w]);
                if d.is_nan() || d <= 0.0 {
                    return Some(k);
                }
                row[w] = d.sqrt();
            }
            None
        }

        pub fn forward(band: &[f64], w: usize, y: &mut [f64]) {
            for (k, row) in band.chunks_exact(w + 1).enumerate() {
                let lo = k.saturating_sub(w);
                y[k] = (y[k] - band_dot(&row[lo + w - k..w], &y[lo..k])) / row[w];
            }
        }

        pub fn backward(band: &[f64], w: usize, y: &mut [f64]) {
            for (k, row) in band.chunks_exact(w + 1).enumerate().rev() {
                let lo = k.saturating_sub(w);
                let zk = y[k] / row[w];
                y[k] = zk;
                vecops::axpy(-zk, &row[lo + w - k..w], &mut y[lo..k]);
            }
        }
    }

    type Factor = fn(&mut [f64], usize) -> Option<usize>;
    type Sweep = fn(&[f64], usize, &mut [f64]);

    /// Every compilation of the band kernels this host can run, called
    /// directly rather than through the dispatcher.
    fn band_kernels() -> Vec<(&'static str, Factor, Sweep, Sweep)> {
        let mut kernels: Vec<(&'static str, Factor, Sweep, Sweep)> = vec![(
            "portable",
            factor_band_portable,
            forward_sweep_portable,
            backward_sweep_portable,
        )];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY (each wrapper): the CPU reports AVX2.
            kernels.push((
                "avx2",
                |band, w| unsafe { factor_band_avx2(band, w) },
                |band, w, y| unsafe { forward_sweep_avx2(band, w, y) },
                |band, w, y| unsafe { backward_sweep_avx2(band, w, y) },
            ));
        }
        kernels
    }

    /// A random lower band of an SPD matrix (diagonally dominant), with
    /// exact zeros and negative zeros sprinkled in.
    fn random_band(n: usize, w: usize, rng: &mut StdRng) -> Vec<f64> {
        let width = w + 1;
        let mut band = vec![0.0; n * width];
        let mut row_sums = vec![0.0_f64; n];
        for k in 0..n {
            for c in k.saturating_sub(w)..k {
                let v = match rng.gen_range(0..8_u32) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0..1.0),
                };
                band[k * width + c + w - k] = v;
                row_sums[k] += v.abs();
                row_sums[c] += v.abs();
            }
        }
        for k in 0..n {
            band[k * width + w] = row_sums[k] + rng.gen_range(0.5..2.0);
        }
        band
    }

    fn random_rhs(n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.gen_range(0..8_u32) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-10.0..10.0),
            })
            .collect()
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn band_kernels_equal_the_row_by_row_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(29);
        for w in [0, 1, 3, 4, 5, 8, 112] {
            for n in [1, 3, 4, 5, w + 3, 3360] {
                let a = random_band(n, w, &mut rng);
                let b = random_rhs(n, &mut rng);
                let mut want = a.clone();
                assert_eq!(oracle::factor(&mut want, w), None, "w={w} n={n}");
                let mut want_y = b.clone();
                oracle::forward(&want, w, &mut want_y);
                let forward_bits = bits(&want_y);
                oracle::backward(&want, w, &mut want_y);
                for (name, factor, forward, backward) in band_kernels() {
                    let mut got = a.clone();
                    assert_eq!(factor(&mut got, w), None, "{name} w={w} n={n}");
                    assert_eq!(bits(&got), bits(&want), "{name} factor w={w} n={n}");
                    let mut y = b.clone();
                    forward(&got, w, &mut y);
                    assert_eq!(bits(&y), forward_bits, "{name} forward w={w} n={n}");
                    backward(&got, w, &mut y);
                    assert_eq!(bits(&y), bits(&want_y), "{name} backward w={w} n={n}");
                }
            }
        }
    }

    #[test]
    fn blocked_factor_fails_at_the_oracles_pivot() {
        let mut rng = StdRng::seed_from_u64(7);
        for (w, n, bad) in [(4, 40, 0), (4, 40, 2), (5, 40, 21), (112, 300, 250)] {
            let mut a = random_band(n, w, &mut rng);
            a[bad * (w + 1) + w] = -1.0;
            let want = oracle::factor(&mut a.clone(), w);
            assert_eq!(want, Some(bad));
            for (name, factor, _, _) in band_kernels() {
                assert_eq!(factor(&mut a.clone(), w), want, "{name} w={w} bad={bad}");
            }
        }
    }

    #[test]
    fn factored_solve_equals_the_oracle_through_the_ordering() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200;
        let mut t = TripletBuilder::new(n, n);
        for i in 0..n {
            t.push(i, i, 8.0 + rng.gen_range(0.0..1.0));
            for d in [1, 7] {
                if i + d < n {
                    let v = rng.gen_range(-1.0..1.0);
                    t.push(i, i + d, v);
                    t.push(i + d, i, v);
                }
            }
        }
        let a = t.to_csr();
        let order: Vec<usize> = (0..n).rev().collect();
        let f = BandCholesky::factor(&a, &order).unwrap();
        let b = random_rhs(n, &mut rng);
        let mut want = vec![0.0; n];
        let mut y: Vec<f64> = order.iter().map(|&r| b[r]).collect();
        let w = f.half_bandwidth();
        let mut band = f.band.clone();
        // Refactor from the assembled band with the oracle: the same L.
        for k in 0..n {
            for c in k.saturating_sub(w)..=k {
                band[k * (w + 1) + c + w - k] = a.get(order[k], order[c]);
            }
        }
        assert_eq!(oracle::factor(&mut band, w), None);
        assert_eq!(bits(&band), bits(&f.band));
        oracle::forward(&band, w, &mut y);
        oracle::backward(&band, w, &mut y);
        for (&r, &v) in order.iter().zip(&y) {
            want[r] = v;
        }
        let mut work = Vec::new();
        let mut got = vec![0.0; n];
        f.solve_into_with(&b, &mut got, &mut work).unwrap();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(bits(&f.solve(&b).unwrap()), bits(&want));
    }

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

    fn residual_ratio(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x).unwrap();
        vecops::norm2(&vecops::sub(b, &ax)) / vecops::norm2(b)
    }

    #[test]
    fn band_cholesky_solves_a_tridiagonal_system() {
        let a = laplacian_1d(30);
        let order: Vec<usize> = (0..30).collect();
        let f = BandCholesky::factor(&a, &order).unwrap();
        assert_eq!((f.dim(), f.half_bandwidth()), (30, 1));
        let b: Vec<f64> = (0..30).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let x = f.solve(&b).unwrap();
        assert!(residual_ratio(&a, &x, &b) < 1e-14);
        let dense = crate::chol::Cholesky::new(&a.to_dense()).unwrap();
        for (s, d) in x.iter().zip(dense.solve(&b).unwrap().iter()) {
            assert!((s - d).abs() < 1e-12, "band {s} vs dense {d}");
        }
    }

    #[test]
    fn band_cholesky_ordering_sets_the_band_not_the_answer() {
        // Interleaving the two halves of a path doubles the bandwidth; the
        // solution (in the caller's numbering) is the same.
        let a = laplacian_1d(12);
        let natural: Vec<usize> = (0..12).collect();
        let interleaved: Vec<usize> = (0..6).flat_map(|i| [i, 11 - i]).collect();
        let b: Vec<f64> = (0..12).map(|i| (i as f64).cos()).collect();
        let f1 = BandCholesky::factor(&a, &natural).unwrap();
        let f2 = BandCholesky::factor(&a, &interleaved).unwrap();
        assert_eq!((f1.half_bandwidth(), f2.half_bandwidth()), (1, 2));
        let (x1, x2) = (f1.solve(&b).unwrap(), f2.solve(&b).unwrap());
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-13);
        }
    }

    #[test]
    fn band_cholesky_diagonal_and_scalar_edge_cases() {
        let mut t = TripletBuilder::new(4, 4);
        for i in 0..4 {
            t.push(i, i, ((i + 1) * (i + 1)) as f64);
        }
        let f = BandCholesky::factor(&t.to_csr(), &[3, 0, 2, 1]).unwrap();
        assert_eq!(f.half_bandwidth(), 0);
        assert_eq!(
            f.solve(&[1.0, 8.0, 27.0, 64.0]).unwrap(),
            vec![1.0, 2.0, 3.0, 4.0]
        );

        let mut t = TripletBuilder::new(1, 1);
        t.push(0, 0, 4.0);
        let f = BandCholesky::factor(&t.to_csr(), &[0]).unwrap();
        assert_eq!((f.dim(), f.half_bandwidth()), (1, 0));
        assert_eq!(f.solve(&[2.0]).unwrap(), vec![0.5]);
    }

    #[test]
    fn band_cholesky_names_the_failing_pivot_in_the_callers_numbering() {
        // Eigenvalues 3 and −1: the first pivot is fine, the second fails.
        let mut t = TripletBuilder::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        t.push(1, 2, 2.0);
        t.push(2, 1, 2.0);
        t.push(2, 2, 1.0);
        let a = t.to_csr();
        assert_eq!(
            BandCholesky::factor(&a, &[0, 1, 2]),
            Err(LinalgError::NotPositiveDefinite { pivot: 2 })
        );
        assert_eq!(
            BandCholesky::factor(&a, &[2, 0, 1]),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        );
        let mut t = TripletBuilder::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, -1.0);
        assert_eq!(
            BandCholesky::factor(&t.to_csr(), &[0, 1]),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        );
    }

    #[test]
    fn band_cholesky_rejects_bad_shapes_and_orderings() {
        let a = laplacian_1d(3);
        assert!(matches!(
            BandCholesky::factor(&a, &[0, 1]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        for bad in [[0, 1, 1], [0, 1, 3]] {
            assert!(matches!(
                BandCholesky::factor(&a, &bad),
                Err(LinalgError::InvalidArgument { .. })
            ));
        }
        assert!(matches!(
            BandCholesky::factor(&TripletBuilder::new(2, 3).to_csr(), &[0, 1]),
            Err(LinalgError::NotSquare { .. })
        ));
        let f = BandCholesky::factor(&a, &[0, 1, 2]).unwrap();
        assert!(f.solve(&[1.0]).is_err());
        assert!(f.solve_into(&[1.0; 3], &mut [0.0; 2]).is_err());
    }

    #[test]
    fn band_cholesky_is_deterministic() {
        let a = laplacian_1d(40);
        let order: Vec<usize> = (0..40).rev().collect();
        let f1 = BandCholesky::factor(&a, &order).unwrap();
        let f2 = BandCholesky::factor(&a, &order).unwrap();
        assert_eq!(f1, f2);
        let b: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let (x1, x2) = (f1.solve(&b).unwrap(), f2.solve(&b).unwrap());
        assert!(x1.iter().zip(&x2).all(|(p, q)| p.to_bits() == q.to_bits()));
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
