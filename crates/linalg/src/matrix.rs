//! Dense row-major matrix type.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::dispatch::dual_compile;
use crate::error::{LinalgError, Result};
use crate::vecops;

/// A dense, row-major matrix of `f64`.
///
/// Row-major storage makes row extraction free, which matters because the
/// EigenMaps sensing matrix `Ψ̃_K` is a *row selection* of the basis matrix
/// (one row per sensor location).
///
/// # Examples
///
/// ```
/// use eigenmaps_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a generator function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix taking ownership of a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument {
                context: "from_vec: data length must equal rows*cols",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diag(d: &[f64]) -> Self {
        let mut m = Matrix::zeros(d.len(), d.len());
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the `i`-th row as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows the `i`-th row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        let c = self.cols;
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Copies the `j`-th column into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Writes `v` into the `j`-th column.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols` or `v.len() != rows`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        assert_eq!(v.len(), self.rows, "set_col: length mismatch");
        for (i, &x) in v.iter().enumerate() {
            self[(i, j)] = x;
        }
    }

    /// Borrows the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                t[(j, i)] = v;
            }
        }
        t
    }

    /// Matrix–matrix product `self · rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                context: "matmul",
                expected: (self.cols, rhs.cols),
                found: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm(
            &self.data,
            self.cols,
            1,
            &rhs.data,
            &mut out.data,
            self.cols,
            rhs.cols,
        );
        Ok(out)
    }

    /// Product with the transpose of `self` on the left: `selfᵀ · rhs`.
    ///
    /// Computed without materialising the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows != rhs.rows`.
    pub fn tr_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                context: "tr_matmul",
                expected: (self.rows, rhs.cols),
                found: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        gemm(
            &self.data,
            1,
            self.cols,
            &rhs.data,
            &mut out.data,
            self.rows,
            rhs.cols,
        );
        Ok(out)
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                context: "matvec",
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| vecops::dot(self.row(i), x))
            .collect())
    }

    /// Transposed matrix–vector product `selfᵀ · x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != rows`.
    pub fn tr_matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                context: "tr_matvec",
                expected: (self.rows, 1),
                found: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (t, &xt) in x.iter().enumerate() {
            if xt != 0.0 {
                vecops::axpy(xt, self.row(t), &mut out);
            }
        }
        Ok(out)
    }

    /// Returns a new matrix formed by the selected rows, in the given order.
    ///
    /// Duplicated indices are allowed (useful for bootstrap-style sampling).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if any index is out of
    /// bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            if src >= self.rows {
                return Err(LinalgError::InvalidArgument {
                    context: "select_rows: index out of bounds",
                });
            }
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        Ok(out)
    }

    /// Returns a new matrix formed by the first `k` columns.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `k > cols`.
    pub fn leading_cols(&self, k: usize) -> Result<Matrix> {
        if k > self.cols {
            return Err(LinalgError::InvalidArgument {
                context: "leading_cols: k exceeds column count",
            });
        }
        let mut out = Matrix::zeros(self.rows, k);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[..k]);
        }
        Ok(out)
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                context: "add",
                expected: self.shape(),
                found: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise difference `self − rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                context: "sub",
                expected: self.shape(),
                found: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every element by `a`, in place.
    pub fn scale_mut(&mut self, a: f64) {
        vecops::scale(a, &mut self.data);
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn norm_fro(&self) -> f64 {
        vecops::norm2(&self.data)
    }

    /// Largest absolute entry `max |a_ij|`.
    pub fn norm_max(&self) -> f64 {
        vecops::norm_inf(&self.data)
    }

    /// Checks symmetry up to an absolute tolerance.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for i in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for j in 0..max_cols {
                write!(f, "{:>10.4}", self[(i, j)])?;
                if j + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

/// Output rows and columns one [`gemm`] tile keeps in registers.
const TILE_ROWS: usize = 4;
const TILE_COLS: usize = 8;
/// Inner indices per [`gemm`] pass: a pass's slice of `b` stays in L1
/// while every row block of the output runs over it.
const TILE_INNER: usize = 128;

dual_compile! {
    /// `out[i, j] += Σ_k a(i, k)·b[k, j]` over `inner` values of `k`, where
    /// `a(i, k) = a[i·a_row + k·a_inner]` (so `matmul` and `tr_matmul`
    /// share it) and `b`, `out` are row-major with `cols` columns. Every
    /// element accumulates in ascending `k` and skips the terms whose
    /// `a(i, k)` is zero, as the row-by-row `axpy` loop it replaces did. A
    /// tile of up to `TILE_ROWS × TILE_COLS` outputs stays in registers
    /// across a pass of `TILE_INNER` values of `k` and shares each `b` row
    /// load; the tile's `a` values are first packed `k`-major. Between
    /// passes a tile's sums wait in `out` unchanged.
    fn gemm / gemm_portable / gemm_avx2 (
        a: &[f64],
        a_row: usize,
        a_inner: usize,
        b: &[f64],
        out: &mut [f64],
        inner: usize,
        cols: usize,
    ) {
        if cols == 0 {
            return;
        }
        let rows = out.len() / cols;
        let mut panel = vec![0.0; TILE_INNER * TILE_ROWS];
        for k0 in (0..inner).step_by(TILE_INNER) {
            let k1 = (k0 + TILE_INNER).min(inner);
            let b = &b[k0 * cols..k1 * cols];
            let mut i = 0;
            while i < rows {
                let mr = if rows - i >= TILE_ROWS { TILE_ROWS } else { 1 };
                for (k, p) in (k0..k1).zip(panel.chunks_exact_mut(mr)) {
                    for (r, v) in p.iter_mut().enumerate() {
                        *v = a[(i + r) * a_row + k * a_inner];
                    }
                }
                let panel = &panel[..(k1 - k0) * mr];
                let out = &mut out[i * cols..(i + mr) * cols];
                let mut j = 0;
                while j < cols {
                    let left = cols - j;
                    let mc = [TILE_COLS, 4, 2, 1].into_iter().find(|&c| c <= left).unwrap_or(1);
                    match (mr, mc) {
                        (TILE_ROWS, TILE_COLS) => gemm_tile::<TILE_ROWS, TILE_COLS>(panel, b, out, cols, j),
                        (TILE_ROWS, 4) => gemm_tile::<TILE_ROWS, 4>(panel, b, out, cols, j),
                        (TILE_ROWS, 2) => gemm_tile::<TILE_ROWS, 2>(panel, b, out, cols, j),
                        (TILE_ROWS, _) => gemm_tile::<TILE_ROWS, 1>(panel, b, out, cols, j),
                        (_, TILE_COLS) => gemm_tile::<1, TILE_COLS>(panel, b, out, cols, j),
                        (_, 4) => gemm_tile::<1, 4>(panel, b, out, cols, j),
                        (_, 2) => gemm_tile::<1, 2>(panel, b, out, cols, j),
                        _ => gemm_tile::<1, 1>(panel, b, out, cols, j),
                    }
                    j += mc;
                }
                i += mr;
            }
        }
    }
}

/// The `R × C` output tile of [`gemm`] at column `j` of the `R` rows in
/// `out`, over one pass: the pass's `k`-major `panel` of `a` values and
/// its rows of `b`.
#[inline(always)]
fn gemm_tile<const R: usize, const C: usize>(
    panel: &[f64],
    b: &[f64],
    out: &mut [f64],
    cols: usize,
    j: usize,
) {
    let mut acc = [[0.0; C]; R];
    for (acc_r, out_r) in acc.iter_mut().zip(out.chunks_exact(cols)) {
        acc_r.copy_from_slice(&out_r[j..j + C]);
    }
    for (ak, bk) in panel.chunks_exact(R).zip(b.chunks_exact(cols)) {
        let bk = &bk[j..j + C];
        // One test for the whole column of `a` values in the common case
        // that none is zero (NaN is not), then the per-row skip.
        let dense = ak.iter().fold(true, |all, &av| all & (av != 0.0));
        for (acc_r, &av) in acc.iter_mut().zip(ak) {
            if !dense && av == 0.0 {
                continue;
            }
            for t in 0..C {
                acc_r[t] += av * bk[t];
            }
        }
    }
    for (acc_r, out_r) in acc.iter().zip(out.chunks_exact_mut(cols)) {
        out_r[j..j + C].copy_from_slice(acc_r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row-by-row `axpy` products the tiled [`gemm`] replaced, kept
    /// verbatim as its bitwise oracle.
    fn oracle_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for (k, &aik) in a.row(i).iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                vecops::axpy(aik, b.row(k), orow);
            }
        }
        out
    }

    fn oracle_tr_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, b.cols);
        for t in 0..a.rows {
            for (i, &ati) in a.row(t).iter().enumerate() {
                if ati == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                vecops::axpy(ati, b.row(t), orow);
            }
        }
        out
    }

    type Gemm = fn(&[f64], usize, usize, &[f64], &mut [f64], usize, usize);

    /// Every compilation of [`gemm`] this host can run, called directly.
    fn gemm_kernels() -> Vec<(&'static str, Gemm)> {
        let mut kernels: Vec<(&'static str, Gemm)> = vec![("portable", gemm_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reports AVX2.
            kernels.push(("avx2", |a, r, i, b, o, n, c| unsafe {
                gemm_avx2(a, r, i, b, o, n, c)
            }));
        }
        kernels
    }

    /// Entries with exact zeros, negative zeros, values whose products
    /// cancel, and a few that are infinite or NaN when `wild`.
    fn awkward(rows: usize, cols: usize, seed: usize, wild: bool) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| match (i * 7 + j * 13 + seed) % 11 {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => -1.0,
            4 if wild && (i + j) % 5 == 0 => f64::INFINITY,
            5 if wild && (i + j) % 7 == 0 => f64::NAN,
            _ => ((i * 31 + j * 17 + seed) as f64).sin() * 3.0,
        })
    }

    /// The bits of every entry; any NaN matches any NaN, since Rust leaves
    /// a NaN's sign and payload unspecified.
    fn bits(m: &Matrix) -> Vec<u64> {
        slice_bits(&m.data)
    }

    fn slice_bits(x: &[f64]) -> Vec<u64> {
        x.iter()
            .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
            .collect()
    }

    #[test]
    fn tiled_products_equal_the_axpy_oracle_bit_for_bit() {
        let shapes = [
            (1, 1, 1),
            (1, 3, 1),
            (3, 1, 2),
            (4, 5, 8),
            (5, 7, 9),
            (7, 2, 13),
            (9, 16, 26),
            (30, 84, 26),
            (4, 0, 3),
        ];
        for (seed, &(m, k, n)) in shapes.iter().enumerate() {
            for wild in [false, true] {
                let a = awkward(m, k, seed, wild);
                let b = awkward(k, n, seed + 3, wild);
                let at = a.transpose();
                assert_eq!(bits(&a.matmul(&b).unwrap()), bits(&oracle_matmul(&a, &b)));
                assert_eq!(
                    bits(&at.tr_matmul(&b).unwrap()),
                    bits(&oracle_tr_matmul(&at, &b))
                );
                for (name, gemm) in gemm_kernels() {
                    let mut out = vec![0.0; m * n];
                    gemm(&a.data, k, 1, &b.data, &mut out, k, n);
                    assert_eq!(
                        slice_bits(&out),
                        bits(&oracle_matmul(&a, &b)),
                        "{name} matmul {m}x{k}x{n} wild={wild}"
                    );
                    let mut out = vec![0.0; m * n];
                    gemm(&at.data, 1, m, &b.data, &mut out, k, n);
                    assert_eq!(
                        slice_bits(&out),
                        bits(&oracle_tr_matmul(&at, &b)),
                        "{name} tr_matmul {m}x{k}x{n} wild={wild}"
                    );
                }
            }
        }
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn identity_and_diag() {
        let i = Matrix::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let d = Matrix::diag(&[2.0, 3.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(1, 0)], 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch {
                context: "matmul",
                ..
            })
        ));
    }

    #[test]
    fn tr_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64);
        let b = Matrix::from_fn(4, 2, |i, j| (i * j) as f64 + 1.0);
        let fast = a.tr_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn matvec_and_tr_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.tr_matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![9.0, 12.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.tr_matvec(&[1.0]).is_err());
    }

    #[test]
    fn select_rows_and_leading_cols() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = a.select_rows(&[3, 0, 3]).unwrap();
        assert_eq!(s.row(0), a.row(3));
        assert_eq!(s.row(1), a.row(0));
        assert_eq!(s.row(2), a.row(3));
        assert!(a.select_rows(&[4]).is_err());

        let l = a.leading_cols(2).unwrap();
        assert_eq!(l.shape(), (4, 2));
        assert_eq!(l[(2, 1)], a[(2, 1)]);
        assert!(a.leading_cols(5).is_err());
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b).unwrap(), Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(b.sub(&a).unwrap(), Matrix::from_rows(&[&[2.0, 3.0]]));
        let mut c = a.clone();
        c.scale_mut(3.0);
        assert_eq!(c, Matrix::from_rows(&[&[3.0, 6.0]]));
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 5.0]]);
        assert!(s.is_symmetric(0.0));
        let ns = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 5.0]]);
        assert!(!ns.is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(a.norm_max(), 4.0);
    }

    #[test]
    fn debug_truncates() {
        let a = Matrix::zeros(20, 20);
        let s = format!("{a:?}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains('…'));
    }

    #[test]
    fn set_col_roundtrip() {
        let mut a = Matrix::zeros(3, 2);
        a.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(a.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(a.col(0), vec![0.0, 0.0, 0.0]);
    }
}
