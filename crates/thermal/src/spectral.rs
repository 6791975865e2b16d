//! The direct solve behind [`crate::TransientSim`] and
//! [`crate::ThermalModel::steady_state`], in the 2-D DCT basis.
//!
//! The network is separable. Each layer is one material over a regular
//! grid with adiabatic side walls, and its vertical and sink conductances
//! are the same for every cell. So the lateral part of `G` on layer `l` is
//! `gx_l·L_cols ⊕ gy_l·L_rows`, where `L_n` is the Laplacian of a path of
//! `n` cells. The orthonormal DCT-II ([`dct_matrix`]) diagonalizes every
//! such Laplacian: `L_n = Dᵀ diag(λ) D`, with `λ_k = 2 − 2cos(πk/n)`. The
//! vertical links, the sink and `C/Δt` act cell by cell, so they commute
//! with the transform. In the DCT basis, `G + C/Δt` therefore splits into
//! one tridiagonal `L × L` system per mode `(p, q)`, which couples that
//! mode across the `L` layers. Each mode's system is factored once
//! (Thomas elimination, no pivoting: every chain is SPD and diagonally
//! dominant), and a solve costs `O(L)` per mode.
//!
//! The split needs every layer to be laterally uniform. Per-cell
//! materials, lateral convection (a film on the side walls, or a per-cell
//! sink coefficient) or a non-uniform vertical contact would couple the
//! modes, and a solve would need a general sparse factor again.

use std::f64::consts::PI;

use eigenmaps_linalg::dct::dct_matrix;

use crate::model::ThermalModel;

/// The per-layer terms of one solve.
#[derive(Debug, Clone, Copy)]
struct LayerTerms {
    /// Factor on the layer's previous state: `C/Δt`, or 0 for a steady
    /// solve.
    c_over_dt: f64,
    /// Conductance to the same cell of the next layer up (0 on the last).
    gz: f64,
    /// Source on mode `(0, 0)` per kelvin of ambient rise: the ambient
    /// coupling times `√(rows·cols)`, the DCT of a field of ones.
    ambient_dc: f64,
}

/// The DCT transforms of the grid and the per-mode Thomas factors of
/// `G + C/Δt` (or of `G`).
///
/// Fields are kept in column stacking on both sides: cell `(r, c)` at
/// `r + c·rows` and mode `(p, q)` at `p + q·rows`. Per-layer data is
/// layer-major, one entry per mode.
#[derive(Debug, Clone)]
pub(crate) struct SpectralSolver {
    rows: usize,
    cols: usize,
    /// `D_rows`, row-major: `d_rows[p·rows + r]`.
    d_rows: Vec<f64>,
    /// `D_rowsᵀ`, row-major: `d_rows_t[r·rows + p]`.
    d_rows_t: Vec<f64>,
    /// `D_cols`, row-major: `d_cols[q·cols + c]`.
    d_cols: Vec<f64>,
    layers: Vec<LayerTerms>,
    /// The elimination carry into layer `l`, `gz_{l−1} / m_{l−1}`, where
    /// `m` are the pivots (unused for `l = 0`).
    carry: Vec<f64>,
    /// `1 / m_l`.
    inv_pivot: Vec<f64>,
}

impl SpectralSolver {
    /// Factors `G + C/Δt` for `Some(dt)`, or `G` for `None`.
    pub(crate) fn new(model: &ThermalModel, dt: Option<f64>) -> Self {
        let grid = model.grid();
        let (rows, cols) = (grid.rows, grid.cols);
        let n = grid.cells();
        let eigenvalues = |len: usize| -> Vec<f64> {
            (0..len)
                .map(|k| 2.0 - 2.0 * (PI * k as f64 / len as f64).cos())
                .collect()
        };
        let (lambda_rows, lambda_cols) = (eigenvalues(rows), eigenvalues(cols));
        let coefficients = model.coefficients();
        let mut layers = Vec::with_capacity(coefficients.len());
        let mut carry = vec![0.0; coefficients.len() * n];
        let mut inv_pivot = vec![0.0; coefficients.len() * n];
        let mut below = 0.0;
        for (l, co) in coefficients.iter().enumerate() {
            let c_over_dt = dt.map_or(0.0, |dt| co.capacitance / dt);
            let shift = c_over_dt + below + co.gz + co.g_amb;
            for (q, &lc) in lambda_cols.iter().enumerate() {
                for (p, &lr) in lambda_rows.iter().enumerate() {
                    let i = l * n + p + q * rows;
                    let mut pivot = shift + co.gx * lc + co.gy * lr;
                    if l > 0 {
                        carry[i] = below * inv_pivot[i - n];
                        pivot -= carry[i] * below;
                    }
                    inv_pivot[i] = 1.0 / pivot;
                }
            }
            layers.push(LayerTerms {
                c_over_dt,
                gz: co.gz,
                ambient_dc: co.g_amb * (n as f64).sqrt(),
            });
            below = co.gz;
        }
        let d_rows = dct_matrix(rows);
        SpectralSolver {
            rows,
            cols,
            d_rows_t: d_rows.transpose().into_vec(),
            d_rows: d_rows.into_vec(),
            d_cols: dct_matrix(cols).into_vec(),
            layers,
            carry,
            inv_pivot,
        }
    }

    /// `out = D_rows · x · D_colsᵀ`: the DCT coefficients of the field
    /// `x`. `work` holds one field.
    pub(crate) fn forward(&self, x: &[f64], out: &mut [f64], work: &mut [f64]) {
        let (rows, cols) = (self.rows, self.cols);
        // work[:, c] = D_rows · x[:, c].
        for (w, xc) in work.chunks_exact_mut(rows).zip(x.chunks_exact(rows)) {
            w.fill(0.0);
            for (&v, d) in xc.iter().zip(self.d_rows_t.chunks_exact(rows)) {
                axpy(v, d, w);
            }
        }
        // out[:, q] = Σ_c D_cols[q, c] · work[:, c].
        for (o, dq) in out
            .chunks_exact_mut(rows)
            .zip(self.d_cols.chunks_exact(cols))
        {
            o.fill(0.0);
            for (&d, w) in dq.iter().zip(work.chunks_exact(rows)) {
                axpy(d, w, o);
            }
        }
    }

    /// `out = base + D_rowsᵀ · x · D_cols`: the field of the DCT
    /// coefficients `x`, offset by `base`. `work` holds one field.
    pub(crate) fn inverse(&self, x: &[f64], base: f64, out: &mut [f64], work: &mut [f64]) {
        let (rows, cols) = (self.rows, self.cols);
        // work[:, c] = Σ_q D_cols[q, c] · x[:, q].
        for (c, w) in work.chunks_exact_mut(rows).enumerate() {
            w.fill(0.0);
            for (xq, dq) in x.chunks_exact(rows).zip(self.d_cols.chunks_exact(cols)) {
                axpy(dq[c], xq, w);
            }
        }
        // out[:, c] = base + D_rowsᵀ · work[:, c].
        for (o, w) in out.chunks_exact_mut(rows).zip(work.chunks_exact(rows)) {
            o.fill(0.0);
            for (&v, d) in w.iter().zip(self.d_rows.chunks_exact(rows)) {
                axpy(v, d, o);
            }
            for v in o.iter_mut() {
                *v += base;
            }
        }
    }

    /// Every layer's field from its DCT coefficients (layer-major), offset
    /// by `base`.
    pub(crate) fn materialize(&self, spectral: &[f64], base: f64) -> Vec<f64> {
        let n = self.rows * self.cols;
        let mut fields = vec![0.0; spectral.len()];
        let mut work = vec![0.0; n];
        for (x, out) in spectral.chunks_exact(n).zip(fields.chunks_exact_mut(n)) {
            self.inverse(x, base, out, &mut work);
        }
        fields
    }

    /// Solves `(G + C/Δt) x⁺ = (C/Δt) x + b` in place, mode by mode, where
    /// `x` holds every layer's DCT coefficients and `b` is `source` on the
    /// die layer plus the sink's pull towards an ambient `ambient_rise`
    /// kelvin above the fields' offset, which lands on mode `(0, 0)` only.
    /// For a steady solve (`C/Δt = 0`) the old `x` must be zero.
    pub(crate) fn advance(&self, x: &mut [f64], source: &[f64], ambient_rise: f64) {
        let n = source.len();
        // Forward elimination: layer l takes the carry of layer l − 1.
        for (l, terms) in self.layers.iter().enumerate() {
            let (done, rest) = x.split_at_mut(l * n);
            let xl = &mut rest[..n];
            if l == 0 {
                for (v, &s) in xl.iter_mut().zip(source) {
                    *v = terms.c_over_dt * *v + s;
                }
            } else {
                let below = &done[(l - 1) * n..];
                let carry = &self.carry[l * n..(l + 1) * n];
                for ((v, &y), &k) in xl.iter_mut().zip(below).zip(carry) {
                    *v = terms.c_over_dt * *v + k * y;
                }
            }
            xl[0] += terms.ambient_dc * ambient_rise;
        }
        // Back substitution from the top layer down.
        for (l, terms) in self.layers.iter().enumerate().rev() {
            let (lower, upper) = x.split_at_mut((l + 1) * n);
            let xl = &mut lower[l * n..];
            let inv = &self.inv_pivot[l * n..(l + 1) * n];
            if upper.is_empty() {
                for (v, &m) in xl.iter_mut().zip(inv) {
                    *v *= m;
                }
            } else {
                for ((v, &m), &u) in xl.iter_mut().zip(inv).zip(&upper[..n]) {
                    *v = (*v + terms.gz * u) * m;
                }
            }
        }
    }
}

/// `y += a·x`, inlined into the transforms' inner loops.
#[inline(always)]
fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}
