//! Approximation subspaces for thermal maps: the EigenMaps (PCA) basis of
//! the paper and the DCT low-pass basis of the k-LSE baseline.

use eigenmaps_linalg::dct::dct2_basis;
use eigenmaps_linalg::{Matrix, Pca};

use crate::error::{CoreError, Result};
use crate::map::{MapEnsemble, ThermalMap};

/// The family a [`Basis`] implementation belongs to. Carried by
/// deployments through serialization (the eigen-specific diagnostics such
/// as the eigenvalue spectrum are not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisKind {
    /// Data-driven EigenMaps (PCA) basis.
    Eigen,
    /// Fixed zigzag-DCT basis (k-LSE).
    Dct,
    /// Any other [`Basis`] implementation.
    Custom,
}

impl BasisKind {
    /// Short human-readable family name.
    pub fn display_name(self) -> &'static str {
        match self {
            BasisKind::Eigen => "EigenMaps",
            BasisKind::Dct => "k-LSE (DCT)",
            BasisKind::Custom => "custom",
        }
    }
}

/// A `K`-dimensional affine approximation subspace for vectorized thermal
/// maps: `x ≈ Ψ_K α + mean`.
///
/// Implemented by [`EigenBasis`] (data-driven, optimal in the MSE sense by
/// Prop. 1) and [`DctBasis`] (fixed, data-independent — the k-LSE choice).
/// The trait is object-safe so evaluation harnesses can sweep over
/// heterogeneous method lists.
pub trait Basis {
    /// The `N × K` basis matrix `Ψ_K` with orthonormal columns.
    fn matrix(&self) -> &Matrix;

    /// The offset subtracted before projection (all-zeros for bases that
    /// operate on raw maps, the sample mean for PCA).
    fn mean(&self) -> &[f64];

    /// Grid height of the maps this basis describes.
    fn rows(&self) -> usize;

    /// Grid width of the maps this basis describes.
    fn cols(&self) -> usize;

    /// Short human-readable name for tables and figures.
    fn name(&self) -> &'static str;

    /// The family this basis belongs to (used to tag serialized
    /// deployments; custom implementations may keep the default).
    fn kind(&self) -> BasisKind {
        BasisKind::Custom
    }

    /// Subspace dimension `K`.
    fn k(&self) -> usize {
        self.matrix().cols()
    }

    /// Cells per map `N`.
    fn cells(&self) -> usize {
        self.matrix().rows()
    }

    /// Best-in-subspace approximation of a map: project, reconstruct.
    ///
    /// This is the *approximation error* path of Fig. 3(a) — no sensors
    /// involved, the projection sees the entire map.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if the map shape disagrees with
    /// the basis.
    fn approximate(&self, map: &ThermalMap) -> Result<ThermalMap> {
        if map.rows() != self.rows() || map.cols() != self.cols() {
            return Err(CoreError::ShapeMismatch {
                context: "basis approximate",
                expected: self.cells(),
                found: map.len(),
            });
        }
        let mut centered = map.as_slice().to_vec();
        for (v, m) in centered.iter_mut().zip(self.mean()) {
            *v -= m;
        }
        let coeffs = self.matrix().tr_matvec(&centered)?;
        let mut approx = self.matrix().matvec(&coeffs)?;
        for (v, m) in approx.iter_mut().zip(self.mean()) {
            *v += m;
        }
        ThermalMap::new(map.rows(), map.cols(), approx)
    }
}

/// The EigenMaps basis: top-`K` eigenvectors of the thermal-map covariance
/// (Sec. 3.1 / Prop. 1 of the paper), fitted on a design-time ensemble.
///
/// # Examples
///
/// ```
/// use eigenmaps_core::{EigenBasis, MapEnsemble, ThermalMap, Basis};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 40 snapshots of a field that mixes two spatial modes.
/// let maps: Vec<ThermalMap> = (0..40)
///     .map(|t| {
///         let a = (t as f64 / 5.0).sin();
///         let b = (t as f64 / 3.0).cos();
///         ThermalMap::from_fn(6, 6, |r, c| 50.0 + a * r as f64 + b * c as f64)
///     })
///     .collect();
/// let ens = MapEnsemble::from_maps(&maps)?;
/// let basis = EigenBasis::fit(&ens, 2)?;
/// // Two EigenMaps capture the two planted modes almost perfectly.
/// let err = basis.approximate(&maps[7])?.mse(&maps[7]);
/// assert!(err < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EigenBasis {
    pca: Pca,
    rows: usize,
    cols: usize,
}

impl EigenBasis {
    /// Fits the top-`k` EigenMaps with the randomized PCA path.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidArgument`] for `k = 0`, `k > N`, or fewer than
    ///   2 maps.
    /// * Propagated linear-algebra failures.
    pub fn fit(ensemble: &MapEnsemble, k: usize) -> Result<Self> {
        let pca = Pca::fit(ensemble.data(), k)?;
        Ok(EigenBasis {
            pca,
            rows: ensemble.rows(),
            cols: ensemble.cols(),
        })
    }

    /// Fits via the exact dense eigendecomposition — `O(N³)`, for small
    /// grids and cross-validation.
    ///
    /// # Errors
    ///
    /// Same contract as [`EigenBasis::fit`].
    pub fn fit_exact(ensemble: &MapEnsemble, k: usize) -> Result<Self> {
        let pca = Pca::fit_exact(ensemble.data(), k)?;
        Ok(EigenBasis {
            pca,
            rows: ensemble.rows(),
            cols: ensemble.cols(),
        })
    }

    /// Covariance eigenvalues `λ₀ ≥ … ≥ λ_{K−1}` (the spectrum of Fig. 2,
    /// right panel).
    pub fn eigenvalues(&self) -> &[f64] {
        self.pca.eigenvalues()
    }

    /// Prop. 1 approximation error `ξ(K') = Σ_{n ≥ K'} λ_n` for `K' ≤ K`.
    ///
    /// # Panics
    ///
    /// Panics if `keep > k()`.
    pub fn approximation_error(&self, keep: usize) -> f64 {
        self.pca.approximation_error(keep)
    }

    /// Total variance `tr(Cx)`.
    pub fn total_variance(&self) -> f64 {
        self.pca.total_variance()
    }

    /// The `i`-th EigenMap reshaped to the grid — what Fig. 2 (left)
    /// visualizes.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k()`.
    pub fn eigenmap(&self, i: usize) -> ThermalMap {
        assert!(i < self.k(), "eigenmap index {i} out of range");
        ThermalMap::new(self.rows, self.cols, self.pca.components().col(i))
            .expect("component length is N by construction")
    }

    /// A new basis keeping only the first `keep` EigenMaps (used by the
    /// `K = M` sweep: fit once with a large `K`, truncate per `M`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `keep` is 0 or exceeds the
    /// fitted dimension.
    pub fn truncated(&self, keep: usize) -> Result<EigenBasis> {
        if keep == 0 || keep > self.k() {
            return Err(CoreError::InvalidArgument {
                context: "truncated: keep must satisfy 1 <= keep <= k",
            });
        }
        // Rebuild a Pca-like basis by truncation. `Pca` has no truncate, so
        // carry the full one and slice through a bespoke struct would leak;
        // instead reconstruct the matrix subset.
        Ok(EigenBasis {
            pca: self.pca.truncated(keep),
            rows: self.rows,
            cols: self.cols,
        })
    }
}

impl Basis for EigenBasis {
    fn matrix(&self) -> &Matrix {
        self.pca.components()
    }

    fn mean(&self) -> &[f64] {
        self.pca.mean()
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn name(&self) -> &'static str {
        "EigenMaps"
    }

    fn kind(&self) -> BasisKind {
        BasisKind::Eigen
    }
}

/// The k-LSE approximation subspace: the `K` lowest-frequency 2-D DCT atoms
/// in zigzag order (Nowroz et al., DAC 2010). Data-independent; its offset
/// is zero.
#[derive(Debug, Clone)]
pub struct DctBasis {
    matrix: Matrix,
    mean: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl DctBasis {
    /// Builds the `K`-atom zigzag DCT basis for an `rows × cols` grid.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `k` is 0 or exceeds
    /// `rows·cols`.
    pub fn new(rows: usize, cols: usize, k: usize) -> Result<Self> {
        if k == 0 || k > rows * cols {
            return Err(CoreError::InvalidArgument {
                context: "DctBasis::new: k must satisfy 1 <= k <= N",
            });
        }
        let matrix = dct2_basis(rows, cols, k)?;
        Ok(DctBasis {
            matrix,
            mean: vec![0.0; rows * cols],
            rows,
            cols,
        })
    }
}

impl Basis for DctBasis {
    fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    fn mean(&self) -> &[f64] {
        &self.mean
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn name(&self) -> &'static str {
        "k-LSE (DCT)"
    }

    fn kind(&self) -> BasisKind {
        BasisKind::Dct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_mode_ensemble(rows: usize, cols: usize, t: usize) -> MapEnsemble {
        let maps: Vec<ThermalMap> = (0..t)
            .map(|i| {
                let a = (i as f64 / 5.0).sin();
                let b = (i as f64 / 3.0).cos();
                ThermalMap::from_fn(rows, cols, |r, c| 60.0 + a * (r as f64) - b * (c as f64))
            })
            .collect();
        MapEnsemble::from_maps(&maps).unwrap()
    }

    #[test]
    fn eigenbasis_captures_planted_modes() {
        let ens = two_mode_ensemble(5, 4, 60);
        let basis = EigenBasis::fit_exact(&ens, 2).unwrap();
        for t in [0, 10, 30] {
            let m = ens.map(t);
            let approx = basis.approximate(&m).unwrap();
            assert!(m.mse(&approx) < 1e-15, "mse {}", m.mse(&approx));
        }
    }

    #[test]
    fn eigenbasis_randomized_agrees_with_exact() {
        let ens = two_mode_ensemble(6, 6, 80);
        let a = EigenBasis::fit_exact(&ens, 3).unwrap();
        let b = EigenBasis::fit(&ens, 3).unwrap();
        for i in 0..2 {
            // Only the 2 planted modes are well-defined; compare those.
            let rel =
                (a.eigenvalues()[i] - b.eigenvalues()[i]).abs() / a.eigenvalues()[i].max(1e-12);
            assert!(
                rel < 1e-6,
                "λ{i}: {} vs {}",
                a.eigenvalues()[i],
                b.eigenvalues()[i]
            );
        }
    }

    #[test]
    fn approximation_error_matches_prop1_shape() {
        let ens = two_mode_ensemble(4, 4, 50);
        let basis = EigenBasis::fit_exact(&ens, 4).unwrap();
        // Monotone non-increasing in K.
        for k in 1..4 {
            assert!(basis.approximation_error(k) >= basis.approximation_error(k + 1) - 1e-12);
        }
        // Two modes: ξ(2) ≈ 0.
        assert!(basis.approximation_error(2) < 1e-10 * basis.total_variance().max(1.0));
    }

    #[test]
    fn eigenmap_reshape() {
        let ens = two_mode_ensemble(5, 3, 40);
        let basis = EigenBasis::fit_exact(&ens, 2).unwrap();
        let em = basis.eigenmap(0);
        assert_eq!(em.rows(), 5);
        assert_eq!(em.cols(), 3);
        // Unit norm as an eigenvector.
        let norm: f64 = em.as_slice().iter().map(|v| v * v).sum();
        assert!((norm - 1.0).abs() < 1e-10);
    }

    #[test]
    fn truncated_basis_keeps_leading_columns() {
        let ens = two_mode_ensemble(4, 4, 50);
        let full = EigenBasis::fit_exact(&ens, 4).unwrap();
        let cut = full.truncated(2).unwrap();
        assert_eq!(cut.k(), 2);
        assert_eq!(cut.eigenvalues(), &full.eigenvalues()[..2]);
        for i in 0..2 {
            assert_eq!(cut.matrix().col(i), full.matrix().col(i));
        }
        assert!(full.truncated(0).is_err());
        assert!(full.truncated(5).is_err());
        // ξ must be preserved by truncation.
        assert!((cut.approximation_error(2) - full.approximation_error(2)).abs() < 1e-12);
    }

    #[test]
    fn dct_basis_shapes_and_names() {
        let d = DctBasis::new(6, 5, 7).unwrap();
        assert_eq!(d.k(), 7);
        assert_eq!(d.cells(), 30);
        assert_eq!(d.name(), "k-LSE (DCT)");
        assert!(DctBasis::new(2, 2, 0).is_err());
        assert!(DctBasis::new(2, 2, 5).is_err());
    }

    #[test]
    fn dct_approximates_smooth_maps_well() {
        let m = ThermalMap::from_fn(8, 8, |r, c| {
            50.0 + 3.0 * (r as f64 / 7.0) + 2.0 * (c as f64 / 7.0)
        });
        let d = DctBasis::new(8, 8, 6).unwrap();
        let approx = d.approximate(&m).unwrap();
        assert!(m.mse(&approx) < 0.05, "mse {}", m.mse(&approx));
    }

    #[test]
    fn eigenbasis_beats_dct_on_structured_data() {
        // The core claim of Fig. 3(a): the PCA subspace is optimal for the
        // data it was trained on, beating a fixed DCT subspace of equal K.
        let ens = two_mode_ensemble(6, 6, 80);
        let k = 3;
        let eig = EigenBasis::fit_exact(&ens, k).unwrap();
        let dct = DctBasis::new(6, 6, k).unwrap();
        let mut mse_eig = 0.0;
        let mut mse_dct = 0.0;
        for t in 0..ens.len() {
            let m = ens.map(t);
            mse_eig += m.mse(&eig.approximate(&m).unwrap());
            mse_dct += m.mse(&dct.approximate(&m).unwrap());
        }
        assert!(
            mse_eig < mse_dct,
            "EigenMaps {mse_eig} not better than DCT {mse_dct}"
        );
    }

    #[test]
    fn approximate_rejects_wrong_shape() {
        let ens = two_mode_ensemble(4, 4, 20);
        let basis = EigenBasis::fit_exact(&ens, 2).unwrap();
        let wrong = ThermalMap::from_fn(5, 4, |_, _| 0.0);
        assert!(basis.approximate(&wrong).is_err());
    }
}
