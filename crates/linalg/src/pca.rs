//! Principal component analysis of sample covariance matrices.
//!
//! The EigenMaps basis (Sec. 3.1, Prop. 1) is the set of top-`K`
//! eigenvectors of the thermal-map covariance `Cx`. For the paper's grid
//! this is a `3360 × 3360` matrix of which only `K ≤ ~64` eigenpairs are
//! ever needed, so the default path is a **randomized subspace iteration**
//! that only touches the data matrix through `X·v` / `Xᵀ·v` products — the
//! covariance is never formed. An exact dense path ([`Pca::fit_exact`]) is
//! kept for small problems and used to cross-validate the randomized one in
//! tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::eig::sym_eig;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::qr::orthonormalize;
use crate::vecops;

/// Extra random probe directions beyond `k`. More oversampling buys
/// accuracy on slowly-decaying spectra.
const OVERSAMPLE: usize = 10;

/// Power (subspace) iterations. Thermal covariances decay fast, so a
/// handful suffices.
const POWER_ITERATIONS: usize = 3;

/// RNG seed for the probe matrix: fixed, so a fit is reproducible run to
/// run and the golden designs keep their bits.
const SEED: u64 = 0xE16E_3A95;

/// A fitted PCA model: mean, leading eigenpairs of the sample covariance,
/// and the total variance (needed for the approximation-error formula of
/// Prop. 1).
///
/// Sample convention: the data matrix is `T × N` with **one sample per
/// row**. The sample covariance uses the `1/(T−1)` normalization.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    eigenvalues: Vec<f64>,
    components: Matrix,
    total_variance: f64,
    samples: usize,
}

impl Pca {
    /// Fits the top-`k` principal components with randomized subspace
    /// iteration.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] if `k == 0`, `k > N`, or the data
    ///   matrix has fewer than 2 rows.
    /// * Propagated numeric errors from the internal QR/eigendecomposition
    ///   (not observed on finite input).
    ///
    /// # Examples
    ///
    /// ```
    /// use eigenmaps_linalg::{Matrix, Pca};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // 100 samples of a 1-D subspace embedded in 4-D, plus tiny noise.
    /// let data = Matrix::from_fn(100, 4, |t, j| {
    ///     let s = (t as f64 / 7.0).sin();
    ///     s * (j as f64 + 1.0) + 1e-6 * ((t * j) as f64).cos()
    /// });
    /// let pca = Pca::fit(&data, 1)?;
    /// // One component explains essentially all the variance.
    /// assert!(pca.approximation_error(1) < 1e-9 * pca.total_variance());
    /// # Ok(())
    /// # }
    /// ```
    pub fn fit(data: &Matrix, k: usize) -> Result<Self> {
        let (t, n) = data.shape();
        Self::validate(t, n, k)?;

        let (centered, mean, total_variance) = center(data);
        let denom = (t - 1) as f64;

        let l = (k + OVERSAMPLE).min(n);
        let mut rng = StdRng::seed_from_u64(SEED);
        let omega = Matrix::from_fn(n, l, |_, _| gaussian(&mut rng));

        // Y = C·Ω without forming C: C·X = Aᵀ(A·X)/(T−1).
        let apply_cov = |x: &Matrix| -> Result<Matrix> {
            let ax = centered.matmul(x)?;
            let mut y = centered.tr_matmul(&ax)?;
            y.scale_mut(1.0 / denom);
            Ok(y)
        };

        let mut q = orthonormalize(&apply_cov(&omega)?)?;
        for _ in 0..POWER_ITERATIONS {
            q = orthonormalize(&apply_cov(&q)?)?;
        }

        // Rayleigh–Ritz: B = Qᵀ C Q, small symmetric eigenproblem.
        let cq = apply_cov(&q)?;
        let mut b = q.tr_matmul(&cq)?;
        // Symmetrize roundoff.
        for i in 0..l {
            for j in (i + 1)..l {
                let avg = 0.5 * (b[(i, j)] + b[(j, i)]);
                b[(i, j)] = avg;
                b[(j, i)] = avg;
            }
        }
        let eig = sym_eig(&b)?;
        let w = eig.vectors.leading_cols(k)?;
        let components = q.matmul(&w)?;
        let eigenvalues: Vec<f64> = eig.values[..k].iter().map(|&v| v.max(0.0)).collect();

        Ok(Pca {
            mean,
            eigenvalues,
            components,
            total_variance,
            samples: t,
        })
    }

    /// Fits the top-`k` components by forming the dense covariance and
    /// running a full Jacobi eigendecomposition — exact, `O(N³)`, intended
    /// for small `N` and for validating the randomized path.
    ///
    /// # Errors
    ///
    /// Same contract as [`Pca::fit`].
    pub fn fit_exact(data: &Matrix, k: usize) -> Result<Self> {
        let (t, n) = data.shape();
        Self::validate(t, n, k)?;

        let (centered, mean, total_variance) = center(data);
        let mut cov = centered.tr_matmul(&centered)?;
        cov.scale_mut(1.0 / (t - 1) as f64);
        let eig = sym_eig(&cov)?;
        Ok(Pca {
            mean,
            eigenvalues: eig.values[..k].iter().map(|&v| v.max(0.0)).collect(),
            components: eig.vectors.leading_cols(k)?,
            total_variance,
            samples: t,
        })
    }

    fn validate(t: usize, n: usize, k: usize) -> Result<()> {
        if k == 0 || k > n {
            return Err(LinalgError::InvalidArgument {
                context: "pca: k must satisfy 1 <= k <= N",
            });
        }
        if t < 2 {
            return Err(LinalgError::InvalidArgument {
                context: "pca: need at least 2 samples",
            });
        }
        Ok(())
    }

    /// Sample mean (length `N`), subtracted before analysis.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Leading covariance eigenvalues `λ₀ ≥ λ₁ ≥ …`, length `k`.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Orthonormal principal components, `N × k`, column `i` pairing with
    /// `eigenvalues()[i]`.
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Total variance `tr(Cx) = Σ λ_n` over **all** `N` eigenvalues
    /// (computed exactly from the centered data, not just the `k` retained
    /// ones).
    pub fn total_variance(&self) -> f64 {
        self.total_variance
    }

    /// Number of samples the model was fitted on.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of retained components.
    pub fn k(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Prop. 1 approximation error `ξ(K) = Σ_{n ≥ K} λ_n` for `K ≤ k`,
    /// i.e. the expected squared error energy of the best `K`-dimensional
    /// linear approximation.
    ///
    /// # Panics
    ///
    /// Panics if `keep > k()`.
    pub fn approximation_error(&self, keep: usize) -> f64 {
        assert!(
            keep <= self.k(),
            "keep={keep} exceeds fitted k={}",
            self.k()
        );
        let explained: f64 = self.eigenvalues[..keep].iter().sum();
        (self.total_variance - explained).max(0.0)
    }

    /// A copy of this model keeping only the first `keep` components
    /// (cheap way to sweep `K` after a single large fit).
    ///
    /// # Panics
    ///
    /// Panics if `keep` is 0 or exceeds the fitted `k`.
    pub fn truncated(&self, keep: usize) -> Pca {
        assert!(
            keep >= 1 && keep <= self.k(),
            "truncated: keep={keep} outside 1..={}",
            self.k()
        );
        Pca {
            mean: self.mean.clone(),
            eigenvalues: self.eigenvalues[..keep].to_vec(),
            components: self
                .components
                .leading_cols(keep)
                .expect("keep validated above"),
            total_variance: self.total_variance,
            samples: self.samples,
        }
    }

    /// Projects a sample onto the retained components, returning the `k`
    /// coefficients `α = Ψᵀ(x − mean)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != N`.
    pub fn project(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.mean.len() {
            return Err(LinalgError::ShapeMismatch {
                context: "pca project",
                expected: (self.mean.len(), 1),
                found: (x.len(), 1),
            });
        }
        let centered = vecops::sub(x, &self.mean);
        self.components.tr_matvec(&centered)
    }

    /// Reconstructs a sample from `k` coefficients: `x̂ = Ψ α + mean`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `coeffs.len() != k`.
    pub fn reconstruct(&self, coeffs: &[f64]) -> Result<Vec<f64>> {
        let mut x = self.components.matvec(coeffs)?;
        vecops::axpy(1.0, &self.mean, &mut x);
        Ok(x)
    }

    /// Best `keep`-dimensional approximation of `x` (project then
    /// reconstruct, using only the first `keep` components).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != N`.
    ///
    /// # Panics
    ///
    /// Panics if `keep > k()`.
    pub fn approximate(&self, x: &[f64], keep: usize) -> Result<Vec<f64>> {
        assert!(
            keep <= self.k(),
            "keep={keep} exceeds fitted k={}",
            self.k()
        );
        let mut coeffs = self.project(x)?;
        for c in coeffs[keep..].iter_mut() {
            *c = 0.0;
        }
        self.reconstruct(&coeffs)
    }
}

/// Centers the rows of `data`; returns `(centered, mean, total_variance)`
/// where `total_variance = tr(C) = Σ_j ‖x_j − mean‖² / (T−1)`.
fn center(data: &Matrix) -> (Matrix, Vec<f64>, f64) {
    let (t, n) = data.shape();
    let mut mean = vec![0.0; n];
    for i in 0..t {
        vecops::axpy(1.0, data.row(i), &mut mean);
    }
    vecops::scale(1.0 / t as f64, &mut mean);

    let mut centered = data.clone();
    let mut total = 0.0;
    for i in 0..t {
        let row = centered.row_mut(i);
        for (v, m) in row.iter_mut().zip(mean.iter()) {
            *v -= m;
        }
        total += vecops::norm2_sq(row);
    }
    (centered, mean, total / (t - 1).max(1) as f64)
}

/// Standard normal sample via Box–Muller (avoids a `rand_distr` dependency).
fn gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic data with a known planted spectrum: x = Σ_i √λ_i g_i e_i.
    fn planted(t: usize, n: usize, lambdas: &[f64], seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(t, n, |_, j| {
            if j < lambdas.len() {
                lambdas[j].sqrt() * gaussian(&mut rng)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn exact_recovers_planted_spectrum() {
        let lambdas = [100.0, 25.0, 4.0];
        let data = planted(4000, 6, &lambdas, 1);
        let pca = Pca::fit_exact(&data, 3).unwrap();
        for (est, truth) in pca.eigenvalues().iter().zip(lambdas.iter()) {
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.15, "eigenvalue {est} vs planted {truth}");
        }
    }

    #[test]
    fn randomized_matches_exact() {
        let lambdas = [50.0, 10.0, 3.0, 1.0];
        let data = planted(500, 20, &lambdas, 2);
        let exact = Pca::fit_exact(&data, 4).unwrap();
        let rand = Pca::fit(&data, 4).unwrap();
        for (a, b) in exact.eigenvalues().iter().zip(rand.eigenvalues().iter()) {
            assert!((a - b).abs() < 1e-6 * a.max(1.0), "{a} vs {b}");
        }
        // Subspaces must agree: |⟨v_exact, v_rand⟩| ≈ 1 for separated modes.
        for i in 0..4 {
            let ve = exact.components().col(i);
            let vr = rand.components().col(i);
            let d = vecops::dot(&ve, &vr).abs();
            assert!(d > 1.0 - 1e-6, "component {i} misaligned: |dot|={d}");
        }
    }

    #[test]
    fn components_are_orthonormal() {
        let data = planted(200, 15, &[9.0, 4.0, 1.0], 3);
        let pca = Pca::fit(&data, 5).unwrap();
        let g = pca.components().tr_matmul(pca.components()).unwrap();
        let err = g.sub(&Matrix::identity(5)).unwrap().norm_max();
        assert!(err < 1e-10, "gram error {err}");
    }

    #[test]
    fn approximation_error_is_monotone_and_consistent() {
        let data = planted(300, 10, &[16.0, 8.0, 2.0, 0.5], 4);
        let pca = Pca::fit_exact(&data, 4).unwrap();
        let mut prev = pca.total_variance();
        for k in 0..=4 {
            let e = pca.approximation_error(k);
            assert!(e <= prev + 1e-12, "ξ({k}) increased");
            prev = e;
        }
        // ξ(0) = total variance.
        assert!((pca.approximation_error(0) - pca.total_variance()).abs() < 1e-12);
    }

    #[test]
    fn approximate_achieves_predicted_error() {
        // Empirical MSE of the K-term approximation over the training set
        // should match ξ(K)·(T-1)/T-ish; just require it's close.
        let data = planted(800, 8, &[10.0, 5.0, 1.0, 0.2], 5);
        let pca = Pca::fit_exact(&data, 4).unwrap();
        let k = 2;
        let mut total_sq = 0.0;
        for t in 0..data.rows() {
            let x = data.row(t);
            let xh = pca.approximate(x, k).unwrap();
            total_sq += vecops::norm2_sq(&vecops::sub(x, &xh));
        }
        let empirical = total_sq / (data.rows() - 1) as f64;
        let predicted = pca.approximation_error(k);
        let rel = (empirical - predicted).abs() / predicted;
        assert!(rel < 0.05, "empirical {empirical} vs predicted {predicted}");
    }

    #[test]
    fn projection_of_mean_is_zero() {
        let data = planted(100, 6, &[4.0, 1.0], 6);
        let pca = Pca::fit_exact(&data, 2).unwrap();
        let coeffs = pca.project(pca.mean()).unwrap();
        assert!(vecops::norm_inf(&coeffs) < 1e-12);
    }

    #[test]
    fn project_reconstruct_roundtrip_in_subspace() {
        let data = planted(100, 6, &[4.0, 1.0], 7);
        let pca = Pca::fit_exact(&data, 2).unwrap();
        // A vector already in the subspace+mean reconstructs exactly.
        let x = pca.reconstruct(&[1.5, -0.5]).unwrap();
        let coeffs = pca.project(&x).unwrap();
        assert!((coeffs[0] - 1.5).abs() < 1e-12);
        assert!((coeffs[1] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn validates_arguments() {
        let data = Matrix::zeros(10, 5);
        assert!(Pca::fit(&data, 0).is_err());
        assert!(Pca::fit(&data, 6).is_err());
        let one = Matrix::zeros(1, 5);
        assert!(Pca::fit(&one, 2).is_err());
        let pca = Pca::fit_exact(&planted(50, 5, &[1.0], 8), 2).unwrap();
        assert!(pca.project(&[0.0; 4]).is_err());
        assert!(pca.reconstruct(&[0.0; 3]).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = planted(100, 12, &[5.0, 2.0], 9);
        let a = Pca::fit(&data, 3).unwrap();
        let b = Pca::fit(&data, 3).unwrap();
        assert_eq!(a.eigenvalues(), b.eigenvalues());
        assert_eq!(a.components(), b.components());
    }

    #[test]
    fn mean_is_removed() {
        // Shift all samples by a constant; eigen-structure must not change.
        let base = planted(400, 6, &[9.0, 1.0], 10);
        let shifted = Matrix::from_fn(400, 6, |i, j| base[(i, j)] + 100.0);
        let p0 = Pca::fit_exact(&base, 2).unwrap();
        let p1 = Pca::fit_exact(&shifted, 2).unwrap();
        for (a, b) in p0.eigenvalues().iter().zip(p1.eigenvalues().iter()) {
            assert!((a - b).abs() < 1e-8 * a.max(1.0));
        }
        assert!((p1.mean()[0] - (p0.mean()[0] + 100.0)).abs() < 1e-9);
    }
}
