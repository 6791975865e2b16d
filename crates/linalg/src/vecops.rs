//! Primitive operations on `&[f64]` vectors.
//!
//! These free functions are the innermost kernels of the crate; everything
//! else (QR, SVD, CG, PCA) is built on top of them. They operate on plain
//! slices so callers never need to wrap their data.

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths (debug and release).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        acc += a * b;
    }
    acc
}

/// Euclidean norm `‖x‖₂`, computed with scaling to avoid overflow.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    let max = x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    if max == 0.0 || !max.is_finite() {
        return max;
    }
    let mut acc = 0.0;
    for v in x {
        let s = v / max;
        acc += s * s;
    }
    max * acc.sqrt()
}

/// Squared Euclidean norm `‖x‖₂²`.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Infinity norm `max |x_i|`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// `y ← y + a·x` (the BLAS `axpy` kernel).
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// `x ← a·x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Element-wise difference `x − y` as a new vector.
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
#[inline]
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a - b).collect()
}

/// Element-wise sum `x + y` as a new vector.
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
#[inline]
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a + b).collect()
}

/// Arithmetic mean of the entries; `0.0` for an empty slice.
#[inline]
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm2_is_scaled() {
        // Naive sum of squares would overflow; the scaled version must not.
        let big = vec![1e200, 1e200];
        let n = norm2(&big);
        assert!((n - 1e200 * 2.0_f64.sqrt()).abs() / n < 1e-12);
    }

    #[test]
    fn norm2_zero() {
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn axpy_and_scale() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        scale(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
    }

    #[test]
    fn mean_of_entries() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
