//! Property-based tests for the linear-algebra kernels.
//!
//! These check algebraic invariants (orthogonality, residual orthogonality,
//! factorization round-trips, norm identities) on randomly generated
//! matrices rather than hand-picked cases.

use eigenmaps_linalg::prelude::*;
use proptest::prelude::*;

/// Strategy: a matrix with entries in [-10, 10] and bounded shape.
fn matrix_strategy(
    rows: std::ops::RangeInclusive<usize>,
    cols: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0..10.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized"))
    })
}

/// Strategy: a tall matrix (rows >= cols) for QR/SVD properties.
fn tall_matrix_strategy() -> impl Strategy<Value = Matrix> {
    (1usize..=6, 0usize..=6).prop_flat_map(|(c, extra)| {
        let r = c + extra;
        proptest::collection::vec(-10.0..10.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized"))
    })
}

/// Strategy: a symmetric matrix built as (A + Aᵀ)/2.
fn symmetric_strategy() -> impl Strategy<Value = Matrix> {
    (1usize..=8).prop_flat_map(|n| {
        proptest::collection::vec(-5.0..5.0f64, n * n).prop_map(move |data| {
            let a = Matrix::from_vec(n, n, data).expect("sized");
            let at = a.transpose();
            let mut s = a.add(&at).expect("same shape");
            s.scale_mut(0.5);
            s
        })
    })
}

/// Strategy: an SPD matrix built as AᵀA + n·I.
fn spd_strategy() -> impl Strategy<Value = Matrix> {
    (1usize..=7).prop_flat_map(|n| {
        proptest::collection::vec(-3.0..3.0f64, n * n).prop_map(move |data| {
            let a = Matrix::from_vec(n, n, data).expect("sized");
            let mut s = a.tr_matmul(&a).expect("square");
            for i in 0..n {
                s[(i, i)] += n as f64;
            }
            s
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(a in matrix_strategy(1..=8, 1..=8)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_associates_with_vectors(
        a in matrix_strategy(1..=5, 1..=5),
        scale in -3.0..3.0f64,
    ) {
        // (s·A)x == s·(Ax)
        let x: Vec<f64> = (0..a.cols()).map(|i| i as f64 - 1.0).collect();
        let ax = a.matvec(&x).unwrap();
        let mut sa = a.clone();
        sa.scale_mut(scale);
        let sax = sa.matvec(&x).unwrap();
        for (l, r) in sax.iter().zip(ax.iter()) {
            prop_assert!((l - scale * r).abs() < 1e-9);
        }
    }

    #[test]
    fn tr_matmul_matches_transpose_matmul(
        a in matrix_strategy(1..=6, 1..=6),
        b in matrix_strategy(1..=6, 1..=6),
    ) {
        prop_assume!(a.rows() == b.rows());
        let fast = a.tr_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        prop_assert!(fast.sub(&slow).unwrap().norm_max() < 1e-10);
    }

    #[test]
    fn qr_q_is_orthonormal_and_reproduces_a(a in tall_matrix_strategy()) {
        let qr = Qr::new(&a).unwrap();
        let q = qr.thin_q();
        let n = a.cols();
        let qtq = q.tr_matmul(&q).unwrap();
        prop_assert!(qtq.sub(&Matrix::identity(n)).unwrap().norm_max() < 1e-9);
        let back = q.matmul(&qr.r()).unwrap();
        prop_assert!(back.sub(&a).unwrap().norm_max() < 1e-8);
    }

    #[test]
    fn lstsq_residual_orthogonal_to_columns(a in tall_matrix_strategy()) {
        let b: Vec<f64> = (0..a.rows()).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        match lstsq(&a, &b) {
            Ok(x) => {
                let ax = a.matvec(&x).unwrap();
                let r: Vec<f64> = b.iter().zip(ax.iter()).map(|(u, v)| u - v).collect();
                let atr = a.tr_matvec(&r).unwrap();
                let scale = a.norm_fro().max(1.0) * vecops::norm2(&b).max(1.0);
                prop_assert!(vecops::norm_inf(&atr) < 1e-7 * scale);
            }
            // Random matrices may be (numerically) rank deficient; the
            // contract is an error, not a bogus answer.
            Err(LinalgError::Singular { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    #[test]
    fn svd_reconstructs_and_is_ordered(a in matrix_strategy(1..=7, 1..=7)) {
        let svd = Svd::new(&a).unwrap();
        let back = svd.reconstruct();
        prop_assert!(back.sub(&a).unwrap().norm_max() < 1e-8);
        for w in svd.s.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        for &s in &svd.s {
            prop_assert!(s >= 0.0);
        }
    }

    #[test]
    fn svd_spectral_norm_bounds_matvec(a in matrix_strategy(1..=6, 1..=6)) {
        let svd = Svd::new(&a).unwrap();
        let x: Vec<f64> = (0..a.cols()).map(|i| ((i + 1) as f64).sin()).collect();
        let ax = a.matvec(&x).unwrap();
        let lhs = vecops::norm2(&ax);
        let rhs = svd.sigma_max() * vecops::norm2(&x);
        prop_assert!(lhs <= rhs * (1.0 + 1e-9) + 1e-12);
    }

    #[test]
    fn sym_eig_residual_and_orthogonality(s in symmetric_strategy()) {
        let n = s.rows();
        let e = sym_eig(&s).unwrap();
        let vtv = e.vectors.tr_matmul(&e.vectors).unwrap();
        prop_assert!(vtv.sub(&Matrix::identity(n)).unwrap().norm_max() < 1e-9);
        for (i, &lam) in e.values.iter().enumerate() {
            let v = e.vectors.col(i);
            let av = s.matvec(&v).unwrap();
            for k in 0..n {
                prop_assert!((av[k] - lam * v[k]).abs() < 1e-8 * s.norm_fro().max(1.0));
            }
        }
        // Trace identity.
        let trace: f64 = (0..n).map(|i| s[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
    }

    #[test]
    fn cg_agrees_with_dense_on_spd(a in spd_strategy()) {
        let n = a.rows();
        // Convert to sparse.
        let mut tb = TripletBuilder::new(n, n);
        for i in 0..n {
            for j in 0..n {
                tb.push(i, j, a[(i, j)]);
            }
        }
        let csr = tb.to_csr();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 5.0).collect();
        let sol = cg_solve(&csr, &b, &CgOptions::default()).unwrap();
        let dense = solve(&a, &b).unwrap();
        for (c, d) in sol.x.iter().zip(dense.iter()) {
            prop_assert!((c - d).abs() < 1e-5 * d.abs().max(1.0));
        }
    }

    #[test]
    fn dct_basis_orthonormal(h in 1usize..=6, w in 1usize..=6, frac in 0.1..1.0f64) {
        let n = h * w;
        let k = ((n as f64 * frac).ceil() as usize).clamp(1, n);
        let basis = dct2_basis(h, w, k).unwrap();
        let gram = basis.tr_matmul(&basis).unwrap();
        prop_assert!(gram.sub(&Matrix::identity(k)).unwrap().norm_max() < 1e-10);
    }

    #[test]
    fn dct_lowpass_is_a_projection(h in 2usize..=5, w in 2usize..=5) {
        let n = h * w;
        let k = n / 2 + 1;
        let x: Vec<f64> = (0..n).map(|i| ((i * 3) as f64).cos()).collect();
        let y = dct2_lowpass(&x, h, w, k).unwrap();
        let yy = dct2_lowpass(&y, h, w, k).unwrap();
        // Projection idempotence: P(Px) = Px.
        for (a, b) in y.iter().zip(yy.iter()) {
            prop_assert!((a - b).abs() < 1e-10);
        }
        // Projection never increases energy.
        prop_assert!(vecops::norm2(&y) <= vecops::norm2(&x) + 1e-10);
    }

    #[test]
    fn lu_solve_roundtrip(a in spd_strategy()) {
        // SPD is a convenient source of well-conditioned square matrices.
        let n = a.rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = solve(&a, &b).unwrap();
        for (u, v) in x.iter().zip(x_true.iter()) {
            prop_assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn pca_subspace_beats_random_subspace(seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Planted 2-mode data in 6 dims + noise floor.
        let t = 120;
        let data = Matrix::from_fn(t, 6, |i, j| {
            let s1 = ((i as f64) * 0.31).sin() * [3.0, 1.0, 0.0, -1.0, 0.5, 0.2][j];
            let s2 = ((i as f64) * 0.11).cos() * [0.0, 1.0, 2.0, 0.3, -0.7, 1.1][j];
            s1 + s2 + 0.01 * rng.gen::<f64>()
        });
        let pca = Pca::fit_exact(&data, 2).unwrap();

        // Empirical MSE of the PCA subspace...
        let pca_err: f64 = (0..t)
            .map(|i| {
                let x = data.row(i);
                let xh = pca.approximate(x, 2).unwrap();
                vecops::norm2_sq(&vecops::sub(x, &xh))
            })
            .sum();

        // ... must beat a random 2-dim subspace (orthonormalized gaussian).
        let g = Matrix::from_fn(6, 2, |_, _| rng.gen::<f64>() - 0.5);
        let q = orthonormalize(&g).unwrap();
        let mean = pca.mean().to_vec();
        let rand_err: f64 = (0..t)
            .map(|i| {
                let x = vecops::sub(data.row(i), &mean);
                let c = q.tr_matvec(&x).unwrap();
                let xh = q.matvec(&c).unwrap();
                vecops::norm2_sq(&vecops::sub(&x, &xh))
            })
            .sum();
        prop_assert!(pca_err <= rand_err + 1e-9, "pca {pca_err} > random {rand_err}");
    }
}
