//! Criterion benchmarks for the numerical kernels underlying EigenMaps:
//! the dense factorizations, the DCT basis build, the sparse CG solve, the
//! thermal stepper's banded Cholesky, the PCA fit and the wire checksum.
//! These are the knobs that decide whether the method is usable inside a
//! DTM loop, or whether a batch reply is cheap to move, so we track them
//! explicitly.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eigenmaps_core::codec::crc32c;
use eigenmaps_floorplan::Floorplan;
use eigenmaps_linalg::prelude::*;
use eigenmaps_thermal::{GridSpec, ThermalModel};

fn basis_like(n: usize, k: usize) -> Matrix {
    // A deterministic dense matrix with smooth structure; the banded boost
    // keeps every size well-conditioned (pure sinusoids go numerically
    // rank deficient at square sizes).
    Matrix::from_fn(n, k, |i, j| {
        ((i as f64 + 1.0) * 0.37 + (j as f64 + 1.0) * 1.13).sin()
            + 0.1 * ((i * j) as f64 * 0.01).cos()
            + if i % k == j { 1.5 } else { 0.0 }
    })
}

fn bench_qr_lstsq(c: &mut Criterion) {
    let mut group = c.benchmark_group("qr_lstsq");
    for &(m, k) in &[(16usize, 16usize), (32, 16), (64, 32)] {
        let a = basis_like(m, k);
        let b: Vec<f64> = (0..m).map(|i| (i as f64).cos()).collect();
        group.bench_with_input(
            BenchmarkId::new("factor_and_solve", format!("{m}x{k}")),
            &a,
            |bch, a| {
                bch.iter(|| {
                    let qr = Qr::new(black_box(a)).unwrap();
                    black_box(qr.solve_lstsq(&b).unwrap())
                })
            },
        );
        let qr = Qr::new(&a).unwrap();
        group.bench_with_input(
            BenchmarkId::new("solve_only", format!("{m}x{k}")),
            &qr,
            |bch, qr| bch.iter(|| black_box(qr.solve_lstsq(&b).unwrap())),
        );
    }
    group.finish();
}

fn bench_svd_cond(c: &mut Criterion) {
    let mut group = c.benchmark_group("svd_condition_number");
    for &(m, k) in &[(16usize, 16usize), (32, 32), (64, 32)] {
        let a = basis_like(m, k);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{k}")),
            &a,
            |bch, a| bch.iter(|| black_box(Svd::new(black_box(a)).unwrap().cond())),
        );
    }
    group.finish();
}

fn bench_sym_eig(c: &mut Criterion) {
    let mut group = c.benchmark_group("sym_eig");
    for &n in &[16usize, 32, 64] {
        let base = basis_like(n, n);
        let sym = {
            let mut s = base.tr_matmul(&base).unwrap();
            s.scale_mut(1.0 / n as f64);
            s
        };
        group.bench_with_input(BenchmarkId::new("jacobi", n), &sym, |bch, s| {
            bch.iter(|| black_box(sym_eig(black_box(s)).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("ql_implicit", n), &sym, |bch, s| {
            bch.iter(|| black_box(sym_eig_ql(black_box(s)).unwrap()))
        });
    }
    group.finish();
}

fn bench_dct_basis(c: &mut Criterion) {
    let mut group = c.benchmark_group("dct2_basis");
    for &(h, w, k) in &[(28usize, 30usize, 16usize), (56, 60, 16), (56, 60, 32)] {
        group.bench_function(
            BenchmarkId::from_parameter(format!("{h}x{w}_k{k}")),
            |bch| bch.iter(|| black_box(dct2_basis(h, w, k).unwrap())),
        );
    }
    group.finish();
}

fn bench_cg(c: &mut Criterion) {
    let mut group = c.benchmark_group("cg_poisson");
    for &n in &[16usize, 32] {
        // 2-D Laplacian with a Dirichlet-like shift (SPD), n×n grid.
        let cells = n * n;
        let mut tb = TripletBuilder::new(cells, cells);
        for r in 0..n {
            for cidx in 0..n {
                let i = r * n + cidx;
                tb.push(i, i, 4.1);
                if r > 0 {
                    tb.push(i, i - n, -1.0);
                }
                if r + 1 < n {
                    tb.push(i, i + n, -1.0);
                }
                if cidx > 0 {
                    tb.push(i, i - 1, -1.0);
                }
                if cidx + 1 < n {
                    tb.push(i, i + 1, -1.0);
                }
            }
        }
        let a = tb.to_csr();
        let b: Vec<f64> = (0..cells).map(|i| ((i % 13) as f64) - 6.0).collect();
        group.bench_with_input(BenchmarkId::from_parameter(cells), &a, |bch, a| {
            bch.iter(|| black_box(cg_solve(a, &b, &CgOptions::default()).unwrap()))
        });
    }
    group.finish();
}

/// The dataset build's backward-Euler system `G + C/Δt` on the 28×30 T1
/// grid with the 4-layer default stack (3360 unknowns, half-bandwidth
/// 112): the one-off factorization, then one step's solve.
fn bench_transient_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("transient_step");
    group.sample_size(10);
    let (rows, cols, dt) = (28, 30, 0.05);
    let t1 = Floorplan::ultrasparc_t1();
    let grid = GridSpec::new(
        rows,
        cols,
        t1.die_width() / cols as f64,
        t1.die_height() / rows as f64,
    );
    let model = ThermalModel::with_default_stack(grid).unwrap();
    let system = model.step_matrix(dt);
    let order = model.band_order();
    let shape = format!("{rows}x{cols}x{}", model.layers().len());
    group.bench_function(BenchmarkId::new("factor", &shape), |bch| {
        bch.iter(|| black_box(BandCholesky::factor(black_box(&system), &order).unwrap()))
    });
    let factor = BandCholesky::factor(&system, &order).unwrap();
    let b = model.rhs(&vec![0.02; model.die_cells()]).unwrap();
    let mut x = vec![0.0; model.state_len()];
    group.bench_function(BenchmarkId::new("solve", &shape), |bch| {
        bch.iter(|| factor.solve_into(black_box(&b), black_box(&mut x)).unwrap())
    });
    group.finish();
}

/// The `EMWIRE2` trailer checksum, dispatched as the wire runs it, on a
/// 256-frame batch reply's 1.72 MB (three interleaved chains on SSE4.2)
/// and a step reply's 6.7 KB (one chain). Report-only.
fn bench_crc32c(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32c");
    for (label, len) in [
        ("batch_reply_1.72MB", 1_724_457),
        ("step_reply_6.7KB", 6_749),
    ] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + i / 7) as u8).collect();
        group.bench_function(label, |bch| {
            bch.iter(|| black_box(crc32c(black_box(&bytes))))
        });
    }
    group.finish();
}

fn bench_pca(c: &mut Criterion) {
    let mut group = c.benchmark_group("pca_fit");
    group.sample_size(10);
    // Moderate synthetic dataset: 300 samples of 840 dims (28×30 grid).
    let data = Matrix::from_fn(300, 840, |t, j| {
        let a = (t as f64 / 9.0).sin();
        let b = (t as f64 / 4.0).cos();
        a * ((j % 28) as f64 * 0.2).sin()
            + b * ((j / 28) as f64 * 0.17).cos()
            + 0.01 * ((t * j) as f64 * 0.001).sin()
    });
    group.bench_function("randomized_k16", |bch| {
        bch.iter(|| black_box(Pca::fit(&data, 16, &PcaOptions::default()).unwrap()))
    });
    group.bench_function("exact_k16_n120", |bch| {
        // Exact path only feasible on a smaller dimension.
        let small = Matrix::from_fn(300, 120, |t, j| data[(t, j)]);
        bch.iter(|| black_box(Pca::fit_exact(&small, 16).unwrap()))
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_qr_lstsq,
    bench_svd_cond,
    bench_sym_eig,
    bench_dct_basis,
    bench_cg,
    bench_transient_step,
    bench_crc32c,
    bench_pca
);
criterion_main!(kernels);
