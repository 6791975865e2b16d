//! Criterion benchmarks for the numerical kernels underlying EigenMaps:
//! the dense factorizations, the DCT basis build, one step of the thermal
//! stepper and the wire checksum. The PCA fit is benched on the
//! T1 ensemble in `pipeline.rs` (`eigenbasis_fit_840cells`).
//! These are the knobs that decide whether the method is usable inside a
//! DTM loop, or whether a batch reply is cheap to move, so we track them
//! explicitly.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eigenmaps_core::codec::crc32c;
use eigenmaps_floorplan::Floorplan;
use eigenmaps_linalg::prelude::*;
use eigenmaps_thermal::{GridSpec, ThermalModel, TransientSim};

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

/// One backward-Euler step of the dataset build on the 28×30 T1 grid with
/// the 4-layer default stack (3360 unknowns): the die power's DCT, 840
/// four-layer mode solves and the die map's inverse DCT.
fn bench_transient_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("transient_step");
    let (rows, cols, dt) = (28, 30, 0.05);
    let t1 = Floorplan::ultrasparc_t1();
    let grid = GridSpec::new(
        rows,
        cols,
        t1.die_width() / cols as f64,
        t1.die_height() / rows as f64,
    );
    let model = ThermalModel::with_default_stack(grid).unwrap();
    let shape = format!("{rows}x{cols}x{}", model.layers().len());
    let power: Vec<f64> = (0..rows * cols)
        .map(|i| 0.01 + 0.02 * ((i * 7 % 11) as f64 / 11.0))
        .collect();
    let mut sim = TransientSim::new(model, dt).unwrap();
    group.bench_function(BenchmarkId::new("step", &shape), |bch| {
        bch.iter(|| black_box(sim.step(black_box(&power)).unwrap()[0]))
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

criterion_group!(
    kernels,
    bench_qr_lstsq,
    bench_svd_cond,
    bench_sym_eig,
    bench_dct_basis,
    bench_transient_step,
    bench_crc32c
);
criterion_main!(kernels);
